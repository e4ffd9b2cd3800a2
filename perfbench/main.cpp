// perfbench_workloads: runs one benchmark workload against the HPAS
// libraries and prints one JSON report as its last stdout line. run.py
// builds this binary, calls it, checks the report and formats the result.
//
//   perfbench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                    --workdir DIR --latency-limit-ms MS --host-reference-ms MS
//
// With --thermometer alone it is the host speed thermometer's child (see
// thermometer.hpp).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "thermometer.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--latency-limit-ms")
      args.latency_limit_ms = std::stod(value);
    else if (flag == "--host-reference-ms")
      args.host_reference_ms = std::stod(value);
    else return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.workdir.empty() &&
         args.seconds > 0 && args.latency_limit_ms > 0 &&
         args.host_reference_ms > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--thermometer")
    return perfbench::thermometer_main();
  // A dead thermometer child must surface as an error, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  try {
    if (!parse(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: perfbench_workloads --workload NAME --seed N "
                   "--seconds S --trace 0|1 --workdir DIR "
                   "--latency-limit-ms MS --host-reference-ms MS\n");
      return 2;
    }
    perfbench::Report report;
    if (args.workload == "dataset_voltrino")
      report = perfbench::run_dataset_voltrino(args);
    else if (args.workload == "sim_dragonfly1k")
      report = perfbench::run_sim_dragonfly1k(args);
    else if (args.workload == "serve_mixed")
      report = perfbench::run_serve_mixed(args);
    else {
      std::fprintf(stderr, "perfbench_workloads: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    hpas::Json doc = hpas::Json::object();
    doc.set("workload", args.workload);
    doc.set("seed", std::to_string(args.seed));
    doc.set("trace", args.trace);
    doc.set("config", report.config);
    doc.set("attempted", hpas::Json(report.attempted));
    doc.set("failed", hpas::Json(report.failed));
    doc.set("checks", report.checks);
    doc.set("end_to_end", report.end_to_end);
    doc.set("named", report.named);
    doc.set("layers", report.layers);
    doc.set("pinned_dir", report.pinned_dir);
    std::printf("%s\n", doc.dump().c_str());
    return report.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
