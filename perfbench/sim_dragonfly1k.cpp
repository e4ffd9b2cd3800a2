// sim_dragonfly1k: `hpas sweep --resume`-capable sweeps of a few long
// scenarios on the 1024-node dragonfly preset at one worker thread, so one
// big scenario's host time is the result. World build is a visible share
// of each scenario, so both a set-up change and an engine change show.
//
// Untraced: repeated run_sweep (with its journal) + write_outputs into a
// fresh directory. Traced: one sweep, then the same scenarios re-assembled
// from run_scenario (timing sink + inspect hook), the per-scenario CSV
// write, JournalWriter::append and write_outputs, with a clock around each
// call; its summary.json and CSVs must match the sweep's byte for byte.
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "thermometer.hpp"
#include "common/cancel.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

using hpas::Json;

constexpr int kAppNodes = 64;
/// Set-up probes after every sweep, so they spread over the measuring
/// window and see the same phases of the host as the sweeps.
constexpr int kSetupProbesPerSweep = 2;
/// A thermometer pass (~20 ms) after a sweep when none ran for this long.
constexpr double kThermometerIntervalS = 2.0;

const char* const kApps[] = {"CoMD", "milc", "miniAMR", "sw4lite"};
const char* const kAnomalies[] = {"none", "netoccupy", "membw", "iometadata"};

/// One 120 s scenario per anomaly, each with its own app. The seed draws
/// the intensities (0.75-1.0) and the grid's base seed -- the random
/// streams -- but not the mix, so every seed asks for the same work.
hpas::runner::SweepGrid make_grid(std::uint64_t seed) {
  hpas::Rng rng(hpas::runner::derive_scenario_seed(seed, 0x44524147ULL));
  hpas::runner::SweepGrid grid;
  grid.name = "perfbench_dragonfly1k";
  grid.base_seed = rng.next();
  for (std::size_t i = 0; i < std::size(kAnomalies); ++i) {
    hpas::runner::ScenarioSpec spec;
    spec.system = "dragonfly1k";
    spec.app = kApps[i];
    spec.anomaly = kAnomalies[i];
    spec.name = spec.app + "-" + spec.anomaly;
    spec.intensity = rng.uniform(0.75, 1.0);
    spec.duration_s = 120.0;
    spec.sample_period_s = 1.0;
    spec.app_nodes = kAppNodes;
    spec.seed = hpas::runner::derive_scenario_seed(grid.base_seed, i);
    grid.scenarios.push_back(std::move(spec));
  }
  return grid;
}

std::vector<std::string> output_files(const hpas::runner::SweepGrid& grid) {
  std::vector<std::string> names = {"summary.json"};
  for (const hpas::runner::ScenarioSpec& spec : grid.scenarios)
    names.push_back(spec.name + ".csv");
  return names;
}

/// Cancels its token at the first (t=0) sample, so a run stops right
/// after world build and monitoring set-up.
class StopAtFirstSample final : public hpas::metrics::SampleSink {
 public:
  explicit StopAtFirstSample(hpas::CancelToken& token) : token_(token) {}
  void on_sample(const hpas::metrics::MetricId&, double, double) override {
    if (!seen_) first_ = Clock::now();
    seen_ = true;
    token_.cancel(hpas::CancelReason::kShutdown);
  }
  Clock::time_point first() const { return first_; }

 private:
  hpas::CancelToken& token_;
  bool seen_ = false;
  Clock::time_point first_{};
};

/// Grid generation up to the first scenario's t=0 sample.
double measure_setup(std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const hpas::runner::SweepGrid grid = make_grid(seed);
  hpas::CancelToken token;
  StopAtFirstSample probe(token);
  hpas::runner::run_scenario(grid.scenarios.front(), false, &token, 0, {},
                             &probe);
  return seconds_between(t0, probe.first());
}

double simulated_seconds(const hpas::runner::SweepGrid& grid) {
  double total = 0.0;
  for (const hpas::runner::ScenarioSpec& spec : grid.scenarios)
    total += spec.duration_s;
  return total;
}

/// Host times of one untraced `hpas sweep -o dir`: each scenario's, and
/// the sweep's own work around them (journal, output files, summary).
struct SweepTimes {
  std::vector<double> scenario_s;  ///< grid order
  double outside_s = 0;
};

SweepTimes sweep_once(const hpas::runner::SweepGrid& grid,
                      const std::string& dir, Report& report) {
  const Clock::time_point t0 = Clock::now();
  hpas::runner::SweepOptions options;
  options.threads = 1;
  options.journal_path = dir + "/sweep.journal";
  const hpas::runner::SweepResult result =
      hpas::runner::run_sweep(grid, options);
  hpas::runner::write_outputs(result, dir);
  SweepTimes times;
  times.outside_s = seconds_between(t0, Clock::now());
  for (const hpas::runner::ScenarioResult& s : result.scenarios) {
    times.scenario_s.push_back(s.wall_seconds);
    times.outside_s -= s.wall_seconds;
  }
  report.attempted += result.scenarios.size();
  report.failed +=
      result.scenarios.size() -
      result.count(hpas::runner::ScenarioStatus::kDone);
  return times;
}

struct TracedSweep {
  double wall = 0, build = 0, advance = 0, teardown = 0;
  double csv_write = 0, journal = 0, summary = 0;
  std::uint64_t events = 0, samples = 0, csv_bytes = 0;
};

void write_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw hpas::SystemError("perfbench: cannot write " + tmp);
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                  bytes.size();
  if (std::fclose(f) != 0 || !ok)
    throw hpas::SystemError("perfbench: short write to " + tmp);
  std::filesystem::rename(tmp, path);
}

TracedSweep traced_sweep(const hpas::runner::SweepGrid& grid,
                         const std::string& dir) {
  TracedSweep out;
  const Clock::time_point t0 = Clock::now();
  make_dirs(dir);
  hpas::runner::JournalWriter journal(dir + "/sweep.journal",
                                      /*truncate=*/true);
  hpas::runner::SweepResult result;
  result.grid_name = grid.name;
  for (const hpas::runner::ScenarioSpec& spec : grid.scenarios) {
    TimingSink sink;
    Clock::time_point t_inspect{};
    std::uint64_t events = 0;
    hpas::CancelToken token;  // run_sweep always passes one
    const Clock::time_point r0 = Clock::now();
    hpas::runner::ScenarioResult s = hpas::runner::run_scenario(
        spec, false, &token, 0,
        [&](hpas::sim::World& world) {
          t_inspect = Clock::now();
          events = world.simulator().epochs();
        },
        &sink);
    const Clock::time_point r_run = Clock::now();
    s.wall_seconds = seconds_between(r0, r_run);
    if (s.status != hpas::runner::ScenarioStatus::kDone)
      throw hpas::SystemError("perfbench: " + spec.name + " did not complete");
    write_atomic(dir + "/" + spec.name + ".csv", s.metrics_csv);
    const Clock::time_point r_csv = Clock::now();
    hpas::runner::JournalRecord record;
    record.key_hash = hpas::runner::scenario_key_hash(spec);
    record.name = spec.name;
    record.output = spec.name + ".csv";
    record.csv_crc = hpas::crc32(s.metrics_csv);
    record.app_iterations = static_cast<std::uint64_t>(s.app_iterations);
    record.app_elapsed_s = s.app_elapsed_s;
    record.wall_seconds = s.wall_seconds;
    journal.append(record);
    const Clock::time_point r_end = Clock::now();

    out.build += seconds_between(r0, sink.first_sample());
    out.advance += seconds_between(sink.first_sample(), t_inspect);
    out.teardown += seconds_between(t_inspect, r_run);
    out.csv_write += seconds_between(r_run, r_csv);
    out.journal += seconds_between(r_csv, r_end);
    out.events += events;
    out.samples += sink.samples();
    out.csv_bytes += s.metrics_csv.size();
    result.scenarios.push_back(std::move(s));
    ++result.executed;
  }
  const Clock::time_point t_out = Clock::now();
  hpas::runner::write_outputs(result, dir);
  const Clock::time_point t_end = Clock::now();
  out.summary = seconds_between(t_out, t_end);
  out.wall = seconds_between(t0, t_end);
  return out;
}

}  // namespace

Report run_sim_dragonfly1k(const Args& args) {
  Thermometer thermometer(1);
  Report report;
  const hpas::runner::SweepGrid grid = make_grid(args.seed);
  const double sim_seconds = simulated_seconds(grid);
  report.config.set("threads", 1);
  report.config.set("scenarios",
                    Json(static_cast<std::uint64_t>(grid.scenarios.size())));
  report.config.set("app_nodes", kAppNodes);
  report.config.set("simulated_s_per_sweep", sim_seconds);

  const std::string ref_dir = args.workdir + "/sweep";
  std::vector<SweepTimes> sweeps;
  std::vector<double> setups;
  std::string summary;
  bool repeat_identical = true;
  thermometer.pass();
  const Clock::time_point start = Clock::now();
  const std::size_t min_sweeps = 3;
  while (sweeps.size() < min_sweeps ||
         (!args.trace &&
          seconds_between(start, Clock::now()) < args.seconds)) {
    remove_tree(ref_dir);
    sweeps.push_back(sweep_once(grid, ref_dir, report));
    const std::string bytes = read_file(ref_dir + "/summary.json");
    if (summary.empty()) summary = bytes;
    repeat_identical = repeat_identical && bytes == summary;
    for (int i = 0; i < kSetupProbesPerSweep; ++i)
      setups.push_back(measure_setup(args.seed));
    thermometer.pass_every(kThermometerIntervalS);
  }
  thermometer.pass();
  const double raw_setup_s = median(setups);
  report.check("sweep.all_done", report.failed == 0,
               std::to_string(report.failed) + " scenario(s) not done");
  report.check("sweep.repeat_identical", repeat_identical,
               "every sweep's summary.json is byte-identical");
  report.pinned_dir = "sweep";

  // A typical sweep, built from medians: each scenario's median host time
  // plus the median time the sweep spends around them. Host speed on a
  // shared box wanders by +-15% from one scenario to the next, so medians
  // over single scenarios settle far sooner than whole-sweep walls.
  double typical_s = 0;
  std::vector<double> all_ms, outside;
  for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
    std::vector<double> times;
    for (const SweepTimes& t : sweeps) {
      times.push_back(t.scenario_s[i]);
      all_ms.push_back(t.scenario_s[i] * 1e3);
    }
    typical_s += median(times);
  }
  for (const SweepTimes& t : sweeps) outside.push_back(t.outside_s);
  typical_s += median(outside);
  const double sim_s_per_wall_s = sim_seconds / (typical_s - raw_setup_s);
  const double scenario_p50_ms = median(all_ms);
  const double slowdown = thermometer.slowdown(args.host_reference_ms);

  report.end_to_end.set("setup_s", raw_setup_s / slowdown);
  report.end_to_end.set("throughput_per_s", sim_s_per_wall_s * slowdown);
  report.named.set("sim_s_per_wall_s", sim_s_per_wall_s);
  report.named.set("setup_raw_s", raw_setup_s);
  report.named.set("host_pass_ms", thermometer.median_ms());
  report.named.set("host_passes",
                   Json(static_cast<std::uint64_t>(thermometer.passes())));
  report.named.set("scenario_p50_ms", scenario_p50_ms);
  report.named.set("typical_sweep_ms", typical_s * 1e3);
  report.named.set("sweeps", Json(static_cast<std::uint64_t>(sweeps.size())));

  if (args.trace) {
    const std::string traced_dir = args.workdir + "/sweep-traced";
    remove_tree(traced_dir);
    const TracedSweep t = traced_sweep(grid, traced_dir);
    const std::string diff =
        first_difference(ref_dir, traced_dir, output_files(grid));
    report.check("sweep.traced_identical", diff.empty(),
                 diff.empty() ? "traced summary.json and CSVs match"
                              : "traced output differs: " + diff);
    const double accounted = t.build + t.advance + t.teardown + t.csv_write +
                             t.journal + t.summary;
    hpas::Json& l = report.layers;
    l.set("sim.build_s", t.build);
    l.set("sim.advance_s", t.advance);
    l.set("sim.teardown_s", t.teardown);
    l.set("sim.events", Json(t.events));
    l.set("sim.events_per_s", static_cast<double>(t.events) / t.advance);
    l.set("sim.samples", Json(t.samples));
    l.set("metrics.csv_bytes", static_cast<double>(t.csv_bytes) /
                                   static_cast<double>(grid.scenarios.size()));
    l.set("runner.pool_busy_frac",
          (t.build + t.advance + t.teardown) / t.wall);
    l.set("runner.journal_append_s", t.journal);
    l.set("runner.write_outputs_s", t.csv_write + t.summary);
    std::vector<double> walls;
    for (const SweepTimes& sw : sweeps) {
      double wall = sw.outside_s;
      for (double x : sw.scenario_s) wall += x;
      walls.push_back(wall);
    }
    l.set("trace_overhead_frac", t.wall / median(walls) - 1.0);
    l.set("layers_unaccounted_frac", (t.wall - accounted) / t.wall);
  }
  report.end_to_end.set("peak_rss_mib", peak_rss_mib());
  return report;
}

}  // namespace perfbench
