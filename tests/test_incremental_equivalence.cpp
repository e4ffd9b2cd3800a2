// Incremental-engine equivalence: the dirty-set rate recomputation and
// lazy counter integration (World's default) must be *byte-identical* to
// the reference full-recompute mode (set_full_recompute(true) /
// HPAS_FULL_RECOMPUTE=1), which re-solves every domain and integrates
// every counter on every event exactly like the original eager loop.
//
// Four layers of evidence, strongest first: the fig05 memleak trace
// (every event, rate, memory and sample record), a mixed scenario that
// keeps all three counter domains (node, network, filesystem) busy at
// once, a sparse workload on the 1k-node dragonfly preset, and a whole
// sweep output directory (CSVs + traces + summary) compared
// file-by-file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace fs = std::filesystem;

namespace {

std::string text_form(const hpas::trace::TraceFile& file) {
  std::ostringstream out;
  hpas::trace::write_text(out, file);
  return out.str();
}

/// The fig05 scenario from the golden-trace pin: a 20 MB/s memory leak on
/// node 0 for 20 simulated seconds, observed for 30 with 1 Hz sampling.
std::string memleak_trace(bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(1.0);
  hpas::simanom::inject_memleak(*world, /*node=*/0, /*core=*/0,
                                /*chunk_bytes=*/20.0 * 1024 * 1024,
                                /*chunk_interval_s=*/1.0,
                                /*duration_s=*/20.0);
  world->run_until(30.0);
  return text_form(capture.take());
}

/// All three counter domains at once: membw streaming on node 0 (node
/// domain), netoccupy flows between two nodes (network domain) and
/// metadata clients hammering the MDS (filesystem domain), overlapping in
/// time so phase transitions in one domain interleave with rate
/// recomputes in the others.
std::string mixed_trace(bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(0.5);
  hpas::simanom::inject_membw(*world, /*node=*/0, /*core=*/4,
                              /*duration_s=*/12.0, /*intensity=*/0.8);
  hpas::simanom::inject_netoccupy(*world, /*src=*/1, /*dst=*/2,
                                  /*ntasks=*/2,
                                  /*bytes_per_s=*/50.0 * 1024 * 1024,
                                  /*duration_s=*/10.0);
  hpas::simanom::inject_iometadata(*world, /*node=*/3, /*ntasks=*/2,
                                   /*duration_s=*/8.0);
  world->run_until(15.0);
  return text_form(capture.take());
}

TEST(IncrementalEquivalence, MemleakTraceIsByteIdentical) {
  const std::string incremental = memleak_trace(false);
  const std::string full = memleak_trace(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, full)
      << "incremental rate recomputation changed the fig05 trace bytes";
}

TEST(IncrementalEquivalence, MixedDomainTraceIsByteIdentical) {
  const std::string incremental = mixed_trace(false);
  const std::string full = mixed_trace(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, full)
      << "incremental mode diverged with node+network+fs domains active";
}

/// Sparse workload on the 1k-node dragonfly: compute/message cyclers on
/// every 16th node (64 tasks), peers a half-machine away so flows cross
/// groups. Sparse keeps the case inside the ctest budget; the topology,
/// not the task count, is what scales here -- full-recompute mode
/// re-solves all 1024 node domains on every event.
std::string dragonfly_trace(bool full_recompute) {
  auto world = hpas::sim::make_dragonfly_world();
  EXPECT_EQ(world->num_nodes(), 1024);
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  const int n = world->num_nodes();
  for (int id = 0; id < n; id += 16) {
    const int peer = (id + n / 2) % n;
    world->spawn_task("t" + std::to_string(id), id, 0,
                      hpas::sim::TaskProfile{}, hpas::sim::Phase::compute(0.5e9),
                      [peer](hpas::sim::Task& t) {
                        return t.phase().kind == hpas::sim::PhaseKind::kCompute
                                   ? hpas::sim::Phase::message(peer, 0.1e9)
                                   : hpas::sim::Phase::compute(0.5e9);
                      });
  }
  world->run_until(3.0);
  std::ostringstream out(std::ios::binary);
  hpas::trace::write_binary(out, capture.take());
  return out.str();
}

TEST(IncrementalEquivalence, DragonflyThousandNodeTraceIsByteIdentical) {
  const std::string incremental = dragonfly_trace(false);
  const std::string full = dragonfly_trace(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, full)
      << "incremental mode diverged on the 1k-node dragonfly";
}

// --- whole-sweep directory comparison ---------------------------------

hpas::runner::SweepGrid equivalence_grid() {
  // fig08-shaped but shortened: one app, anomalies covering the CPU,
  // memory-bandwidth and network domains, fixed monitoring window.
  hpas::runner::SweepGrid grid;
  grid.name = "equivalence_grid";
  int index = 0;
  for (const char* anomaly : {"none", "membw", "netoccupy", "memleak"}) {
    hpas::runner::ScenarioSpec spec;
    spec.name = "eq_" + std::string(anomaly);
    spec.app = "CoMD";
    spec.anomaly = anomaly;
    spec.duration_s = 10.0;
    spec.sample_period_s = 1.0;
    spec.seed = hpas::runner::derive_scenario_seed(
        11, static_cast<std::uint64_t>(index++));
    grid.scenarios.push_back(spec);
  }
  return grid;
}

std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(IncrementalEquivalence, SweepOutputDirectoryIsByteIdentical) {
  const fs::path base =
      fs::path(::testing::TempDir()) /
      ("hpas_equivalence_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  const fs::path inc_dir = base / "incremental";
  const fs::path full_dir = base / "full";
  fs::remove_all(base);

  // Worlds read HPAS_FULL_RECOMPUTE at construction; single-threaded
  // sweeps keep the setenv/run/unsetenv sequence race-free.
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  const auto incremental = hpas::runner::run_sweep(
      equivalence_grid(), {.threads = 1, .capture_traces = true});
  ASSERT_TRUE(incremental.ok()) << incremental.first_error();
  hpas::runner::write_outputs(incremental, inc_dir.string());

  ::setenv("HPAS_FULL_RECOMPUTE", "1", 1);
  const auto full = hpas::runner::run_sweep(
      equivalence_grid(), {.threads = 1, .capture_traces = true});
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  ASSERT_TRUE(full.ok()) << full.first_error();
  hpas::runner::write_outputs(full, full_dir.string());

  const auto inc_files = read_dir(inc_dir);
  const auto full_files = read_dir(full_dir);
  ASSERT_GT(inc_files.size(), 4u);  // CSVs + traces + summary.json
  ASSERT_EQ(inc_files.size(), full_files.size());
  for (const auto& [name, bytes] : inc_files) {
    const auto it = full_files.find(name);
    ASSERT_NE(it, full_files.end()) << name << " missing from full mode";
    EXPECT_EQ(bytes, it->second)
        << name << " differs between incremental and full recompute";
  }
  fs::remove_all(base);
}

}  // namespace
