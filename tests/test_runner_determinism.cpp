// Reproducibility regression tests for the experiment runner.
//
// The runner's contract: a sweep's outputs (per-scenario CSVs + JSON
// summary) are byte-identical at any thread count, including 1, and
// stable across releases for a fixed grid. The cross-thread checks run
// the same grid at 1 / 2 / 5 workers; the golden-file check pins the
// exact bytes under tests/golden/ (regenerate with
// HPAS_UPDATE_GOLDEN=1 after an intentional model change).
#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "metrics/csv.hpp"
#include "runner/diagnosis_sweep.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace hpas::runner {
namespace {

Json small_grid_spec() {
  Json spec = Json::object();
  spec.set("name", "determinism_grid");
  spec.set("system", "voltrino");
  spec.set("seed", 1234.0);
  spec.set("duration_s", 30.0);
  spec.set("sample_period_s", 1.0);
  Json apps = Json::array();
  for (const char* a : {"CoMD", "milc"}) apps.push_back(a);
  spec.set("apps", std::move(apps));
  Json anomalies = Json::array();
  for (const char* a : {"none", "cpuoccupy", "membw", "memleak"})
    anomalies.push_back(a);
  spec.set("anomalies", std::move(anomalies));
  Json intensities = Json::array();
  intensities.push_back(0.5);
  intensities.push_back(1.0);
  spec.set("intensities", std::move(intensities));
  spec.set("repeats", 1.0);
  return spec;
}

std::string concat_outputs(const SweepResult& result) {
  std::ostringstream out;
  out << result.summary_json().dump(2) << '\n';
  for (const auto& s : result.scenarios)
    out << "== " << s.spec.name << " ==\n" << s.metrics_csv;
  return out.str();
}

TEST(GridExpansion, IsDeterministic) {
  const auto a = expand_grid(small_grid_spec());
  const auto b = expand_grid(small_grid_spec());
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  ASSERT_EQ(a.scenarios.size(), 16u);  // 2 apps x 4 anomalies x 2 x 1
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].name, b.scenarios[i].name);
    EXPECT_EQ(a.scenarios[i].seed, b.scenarios[i].seed);
  }
}

TEST(GridExpansion, SeedsAreCounterBasedNotSequential) {
  // Scenario i's seed depends only on (base_seed, i): dropping scenarios
  // in front of it must not change it.
  EXPECT_EQ(derive_scenario_seed(42, 7), derive_scenario_seed(42, 7));
  EXPECT_NE(derive_scenario_seed(42, 7), derive_scenario_seed(42, 8));
  EXPECT_NE(derive_scenario_seed(42, 7), derive_scenario_seed(43, 7));
}

TEST(RunScenario, ReservedArgumentAcceptsOnlyZeroOrOne) {
  // The fourth parameter is kept for positional callers; 0 and 1 both run
  // the one serial engine, anything else is a configuration error.
  ScenarioSpec spec = expand_grid(small_grid_spec()).scenarios.front();
  spec.duration_s = 5.0;
  const ScenarioResult reference = run_scenario(spec, /*capture_trace=*/true);
  ASSERT_EQ(reference.status, ScenarioStatus::kDone) << reference.error;
  for (const int reserved : {0, 1}) {
    const ScenarioResult run =
        run_scenario(spec, /*capture_trace=*/true, nullptr, reserved);
    EXPECT_EQ(run.metrics_csv, reference.metrics_csv) << reserved;
    EXPECT_EQ(run.trace_bin, reference.trace_bin) << reserved;
  }
  EXPECT_THROW(run_scenario(spec, false, nullptr, 2), ConfigError);
  EXPECT_THROW(run_scenario(spec, false, nullptr, -1), ConfigError);
}

struct NodeZeroOutputs {
  std::string csv;
  std::string trace_bin;
};

/// run_scenario's netoccupy + app scenario rebuilt by hand, except that
/// this world monitors every node rather than only node 0.
NodeZeroOutputs run_monitoring_every_node(const ScenarioSpec& spec) {
  auto world = spec.system == "dragonfly1k" ? sim::make_dragonfly_world()
                                            : sim::make_voltrino_world();
  trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(spec.sample_period_s);
  const int n = world->num_nodes();
  simanom::inject_netoccupy(*world, 1 % n, (1 + n / 2) % n, /*ntasks=*/2,
                            spec.intensity * 100.0 * 1024 * 1024,
                            spec.duration_s);
  apps::AppSpec app_spec = apps::app_by_name(spec.app);
  app_spec.iterations = 1000000;
  apps::BspApp::Placement placement;
  for (int i = 0; i < spec.app_nodes; ++i)
    placement.nodes.push_back(i * (n / spec.app_nodes));
  placement.ranks_per_node = spec.ranks_per_node;
  apps::BspApp app(*world, app_spec, placement);
  world->run_until(spec.duration_s);
  for (int i = 0; i < n; ++i)
    EXPECT_TRUE(world->node_store(i).contains({"user", "procstat"})) << i;

  NodeZeroOutputs out;
  std::ostringstream csv;
  metrics::write_csv(csv, world->node_store(0));
  out.csv = csv.str();
  std::ostringstream bin(std::ios::binary);
  trace::write_binary(bin, capture.take());
  out.trace_bin = bin.str();
  return out;
}

TEST(MonitoringScope, NodeZeroOutputsMatchMonitoringEveryNode) {
  // run_scenario monitors only node 0, the one node it reads. The CSV and
  // the trace must not be able to tell.
  for (const char* system : {"voltrino", "dragonfly1k"}) {
    ScenarioSpec spec;
    spec.name = std::string("scope_") + system;
    spec.system = system;
    spec.app = "CoMD";
    spec.anomaly = "netoccupy";
    spec.duration_s = 12.0;
    spec.seed = derive_scenario_seed(99, 0);
    const ScenarioResult run = run_scenario(spec, /*capture_trace=*/true);
    ASSERT_EQ(run.status, ScenarioStatus::kDone) << run.error;
    const NodeZeroOutputs reference = run_monitoring_every_node(spec);
    EXPECT_FALSE(reference.csv.empty());
    EXPECT_EQ(run.metrics_csv, reference.csv) << system;
    EXPECT_EQ(run.trace_bin, reference.trace_bin) << system;
  }
}

TEST(MonitoringScope, UnmonitoredNodesAndBadListsAreRejected) {
  auto world = sim::make_voltrino_world();
  world->enable_monitoring(1.0, {3, 1});
  world->run_until(2.0);
  EXPECT_TRUE(world->node_store(3).contains({"user", "procstat"}));
  EXPECT_TRUE(world->node_store(1).contains({"user", "procstat"}));
  for (const int id : {0, 2, 7, -1, 8}) {
    try {
      world->node_store(id);
      ADD_FAILURE() << "node_store(" << id << ") did not throw";
    } catch (const InvariantError& e) {
      EXPECT_NE(std::string(e.what()).find("node " + std::to_string(id)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(sim::make_voltrino_world()->enable_monitoring(1.0, {8}),
               InvariantError);
  EXPECT_THROW(sim::make_voltrino_world()->enable_monitoring(1.0, {-1}),
               InvariantError);
  EXPECT_THROW(sim::make_voltrino_world()->enable_monitoring(1.0, {2, 5, 2}),
               InvariantError);
  EXPECT_THROW(world->enable_monitoring(1.0, {0}), InvariantError);
}

TEST(SweepDeterminism, ByteIdenticalAcrossThreadCounts) {
  const auto grid = expand_grid(small_grid_spec());
  const auto serial = run_sweep(grid, {.threads = 1});
  ASSERT_TRUE(serial.ok()) << serial.first_error();
  const std::string reference = concat_outputs(serial);
  for (const int threads : {2, 5}) {
    const auto parallel =
        run_sweep(grid, {.threads = threads, .queue_capacity = 4});
    ASSERT_TRUE(parallel.ok()) << parallel.first_error();
    EXPECT_EQ(concat_outputs(parallel), reference)
        << "sweep diverged at " << threads << " threads";
  }
}

TEST(SweepDeterminism, RepeatedRunsAgree) {
  const auto grid = expand_grid(small_grid_spec());
  const auto first = run_sweep(grid, {.threads = 3});
  const auto second = run_sweep(grid, {.threads = 3});
  EXPECT_EQ(concat_outputs(first), concat_outputs(second));
}

// Golden pin: the full output bytes of a fixed small grid. Catches both
// accidental nondeterminism and silent model drift. HPAS_UPDATE_GOLDEN=1
// rewrites the file (then inspect the diff and commit deliberately).
TEST(SweepDeterminism, MatchesGoldenFile) {
  const std::string path =
      std::string(HPAS_GOLDEN_DIR) + "/sweep_determinism_grid.txt";
  const auto result = run_sweep(expand_grid(small_grid_spec()), {.threads = 2});
  ASSERT_TRUE(result.ok()) << result.first_error();
  const std::string actual = concat_outputs(result);

  if (std::getenv("HPAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " (regenerate with HPAS_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "sweep output drifted from tests/golden/sweep_determinism_grid.txt;"
         " if the model change is intentional, regenerate with"
         " HPAS_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(SweepDeterminism, SummaryCarriesSeedsAndStats) {
  const auto result = run_sweep(expand_grid(small_grid_spec()), {.threads = 2});
  const Json summary = result.summary_json();
  EXPECT_EQ(summary.find("grid")->as_string(), "determinism_grid");
  EXPECT_EQ(summary.number_or("scenario_count", 0.0), 16.0);
  const auto& rows = summary.find("scenarios")->as_array();
  ASSERT_EQ(rows.size(), 16u);
  // 64-bit seeds are serialized as strings (doubles can't hold them).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].find("seed")->as_string(),
              std::to_string(result.scenarios[i].spec.seed));
  }
  const auto& groups = summary.find("by_anomaly")->as_array();
  ASSERT_EQ(groups.size(), 4u);  // first-appearance order
  EXPECT_EQ(groups[0].find("anomaly")->as_string(), "none");
  for (const auto& g : groups) {
    EXPECT_GT(g.number_or("median_s", 0.0), 0.0);
    EXPECT_GE(g.number_or("p95_s", 0.0), g.number_or("median_s", 0.0));
  }
}

TEST(DiagnosisSweep, ParallelMatchesSerialGenerator) {
  // Small but non-trivial: 6 classes x 8 apps x 1 variant = 48 runs.
  ml::DiagnosisDataOptions options;
  options.variants_per_app = 1;
  options.run_duration_s = 20.0;
  options.warmup_s = 2.0;

  const auto serial = ml::generate_diagnosis_dataset(options);
  const auto parallel = generate_diagnosis_dataset_parallel(options, 4);
  EXPECT_EQ(serial.labels, parallel.labels);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.values(), parallel.values()) << "feature rows diverged";
  EXPECT_EQ(serial.class_names, parallel.class_names);
  EXPECT_EQ(serial.feature_names, parallel.feature_names);
}

}  // namespace
}  // namespace hpas::runner
