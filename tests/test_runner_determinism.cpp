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
#include <cstring>
#include <fstream>
#include <memory>
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

/// The test's message check: `e` names "node <id>".
void expect_names_node(const InvariantError& e, int id) {
  EXPECT_NE(std::string(e.what()).find("node " + std::to_string(id)),
            std::string::npos)
      << e.what();
}

TEST(MonitoringScope, CountersOutsideTheScopeThrowNamingTheNode) {
  auto world = sim::make_voltrino_world();
  world->enable_monitoring(1.0, {3, 1});
  std::vector<sim::Task*> tasks;
  for (const int node : {1, 2, 3, 5}) {
    tasks.push_back(world->spawn_task(
        "t" + std::to_string(node), node, 0, sim::TaskProfile{},
        sim::Phase::compute(1e9),
        [](sim::Task&) { return sim::Phase::compute(1e9); }));
  }
  world->run_until(3.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int node = tasks[i]->node();
    const sim::World& const_world = *world;
    const sim::Task& const_task = *tasks[i];
    if (node == 1 || node == 3) {
      EXPECT_GT(world->node(node).counters().instructions, 0.0) << node;
      EXPECT_GT(tasks[i]->counters().instructions, 0.0) << node;
      continue;
    }
    try {
      (void)world->node(node).counters();
      ADD_FAILURE() << "node(" << node << ").counters() did not throw";
    } catch (const InvariantError& e) {
      expect_names_node(e, node);
    }
    EXPECT_THROW((void)const_world.node(node).counters(), InvariantError);
    try {
      (void)tasks[i]->counters();
      ADD_FAILURE() << "counters() of a task on node " << node
                    << " did not throw";
    } catch (const InvariantError& e) {
      expect_names_node(e, node);
    }
    EXPECT_THROW((void)const_task.counters(), InvariantError);
  }
  // An idle node outside the scope throws too, and the filesystem is
  // always integrated.
  EXPECT_THROW((void)world->node(7).counters(), InvariantError);
  (void)world->filesystem().counters();
}

/// A scenario that keeps every counter domain busy: CoMD on `app_nodes`
/// nodes, netoccupy between node 1 and the far half of the machine, and
/// metadata clients on node 2, run for 10 simulated seconds.
struct BusyWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<apps::BspApp> app;  ///< destroyed before the world
};

BusyWorld busy_world(const std::string& system, std::vector<int> monitored,
                     bool full_recompute) {
  BusyWorld out;
  out.world = system == "dragonfly1k" ? sim::make_dragonfly_world()
                                      : sim::make_voltrino_world();
  sim::World* world = out.world.get();
  world->set_full_recompute(full_recompute);
  world->enable_monitoring(1.0, std::move(monitored));
  const int n = world->num_nodes();
  simanom::inject_netoccupy(*world, 1, (1 + n / 2) % n, /*ntasks=*/2,
                            50.0 * 1024 * 1024, /*duration_s=*/8.0);
  simanom::inject_iometadata(*world, /*node=*/2, /*ntasks=*/2,
                             /*duration_s=*/6.0);
  apps::BspApp::Placement placement;
  const int app_nodes = n >= 64 ? 64 : 4;
  for (int i = 0; i < app_nodes; ++i)
    placement.nodes.push_back(i * (n / app_nodes));
  placement.ranks_per_node = 4;
  apps::AppSpec app_spec = apps::app_by_name("CoMD");
  app_spec.iterations = 1000000;
  out.app = std::make_unique<apps::BspApp>(*world, app_spec, placement);
  world->run_until(10.0);
  return out;
}

void expect_same_bits(double a, double b, const char* what, int node) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << what << " on node " << node << ": " << a << " vs " << b;
}

TEST(MonitoringScope, ScopedCountersMatchAnAllNodeWorldBitForBit) {
  for (const char* system : {"voltrino", "dragonfly1k"}) {
    for (const bool full : {false, true}) {
      // Node 0 hosts app ranks, node 1 sends, the far peer receives.
      const int n = std::string(system) == "dragonfly1k" ? 1024 : 8;
      const std::vector<int> scope = {0, 1, (1 + n / 2) % n};
      const BusyWorld scoped_run = busy_world(system, scope, full);
      const BusyWorld every_run = busy_world(system, {}, full);
      sim::World* scoped = scoped_run.world.get();
      sim::World* every = every_run.world.get();
      SCOPED_TRACE(std::string(system) + (full ? " full" : " incremental"));
      for (const int id : scope) {
        const sim::NodeCounters& a = scoped->node(id).counters();
        const sim::NodeCounters& b = every->node(id).counters();
        EXPECT_GT(a.instructions + a.nic_tx_bytes + a.nic_rx_bytes, 0.0)
            << id;
        expect_same_bits(a.cpu_user_seconds, b.cpu_user_seconds, "user", id);
        expect_same_bits(a.cpu_sys_seconds, b.cpu_sys_seconds, "sys", id);
        expect_same_bits(a.instructions, b.instructions, "instructions", id);
        expect_same_bits(a.l1_misses, b.l1_misses, "l1", id);
        expect_same_bits(a.l2_misses, b.l2_misses, "l2", id);
        expect_same_bits(a.l3_misses, b.l3_misses, "l3", id);
        expect_same_bits(a.dram_bytes, b.dram_bytes, "dram", id);
        expect_same_bits(a.nic_tx_bytes, b.nic_tx_bytes, "nic_tx", id);
        expect_same_bits(a.nic_rx_bytes, b.nic_rx_bytes, "nic_rx", id);
        expect_same_bits(a.pages_faulted, b.pages_faulted, "pgfault", id);
      }
      const sim::FsCounters& fa = scoped->filesystem().counters();
      const sim::FsCounters& fb = every->filesystem().counters();
      EXPECT_GT(fa.metadata_ops, 0.0);
      expect_same_bits(fa.metadata_ops, fb.metadata_ops, "fs metadata", -1);
      expect_same_bits(fa.bytes_read, fb.bytes_read, "fs read", -1);
      expect_same_bits(fa.bytes_written, fb.bytes_written, "fs write", -1);
      EXPECT_THROW((void)scoped->node(3).counters(), InvariantError);
    }
  }
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
