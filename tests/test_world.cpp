// Integration tests for the World: fluid-DES timing, phase transitions,
// memory/OOM, monitoring, and determinism (including bit-exact output
// under arbitrary run_until splits).
#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/cluster.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace hpas::sim {
namespace {

World make_small_world() {
  return World(NodeConfig{}, Topology::two_tier(2, 2, 10e9, 18e9),
               FsConfig{});
}

TEST(World, SleepPhaseTimingIsExact) {
  World world = make_small_world();
  int wakes = 0;
  world.spawn_task("sleeper", 0, 0, TaskProfile{}, Phase::sleep(2.5),
                   [&wakes](Task&) {
                     ++wakes;
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_EQ(wakes, 1);
}

TEST(World, ComputeDurationMatchesRates) {
  World world = make_small_world();
  TaskProfile profile;
  profile.ips_peak = 2.0e9;
  profile.m1_base = 0; profile.m1_max = 0;
  profile.m2_base = 0; profile.m2_max = 0;
  profile.m3_base = 0; profile.m3_max = 0;
  double finish_time = -1.0;
  // 4e9 instructions at 2e9 instr/s (no stalls, dedicated core) = 2 s.
  world.spawn_task("burner", 0, 0, profile, Phase::compute(4.0e9),
                   [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 2.0, 1e-6);
}

TEST(World, MessageTransferTimeIncludesLatencyAndBandwidth) {
  World world = make_small_world();
  TaskProfile profile;
  profile.msg_latency_s = 1e-3;
  double finish_time = -1.0;
  // 10 GB over the 10 GB/s NIC (intra-switch) = 1 s + 1 ms latency.
  world.spawn_task("sender", 0, 0, profile, Phase::message(1, 10.0e9),
                   [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 1.001, 1e-6);
}

TEST(World, IoPhaseUsesFilesystem) {
  World world(NodeConfig{}, Topology::star(2, 1e9),
              FsConfig{.metadata_ops_per_s = 1000,
                       .disk_write_bw = 100e6,
                       .disk_read_bw = 100e6,
                       .dedicated_mds = true,
                       .metadata_disk_cost_s = 0.0});
  double finish_time = -1.0;
  world.spawn_task("writer", 0, 0, TaskProfile{},
                   Phase::io(IoKind::kWrite, 200e6), [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 2.0, 1e-6);
  EXPECT_NEAR(world.filesystem().counters().bytes_written, 200e6, 1e3);
}

TEST(World, PhaseChainsRunInSequence) {
  World world = make_small_world();
  std::vector<PhaseKind> seen;
  world.spawn_task("chain", 0, 0, TaskProfile{}, Phase::sleep(1.0),
                   [&](Task& task) {
                     seen.push_back(task.phase().kind);
                     switch (seen.size()) {
                       case 1: return Phase::compute(1e9);
                       case 2: return Phase::message(1, 1e9);
                       case 3: return Phase::io(IoKind::kRead, 1e6);
                       default: return Phase::done();
                     }
                   });
  world.run_until(100.0);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], PhaseKind::kSleep);
  EXPECT_EQ(seen[1], PhaseKind::kCompute);
  EXPECT_EQ(seen[2], PhaseKind::kMessage);
  EXPECT_EQ(seen[3], PhaseKind::kIo);
}

TEST(World, IdleTasksWakeOnExternalSetPhase) {
  World world = make_small_world();
  bool woke = false;
  Task* idler = world.spawn_task("idler", 0, 0, TaskProfile{}, Phase::idle(),
                                 [&](Task&) {
                                   woke = true;
                                   return Phase::done();
                                 });
  world.run_until(1.0);
  EXPECT_FALSE(woke);
  idler->set_phase(Phase::sleep(0.5));
  world.update();
  world.run_until(2.0);
  EXPECT_TRUE(woke);
}

TEST(World, MemoryAllocationAdjustsNodeGauge) {
  World world = make_small_world();
  Task* task = world.spawn_task("alloc", 0, 0, TaskProfile{},
                                Phase::sleep(100.0),
                                [](Task&) { return Phase::done(); });
  const double free_before = world.node(0).memory_free();
  EXPECT_TRUE(world.allocate_memory(task, 1e9));
  EXPECT_NEAR(world.node(0).memory_free(), free_before - 1e9, 1.0);
  EXPECT_DOUBLE_EQ(task->allocated_bytes(), 1e9);
}

TEST(World, DefaultOomKillsRequesterAndFreesMemory) {
  NodeConfig config;
  config.memory_bytes = 4.0 * 1024 * 1024 * 1024;
  config.os_base_memory = 1.0 * 1024 * 1024 * 1024;
  World world(config, Topology::star(1, 1e9), FsConfig{});
  Task* hog = world.spawn_task("hog", 0, 0, TaskProfile{}, Phase::sleep(1e6),
                               [](Task&) { return Phase::done(); });
  EXPECT_TRUE(world.allocate_memory(hog, 2.5e9));
  EXPECT_FALSE(world.allocate_memory(hog, 2.5e9));  // would exceed
  EXPECT_TRUE(hog->done());                          // OOM-killed
  EXPECT_NEAR(world.node(0).memory_free(), 3.0 * 1024 * 1024 * 1024, 1e6);
}

TEST(World, CustomOomHandlerInvoked) {
  NodeConfig config;
  config.memory_bytes = 2.0 * 1024 * 1024 * 1024;
  config.os_base_memory = 1.0 * 1024 * 1024 * 1024;
  World world(config, Topology::star(1, 1e9), FsConfig{});
  int oom_calls = 0;
  world.set_oom_handler([&oom_calls](World&, Task&) { ++oom_calls; });
  Task* task = world.spawn_task("t", 0, 0, TaskProfile{}, Phase::sleep(1e6),
                                [](Task&) { return Phase::done(); });
  EXPECT_FALSE(world.allocate_memory(task, 5e9));
  EXPECT_EQ(oom_calls, 1);
  EXPECT_FALSE(task->done());  // our handler chose not to kill
}

TEST(World, KillTaskReleasesResources) {
  World world = make_small_world();
  TaskProfile profile;
  Task* victim = world.spawn_task("victim", 0, 0, profile,
                                  Phase::compute(1e15),
                                  [](Task&) { return Phase::done(); });
  world.allocate_memory(victim, 1e9);
  const double free_before_kill = world.node(0).memory_free();
  world.kill_task(victim);
  EXPECT_TRUE(victim->done());
  EXPECT_NEAR(world.node(0).memory_free(), free_before_kill + 1e9, 1.0);
}

TEST(World, MonitoringCollectsEverySecond) {
  World world = make_small_world();
  world.enable_monitoring(1.0);
  world.spawn_task("burner", 0, 0, TaskProfile{}, Phase::compute(1e15),
                   [](Task&) { return Phase::done(); });
  world.run_until(10.0);
  const auto& store = world.node_store(0);
  const auto& user = store.series({"user", "procstat"});
  EXPECT_GE(user.size(), 10u);
  // Counter grows: one busy core at 100 jiffies/s.
  const auto deltas = user.deltas();
  EXPECT_NEAR(deltas.back(), 100.0, 1.0);
}

TEST(World, MonitoringCoversAllSamplers) {
  World world = make_small_world();
  world.enable_monitoring(1.0);
  world.run_until(3.0);
  const auto& store = world.node_store(1);
  EXPECT_TRUE(store.contains({"user", "procstat"}));
  EXPECT_TRUE(store.contains({"Memfree", "meminfo"}));
  EXPECT_TRUE(store.contains({"pgfault", "vmstat"}));
  EXPECT_TRUE(store.contains({"INST_RETIRED:ANY", "spapiHASW"}));
  EXPECT_TRUE(store.contains(
      {"AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS", "aries_nic_mmr"}));
}

TEST(World, NicCountersTrackMessageBytes) {
  World world = make_small_world();
  world.spawn_task("sender", 0, 0, TaskProfile{}, Phase::message(1, 5e9),
                   [](Task&) { return Phase::done(); });
  world.run_until(10.0);
  EXPECT_NEAR(world.node(0).counters().nic_tx_bytes, 5e9, 1e3);
  EXPECT_NEAR(world.node(1).counters().nic_rx_bytes, 5e9, 1e3);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World world(NodeConfig{}, Topology::two_tier(2, 2, 10e9, 18e9),
                FsConfig{});
    double finish = -1;
    TaskProfile profile;
    profile.working_set_bytes = 30e6;
    world.spawn_task("a", 0, 0, profile, Phase::compute(5e9), [&](Task& t) {
      if (t.phase().kind == PhaseKind::kCompute)
        return Phase::message(2, 1e8);
      finish = 1.0;
      return Phase::done();
    });
    world.spawn_task("b", 0, 0, profile, Phase::compute(3e9),
                     [](Task&) { return Phase::done(); });
    world.run_until(100.0);
    return world.node(0).counters().instructions;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

/// Bit-exact digest of a double sequence: the raw IEEE-754 payloads.
/// Two digests are equal iff every counter matches to the last bit.
void append_bits(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

std::string counter_digest(World& world) {
  // Settle every deferred-integration cursor first so the digest reads
  // final values, then freeze the bits.
  world.update();
  std::string digest;
  for (int id = 0; id < world.num_nodes(); ++id) {
    const NodeCounters& c = world.node(id).counters();
    for (const double v : {c.cpu_user_seconds, c.cpu_sys_seconds,
                           c.instructions, c.l1_misses, c.l2_misses,
                           c.l3_misses, c.dram_bytes, c.nic_tx_bytes,
                           c.nic_rx_bytes, c.pages_faulted})
      append_bits(digest, v);
  }
  for (const Task* task : world.tasks()) {
    const TaskCounters& c = task->counters();
    for (const double v : {c.cpu_seconds, c.instructions, c.l2_misses,
                           c.l3_misses, c.dram_bytes, c.bytes_sent,
                           c.io_work})
      append_bits(digest, v);
  }
  append_bits(digest, world.filesystem().counters().bytes_written);
  append_bits(digest, world.filesystem().counters().bytes_read);
  return digest;
}

struct StormRun {
  std::string trace;    ///< serialized binary trace bytes
  std::string digest;   ///< bit-exact counter digest
};

/// Byte-compare with a readable failure: on mismatch report the first
/// divergent record, not two binary blobs.
void expect_same_trace(const std::string& got, const std::string& want,
                       const std::string& label) {
  if (got == want) return;
  std::istringstream got_in(got, std::ios::binary);
  std::istringstream want_in(want, std::ios::binary);
  const auto divergence = trace::diff_traces(trace::read_binary(want_in),
                                             trace::read_binary(got_in));
  ADD_FAILURE() << label << ": traces differ: " << divergence.description;
}

/// A 32-node world where every event boundary is contested: cycling
/// workloads on all nodes, cross-node message flows, filesystem traffic,
/// scheduled kill/spawn/wake/mutate storms (several at the same
/// timestamp, exercising the FIFO tie-break) and an event-cancellation
/// burst that leaves tombstones in the queue. `splits` optionally breaks
/// run_until at those times.
StormRun run_storm(const std::vector<double>& splits = {}) {
  World world(NodeConfig{}, Topology::two_tier(8, 4, 10e9, 18e9),
              FsConfig{.metadata_ops_per_s = 30000.0,
                       .disk_write_bw = 5.0e9,
                       .disk_read_bw = 5.5e9,
                       .dedicated_mds = true,
                       .metadata_disk_cost_s = 0.0});
  trace::TraceCapture capture;
  world.attach_tracer(&capture.tracer());
  world.enable_monitoring(0.5);

  // Cycling residents on every node; message peers sit across the
  // machine (node i talks to the diametrically opposite node), so NIC
  // deposits always land on a node other than the sender's.
  std::vector<Task*> cyclers;
  const int n = world.num_nodes();
  for (int id = 0; id < n; ++id) {
    TaskProfile profile;
    profile.stream_bw_demand = 2.0e9;
    const int peer = (id + n / 2) % n;
    Task* task = world.spawn_task(
        "cycler" + std::to_string(id), id, id % 4, profile,
        Phase::compute(1.0e9), [peer](Task& t) {
          switch (t.phase().kind) {
            case PhaseKind::kCompute: return Phase::stream(0.5e9);
            case PhaseKind::kStream: return Phase::message(peer, 0.25e9);
            case PhaseKind::kMessage:
              return Phase::io(IoKind::kWrite, 64.0e6);
            case PhaseKind::kIo: return Phase::sleep(0.25);
            default: return Phase::compute(1.0e9);
          }
        });
    cyclers.push_back(task);
  }
  // Idle tasks woken externally mid-run -- the spawn path of a BSP
  // barrier release.
  std::vector<Task*> sleepers;
  for (int id = 0; id < n; id += 3) {
    sleepers.push_back(world.spawn_task(
        "idler" + std::to_string(id), id, 5, TaskProfile{}, Phase::idle(),
        [](Task&) { return Phase::done(); }));
  }

  Simulator& sim = world.simulator();
  // Kill storm: several kills at the *same* timestamp (FIFO ties), spread
  // across the machine.
  for (int i = 0; i < 8; ++i) {
    Task* victim = cyclers[static_cast<std::size_t>(i * 4 + 1)];
    sim.schedule_at(2.0, [&world, victim] {
      if (!victim->killed() && !victim->done()) world.kill_task(victim);
    });
  }
  // Spawn storm at the same timestamp: replacements plus brand-new load.
  for (int i = 0; i < 8; ++i) {
    const int node = i * 4 + 2;
    sim.schedule_at(2.0, [&world, node] {
      world.spawn_task("burst" + std::to_string(node), node, 6,
                       TaskProfile{}, Phase::stream(1.0e9), [](Task& t) {
                         return t.phase().kind == PhaseKind::kStream
                                    ? Phase::compute(0.5e9)
                                    : Phase::done();
                       });
    });
  }
  // Wake storm: external phase changes require an explicit update().
  sim.schedule_at(3.0, [&world, sleepers] {
    for (Task* task : sleepers)
      if (!task->killed() && !task->done())
        task->set_phase(Phase::sleep(0.5));
    world.update();
  });
  // Profile-mutation storm: rate changes land exactly on an event.
  sim.schedule_at(4.0, [&world, cyclers] {
    for (std::size_t i = 0; i < cyclers.size(); i += 5) {
      Task* task = cyclers[i];
      if (task->killed() || task->done()) continue;
      task->mutable_profile().cpu_demand = 0.5;
    }
    world.update();
  });
  // Cancellation burst: schedule far-future events, cancel most of them
  // immediately -- tombstones sit in the queue while the world advances.
  sim.schedule_at(5.0, [&sim] {
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 64; ++i)
      doomed.push_back(sim.schedule_at(1.0e6 + i, [] {}));
    for (std::size_t i = 0; i < doomed.size(); ++i)
      if (i % 8 != 0) sim.cancel(doomed[i]);
  });
  double t = 0.0;
  for (const double split : splits) {
    world.run_until(split);
    t = split;
  }
  if (t < 8.0) world.run_until(8.0);

  StormRun run;
  run.digest = counter_digest(world);
  std::ostringstream out(std::ios::binary);
  trace::write_binary(out, capture.take());
  run.trace = out.str();
  return run;
}

TEST(World, RunUntilSplitsNeverChangeBytes) {
  // run_until boundaries force a full settle (sync_all_domains); cutting
  // the same simulation at arbitrary points must not move a single bit
  // of the trace or of any counter.
  const StormRun whole = run_storm();
  ASSERT_FALSE(whole.trace.empty());
  const std::vector<std::vector<double>> split_sets = {
      {2.0, 3.0, 4.0, 5.0},            // exactly on the storm events
      {1.9999, 2.0001, 4.99, 7.5},     // straddling them
      {0.5, 1.0, 1.5, 2.5, 6.125},     // unrelated boundaries
  };
  for (const auto& splits : split_sets) {
    const StormRun cut = run_storm(splits);
    expect_same_trace(cut.trace, whole.trace,
                      "splits[0]=" + std::to_string(splits[0]));
    EXPECT_EQ(cut.digest, whole.digest) << "splits[0]=" << splits[0];
  }
}

TEST(World, SpawnValidatesPlacement) {
  World world = make_small_world();
  EXPECT_THROW(world.spawn_task("x", 99, 0, TaskProfile{}, Phase::idle(),
                                [](Task&) { return Phase::done(); }),
               InvariantError);
  EXPECT_THROW(world.spawn_task("x", 0, 999, TaskProfile{}, Phase::idle(),
                                [](Task&) { return Phase::done(); }),
               InvariantError);
}

TEST(VoltrinoPreset, MatchesPaperHardware) {
  auto world = make_voltrino_world();
  EXPECT_EQ(world->num_nodes(), 8);
  EXPECT_EQ(world->node(0).config().cores, 32);
  EXPECT_NEAR(world->node(0).config().l3_bytes, 40.0 * 1024 * 1024, 1.0);
  EXPECT_TRUE(world->filesystem().config().dedicated_mds);
}

TEST(ChameleonPreset, MatchesPaperSetup) {
  auto world = make_chameleon_world();
  EXPECT_EQ(world->num_nodes(), 6);
  EXPECT_EQ(world->node(0).config().cores, 24);
  EXPECT_FALSE(world->filesystem().config().dedicated_mds);
}

}  // namespace
}  // namespace hpas::sim
