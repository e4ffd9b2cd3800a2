// Engine + incremental-recompute microbenchmark. Emits BENCH_engine.json:
//
//   engine       raw schedule/fire throughput of a warm Simulator, plus
//                the heap allocations per event in that loop -- asserted
//                to be exactly zero (EventFn small-buffer closures, slot
//                reuse, vector-heap with stable capacity);
//   world        phase-completion events/sec of an N-node scenario under
//                the default incremental engine vs HPAS_FULL_RECOMPUTE
//                reference mode, with the speedup recorded (the CI gate
//                and the acceptance criterion read both numbers);
//   dragonfly1k  events/s and aggregate ops/s (events x resident tasks)
//                of the 1k-node dragonfly preset, and the median set-up
//                cost of one scenario on it (world build + monitoring of
//                node 0, the t=0 sample included);
//   rate_solver  microseconds per full rate recompute at 1..64 nodes;
//   sweep_dragonfly1k
//                median wall-clock seconds of an in-process sweep of
//                dragonfly1k scenarios (apps on 64 nodes, node 0
//                monitored, as run_scenario does) in both modes, and
//                the speedup. Not gated.
//
// Exit status is non-zero when a hard contract fails (allocations on the
// warm path, or incremental slower than 3x the reference mode), so the
// bench-smoke CI job doubles as a regression gate even before comparing
// against the checked-in baseline.
//
// Usage: microbench_engine [--out PATH] [--quick]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/peak_rss.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"

// --- global allocation counter ------------------------------------------
// Every path into the heap funnels through these replaceable operators;
// the bench snapshots the counter around warm loops to prove the common
// scheduling path performs no per-event allocation.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- raw engine throughput ----------------------------------------------

/// Self-rescheduling event chain: each fire schedules the next link with
/// an 8-byte [this] capture, the exact shape of the World's completion
/// and sampling events.
struct Chain {
  hpas::sim::Simulator* sim;
  double period;
  std::uint64_t* fired;
  void fire() {
    ++*fired;
    sim->schedule_in(period, [this] { fire(); });
  }
};

struct EngineResult {
  double events_per_sec = 0.0;
  std::uint64_t allocs = 0;  ///< heap allocations across the warm loop
  std::uint64_t events = 0;
};

EngineResult bench_engine_raw(std::uint64_t events) {
  hpas::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<Chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, 1e-4 * static_cast<double>(i + 1), &fired};
    sim.schedule_in(chains[i].period, [c = &chains[i]] { c->fire(); });
  }
  // Warm-up: let the heap vector and slot map reach steady-state size.
  while (fired < 10000)
    if (!sim.step()) break;

  const std::uint64_t start_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t target = fired + events;
  const auto start = Clock::now();
  while (fired < target)
    if (!sim.step()) break;
  const double wall = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - start_allocs;
  return {static_cast<double>(events) / wall, allocs, events};
}

// --- world scenario throughput ------------------------------------------

hpas::sim::FsConfig bench_fs() {
  return {.metadata_ops_per_s = 30000.0,
          .disk_write_bw = 5.0e9,
          .disk_read_bw = 5.5e9,
          .dedicated_mds = true,
          .metadata_disk_cost_s = 0.0};
}

/// N nodes, one compute task per node cycling short staggered phases
/// forever: every completion touches exactly one node, which is the case
/// the dirty-set recomputation is built for (and the reference mode
/// re-solves all N nodes plus network plus filesystem on).
struct WorldResult {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  ///< heap allocations over the measured run
  double wall_s = 0.0;
};

WorldResult bench_world(int nodes, bool full_recompute, double sim_seconds) {
  hpas::sim::World world(hpas::sim::NodeConfig{},
                         hpas::sim::Topology::star(nodes, 10.0e9),
                         bench_fs());
  world.set_full_recompute(full_recompute);
  std::uint64_t completions = 0;
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    profile.working_set_bytes = 256.0 * 1024;
    const double work =
        2.0e6 * (1.0 + 0.05 * static_cast<double>(i));  // ~1 ms phases
    world.spawn_task("bench" + std::to_string(i), i, 0, profile,
                     hpas::sim::Phase::compute(work),
                     [&completions, work](hpas::sim::Task&) {
                       ++completions;
                       return hpas::sim::Phase::compute(work);
                     });
  }
  // Warm-up: populate every scratch buffer and the chunk log capacity.
  world.run_until(0.05);
  const std::uint64_t warm_completions = completions;
  const std::uint64_t start_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  world.run_until(0.05 + sim_seconds);
  const double wall = seconds_since(start);
  WorldResult r;
  r.events = completions - warm_completions;
  r.allocs = g_alloc_count.load(std::memory_order_relaxed) - start_allocs;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.wall_s = wall;
  return r;
}

// --- 1k-node topology throughput ----------------------------------------

/// The dragonfly1k preset (1024 nodes) with one cycling compute task per
/// node. Every event advances all ~1024 tasks and re-solves the dirty
/// node domain, so the honest work metric is *aggregate ops/s* = events x
/// resident tasks / wall. events/s alone would under-credit a large
/// topology, where one event means a thousand task advances.
struct DragonflyResult {
  double events_per_sec = 0.0;
  double agg_ops_per_sec = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t tasks = 0;
};

DragonflyResult bench_dragonfly(double sim_seconds) {
  auto world = hpas::sim::make_dragonfly_world();
  const int nodes = world->num_nodes();
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    profile.working_set_bytes = 256.0 * 1024;
    const double work =
        2.0e7 * (1.0 + 0.001 * static_cast<double>(i));  // ~10 ms phases
    world->spawn_task("df" + std::to_string(i), i, 0, profile,
                      hpas::sim::Phase::compute(work),
                      [work](hpas::sim::Task&) {
                        return hpas::sim::Phase::compute(work);
                      });
  }
  world->run_until(0.02);  // warm scratch buffers
  const std::uint64_t epochs0 = world->simulator().epochs();
  const auto start = Clock::now();
  world->run_until(0.02 + sim_seconds);
  const double wall = seconds_since(start);
  DragonflyResult r;
  r.epochs = world->simulator().epochs() - epochs0;
  r.tasks = static_cast<std::uint64_t>(nodes);
  r.events_per_sec = static_cast<double>(r.epochs) / wall;
  r.agg_ops_per_sec =
      static_cast<double>(r.epochs * r.tasks) / wall;
  return r;
}

/// Median wall milliseconds of make_dragonfly_world() followed by
/// node-0 monitoring -- what every dragonfly1k scenario pays before its
/// first event. Teardown is left out.
double bench_dragonfly_build_ms(int repeats) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    auto world = hpas::sim::make_dragonfly_world();
    world->enable_monitoring(1.0, {0});
    ms.push_back(seconds_since(start) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// --- rate-solver scaling -------------------------------------------------

double bench_rate_solver_us(int nodes, int iterations) {
  hpas::sim::World world(hpas::sim::NodeConfig{},
                         hpas::sim::Topology::star(nodes, 10.0e9),
                         bench_fs());
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    world.spawn_task("solve" + std::to_string(i), i, 0, profile,
                     hpas::sim::Phase::compute(1.0e15),
                     [](hpas::sim::Task&) { return hpas::sim::Phase::done(); });
  }
  world.update();  // warm scratch
  const auto start = Clock::now();
  for (int k = 0; k < iterations; ++k) world.update();
  return seconds_since(start) / static_cast<double>(iterations) * 1e6;
}

// --- in-process dragonfly1k sweep wall time -----------------------------

/// Scenarios shaped like perfbench's sim_dragonfly1k: apps on 64 of the
/// 1024 nodes under a node-domain and a network anomaly, node 0
/// monitored.
hpas::runner::SweepGrid bench_dragonfly_grid(double duration_s) {
  hpas::runner::SweepGrid grid;
  grid.name = "bench_dragonfly1k";
  int index = 0;
  for (const auto& [app, anomaly] :
       {std::pair{"miniAMR", "membw"}, std::pair{"milc", "netoccupy"}}) {
    hpas::runner::ScenarioSpec spec;
    spec.name = std::string("df_") + app + "_" + anomaly;
    spec.system = "dragonfly1k";
    spec.app = app;
    spec.app_nodes = 64;
    spec.anomaly = anomaly;
    spec.duration_s = duration_s;
    spec.sample_period_s = 1.0;
    spec.seed = hpas::runner::derive_scenario_seed(
        5, static_cast<std::uint64_t>(index++));
    grid.scenarios.push_back(spec);
  }
  return grid;
}

/// Median wall seconds of `repeats` single-threaded sweeps of `grid`.
double bench_sweep_wall(const hpas::runner::SweepGrid& grid,
                        bool full_recompute, int repeats) {
  if (full_recompute)
    ::setenv("HPAS_FULL_RECOMPUTE", "1", 1);
  else
    ::unsetenv("HPAS_FULL_RECOMPUTE");
  std::vector<double> walls;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    const auto result = hpas::runner::run_sweep(grid, {.threads = 1});
    walls.push_back(seconds_since(start));
    if (!result.ok()) {
      std::fprintf(stderr, "bench sweep failed: %s\n",
                   result.first_error().c_str());
      std::exit(2);
    }
  }
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  std::sort(walls.begin(), walls.end());
  return walls[walls.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH] [--quick]\n", argv[0]);
      return 2;
    }
  }

  const std::uint64_t engine_events = quick ? 200000 : 1000000;
  const double world_sim_s = quick ? 0.5 : 2.0;
  const int world_nodes = 64;
  const double sweep_duration_s = quick ? 30.0 : 120.0;
  const int sweep_repeats = quick ? 3 : 5;
  const int solver_iters = quick ? 300 : 2000;

  int failures = 0;
  hpas::Json doc = hpas::Json::object();
  doc.set("suite", "engine");
  doc.set("quick", quick);

  // Raw engine: throughput and the zero-allocation contract.
  const EngineResult engine = bench_engine_raw(engine_events);
  std::printf("engine: %.3g events/s, %llu allocs / %llu events\n",
              engine.events_per_sec,
              static_cast<unsigned long long>(engine.allocs),
              static_cast<unsigned long long>(engine.events));
  if (engine.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm schedule/fire loop allocated %llu times\n",
                 static_cast<unsigned long long>(engine.allocs));
    ++failures;
  }
  {
    hpas::Json section = hpas::Json::object();
    section.set("events_per_sec", engine.events_per_sec);
    section.set("events", engine.events);
    section.set("allocs_warm_loop", engine.allocs);
    doc.set("engine", std::move(section));
  }

  // World scenario: incremental vs reference full recompute.
  const WorldResult incremental =
      bench_world(world_nodes, /*full_recompute=*/false, world_sim_s);
  const WorldResult full =
      bench_world(world_nodes, /*full_recompute=*/true, world_sim_s);
  const double speedup = incremental.events_per_sec / full.events_per_sec;
  std::printf(
      "world(%d nodes): incremental %.3g events/s, full %.3g events/s "
      "(speedup %.2fx); incremental allocs %llu over %llu events\n",
      world_nodes, incremental.events_per_sec, full.events_per_sec, speedup,
      static_cast<unsigned long long>(incremental.allocs),
      static_cast<unsigned long long>(incremental.events));
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx is below 3x\n",
                 speedup);
    ++failures;
  }
  // Amortized-zero contract: stray one-off capacity growths are allowed,
  // per-event allocation (allocs scaling with the event count) is not.
  if (incremental.allocs * 1000 >= incremental.events) {
    std::fprintf(stderr,
                 "FAIL: world event loop allocated %llu times over %llu "
                 "events (not amortized-zero)\n",
                 static_cast<unsigned long long>(incremental.allocs),
                 static_cast<unsigned long long>(incremental.events));
    ++failures;
  }
  {
    hpas::Json section = hpas::Json::object();
    section.set("nodes", world_nodes);
    section.set("incremental_events_per_sec", incremental.events_per_sec);
    section.set("full_recompute_events_per_sec", full.events_per_sec);
    section.set("speedup", speedup);
    section.set("incremental_allocs_warm_loop", incremental.allocs);
    section.set("events_each_mode", incremental.events);
    doc.set("world", std::move(section));
  }

  // 1k-node dragonfly throughput.
  {
    const DragonflyResult r = bench_dragonfly(quick ? 0.1 : 0.4);
    const double build_ms = bench_dragonfly_build_ms(31);
    std::printf("dragonfly1k: %.3g events/s, %.3g agg ops/s, build %.3g ms\n",
                r.events_per_sec, r.agg_ops_per_sec, build_ms);
    hpas::Json section = hpas::Json::object();
    section.set("events_per_sec", r.events_per_sec);
    section.set("agg_ops_per_sec", r.agg_ops_per_sec);
    section.set("epochs", r.epochs);
    section.set("tasks", r.tasks);
    section.set("build_ms", build_ms);
    doc.set("dragonfly1k", std::move(section));
  }

  // Rate-solver latency scaling.
  {
    hpas::Json section = hpas::Json::array();
    for (const int nodes : {1, 2, 4, 8, 16, 32, 64}) {
      const double us = bench_rate_solver_us(nodes, solver_iters);
      std::printf("rate solver: %2d nodes, %.2f us/solve\n", nodes, us);
      hpas::Json row = hpas::Json::object();
      row.set("nodes", nodes);
      row.set("us_per_solve", us);
      section.push_back(std::move(row));
    }
    doc.set("rate_solver", std::move(section));
  }

  // Whole-sweep wall time on dragonfly1k, both modes.
  {
    const hpas::runner::SweepGrid grid = bench_dragonfly_grid(sweep_duration_s);
    const double inc_wall = bench_sweep_wall(grid, false, sweep_repeats);
    const double full_wall = bench_sweep_wall(grid, true, sweep_repeats);
    std::printf("sweep_dragonfly1k: incremental %.4fs, full %.4fs "
                "(speedup %.2fx, median of %d)\n",
                inc_wall, full_wall, full_wall / inc_wall, sweep_repeats);
    hpas::Json section = hpas::Json::object();
    section.set("scenarios", static_cast<std::uint64_t>(grid.scenarios.size()));
    section.set("scenario_duration_s", sweep_duration_s);
    section.set("repeats", sweep_repeats);
    section.set("incremental_wall_s", inc_wall);
    section.set("full_recompute_wall_s", full_wall);
    section.set("speedup", full_wall / inc_wall);
    doc.set("sweep_dragonfly1k", std::move(section));
  }

  doc.set("peak_rss_bytes", hpas::peak_rss_bytes());
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(hpas::peak_rss_bytes()) / (1024.0 * 1024.0));

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.dump(2);
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
