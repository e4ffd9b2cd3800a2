// Incremental-engine equivalence: the dirty-set rate recomputation and
// lazy counter integration (World's default) must be *byte-identical* to
// the reference full-recompute mode (set_full_recompute(true) /
// HPAS_FULL_RECOMPUTE=1), which re-solves every domain and integrates
// every counter on every event exactly like the original eager loop.
//
// Five layers of evidence, strongest first: the fig05 memleak trace
// (every event, rate, memory and sample record), a mixed scenario that
// keeps all three counter domains (node, network, filesystem) busy at
// once, a sparse workload on the 1k-node dragonfly preset, a whole
// sweep output directory (CSVs + traces + summary) compared
// file-by-file, and a controller storm that pins the indexed completion
// passes to the reference mode's whole-list scan.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
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

// --- completion-order storm ---------------------------------------------
//
// The incremental engine fires only completion candidates, in task-id
// order, with the reference scan's per-pass cutoffs (a task woken past
// the cursor fires in this pass, one woken behind it or spawned in the
// pass waits for the next). Every firing draws from one shared Rng, so a
// single task fired in a different order or pass reshuffles the rest of
// the trace.

using hpas::sim::IoKind;
using hpas::sim::Phase;
using hpas::sim::PhaseKind;
using hpas::sim::Task;

struct StormOptions {
  bool zero_work = false;     ///< spawns install zero-work phases
  bool wake = false;          ///< controllers wake idle tasks on either side
  bool spawn_kill = false;    ///< controllers spawn and kill mid-cascade
  bool instant_next = false;  ///< controllers chain at-once phases
};

/// What a storm did; each test asserts its feature actually happened.
struct StormStats {
  int wakes_earlier = 0;  ///< woken task's id below the waker's
  int wakes_later = 0;
  int instant_installs = 0;  ///< zero-work phases installed from outside
  int instant_returns = 0;   ///< zero-work phases a controller returned
  int spawns = 0;
  int kills = 0;
  std::uint64_t transitions = 0;
  std::uint64_t events = 0;  ///< simulator epochs
};

class Storm {
 public:
  Storm(hpas::sim::World& world, StormOptions options)
      : world_(world), options_(options), rng_(0x5707u) {}

  void spawn(bool instant) {
    const int id = spawned_++;
    const int nodes = world_.num_nodes();
    hpas::sim::TaskProfile profile;
    profile.working_set_bytes = 512.0 * 1024;
    if (instant) ++stats_.instant_installs;
    Task* task = world_.spawn_task(
        "storm" + std::to_string(id), id % nodes, (id / nodes) % 3, profile,
        instant ? instant_phase() : work_phase(),
        [this](Task& self) { return next(self); });
    live_.push_back(task);
  }

  StormStats stats() const { return stats_; }

 private:
  /// Few sizes, so tasks alone on their cores often finish in one event.
  Phase work_phase() {
    static constexpr double kWork[] = {2.0e6, 2.0e6, 4.0e6, 1.0e6};
    return Phase::compute(kWork[rng_.next_below(4)]);
  }

  /// A phase that is complete the moment it is installed.
  Phase instant_phase() {
    switch (rng_.next_below(4)) {
      case 0: return Phase::compute(0.0);
      case 1: return Phase::sleep(0.0);
      case 2: return Phase::stream(0.0);
      default: return Phase::io(IoKind::kMetadata, 0.0);
    }
  }

  Phase next(Task& self) {
    ++stats_.transitions;
    // A task spawned with an at-once phase fires inside spawn_task, before
    // it is in live_; the chain map does not need it there.
    int& chain = chain_[self.trace_id()];
    if (options_.instant_next && chain < 3 && rng_.next_below(3) == 0) {
      ++chain;
      ++stats_.instant_returns;
      return instant_phase();
    }
    chain = 0;
    if (options_.wake && !live_.empty()) {
      for (int k = 0; k < 2; ++k) {
        Task* other = live_[rng_.next_below(live_.size())];
        if (other == &self || other->phase().kind != PhaseKind::kIdle)
          continue;
        // Half the wakes install an at-once phase: that is where a woken
        // task's place relative to the cursor decides its pass.
        const bool instant = rng_.next_below(2) == 0;
        if (instant) ++stats_.instant_installs;
        other->set_phase(instant ? instant_phase() : work_phase());
        ++(other->trace_id() < self.trace_id() ? stats_.wakes_earlier
                                                : stats_.wakes_later);
      }
    }
    if (options_.spawn_kill) {
      if (stats_.spawns < 24 && rng_.next_below(6) == 0) {
        ++stats_.spawns;
        spawn(options_.zero_work || rng_.next_below(2) == 0);
      }
      if (stats_.kills < 12 && live_.size() > 8 && rng_.next_below(8) == 0) {
        const std::size_t victim = rng_.next_below(live_.size());
        if (live_[victim] != &self) {
          ++stats_.kills;
          world_.kill_task(live_[victim]);
          live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(victim));
        }
      }
    }
    // Park now and then, so wakes have someone to wake; a third of the
    // live tasks keeps working.
    if (options_.wake && rng_.next_below(4) == 0) {
      std::size_t working = 0;
      for (const Task* t : live_) working += t->active() ? 1u : 0u;
      if (working * 3 > live_.size()) return Phase::idle();
    }
    if (options_.zero_work && rng_.next_below(6) == 0)
      return Phase::compute(5e-10);  // under the 1e-9 completion tolerance
    return work_phase();
  }

  hpas::sim::World& world_;
  StormOptions options_;
  hpas::Rng rng_;
  std::vector<Task*> live_;  ///< spawn order, killed tasks removed
  std::map<std::uint32_t, int> chain_;  ///< at-once phases in a row, by id
  int spawned_ = 0;
  StormStats stats_;
};

struct StormRun {
  std::string trace;
  StormStats stats;
};

StormRun storm_trace(StormOptions options, bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(0.05);
  Storm storm(*world, options);
  for (int i = 0; i < 20; ++i) storm.spawn(options.zero_work && i % 3 == 0);
  world->run_until(0.25);
  StormStats stats = storm.stats();
  stats.events = world->simulator().epochs();
  return {text_form(capture.take()), stats};
}

/// "line N: <a> vs <b>" for the first line where the texts differ.
std::string first_difference(const std::string& a, const std::string& b) {
  std::istringstream in_a(a);
  std::istringstream in_b(b);
  std::string line_a;
  std::string line_b;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(in_a, line_a));
    const bool more_b = static_cast<bool>(std::getline(in_b, line_b));
    if (!more_a && !more_b) return "no difference";
    if (more_a != more_b || line_a != line_b)
      return "line " + std::to_string(line) + ": '" +
             (more_a ? line_a : "<end>") + "' vs '" +
             (more_b ? line_b : "<end>") + "'";
  }
}

/// Runs the storm in both modes and byte-compares the traces.
StormStats expect_storm_equivalent(StormOptions options) {
  const StormRun incremental = storm_trace(options, false);
  const StormRun full = storm_trace(options, true);
  EXPECT_GT(incremental.stats.transitions, 2000u);
  // Not EXPECT_EQ: gtest's diff of two multi-megabyte strings needs
  // memory quadratic in their line counts.
  EXPECT_TRUE(incremental.trace == full.trace)
      << "indexed completion passes diverged from the whole-list scan; "
      << first_difference(incremental.trace, full.trace);
  const StormStats& s = incremental.stats;
  std::printf("storm: %llu events, %llu transitions, wakes %d earlier / %d "
              "later, at-once %d installed / %d returned, %d spawns, %d "
              "kills\n",
              static_cast<unsigned long long>(s.events),
              static_cast<unsigned long long>(s.transitions), s.wakes_earlier,
              s.wakes_later, s.instant_installs, s.instant_returns, s.spawns,
              s.kills);
  return s;
}

TEST(IncrementalEquivalence, StormZeroWorkPhases) {
  const StormStats stats = expect_storm_equivalent(
      {.zero_work = true, .wake = true, .spawn_kill = true});
  EXPECT_GT(stats.instant_installs, 20);
}

TEST(IncrementalEquivalence, StormWakesEarlierAndLaterTasks) {
  const StormStats stats = expect_storm_equivalent({.wake = true});
  EXPECT_GT(stats.wakes_earlier, 50);
  EXPECT_GT(stats.wakes_later, 50);
}

TEST(IncrementalEquivalence, StormSpawnAndKillInsideCascade) {
  const StormStats stats = expect_storm_equivalent(
      {.zero_work = true, .spawn_kill = true, .instant_next = true});
  EXPECT_EQ(stats.spawns, 24);
  EXPECT_EQ(stats.kills, 12);
}

TEST(IncrementalEquivalence, StormNextPhaseCompletesAtOnce) {
  const StormStats stats =
      expect_storm_equivalent({.wake = true, .instant_next = true});
  EXPECT_GT(stats.instant_returns, 200);
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
