// dataset_voltrino: `hpas dataset` on a plan_from_grid plan of short
// voltrino rows. Cost here is per row, not per world: a voltrino world
// builds in microseconds, so the streaming extractor, the sharded writer,
// pool dispatch and the serial finish() tail dominate.
//
// Untraced: repeated whole builds through run_dataset_factory. Traced: one
// factory build, then the same plan re-assembled from the factory's public
// parts (plan, DatasetWriter, WorkStealingPool, run_scenario with a timing
// SampleSink and an inspect hook, StreamingFeatureExtractor) with a clock
// around each call; its shards and manifest must match the factory's
// byte for byte.
#include <algorithm>
#include <atomic>
#include <cmath>

#include "common.hpp"
#include "thermometer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/factory.hpp"
#include "dataset/streaming.hpp"
#include "ml/diagnosis.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

using hpas::Json;

constexpr std::uint64_t kRows = 4096;        // two 2048-row pool blocks
constexpr std::uint32_t kShards = 4;         // `hpas dataset` default
/// Workers: half of a 4-vCPU box. On a shared VM, three workers' builds
/// spread about three times wider run to run than two workers' did.
constexpr int kMaxThreads = 2;
constexpr double kWarmupS = 5.0;             // `hpas dataset` default
constexpr double kNoise = 0.5;               // `hpas dataset` default
constexpr std::size_t kRowBlock = 2048;      // the factory's block size
constexpr std::uint64_t kNoiseStream = 0x4e6f697365ULL;  // factory's "Noise"
/// Set-up probes after every build. Set-up is about 2 ms, two journal
/// fsyncs included, so it follows the disk's phases; probes spread over
/// the whole measuring window, not taken in one burst, see all of them.
constexpr int kSetupProbesPerBuild = 8;
/// A thermometer pass (~20 ms) after a build when none ran for this long.
constexpr double kThermometerIntervalS = 2.0;

const char* const kApps[] = {"CoMD", "milc", "miniAMR", "sw4lite"};
const char* const kAnomalies[] = {"none",   "cpuoccupy", "cachecopy",
                                  "membw",  "memleak",   "iometadata"};

int worker_count() {
  const int hw = hpas::runner::WorkStealingPool::default_thread_count();
  return std::clamp(hw, 1, kMaxThreads);
}

/// 24 voltrino scenarios, one per app x anomaly pair. Every grid holds
/// the same windows (12-30 s) and intensities (0.5-1.0); the seed deals
/// them out to the pairs and draws the grid's base seed, so the random
/// streams change with the seed while the total work stays put.
hpas::runner::SweepGrid make_grid(std::uint64_t seed) {
  hpas::Rng rng(hpas::runner::derive_scenario_seed(seed, 0x44415441ULL));
  hpas::runner::SweepGrid grid;
  grid.name = "perfbench_dataset";
  grid.base_seed = rng.next();
  const std::size_t n = std::size(kApps) * std::size(kAnomalies);
  std::vector<std::size_t> deal(n);
  for (std::size_t i = 0; i < n; ++i) deal[i] = i;
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(deal[i], deal[rng.next_below(i + 1)]);
  for (const char* app : kApps) {
    for (const char* anomaly : kAnomalies) {
      const double share = static_cast<double>(deal[grid.scenarios.size()]) /
                           static_cast<double>(n - 1);
      hpas::runner::ScenarioSpec spec;
      spec.name = std::string(app) + "-" + anomaly;
      spec.system = "voltrino";
      spec.app = app;
      spec.anomaly = anomaly;
      spec.duration_s = std::round(12.0 + 18.0 * share);
      spec.intensity = 0.5 + 0.5 * (1.0 - share);
      spec.sample_period_s = 1.0;
      spec.seed = hpas::runner::derive_scenario_seed(
          grid.base_seed, grid.scenarios.size());
      grid.scenarios.push_back(std::move(spec));
    }
  }
  return grid;
}

hpas::dataset::DatasetPlan make_plan(const hpas::runner::SweepGrid& grid) {
  return hpas::dataset::plan_from_grid(grid, kRows, kWarmupS, kNoise,
                                       /*include_bandwidth=*/false);
}

std::vector<std::string> output_files() {
  std::vector<std::string> names;
  for (std::uint32_t s = 0; s < kShards; ++s)
    names.push_back(hpas::dataset::shard_file_name(s));
  names.push_back("manifest.json");
  return names;
}

/// Plan + writer open, the work `hpas dataset` does before its first row.
double measure_setup(const hpas::runner::SweepGrid& grid,
                     const std::string& dir) {
  const Clock::time_point t0 = Clock::now();
  const hpas::dataset::DatasetPlan plan = make_plan(grid);
  hpas::dataset::DatasetWriterOptions options;
  options.out_dir = dir;
  hpas::dataset::DatasetWriter writer(plan.meta(kShards), options);
  return seconds_between(t0, Clock::now());
}

/// One untraced build; returns its wall seconds (plan through finish).
double factory_build(const hpas::runner::SweepGrid& grid, int threads,
                     const std::string& dir, Report& report) {
  const Clock::time_point t0 = Clock::now();
  const hpas::dataset::DatasetPlan plan = make_plan(grid);
  hpas::dataset::DatasetFactoryOptions options;
  options.out_dir = dir;
  options.shards = kShards;
  options.threads = threads;
  const hpas::dataset::DatasetFactoryResult result =
      hpas::dataset::run_dataset_factory(plan, options);
  const double wall = seconds_between(t0, Clock::now());
  report.attempted += result.rows_total;
  report.failed += result.rows_total - result.rows_executed;
  return wall;
}

/// Per-worker accumulators of the traced build; each pool worker owns one
/// slot, so rows never contend on them.
struct WorkerLayers {
  double build = 0, advance = 0, on_sample = 0, teardown = 0;
  double finalize = 0, append = 0, rows_time = 0;
  std::uint64_t events = 0, samples = 0, csv_bytes = 0, rows = 0;
  std::vector<double> append_us;
  Clock::time_point last_end{};
  std::size_t last_block = ~std::size_t{0};
};

struct TracedBuild {
  double wall = 0, setup = 0, generation = 0, finish = 0;
  double block_tail = 0;
  std::vector<WorkerLayers> workers;
};

TracedBuild traced_build(const hpas::runner::SweepGrid& grid, int threads,
                         const std::string& dir) {
  TracedBuild out;
  out.workers.resize(static_cast<std::size_t>(threads));
  const Clock::time_point t0 = Clock::now();
  const hpas::dataset::DatasetPlan plan = make_plan(grid);
  hpas::dataset::DatasetWriterOptions writer_options;
  writer_options.out_dir = dir;
  hpas::dataset::DatasetWriter writer(plan.meta(kShards), writer_options);
  hpas::runner::WorkStealingPool pool({.threads = threads});
  const Clock::time_point t_open = Clock::now();
  out.setup = seconds_between(t0, t_open);

  hpas::dataset::StreamingExtractorConfig base;
  base.metrics = hpas::ml::diagnosis_feature_metrics(false);
  for (const hpas::metrics::MetricId& id : base.metrics)
    base.gauge.push_back(hpas::ml::diagnosis_metric_is_gauge(id) ? 1 : 0);
  base.window_t0 = plan.warmup_s;
  base.noise = plan.noise;

  std::atomic<int> next_worker{0};
  std::size_t block = 0;
  const auto run_row = [&](std::size_t i) {
    // Pool threads live as long as this build's pool, so each claims
    // its slot once.
    thread_local const int self = next_worker.fetch_add(1);
    WorkerLayers& w = out.workers.at(static_cast<std::size_t>(self));
    const hpas::dataset::DatasetRowSpec& row = plan.rows[i];
    const Clock::time_point r0 = Clock::now();
    hpas::dataset::StreamingExtractorConfig config = base;
    config.window_t1 = row.spec.duration_s + 0.5;
    hpas::dataset::StreamingFeatureExtractor extractor(std::move(config));
    TimingSink sink(&extractor);
    Clock::time_point t_inspect{};
    std::uint64_t events = 0;
    const hpas::runner::ScenarioResult run = hpas::runner::run_scenario(
        row.spec, false, nullptr, 0,
        [&](hpas::sim::World& world) {
          t_inspect = Clock::now();
          events = world.simulator().epochs();
        },
        &sink, /*store_samples=*/false);
    const Clock::time_point r_run = Clock::now();
    if (run.status != hpas::runner::ScenarioStatus::kDone)
      throw hpas::SystemError("perfbench: row " + std::to_string(i) +
                              " did not complete");
    hpas::Rng noise_rng(
        hpas::runner::derive_scenario_seed(row.key_hash, kNoiseStream));
    const std::vector<double> features =
        extractor.finalize(plan.noise > 0.0 ? &noise_rng : nullptr);
    const Clock::time_point r_fin = Clock::now();
    writer.append(i, row.label, features);
    const Clock::time_point r_end = Clock::now();

    w.build += seconds_between(r0, sink.first_sample());
    w.advance += seconds_between(sink.first_sample(), t_inspect) -
                 sink.inner_seconds();
    w.on_sample += sink.inner_seconds();
    w.teardown += seconds_between(t_inspect, r_run);
    w.finalize += seconds_between(r_run, r_fin);
    const double append = seconds_between(r_fin, r_end);
    w.append += append;
    w.append_us.push_back(append * 1e6);
    w.rows_time += seconds_between(r0, r_end);
    w.events += events;
    w.samples += sink.samples();
    w.csv_bytes += run.metrics_csv.size();
    ++w.rows;
    w.last_end = r_end;
    w.last_block = block;
  };

  for (std::size_t first = 0; first < plan.rows.size(); first += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, plan.rows.size() - first);
    const Clock::time_point b0 = Clock::now();
    hpas::runner::parallel_for(pool, count,
                               [&](std::size_t i) { run_row(first + i); });
    const Clock::time_point b1 = Clock::now();
    // Idle worker time at the barrier: from each worker's last row of
    // this block (or the block start, if it ran none) to the barrier.
    for (const WorkerLayers& w : out.workers)
      out.block_tail += w.last_block == block
                            ? seconds_between(w.last_end, b1)
                            : seconds_between(b0, b1);
    ++block;
  }
  const Clock::time_point t_gen = Clock::now();
  writer.finish(/*write_csv=*/false);
  const Clock::time_point t_end = Clock::now();
  out.generation = seconds_between(t_open, t_gen);
  out.finish = seconds_between(t_gen, t_end);
  out.wall = seconds_between(t0, t_end);
  return out;
}

void report_layers(const TracedBuild& traced, int threads,
                   double untraced_wall, const std::string& dir,
                   Report& report) {
  WorkerLayers sum;
  for (const WorkerLayers& w : traced.workers) {
    sum.build += w.build;
    sum.advance += w.advance;
    sum.on_sample += w.on_sample;
    sum.teardown += w.teardown;
    sum.finalize += w.finalize;
    sum.append += w.append;
    sum.rows_time += w.rows_time;
    sum.events += w.events;
    sum.samples += w.samples;
    sum.csv_bytes += w.csv_bytes;
    sum.rows += w.rows;
    sum.append_us.insert(sum.append_us.end(), w.append_us.begin(),
                         w.append_us.end());
  }
  std::uint64_t shard_bytes = 0;
  for (std::uint32_t s = 0; s < kShards; ++s)
    shard_bytes += file_size(dir + "/" + hpas::dataset::shard_file_name(s));

  const double pooled = static_cast<double>(threads) * traced.generation;
  // Capacity: serial set-up and finish once, the pooled phase once per
  // worker. Accounted: every row's layer self-times plus barrier idle.
  const double capacity = traced.setup + pooled + traced.finish;
  const double accounted =
      traced.setup + sum.rows_time + traced.block_tail + traced.finish;

  hpas::Json& l = report.layers;
  l.set("sim.build_s", sum.build);
  l.set("sim.advance_s", sum.advance);
  l.set("sim.teardown_s", sum.teardown);
  l.set("sim.events", Json(sum.events));
  l.set("sim.events_per_s",
        sum.advance > 0 ? static_cast<double>(sum.events) / sum.advance : 0.0);
  l.set("sim.samples", Json(sum.samples));
  l.set("metrics.csv_bytes",
        static_cast<double>(sum.csv_bytes) / static_cast<double>(sum.rows));
  l.set("dataset.on_sample_s", sum.on_sample);
  l.set("dataset.finalize_s", sum.finalize);
  l.set("dataset.append_s", sum.append);
  l.set("dataset.append_p99_us", quantile(sum.append_us, 0.99));
  l.set("dataset.finish_s", traced.finish);
  l.set("dataset.bytes_per_row",
        static_cast<double>(shard_bytes) / static_cast<double>(kRows));
  l.set("runner.pool_busy_frac", sum.rows_time / pooled);
  l.set("runner.block_tail_s", traced.block_tail);
  l.set("trace_overhead_frac", traced.wall / untraced_wall - 1.0);
  l.set("layers_unaccounted_frac", (capacity - accounted) / capacity);
}

}  // namespace

Report run_dataset_voltrino(const Args& args) {
  const int threads = worker_count();
  Thermometer thermometer(threads);
  Report report;
  const hpas::runner::SweepGrid grid = make_grid(args.seed);
  report.config.set("threads", threads);
  report.config.set("rows_per_build", Json(kRows));
  report.config.set("shards", Json(static_cast<std::uint64_t>(kShards)));
  report.config.set("grid_scenarios",
                    Json(static_cast<std::uint64_t>(grid.scenarios.size())));
  report.config.set(
      "checkpoint_rows",
      Json(hpas::dataset::DatasetFactoryOptions{}.checkpoint_rows));

  // Untraced builds: whole `hpas dataset` runs, repeated for the run's
  // measuring time; a traced run makes three, as the reference for the
  // traced build's bytes and wall.
  const std::string ref_dir = args.workdir + "/dataset";
  const std::string setup_dir = args.workdir + "/setup";
  std::vector<double> walls, setups;
  std::string manifest;
  bool manifests_agree = true;
  std::string verify_error;
  const Clock::time_point start = Clock::now();
  const int min_builds = 3;
  while (static_cast<int>(walls.size()) < min_builds ||
         (!args.trace &&
          seconds_between(start, Clock::now()) < args.seconds)) {
    remove_tree(ref_dir);
    walls.push_back(factory_build(grid, threads, ref_dir, report));
    const hpas::dataset::VerifyReport verify =
        hpas::dataset::verify_dataset(ref_dir);
    if (!verify.ok && verify_error.empty())
      verify_error = verify.errors.empty() ? "verify failed"
                                           : verify.errors.front();
    const std::string bytes = read_file(ref_dir + "/manifest.json");
    if (manifest.empty()) manifest = bytes;
    manifests_agree = manifests_agree && bytes == manifest;
    for (int i = 0; i < kSetupProbesPerBuild; ++i) {
      setups.push_back(measure_setup(grid, setup_dir));
      remove_tree(setup_dir);
    }
    thermometer.pass_every(kThermometerIntervalS);
  }
  thermometer.pass();
  const double setup_s = median(setups);
  report.check("dataset.complete", report.failed == 0,
               std::to_string(report.failed) + " row(s) failed");
  report.check("dataset.verify_dataset", verify_error.empty(),
               verify_error.empty()
                   ? std::to_string(walls.size()) + " build(s) verified"
                   : verify_error);
  report.check("dataset.repeat_identical", manifests_agree,
               "every build's manifest.json is byte-identical");
  report.pinned_dir = "dataset";

  std::vector<double> rates;
  for (double wall : walls)
    rates.push_back(static_cast<double>(kRows) / (wall - setup_s));
  const double rows_per_s = median(rates);
  const double build_ms = median(walls) * 1e3;
  const double slowdown = thermometer.slowdown(args.host_reference_ms);

  report.end_to_end.set("setup_s", setup_s / slowdown);
  report.end_to_end.set("throughput_per_s", rows_per_s * slowdown);
  report.named.set("rows_per_s", rows_per_s);
  report.named.set("setup_raw_s", setup_s);
  report.named.set("host_pass_ms", thermometer.median_ms());
  report.named.set("host_passes",
                   Json(static_cast<std::uint64_t>(thermometer.passes())));
  report.named.set("build_wall_p50_ms", build_ms);
  report.named.set("builds", Json(static_cast<std::uint64_t>(walls.size())));
  report.named.set("setup_probes",
                   Json(static_cast<std::uint64_t>(setups.size())));

  if (args.trace) {
    const std::string traced_dir = args.workdir + "/dataset-traced";
    remove_tree(traced_dir);
    const TracedBuild traced = traced_build(grid, threads, traced_dir);
    const std::string diff =
        first_difference(ref_dir, traced_dir, output_files());
    report.check("dataset.traced_identical", diff.empty(),
                 diff.empty() ? "traced shards and manifest match"
                              : "traced output differs: " + diff);
    report_layers(traced, threads, median(walls), traced_dir, report);
  }
  report.end_to_end.set("peak_rss_mib", peak_rss_mib());
  return report;
}

}  // namespace perfbench
