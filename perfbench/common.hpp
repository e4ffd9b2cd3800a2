// Shared plumbing of the benchmark's workload binary: clocks, order
// statistics, file helpers, the per-run report, and the timing sink that
// the traced legs wrap around a workload's real SampleSink.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "metrics/sample_sink.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0
/// for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory owned by this run
  double latency_limit_ms = 0.0;  ///< serve_mixed goodput limit
  /// Nominal thermometer pass time: gated times are scaled to it.
  double host_reference_ms = 0.0;
};

/// What one workload run hands back to main(): the end-to-end metrics
/// (uniform names), the workload's own named metrics, the per-layer
/// metrics of a traced run, correctness checks, and the configuration
/// actually used.
struct Report {
  hpas::Json config = hpas::Json::object();
  hpas::Json end_to_end = hpas::Json::object();
  hpas::Json named = hpas::Json::object();
  hpas::Json layers = hpas::Json::object();
  hpas::Json checks = hpas::Json::array();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Directory whose files the pinned digests cover (relative to the
  /// workdir); empty when the workload pins nothing.
  std::string pinned_dir;

  void check(const std::string& name, bool ok, const std::string& detail);
  bool all_ok() const;
};

std::string read_file(const std::string& path);
void remove_tree(const std::string& path);
void make_dirs(const std::string& path);
std::uint64_t file_size(const std::string& path);
/// First file (by name) of `names` whose bytes differ between the two
/// directories, or empty when all are byte-identical.
std::string first_difference(const std::string& a, const std::string& b,
                             const std::vector<std::string>& names);

/// Process-wide peak resident set (VmHWM) in MiB.
double peak_rss_mib();

/// Forwards every sample to `inner` (when set) and records how long the
/// forwarding took, how many samples passed, and when the first one
/// arrived -- the t=0 sample that ends world build. Single-threaded: one
/// instance per scenario.
class TimingSink final : public hpas::metrics::SampleSink {
 public:
  explicit TimingSink(hpas::metrics::SampleSink* inner = nullptr)
      : inner_(inner) {}

  void on_sample(const hpas::metrics::MetricId& id, double timestamp,
                 double value) override;

  bool seen_first() const { return samples_ > 0; }
  Clock::time_point first_sample() const { return first_; }
  std::uint64_t samples() const { return samples_; }
  /// Seconds spent inside `inner` after the first sample started.
  double inner_seconds() const { return inner_s_; }

 private:
  hpas::metrics::SampleSink* inner_;
  Clock::time_point first_{};
  std::uint64_t samples_ = 0;
  double inner_s_ = 0.0;
};

Report run_dataset_voltrino(const Args& args);
Report run_sim_dragonfly1k(const Args& args);
Report run_serve_mixed(const Args& args);

}  // namespace perfbench
