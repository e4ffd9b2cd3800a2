// Host speed thermometer. On a shared VM the same code runs up to ~20%
// faster or slower from one few-minute stretch to the next: other tenants
// take turns on the caches, the memory bus and the hyperthread siblings,
// and little of it shows as steal time. Two runs of the same workload a
// few minutes apart then differ by more than a regression worth catching,
// while runs of two different builds taken back to back rise and fall
// together.
//
// So a run also times a fixed reference pass now and then -- integer
// mixing and a pointer chase through 4 MiB, about 10 ms each on a 2.1 GHz
// Xeon vCPU, code that shares nothing with HPAS -- and the gated figures
// are scaled by the median pass time over the nominal one: figures at
// reference host speed. The passes run in a child process, so their
// buffer stays out of the workload's peak RSS, and only between units of
// work, never beside them.
#pragma once

#include <sys/types.h>

#include <vector>

#include "common.hpp"

namespace perfbench {

class Thermometer {
 public:
  /// Starts the child (this binary with --thermometer), whose passes run
  /// on `threads` threads at once, as many as the workload keeps busy.
  explicit Thermometer(int threads);
  ~Thermometer();
  Thermometer(const Thermometer&) = delete;
  Thermometer& operator=(const Thermometer&) = delete;

  /// Runs one reference pass in the child; returns its milliseconds.
  double pass();
  /// Runs a pass if none ran in the last `interval_s` seconds.
  void pass_every(double interval_s);

  /// Median pass time so far.
  double median_ms() const { return median(passes_); }
  /// How much slower than the reference the host ran (median pass time
  /// over `reference_ms`): divide a time by it, multiply a rate.
  double slowdown(double reference_ms) const {
    return median_ms() / reference_ms;
  }
  std::size_t passes() const { return passes_.size(); }

 private:
  unsigned char threads_;
  pid_t child_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::vector<double> passes_;
  Clock::time_point last_{};
};

/// The child's side: builds the pass's buffer, then for each byte read
/// from stdin runs a pass on that many threads and writes their mean
/// milliseconds, until stdin closes.
int thermometer_main();

}  // namespace perfbench
