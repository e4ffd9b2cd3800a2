// Node model: cores + cache hierarchy + memory (capacity and bandwidth).
//
// The node assigns rates to its resident tasks:
//   1. CPU  -- per-core proportional share among the tasks pinned there;
//   2. Cache -- per-level shared-capacity pressure: a task's residency at
//      level l is cap_l / sum(working sets of the level's sharers),
//      clamped to 1. L1/L2 are private per logical core (two tasks pinned
//      to one core model the paper's hyperthread colocation, Fig. 3);
//      L3 is shared node-wide. Residency interpolates each task's MPKI
//      between its fully-resident (base) and fully-evicted (max) values;
//   3. CPI  -- CPI_0 plus miss stalls at each level, giving the
//      instruction rate;
//   4. Memory bandwidth -- every task's DRAM traffic (L3 misses x line
//      size, plus explicit streaming demand) competes max-min fairly for
//      the node's peak bandwidth; under-allocation throttles the
//      instruction (or streaming) rate proportionally.
//
// These four couplings are exactly the channels through which cpuoccupy,
// cachecopy and membw hurt their victims in the paper's Figs. 2-4 and 8.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/maxmin.hpp"
#include "sim/task.hpp"

namespace hpas::sim {

struct NodeConfig {
  int cores = 32;              ///< logical cores usable for pinning
  double freq_hz = 2.3e9;      ///< clock; IPS = freq / CPI
  double cpi0 = 1.0;           ///< no-stall CPI reference for ips_peak

  // Cache capacities (Voltrino's Haswell E5-2698 v3 by default).
  double l1_bytes = 32.0 * 1024;
  double l2_bytes = 256.0 * 1024;
  double l3_bytes = 40.0 * 1024 * 1024;

  // Miss service latencies in cycles and the fraction not hidden by MLP.
  double lat_l2_cycles = 12.0;
  double lat_l3_cycles = 40.0;
  double lat_mem_cycles = 200.0;
  double stall_exposed_fraction = 0.4;

  double memory_bytes = 125.0 * 1024 * 1024 * 1024;  ///< 125 GB per node
  double mem_bw_peak = 22.0e9;   ///< node-level DRAM bandwidth (bytes/s)
  double core_bw_limit = 12.5e9; ///< single-core streaming ceiling
  double os_base_memory = 2.0 * 1024 * 1024 * 1024;  ///< kernel + services

  /// Memory-controller congestion: at utilization rho, the effective
  /// memory latency becomes lat_mem x (1 + coeff x rho^3). This is the
  /// channel through which membw hurts colocated miss-bound applications
  /// even when their own (small) bandwidth demands are still met --
  /// bandwidth saturation shows up as queueing latency first (Fig. 4 vs
  /// Fig. 8 behaviour).
  double mem_congestion_coeff = 2.5;

  /// Aggregate throughput of one oversubscribed core, in core-equivalents.
  /// 1.0 = plain proportional time sharing (two full-demand tasks get
  /// 0.5 each). Real SMT siblings retire more combined work (~1.2-1.3 on
  /// Haswell), so a colocated anomaly steals less than half of its
  /// victim -- the reason the paper's Fig. 8/12 slowdowns are milder
  /// than strict time slicing predicts (see bench/ablation_smt).
  double smt_aggregate_throughput = 1.0;
};

/// Cumulative counters backing the LDMS-like samplers.
struct NodeCounters {
  double cpu_user_seconds = 0.0;  ///< core-seconds in user accounting
  double cpu_sys_seconds = 0.0;
  double instructions = 0.0;
  double l1_misses = 0.0;
  double l2_misses = 0.0;
  double l3_misses = 0.0;
  double dram_bytes = 0.0;
  double nic_tx_bytes = 0.0;
  double nic_rx_bytes = 0.0;
  double pages_faulted = 0.0;  ///< cumulative pages first-touched
};

class Node {
 public:
  Node(int id, NodeConfig config);

  int id() const { return id_; }
  const NodeConfig& config() const { return config_; }

  /// Cumulative counters. A node outside its World's monitoring scope
  /// (see World::enable_monitoring) does not integrate them, and reading
  /// them throws InvariantError naming the node.
  NodeCounters& counters() {
    if (!counted_) throw_not_counted();
    return counters_;
  }
  const NodeCounters& counters() const {
    if (!counted_) throw_not_counted();
    return counters_;
  }

  /// Memory capacity accounting. Gauge, not a rate.
  double memory_used() const { return memory_used_ + config_.os_base_memory; }
  double memory_free() const { return config_.memory_bytes - memory_used(); }
  /// Adjusts usage; returns false when the request would exceed capacity
  /// (caller decides OOM policy).
  bool adjust_memory(double delta_bytes);

  /// Computes and installs TaskRates for every task in `tasks` that is
  /// resident on this node and in a compute/stream/sleep phase. Message
  /// and I/O phases are rated by the network/storage models. Tasks on
  /// other nodes are ignored, so callers may pass either the full task
  /// set or a pre-filtered resident list. Allocation-free: all working
  /// state lives in per-node scratch buffers.
  void compute_rates(const std::vector<Task*>& tasks);

  /// Instantaneous total CPU utilization [0,1] across the node's cores
  /// given currently cached task rates (used by scheduler policies).
  double cpu_utilization(const std::vector<Task*>& tasks) const;

 private:
  friend class World;  // integrates counters_ and sets the scope
  struct LevelPressure;  // implementation detail (node.cpp)

  [[noreturn]] void throw_not_counted() const;

  int id_;
  NodeConfig config_;
  NodeCounters counters_;
  bool counted_ = true;
  double memory_used_ = 0.0;

  // Rate-solver scratch, reused across compute_rates calls so the
  // per-event hot path performs no heap allocation once warm.
  std::vector<Task*> mine_;
  std::vector<double> core_demand_, ws_l1_core_, ws_l2_core_;
  std::vector<double> mpki1_, mpki2_, mpki3_;
  std::vector<double> mem_demand_, cpu_rate_, bw_alloc_;
  MaxMinScratch mm_scratch_;
};

}  // namespace hpas::sim
