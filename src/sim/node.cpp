#include "sim/node.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "sim/maxmin.hpp"

namespace hpas::sim {
namespace {

constexpr double kCacheLineBytes = 64.0;

bool consumes_cpu(const Task& task) {
  const PhaseKind k = task.phase().kind;
  return k == PhaseKind::kCompute || k == PhaseKind::kStream;
}

bool occupies_cache(const Task& task) {
  // Cache pressure comes from tasks actively touching memory.
  return consumes_cpu(task);
}

double interpolate_mpki(double base, double max, double residency) {
  return base + (max - base) * (1.0 - residency);
}

}  // namespace

Node::Node(int id, NodeConfig config) : id_(id), config_(config) {
  require(config.cores > 0, "Node: cores must be positive");
  require(config.mem_bw_peak > 0 && config.core_bw_limit > 0,
          "Node: bandwidths must be positive");
}

void Node::throw_not_counted() const {
  throw InvariantError("node " + std::to_string(id_) +
                       " is not monitored; its counters are not integrated");
}

bool Node::adjust_memory(double delta_bytes) {
  const double next = memory_used_ + delta_bytes;
  if (next < 0.0) {
    memory_used_ = 0.0;
    return true;
  }
  if (next + config_.os_base_memory > config_.memory_bytes) return false;
  memory_used_ = next;
  if (delta_bytes > 0.0) counters_.pages_faulted += delta_bytes / 4096.0;
  return true;
}

void Node::compute_rates(const std::vector<Task*>& tasks) {
  // --- Gather this node's CPU-consuming tasks. -------------------------
  mine_.clear();
  for (Task* task : tasks) {
    if (task->node() == id_ && consumes_cpu(*task)) mine_.push_back(task);
  }
  const std::vector<Task*>& mine = mine_;

  // Per-core scratch, indexed by logical core id. Cores are validated at
  // spawn, but tests call this directly with hand-built tasks, so grow on
  // demand rather than trusting core < config_.cores.
  std::size_t max_core = static_cast<std::size_t>(config_.cores);
  for (const Task* task : mine) {
    max_core = std::max(max_core, static_cast<std::size_t>(task->core()) + 1);
  }
  core_demand_.assign(max_core, 0.0);
  ws_l1_core_.assign(max_core, 0.0);
  ws_l2_core_.assign(max_core, 0.0);

  // --- 1. Per-core proportional CPU shares. ----------------------------
  for (const Task* task : mine)
    core_demand_[static_cast<std::size_t>(task->core())] +=
        task->profile().cpu_demand;
  auto cpu_share = [&](const Task& task) {
    const double total = core_demand_[static_cast<std::size_t>(task.core())];
    const double d = task.profile().cpu_demand;
    if (total <= 1.0) return d;
    // Oversubscribed: the core delivers up to smt_aggregate_throughput
    // core-equivalents, split proportionally to demand.
    const double capacity = std::min(total, config_.smt_aggregate_throughput);
    return d * std::max(1.0, capacity) / total;
  };

  // --- 2. Cache pressure per level. -------------------------------------
  // Private levels (L1/L2): sum of working sets of cache-occupying tasks
  // sharing the core. Shared level (L3): node-wide sum.
  double ws_l3_total = 0.0;
  for (const Task* task : mine) {
    if (!occupies_cache(*task)) continue;
    const double ws = task->profile().working_set_bytes;
    const auto core = static_cast<std::size_t>(task->core());
    ws_l1_core_[core] += std::min(ws, config_.l1_bytes);
    ws_l2_core_[core] += std::min(ws, config_.l2_bytes);
    ws_l3_total += std::min(ws, config_.l3_bytes);
  }
  auto residency = [](double capacity, double total_ws) {
    if (total_ws <= capacity) return 1.0;
    return capacity / total_ws;
  };

  // --- 3a. Per-task MPKI at each level (residency + miss chain). -------
  // Miss chain: extra misses at an upper level become extra *accesses*
  // to the level below, so each level's MPKI scales with the increase
  // of the level above (on top of its own residency-driven miss-ratio
  // change). This is what lets an L1/L2-sized cachecopy raise a
  // victim's L3 MPKI (paper Fig. 3).
  mpki1_.assign(mine.size(), 0.0);
  mpki2_.assign(mine.size(), 0.0);
  mpki3_.assign(mine.size(), 0.0);
  std::vector<double>&mpki1 = mpki1_, &mpki2 = mpki2_, &mpki3 = mpki3_;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const Task& task = *mine[i];
    const TaskProfile& p = task.profile();
    if (task.phase().kind == PhaseKind::kStream) continue;
    const auto core = static_cast<std::size_t>(task.core());
    const double res1 = residency(config_.l1_bytes, ws_l1_core_[core]);
    const double res2 = residency(config_.l2_bytes, ws_l2_core_[core]);
    const double res3 = residency(config_.l3_bytes, ws_l3_total);
    const double m1 = interpolate_mpki(p.m1_base, p.m1_max, res1);
    const double m1_scale = p.m1_base > 0.0 ? m1 / p.m1_base : 1.0;
    const double m2 = std::min(
        m1, interpolate_mpki(p.m2_base, p.m2_max, res2) * m1_scale);
    const double m2_scale = p.m2_base > 0.0 ? m2 / p.m2_base : 1.0;
    const double m3 = std::min(
        m2, interpolate_mpki(p.m3_base, p.m3_max, res3) * m2_scale);
    mpki1[i] = m1;
    mpki2[i] = m2;
    mpki3[i] = m3;
  }

  // --- 3b. Memory-controller utilization (uncongested estimate). -------
  auto ips_for = [&](const Task& task, double m1, double m2, double m3,
                     double lat_mem, double share) {
    const double cpi0 = config_.freq_hz / task.profile().ips_peak;
    const double stall_cycles =
        (m1 * config_.lat_l2_cycles + m2 * config_.lat_l3_cycles +
         m3 * lat_mem) /
        1000.0 * config_.stall_exposed_fraction;
    return config_.freq_hz / (cpi0 + stall_cycles) * share;
  };
  double total_demand_estimate = 0.0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const Task& task = *mine[i];
    const double share = cpu_share(task);
    if (task.phase().kind == PhaseKind::kStream) {
      total_demand_estimate +=
          std::min(task.profile().stream_bw_demand, config_.core_bw_limit) *
          (share / task.profile().cpu_demand);
    } else {
      const double ips = ips_for(task, mpki1[i], mpki2[i], mpki3[i],
                                 config_.lat_mem_cycles, share);
      total_demand_estimate += ips * mpki3[i] / 1000.0 * kCacheLineBytes;
    }
  }
  const double rho =
      std::min(1.0, total_demand_estimate / config_.mem_bw_peak);
  const double lat_mem_eff =
      config_.lat_mem_cycles *
      (1.0 + config_.mem_congestion_coeff * rho * rho * rho);

  // --- 3c. Final instruction rates and DRAM demands (congested). -------
  mem_demand_.assign(mine.size(), 0.0);
  cpu_rate_.assign(mine.size(), 0.0);
  std::vector<double>& mem_demand = mem_demand_;
  std::vector<double>& cpu_rate = cpu_rate_;  // work-units/s pre-BW
  for (std::size_t i = 0; i < mine.size(); ++i) {
    Task& task = *mine[i];
    const TaskProfile& p = task.profile();
    const double share = cpu_share(task);
    TaskRates& r = task.rates();
    r = TaskRates{};
    r.cpu_share = share;

    if (task.phase().kind == PhaseKind::kStream) {
      // Streaming phases: progress is bytes; demand capped by the
      // single-core ceiling and scaled by the CPU share actually granted.
      const double scale = share / p.cpu_demand;
      mem_demand[i] =
          std::min(p.stream_bw_demand, config_.core_bw_limit) * scale;
      cpu_rate[i] = mem_demand[i];
      continue;
    }

    const double ips =
        ips_for(task, mpki1[i], mpki2[i], mpki3[i], lat_mem_eff, share);
    r.instr_rate = ips;  // refined below by the bandwidth throttle
    r.l1_miss_rate = ips * mpki1[i] / 1000.0;
    r.l2_miss_rate = ips * mpki2[i] / 1000.0;
    r.l3_miss_rate = ips * mpki3[i] / 1000.0;
    mem_demand[i] = std::min(ips * mpki3[i] / 1000.0 * kCacheLineBytes,
                             config_.core_bw_limit);
    cpu_rate[i] = ips;
  }

  // --- 4. Max-min fair DRAM bandwidth; throttle under-allocated tasks. --
  bw_alloc_.resize(mine.size());
  max_min_allocate_into(config_.mem_bw_peak, mem_demand, bw_alloc_,
                        mm_scratch_);
  const std::vector<double>& alloc = bw_alloc_;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    Task& task = *mine[i];
    TaskRates& r = task.rates();
    const double factor =
        mem_demand[i] > 0.0 ? alloc[i] / mem_demand[i] : 1.0;
    if (task.phase().kind == PhaseKind::kStream) {
      r.progress = alloc[i];
      r.dram_rate = alloc[i];
      // A streaming kernel still retires instructions -- roughly a store
      // plus half a bookkeeping op per 8-byte element for a MOVNT loop.
      // The stores bypass the caches, so (unlike cachecopy) it adds no
      // miss traffic; this is exactly why membw and cpuoccupy look alike
      // to instruction/miss counters (paper Fig. 10's confusion block).
      r.instr_rate = alloc[i] / 8.0 * 1.5;
    } else {
      r.progress = cpu_rate[i] * factor;
      r.instr_rate = r.progress;
      r.l1_miss_rate *= factor;
      r.l2_miss_rate *= factor;
      r.l3_miss_rate *= factor;
      r.dram_rate = alloc[i];
    }
  }

  // --- Sleep phases tick at rate 1 (seconds of work per second). -------
  for (Task* task : tasks) {
    if (task->node() != id_) continue;
    if (task->phase().kind == PhaseKind::kSleep) {
      task->rates() = TaskRates{};
      task->rates().progress = 1.0;
    }
  }
}

double Node::cpu_utilization(const std::vector<Task*>& tasks) const {
  double busy = 0.0;
  for (const Task* task : tasks) {
    if (task->node() == id_) busy += task->rates().cpu_share;
  }
  return std::min(1.0, busy / static_cast<double>(config_.cores));
}

}  // namespace hpas::sim
