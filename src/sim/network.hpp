// Interconnect model: topology graph + max-min fair flow rates.
//
// Vertices are compute nodes and switches; edges are *trunks* -- an
// aggregate of physical links with a per-direction capacity. Modeling the
// Aries adaptive routing exactly (per-packet spreading over redundant
// paths) is unnecessary for HPAS's purposes: its observable effect is that
// traffic between two switch groups behaves as if it shared one fat pipe
// whose capacity is the sum of the parallel links. We therefore fold
// redundant links and adaptive routing into the trunk capacity
// (DESIGN.md, substitution table), and allocate per-flow rates with
// progressive-filling max-min fairness over the trunks of each flow's
// (deterministic, shortest) path.
//
// This reproduces the two properties Fig. 6 hinges on: bandwidth
// reduction under netoccupy is real but *limited* (the shared trunk is
// fatter than one NIC), and contention only appears on shared paths.
#pragma once

#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace hpas::sim {

struct Trunk {
  int a = 0;               ///< vertex id
  int b = 0;               ///< vertex id
  double capacity = 0.0;   ///< bytes/s per direction
};

struct Topology {
  int num_nodes = 0;     ///< vertices [0, num_nodes) are compute nodes
  int num_switches = 0;  ///< vertices [num_nodes, num_nodes+num_switches)
  std::vector<Trunk> trunks;

  int vertex_count() const { return num_nodes + num_switches; }
  int switch_vertex(int s) const { return num_nodes + s; }

  /// Two-tier "Aries-like" topology: `switches` groups of
  /// `nodes_per_switch` nodes; every node connects to its switch with
  /// `nic_bw`; all switch pairs are connected by a trunk of
  /// `inter_switch_bw` (redundant links + adaptive routing folded in).
  static Topology two_tier(int switches, int nodes_per_switch, double nic_bw,
                           double inter_switch_bw);

  /// Single-switch star (the Chameleon Cloud cluster of the paper).
  static Topology star(int nodes, double nic_bw);

  /// Dragonfly-lite (the topology of the congestion studies the paper
  /// builds on, e.g. Bhatele et al.): `groups` groups of
  /// `routers_per_group` routers, `nodes_per_router` nodes per router.
  /// Routers within a group are all-to-all with `local_bw` trunks; each
  /// pair of groups is joined by one `global_bw` trunk between gateway
  /// routers chosen round-robin, so different group pairs stress
  /// different gateways -- the source of dragonfly's characteristic
  /// hot-spot contention.
  static Topology dragonfly(int groups, int routers_per_group,
                            int nodes_per_router, double nic_bw,
                            double local_bw, double global_bw);
};

/// One active transfer, derived from a task in a kMessage phase.
struct Flow {
  Task* task = nullptr;
  int src = 0;
  int dst = 0;
  double rate = 0.0;  ///< assigned by compute_rates
};

class Network {
 public:
  explicit Network(Topology topology);

  const Topology& topology() const { return topo_; }

  /// Assigns max-min fair rates to `flows` and installs each rate as the
  /// owning task's progress rate. Flows between a node and itself get an
  /// effectively unbounded (loopback) rate. Allocation-free once warm:
  /// working state lives in reusable scratch buffers.
  void compute_rates(std::vector<Flow>& flows);

  /// The shortest path (sequence of trunk indices) between two compute
  /// nodes; exposed for tests.
  std::vector<int> path(int src_node, int dst_node);

 private:
  /// BFS from `src`: the trunk each vertex was first reached by (-1 for
  /// `src` itself and for unreached vertices).
  std::vector<int> bfs(int src) const;
  /// Writes the directed link ids along src -> dst into `links`, building
  /// src's BFS tree the first time src sends.
  void route(int src, int dst, std::vector<std::size_t>& links);

  Topology topo_;
  // adj_[v] = (neighbor, trunk index), sorted: BFS explores lower vertex
  // ids first, which is the deterministic tie-break between equal paths.
  std::vector<std::vector<std::pair<int, int>>> adj_;
  // via_[src] = bfs(src), built lazily; empty until src first sends.
  std::vector<std::vector<int>> via_;

  // Progressive-filling scratch, reused across compute_rates calls.
  // residual_ and active_on_link_ are indexed by directed link id; a solve
  // reads and writes only the entries of its touched_ links, and leaves
  // every active_on_link_ entry zero.
  std::vector<double> residual_;
  std::vector<std::vector<std::size_t>> flow_links_;
  std::vector<char> frozen_;
  std::vector<int> active_on_link_;
  std::vector<std::size_t> touched_;  ///< links the solve's flows cross
};

}  // namespace hpas::sim
