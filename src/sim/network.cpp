#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace hpas::sim {

Topology Topology::two_tier(int switches, int nodes_per_switch, double nic_bw,
                            double inter_switch_bw) {
  require(switches >= 1 && nodes_per_switch >= 1,
          "two_tier: need at least one switch and node");
  Topology topo;
  topo.num_nodes = switches * nodes_per_switch;
  topo.num_switches = switches;
  for (int s = 0; s < switches; ++s) {
    for (int n = 0; n < nodes_per_switch; ++n) {
      topo.trunks.push_back(
          {s * nodes_per_switch + n, topo.switch_vertex(s), nic_bw});
    }
  }
  for (int s1 = 0; s1 < switches; ++s1) {
    for (int s2 = s1 + 1; s2 < switches; ++s2) {
      topo.trunks.push_back(
          {topo.switch_vertex(s1), topo.switch_vertex(s2), inter_switch_bw});
    }
  }
  return topo;
}

Topology Topology::star(int nodes, double nic_bw) {
  return two_tier(1, nodes, nic_bw, nic_bw);
}

Topology Topology::dragonfly(int groups, int routers_per_group,
                             int nodes_per_router, double nic_bw,
                             double local_bw, double global_bw) {
  require(groups >= 1 && routers_per_group >= 1 && nodes_per_router >= 1,
          "dragonfly: all dimensions must be positive");
  Topology topo;
  topo.num_nodes = groups * routers_per_group * nodes_per_router;
  topo.num_switches = groups * routers_per_group;

  const auto router_vertex = [&](int group, int router) {
    return topo.switch_vertex(group * routers_per_group + router);
  };

  // Node <-> router links.
  for (int g = 0; g < groups; ++g) {
    for (int r = 0; r < routers_per_group; ++r) {
      for (int n = 0; n < nodes_per_router; ++n) {
        const int node =
            (g * routers_per_group + r) * nodes_per_router + n;
        topo.trunks.push_back({node, router_vertex(g, r), nic_bw});
      }
    }
  }
  // Intra-group all-to-all local links.
  for (int g = 0; g < groups; ++g) {
    for (int r1 = 0; r1 < routers_per_group; ++r1) {
      for (int r2 = r1 + 1; r2 < routers_per_group; ++r2) {
        topo.trunks.push_back(
            {router_vertex(g, r1), router_vertex(g, r2), local_bw});
      }
    }
  }
  // One global link per group pair, gateways assigned round-robin.
  for (int g1 = 0; g1 < groups; ++g1) {
    for (int g2 = g1 + 1; g2 < groups; ++g2) {
      const int gateway1 = g2 % routers_per_group;
      const int gateway2 = g1 % routers_per_group;
      topo.trunks.push_back(
          {router_vertex(g1, gateway1), router_vertex(g2, gateway2),
           global_bw});
    }
  }
  return topo;
}

Network::Network(Topology topology) : topo_(std::move(topology)) {
  require(topo_.num_nodes >= 1, "Network: need at least one node");
  adj_.resize(static_cast<std::size_t>(topo_.vertex_count()));
  for (std::size_t t = 0; t < topo_.trunks.size(); ++t) {
    const Trunk& trunk = topo_.trunks[t];
    adj_[static_cast<std::size_t>(trunk.a)].push_back(
        {trunk.b, static_cast<int>(t)});
    adj_[static_cast<std::size_t>(trunk.b)].push_back(
        {trunk.a, static_cast<int>(t)});
  }
  for (auto& neighbors : adj_) std::sort(neighbors.begin(), neighbors.end());
  residual_.resize(topo_.trunks.size() * 2);
  active_on_link_.assign(topo_.trunks.size() * 2, 0);
  // Trunks are undirected, so one BFS decides connectivity for every pair.
  via_.resize(static_cast<std::size_t>(topo_.num_nodes));
  via_[0] = bfs(0);
  for (int node = 1; node < topo_.num_nodes; ++node)
    require(via_[0][static_cast<std::size_t>(node)] >= 0,
            "Network: topology is disconnected");
}

std::vector<int> Network::bfs(int src) const {
  std::vector<int> via(static_cast<std::size_t>(topo_.vertex_count()), -1);
  std::queue<int> frontier;
  frontier.push(src);
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop();
    for (const auto& [w, trunk] : adj_[static_cast<std::size_t>(u)]) {
      if (w == src || via[static_cast<std::size_t>(w)] >= 0) continue;
      via[static_cast<std::size_t>(w)] = trunk;
      frontier.push(w);
    }
  }
  return via;
}

void Network::route(int src, int dst, std::vector<std::size_t>& links) {
  require(src >= 0 && src < topo_.num_nodes && dst >= 0 &&
              dst < topo_.num_nodes,
          "Network: node id out of range");
  std::vector<int>& via = via_[static_cast<std::size_t>(src)];
  if (via.empty()) via = bfs(src);
  // Walk the tree back from dst (link ids as in compute_rates).
  links.clear();
  for (int at = dst; at != src;) {
    const int t = via[static_cast<std::size_t>(at)];
    const Trunk& trunk = topo_.trunks[static_cast<std::size_t>(t)];
    const bool forward = (trunk.b == at);
    links.push_back(2 * static_cast<std::size_t>(t) + (forward ? 0 : 1));
    at = forward ? trunk.a : trunk.b;
  }
  std::reverse(links.begin(), links.end());
}

std::vector<int> Network::path(int src_node, int dst_node) {
  std::vector<std::size_t> links;
  route(src_node, dst_node, links);
  std::vector<int> trunks;
  for (const std::size_t l : links) trunks.push_back(static_cast<int>(l / 2));
  return trunks;
}

void Network::compute_rates(std::vector<Flow>& flows) {
  constexpr double kLoopbackRate = 1.0e12;  // intra-node copies: ~free

  // Expand each flow's path into directed link ids (trunk t, direction
  // a->b is 2t, b->a is 2t+1). The outer scratch vector only grows; the
  // inner vectors keep their capacity across calls, so steady-state
  // recomputes allocate nothing.
  if (flow_links_.size() < flows.size()) flow_links_.resize(flows.size());
  frozen_.assign(flows.size(), 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    Flow& flow = flows[f];
    if (flow.src == flow.dst) {
      flow_links_[f].clear();
      flow.rate = kLoopbackRate;
      frozen_[f] = 1;
      continue;
    }
    route(flow.src, flow.dst, flow_links_[f]);
  }

  // Only the links some flow crosses take part in the solve: count their
  // flows, reset their residual, and keep them sorted by id so every scan
  // below visits them in the same order a scan of all links would.
  touched_.clear();
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const std::size_t l : flow_links_[f]) {
      if (active_on_link_[l]++ != 0) continue;
      touched_.push_back(l);
      residual_[l] = topo_.trunks[l / 2].capacity;
    }
  }
  std::sort(touched_.begin(), touched_.end());

  // Progressive filling: repeatedly find the bottleneck link (smallest
  // per-flow share, lowest id on ties), fix its flows at that share,
  // remove them, repeat. Freezing a flow decrements its links' counts, so
  // each round sees the counts a full recount would give.
  while (true) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    const std::size_t none = residual_.size();
    std::size_t bottleneck_link = none;
    for (const std::size_t l : touched_) {
      if (active_on_link_[l] == 0) continue;
      const double share = residual_[l] / active_on_link_[l];
      if (share < bottleneck_share) {
        bottleneck_share = share;
        bottleneck_link = l;
      }
    }
    if (bottleneck_link == none) break;  // no active flows left

    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen_[f]) continue;
      if (std::find(flow_links_[f].begin(), flow_links_[f].end(),
                    bottleneck_link) == flow_links_[f].end())
        continue;
      flows[f].rate = bottleneck_share;
      frozen_[f] = 1;
      for (const std::size_t l : flow_links_[f]) {
        residual_[l] = std::max(0.0, residual_[l] - bottleneck_share);
        --active_on_link_[l];
      }
    }
  }
  // Shares that never drop below infinity leave flows unfrozen and their
  // counts standing; clear them so the next solve starts from zero.
  for (const std::size_t l : touched_) active_on_link_[l] = 0;

  for (Flow& flow : flows) {
    if (flow.task != nullptr) {
      flow.task->rates() = TaskRates{};
      flow.task->rates().progress = flow.rate;
    }
  }
}

}  // namespace hpas::sim
