// Tests for the interconnect model: topology construction, routing, and
// progressive-filling max-min flow rates.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/cluster.hpp"

namespace hpas::sim {
namespace {

std::unique_ptr<Task> message_task(int src, int dst) {
  TaskProfile profile;
  auto task = std::make_unique<Task>("msg", src, 0, profile,
                                     [](Task&) { return Phase::done(); });
  task->set_phase(Phase::message(dst, 1e9));
  return task;
}

Topology dragonfly1k() {
  const DragonflyPreset p;
  return Topology::dragonfly(p.groups, p.routers_per_group,
                             p.nodes_per_router, p.nic_bw, p.local_bw,
                             p.global_bw);
}

TEST(Topology, TwoTierShape) {
  const Topology topo = Topology::two_tier(2, 4, 10e9, 18e9);
  EXPECT_EQ(topo.num_nodes, 8);
  EXPECT_EQ(topo.num_switches, 2);
  // 8 NIC trunks + 1 inter-switch trunk.
  EXPECT_EQ(topo.trunks.size(), 9u);
}

TEST(Topology, StarShape) {
  const Topology topo = Topology::star(5, 1e9);
  EXPECT_EQ(topo.num_nodes, 5);
  EXPECT_EQ(topo.num_switches, 1);
  EXPECT_EQ(topo.trunks.size(), 5u);
}

TEST(Network, IntraSwitchPathHasTwoHops) {
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  EXPECT_EQ(net.path(0, 1).size(), 2u);  // node->switch->node
}

TEST(Network, InterSwitchPathCrossesTrunk) {
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  EXPECT_EQ(net.path(0, 4).size(), 3u);  // node->sw0->sw1->node
}

TEST(Network, PathLookupValidatesIds) {
  Network net(Topology::star(3, 1e9));
  EXPECT_THROW(net.path(0, 3), InvariantError);
  EXPECT_THROW(net.path(-1, 0), InvariantError);
}

TEST(Network, SingleFlowLimitedByNic) {
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  auto task = message_task(0, 4);
  std::vector<Flow> flows = {{task.get(), 0, 4, 0.0}};
  net.compute_rates(flows);
  EXPECT_NEAR(flows[0].rate, 10e9, 1.0);
  EXPECT_NEAR(task->rates().progress, 10e9, 1.0);
}

TEST(Network, TrunkSharedMaxMinAcrossPairs) {
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  auto t1 = message_task(0, 4);
  auto t2 = message_task(1, 5);
  auto t3 = message_task(2, 6);
  std::vector<Flow> flows = {{t1.get(), 0, 4, 0.0},
                             {t2.get(), 1, 5, 0.0},
                             {t3.get(), 2, 6, 0.0}};
  net.compute_rates(flows);
  // Three flows share the 18 GB/s inter-switch trunk: 6 GB/s each.
  for (const Flow& flow : flows) EXPECT_NEAR(flow.rate, 6e9, 1.0);
}

TEST(Network, IntraSwitchFlowsAvoidTrunkContention) {
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  auto cross = message_task(0, 4);
  auto local = message_task(1, 2);  // same switch: no trunk hop
  std::vector<Flow> flows = {{cross.get(), 0, 4, 0.0},
                             {local.get(), 1, 2, 0.0}};
  net.compute_rates(flows);
  EXPECT_NEAR(flows[0].rate, 10e9, 1.0);
  EXPECT_NEAR(flows[1].rate, 10e9, 1.0);
}

TEST(Network, NicSharedByFlowsFromSameNode) {
  Network net(Topology::star(4, 10e9));
  auto a = message_task(0, 1);
  auto b = message_task(0, 2);
  std::vector<Flow> flows = {{a.get(), 0, 1, 0.0}, {b.get(), 0, 2, 0.0}};
  net.compute_rates(flows);
  EXPECT_NEAR(flows[0].rate, 5e9, 1.0);
  EXPECT_NEAR(flows[1].rate, 5e9, 1.0);
}

TEST(Network, LoopbackFlowsAreFree) {
  Network net(Topology::star(3, 1e9));
  auto task = message_task(1, 1);
  std::vector<Flow> flows = {{task.get(), 1, 1, 0.0}};
  net.compute_rates(flows);
  EXPECT_GT(flows[0].rate, 1e11);
}

TEST(Network, DirectionsAreIndependent) {
  // Full-duplex trunks: A->B traffic does not throttle B->A.
  Network net(Topology::two_tier(2, 1, 10e9, 10e9));
  auto fwd = message_task(0, 1);
  auto rev = message_task(1, 0);
  std::vector<Flow> flows = {{fwd.get(), 0, 1, 0.0}, {rev.get(), 1, 0, 0.0}};
  net.compute_rates(flows);
  EXPECT_NEAR(flows[0].rate, 10e9, 1.0);
  EXPECT_NEAR(flows[1].rate, 10e9, 1.0);
}

/// The eager router Network used to run at construction: a BFS from every
/// source over the sorted adjacency, each path read back through the
/// predecessor arrays. Kept here only as the reference for lazy routing.
class EagerRoutes {
 public:
  explicit EagerRoutes(const Topology& topo)
      : topo_(topo), adj_(static_cast<std::size_t>(topo.vertex_count())) {
    for (std::size_t t = 0; t < topo.trunks.size(); ++t) {
      const Trunk& trunk = topo.trunks[t];
      adj_[static_cast<std::size_t>(trunk.a)].push_back(
          {trunk.b, static_cast<int>(t)});
      adj_[static_cast<std::size_t>(trunk.b)].push_back(
          {trunk.a, static_cast<int>(t)});
    }
    for (auto& neighbors : adj_) std::sort(neighbors.begin(), neighbors.end());
  }

  std::vector<int> path(int src, int dst) {
    if (src != bfs_src_) bfs(src);
    std::vector<int> trunks;
    for (int at = dst; at != src;
         at = prev_vertex_[static_cast<std::size_t>(at)])
      trunks.push_back(prev_trunk_[static_cast<std::size_t>(at)]);
    std::reverse(trunks.begin(), trunks.end());
    return trunks;
  }

 private:
  void bfs(int src) {
    const auto v = static_cast<std::size_t>(topo_.vertex_count());
    prev_vertex_.assign(v, -1);
    prev_trunk_.assign(v, -1);
    std::vector<bool> seen(v, false);
    std::queue<int> frontier;
    frontier.push(src);
    seen[static_cast<std::size_t>(src)] = true;
    while (!frontier.empty()) {
      const int u = frontier.front();
      frontier.pop();
      for (const auto& [w, trunk] : adj_[static_cast<std::size_t>(u)]) {
        if (seen[static_cast<std::size_t>(w)]) continue;
        seen[static_cast<std::size_t>(w)] = true;
        prev_vertex_[static_cast<std::size_t>(w)] = u;
        prev_trunk_[static_cast<std::size_t>(w)] = trunk;
        frontier.push(w);
      }
    }
    bfs_src_ = src;
  }

  Topology topo_;
  std::vector<std::vector<std::pair<int, int>>> adj_;
  std::vector<int> prev_vertex_;
  std::vector<int> prev_trunk_;
  int bfs_src_ = -1;
};

TEST(RoutingEquivalence, LazyPathsMatchEagerBfsOnEveryPair) {
  for (const Topology& topo :
       {Topology::two_tier(2, 4, 10e9, 18e9), Topology::star(3, 1e9),
        Topology::dragonfly(2, 2, 4, 10e9, 40e9, 15e9)}) {
    Network net(topo);
    EagerRoutes eager(topo);
    for (int src = 0; src < topo.num_nodes; ++src) {
      for (int dst = 0; dst < topo.num_nodes; ++dst)
        EXPECT_EQ(net.path(src, dst), eager.path(src, dst))
            << src << " -> " << dst << " of " << topo.num_nodes;
    }
  }
}

TEST(RoutingEquivalence, LazyPathsMatchEagerBfsOnDragonflyPresetSample) {
  const Topology topo = dragonfly1k();
  ASSERT_EQ(topo.num_nodes, 1024);
  Network net(topo);
  EagerRoutes eager(topo);
  Rng rng(2019);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 10000; ++i) {
    pairs.emplace_back(static_cast<int>(rng.next_below(1024)),
                       static_cast<int>(rng.next_below(1024)));
  }
  // Grouping by source keeps the reference at one BFS per source.
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [src, dst] : pairs)
    ASSERT_EQ(net.path(src, dst), eager.path(src, dst))
        << src << " -> " << dst;
}

TEST(RoutingEquivalence, DisconnectedTopologyThrowsFromConstructor) {
  Topology topo = Topology::two_tier(2, 2, 10e9, 18e9);
  topo.trunks.pop_back();  // the only inter-switch trunk
  EXPECT_THROW({ Network net(topo); }, InvariantError);
  Topology stray = Topology::star(3, 1e9);
  stray.trunks.erase(stray.trunks.begin() + 1);  // node 1 loses its NIC
  EXPECT_THROW({ Network net(stray); }, InvariantError);
}

/// The progressive filling compute_rates ran before it solved only the
/// links its flows cross: every round recounts the flows on all directed
/// links and scans them all. Kept here only as the reference for the
/// touched-link solve.
std::vector<double> full_scan_rates(const Topology& topo, EagerRoutes& routes,
                                    const std::vector<Flow>& flows) {
  constexpr double kLoopbackRate = 1.0e12;
  const std::size_t num_links = topo.trunks.size() * 2;
  std::vector<double> residual(num_links);
  for (std::size_t t = 0; t < topo.trunks.size(); ++t) {
    residual[2 * t] = topo.trunks[t].capacity;
    residual[2 * t + 1] = topo.trunks[t].capacity;
  }
  std::vector<double> rates;  // a flow that never freezes keeps its rate
  for (const Flow& flow : flows) rates.push_back(flow.rate);
  std::vector<std::vector<std::size_t>> links(flows.size());
  std::vector<char> frozen(flows.size(), 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].src == flows[f].dst) {
      rates[f] = kLoopbackRate;
      frozen[f] = 1;
      continue;
    }
    // Trunk t carries a->b as link 2t and b->a as link 2t+1.
    int at = flows[f].src;
    for (const int t : routes.path(flows[f].src, flows[f].dst)) {
      const Trunk& trunk = topo.trunks[static_cast<std::size_t>(t)];
      const bool forward = trunk.a == at;
      links[f].push_back(2 * static_cast<std::size_t>(t) + (forward ? 0 : 1));
      at = forward ? trunk.b : trunk.a;
    }
  }
  while (true) {
    double bottleneck_share = std::numeric_limits<double>::infinity();
    std::size_t bottleneck_link = num_links;
    std::vector<int> active(num_links, 0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f]) continue;
      for (const std::size_t l : links[f]) ++active[l];
    }
    for (std::size_t l = 0; l < num_links; ++l) {
      if (active[l] == 0) continue;
      const double share = residual[l] / active[l];
      if (share < bottleneck_share) {
        bottleneck_share = share;
        bottleneck_link = l;
      }
    }
    if (bottleneck_link == num_links) break;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f]) continue;
      if (std::find(links[f].begin(), links[f].end(), bottleneck_link) ==
          links[f].end())
        continue;
      rates[f] = bottleneck_share;
      frozen[f] = 1;
      for (const std::size_t l : links[f])
        residual[l] = std::max(0.0, residual[l] - bottleneck_share);
    }
  }
  return rates;
}

/// Solves `flows` on `net` and on the full-scan reference, and requires
/// every rate to match bit for bit.
void expect_same_rates_as_full_scan(Network& net, EagerRoutes& routes,
                                    std::vector<Flow> flows,
                                    const std::string& what) {
  const std::vector<double> expected =
      full_scan_rates(net.topology(), routes, flows);
  net.compute_rates(flows);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(flows[f].rate),
              std::bit_cast<std::uint64_t>(expected[f]))
        << what << ": flow " << f << " (" << flows[f].src << " -> "
        << flows[f].dst << ") got " << flows[f].rate << ", full scan "
        << expected[f];
  }
}

/// `count` flows between nodes drawn from [lo, hi); about one in eight is
/// a loopback flow.
std::vector<Flow> random_flows(Rng& rng, int count, int lo, int hi) {
  std::vector<Flow> flows;
  const auto span = static_cast<std::uint64_t>(hi - lo);
  for (int i = 0; i < count; ++i) {
    const int src = lo + static_cast<int>(rng.next_below(span));
    const int dst = rng.next_below(8) == 0
                        ? src
                        : lo + static_cast<int>(rng.next_below(span));
    flows.push_back({nullptr, src, dst, 0.0});
  }
  return flows;
}

TEST(SolverEquivalence, TouchedLinkSolveMatchesFullScanBitwise) {
  for (const Topology& topo :
       {Topology::star(6, 1e9), Topology::two_tier(4, 8, 10e9, 18e9),
        dragonfly1k()}) {
    Network net(topo);
    EagerRoutes routes(topo);
    Rng rng(static_cast<std::uint64_t>(topo.num_nodes));
    for (int round = 0; round < 60; ++round) {
      const int count = 1 + static_cast<int>(rng.next_below(40));
      expect_same_rates_as_full_scan(
          net, routes, random_flows(rng, count, 0, topo.num_nodes),
          std::to_string(topo.num_nodes) + " nodes, round " +
              std::to_string(round));
    }
  }
}

TEST(SolverEquivalence, RepeatedCallsGrowShrinkAndMoveToDisjointLinks) {
  // One Network solves a sequence of flow sets; any scratch a solve left
  // behind (a count not back at zero, a residual from an earlier solve)
  // shows up as a rate that differs from the fresh full scan. Unbounded
  // NICs never bottleneck, so intra-switch flows there stay unfrozen and
  // keep their input rate in both solvers.
  const double unbounded = std::numeric_limits<double>::infinity();
  for (const Topology& topo :
       {Topology::two_tier(4, 8, 10e9, 18e9),
        Topology::two_tier(2, 8, unbounded, 18e9), dragonfly1k()}) {
    Network net(topo);
    EagerRoutes routes(topo);
    Rng rng(7);
    const int half = topo.num_nodes / 2;
    const std::string name = std::to_string(topo.num_nodes) + " nodes, ";
    // Grow, then shrink, on the same links.
    for (int count = 1; count <= 48; count += 3)
      expect_same_rates_as_full_scan(net, routes,
                                     random_flows(rng, count, 0, half),
                                     name + "grow " + std::to_string(count));
    for (int count = 48; count >= 0; count -= 5)
      expect_same_rates_as_full_scan(
          net, routes, random_flows(rng, count, 0, half),
          name + "shrink " + std::to_string(count));
    // Alternate between the two halves of the machine, whose flows share
    // no link, then span both.
    for (int round = 0; round < 10; ++round) {
      const int lo = round % 2 == 0 ? half : 0;
      expect_same_rates_as_full_scan(
          net, routes, random_flows(rng, 12, lo, lo + half),
          name + "disjoint round " + std::to_string(round));
    }
    expect_same_rates_as_full_scan(
        net, routes, random_flows(rng, 30, 0, topo.num_nodes), name + "all");
    // Loopback only, then empty, then traffic again.
    expect_same_rates_as_full_scan(net, routes, {{nullptr, 3, 3, 0.0}},
                                   name + "loopback only");
    expect_same_rates_as_full_scan(net, routes, {}, name + "empty");
    expect_same_rates_as_full_scan(
        net, routes, random_flows(rng, 20, 0, topo.num_nodes),
        name + "after empty");
  }
}

TEST(SolverEquivalence, LowestLinkIdWinsAnExactTie) {
  // Star of five nodes around one switch: trunk i joins node i to the
  // switch, so node i -> switch is link 2i and switch -> node i is 2i+1.
  // Two links tie exactly at share s = 1/3. Freezing one link's flows
  // first or the other's gives rates one ulp apart, so the rates show
  // which link the solve picked.
  const double s = 1.0 / 3.0;
  const double after = (1.0 - s) / 2;
  ASSERT_NE(std::bit_cast<std::uint64_t>(after),
            std::bit_cast<std::uint64_t>(s));
  const auto star = [](double cap0, double cap1) {
    Topology topo;
    topo.num_nodes = 5;
    topo.num_switches = 1;
    for (int n = 0; n < 5; ++n)
      topo.trunks.push_back({n, topo.switch_vertex(0), n == 0   ? cap0
                                                       : n == 1 ? cap1
                                                                : 1e12});
    return topo;
  };
  const auto rates = [](const Topology& topo, std::vector<Flow> flows) {
    Network net(topo);
    net.compute_rates(flows);
    std::vector<std::uint64_t> bits;
    for (const Flow& f : flows)
      bits.push_back(std::bit_cast<std::uint64_t>(f.rate));
    return bits;
  };
  const std::uint64_t s_bits = std::bit_cast<std::uint64_t>(s);
  const std::uint64_t after_bits = std::bit_cast<std::uint64_t>(after);

  // Link 0 (node 0 out, 2 flows, capacity 2s) beats link 3 (node 1 in,
  // 3 flows, capacity 1): 3 -> 1 and 4 -> 1 get (1 - s) / 2, not s.
  EXPECT_EQ(rates(star(2 * s, 1.0), {{nullptr, 0, 1, 0.0},
                                      {nullptr, 0, 2, 0.0},
                                      {nullptr, 3, 1, 0.0},
                                      {nullptr, 4, 1, 0.0}}),
            (std::vector<std::uint64_t>{s_bits, s_bits, after_bits,
                                        after_bits}));
  // Mirrored: link 1 (node 0 in, 3 flows, capacity 1) beats link 2
  // (node 1 out, 2 flows, capacity 2s), so every flow gets s.
  EXPECT_EQ(rates(star(1.0, 2 * s), {{nullptr, 1, 0, 0.0},
                                      {nullptr, 1, 2, 0.0},
                                      {nullptr, 3, 0, 0.0},
                                      {nullptr, 4, 0, 0.0}}),
            (std::vector<std::uint64_t>{s_bits, s_bits, s_bits, s_bits}));
}

/// Property: total rate over any trunk direction never exceeds capacity.
class NetworkLoadProperty : public ::testing::TestWithParam<int> {};

TEST_P(NetworkLoadProperty, CapacityRespected) {
  const int pairs = GetParam();
  Network net(Topology::two_tier(2, 4, 10e9, 18e9));
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<Flow> flows;
  for (int i = 0; i < pairs; ++i) {
    const int src = i % 4;
    const int dst = 4 + (i % 4);
    tasks.push_back(message_task(src, dst));
    flows.push_back({tasks.back().get(), src, dst, 0.0});
  }
  net.compute_rates(flows);
  double trunk_total = 0.0;
  for (const Flow& flow : flows) trunk_total += flow.rate;
  EXPECT_LE(trunk_total, 18e9 + 1.0);
  for (const Flow& flow : flows) EXPECT_GT(flow.rate, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PairCounts, NetworkLoadProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace hpas::sim
