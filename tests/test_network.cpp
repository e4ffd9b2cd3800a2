// Tests for the interconnect model: topology construction, routing, and
// progressive-filling max-min flow rates.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>

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
  const DragonflyPreset p;
  const Topology topo =
      Topology::dragonfly(p.groups, p.routers_per_group, p.nodes_per_router,
                          p.nic_bw, p.local_bw, p.global_bw);
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
