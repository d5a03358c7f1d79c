// Property tests for next-hop routing (the IP-routing application of
// Theorem 1.1, Section 1) and the first-hop tracking in the flood
// primitives.
//
// The Section 1 invariant, tested as a property over every pair: greedy
// forwarding that consults only the current node's next_hop entry reaches
// the destination, realizes exactly query(u, v) total weight, and takes at
// most query(u, v) hops — with integer weights ≥ 1 the remaining distance
// strictly decreases every hop, so dist is itself a hop budget. The same
// walk is checked against the label oracle and the materialized matrices
// (they are asserted bit-identical elsewhere; here each drives its own
// forwarding pass).
#include <gtest/gtest.h>

#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/flood.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

u64 edge_weight(const graph& g, u32 a, u32 b) {
  for (const edge& e : g.neighbors(a))
    if (e.to == b) return e.weight;
  return kInfDist;
}

struct walk {
  bool reached = false;
  u64 weight = 0;
  u64 hops = 0;
};

/// Forward a packet using only per-node tables; `hop_of(cur)` is the
/// current node's routing-table lookup, `budget` the maximum admissible
/// hop count (the property under test: budget = d(u, v) suffices).
template <class HopFn>
walk route(const graph& g, u32 src, u32 dst, u64 budget, HopFn hop_of) {
  walk w;
  u32 cur = src;
  while (cur != dst) {
    if (w.hops == budget) return w;  // property violated: too many hops
    const u32 nh = hop_of(cur);
    if (nh == ~u32{0}) return w;
    const u64 ew = edge_weight(g, cur, nh);
    if (ew == kInfDist) return w;  // next hop must be a neighbor
    w.weight += ew;
    ++w.hops;
    cur = nh;
  }
  w.reached = true;
  return w;
}

class RoutingTables : public ::testing::TestWithParam<std::tuple<int, u64>> {};

TEST_P(RoutingTables, GreedyForwardingRealizesQueryInAtMostDistHops) {
  const auto [kind, seed] = GetParam();
  graph g;
  switch (kind) {
    case 0: g = gen::erdos_renyi_connected(96, 5.0, 9, seed); break;
    case 1: g = gen::grid(10, 10, 7, seed); break;
    case 2: g = gen::path(96, 9, seed); break;
    default: g = gen::barbell(16, 30, 5, seed); break;
  }
  const apsp_result res = hybrid_apsp_exact(g, cfg(), seed, true);
  const u32 n = g.num_nodes();
  ASSERT_EQ(res.next_hop.size(), n);
  ASSERT_TRUE(res.labels.routes);
  for (u32 u = 0; u < n; ++u) {
    EXPECT_EQ(res.next_hop[u][u], u);
    EXPECT_EQ(res.labels.next_hop(u, u), u);
    for (u32 v = 0; v < n; ++v) {
      if (u == v) continue;
      const u64 d = res.labels.query(u, v);
      ASSERT_EQ(d, res.dist[u][v]);
      // Oracle-driven walk: every step consults labels.next_hop only.
      const walk via_labels = route(
          g, u, v, d, [&](u32 cur) { return res.labels.next_hop(cur, v); });
      ASSERT_TRUE(via_labels.reached) << u << "->" << v;
      ASSERT_EQ(via_labels.weight, d) << u << "->" << v;
      ASSERT_LE(via_labels.hops, d) << u << "->" << v;
      // Materialized-table walk realizes the same property.
      const walk via_matrix =
          route(g, u, v, d, [&](u32 cur) { return res.next_hop[cur][v]; });
      ASSERT_TRUE(via_matrix.reached) << u << "->" << v;
      ASSERT_EQ(via_matrix.weight, d) << u << "->" << v;
      ASSERT_LE(via_matrix.hops, d) << u << "->" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, RoutingTables,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1u, 2u)));

TEST(RoutingTables, PropertyHoldsInLabelOnlyStorage) {
  // The oracle alone (no materialized matrices) satisfies the forwarding
  // property — the n = 10⁵ regime's routing story in miniature.
  sim_options o;
  o.storage = result_storage::kLabels;
  const graph g = gen::random_geometric(120, 6.5, 8, 17);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 17, true, o);
  ASSERT_FALSE(res.materialized());
  rng r(99);
  for (u32 q = 0; q < 400; ++q) {
    const u32 u = static_cast<u32>(r.next_below(120));
    const u32 v = static_cast<u32>(r.next_below(120));
    if (u == v) continue;
    const u64 d = res.labels.query(u, v);
    const walk got = route(
        g, u, v, d, [&](u32 cur) { return res.labels.next_hop(cur, v); });
    ASSERT_TRUE(got.reached) << u << "->" << v;
    ASSERT_EQ(got.weight, d);
    ASSERT_LE(got.hops, d);
  }
}

TEST(RoutingTables, OffByDefault) {
  const graph g = gen::path(32);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 1);
  EXPECT_TRUE(res.next_hop.empty());
  EXPECT_FALSE(res.labels.routes);
}

TEST(RoutingTables, NextHopIsAlwaysANeighbor) {
  const graph g = gen::erdos_renyi_connected(64, 4.0, 5, 3);
  const apsp_result res = hybrid_apsp_exact(g, cfg(), 3, true);
  for (u32 u = 0; u < 64; ++u)
    for (u32 v = 0; v < 64; ++v) {
      if (u == v) continue;
      EXPECT_NE(edge_weight(g, u, res.next_hop[u][v]), kInfDist)
          << u << "->" << v;
      EXPECT_EQ(res.labels.next_hop(u, v), res.next_hop[u][v]);
    }
}

TEST(RoutingTables, ChargesOneExtraRoundAndTraffic) {
  const graph g = gen::grid(8, 8, 3, 5);
  const apsp_result plain = hybrid_apsp_exact(g, cfg(), 7, false);
  const apsp_result routed = hybrid_apsp_exact(g, cfg(), 7, true);
  EXPECT_EQ(routed.metrics.rounds, plain.metrics.rounds + 1);
  EXPECT_GT(routed.metrics.local_items, plain.metrics.local_items);
  EXPECT_EQ(routed.dist, plain.dist);  // distances unaffected
}

// ---- first-hop tracking in the primitives ----------------------------------

TEST(FirstHop, LimitedBellmanFordViaPointsBackward) {
  const graph g = gen::path(6);
  hybrid_net net(g, cfg(), 1);
  const auto got = limited_bellman_ford(net, {0}, 5);
  for (u32 v = 1; v < 6; ++v) {
    ASSERT_EQ(got[v].size(), 1u);
    EXPECT_EQ(got[v][0].via, v - 1) << v;  // path goes back toward node 0
  }
  EXPECT_EQ(got[0][0].via, 0u);  // source points to itself
}

TEST(FirstHop, FullExplorationMatrixConsistent) {
  const graph g = gen::erdos_renyi_connected(48, 4.0, 6, 9);
  hybrid_net net(g, cfg(), 1);
  const sparse_exploration_result got = dense_local_exploration(net, 6, true);
  for (u32 u = 0; u < 48; ++u) {
    for (const exploration_entry& e : got.reached(u)) {
      if (e.source == u) {
        EXPECT_EQ(e.first_hop, u);
        continue;
      }
      const u32 w = e.first_hop;
      ASSERT_NE(w, ~u32{0}) << u << "->" << e.source;
      // d(u,v) = w(u, w) + d_{h-1}(w, v) ≥ w(u,w) + d_h(w,v); the first-hop
      // edge weight is consistent with a shortest ≤h-hop walk.
      EXPECT_LE(edge_weight(g, u, w), e.dist);
    }
  }
}

}  // namespace
}  // namespace hybrid
