// Deeper tests of the LOCAL-mode primitives: hop-accurate propagation,
// weighted relaxation semantics, round accounting of the early-exit and
// parallel-composition modes, and traffic charging.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/aggregation.hpp"
#include "proto/clustering.hpp"
#include "proto/flood.hpp"
#include "proto/helper_sets.hpp"
#include "proto/ruling_set.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

/// d_h(u, v) for every pair: every node explores h hops, and the triples
/// expand into an n × n matrix (kInfDist outside u's h-hop horizon).
std::vector<std::vector<u64>> all_pairs(hybrid_net& net, u32 h) {
  const sparse_exploration_result got = dense_local_exploration(net, h, true);
  std::vector<std::vector<u64>> mat(net.n(),
                                    std::vector<u64>(net.n(), kInfDist));
  for (u32 u = 0; u < net.n(); ++u)
    for (const exploration_entry& e : got.reached(u)) mat[u][e.source] = e.dist;
  return mat;
}

TEST(HopDiscovery, OneHopPerRoundStrictly) {
  // A value must not travel two hops in one round regardless of node order:
  // the regression that motivated the value-carrying frontier.
  const graph g = gen::path(6);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {0}, 2);
  for (u32 v = 0; v < 6; ++v) {
    const bool reached = !known[v].empty();
    EXPECT_EQ(reached, v <= 2) << v;
  }
}

TEST(HopDiscovery, DescendingIdsSameResult) {
  // Propagation must be independent of node iteration order; build a path
  // with ids reversed relative to adjacency.
  std::vector<edge_spec> edges;
  for (u32 i = 0; i + 1 < 6; ++i) edges.push_back({5 - i, 5 - (i + 1), 1});
  const graph g = graph::from_edges(6, edges);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {5}, 2);  // 5 is a path endpoint
  u32 reached = 0;
  for (u32 v = 0; v < 6; ++v) reached += !known[v].empty();
  EXPECT_EQ(reached, 3u);  // self + 2 hops
}

TEST(HopDiscovery, EarlyExitChargesAggregation) {
  const graph g = gen::path(8);  // last new node at round 7, detected at 8
  hybrid_net net(g, cfg(), 1);
  hop_discovery(net, {0}, 1000, /*early_exit=*/true);
  EXPECT_LE(net.round(), 8u + aggregation_rounds(8));
  EXPECT_GE(net.round(), 7u);
}

TEST(HopDiscovery, MultipleSeedsSameNode) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  const auto known = hop_discovery(net, {2, 2}, 1);  // duplicated seed
  // Both seed indices must be discoverable independently.
  u32 count_at_2 = 0;
  for (const discovered_seed& d : known[2]) {
    EXPECT_EQ(d.hop, 0u);
    ++count_at_2;
  }
  EXPECT_EQ(count_at_2, 2u);
}

TEST(LimitedBellmanFord, WeightedShortcutBeyondHopBudget) {
  // d_1(0,2) uses the heavy direct edge; d_2 uses the light 2-hop path.
  const graph g = graph::from_edges(
      3, std::vector<edge_spec>{{0, 1, 2}, {1, 2, 2}, {0, 2, 10}});
  {
    hybrid_net net(g, cfg(), 1);
    const auto got = limited_bellman_ford(net, {0}, 1);
    u64 d2 = kInfDist;
    for (const source_distance& sd : got[2]) d2 = sd.dist;
    EXPECT_EQ(d2, 10u);
  }
  {
    hybrid_net net(g, cfg(), 1);
    const auto got = limited_bellman_ford(net, {0}, 2);
    u64 d2 = kInfDist;
    for (const source_distance& sd : got[2]) d2 = sd.dist;
    EXPECT_EQ(d2, 4u);
  }
}

TEST(LimitedBellmanFord, ZeroRoundsOnlySources) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  const auto got = limited_bellman_ford(net, {3}, 0);
  for (u32 v = 0; v < 5; ++v) {
    if (v == 3) {
      ASSERT_EQ(got[v].size(), 1u);
      EXPECT_EQ(got[v][0].dist, 0u);
    } else {
      EXPECT_TRUE(got[v].empty());
    }
  }
}

TEST(LimitedBellmanFord, ManySourcesMatchReference) {
  const graph g = gen::grid(9, 9, 7, 4);
  hybrid_net net(g, cfg(), 1);
  std::vector<u32> sources;
  for (u32 v = 0; v < 81; v += 8) sources.push_back(v);
  const u32 h = 6;
  const auto got = limited_bellman_ford(net, sources, h);
  for (u32 i = 0; i < sources.size(); ++i) {
    const auto ref = limited_distance(g, sources[i], h);
    for (u32 v = 0; v < 81; ++v) {
      u64 mine = kInfDist;
      for (const source_distance& sd : got[v])
        if (sd.source == i) mine = sd.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << i << " node " << v;
    }
  }
}

TEST(LimitedBellmanFord, ChargesTrafficInParallelMode) {
  const graph g = gen::grid(8, 8);
  hybrid_net net(g, cfg(), 1);
  const u64 before = net.raw_metrics().local_items;
  limited_bellman_ford(net, {0}, 10, /*advance_rounds=*/false);
  EXPECT_GT(net.raw_metrics().local_items, before);
  EXPECT_EQ(net.round(), 0u);
}

TEST(FullLocalExploration, SymmetricOnUndirected) {
  const graph g = gen::erdos_renyi_connected(40, 4.0, 6, 8);
  hybrid_net net(g, cfg(), 1);
  const auto mat = all_pairs(net, 4);
  for (u32 u = 0; u < 40; ++u)
    for (u32 v = 0; v < 40; ++v) EXPECT_EQ(mat[u][v], mat[v][u]);
}

TEST(FullLocalExploration, HorizonGrowsMonotonically) {
  const graph g = gen::path(20, 5, 3);
  std::vector<std::vector<std::vector<u64>>> mats;
  for (u32 h : {1u, 3u, 9u}) {
    hybrid_net net(g, cfg(), 1);
    mats.push_back(all_pairs(net, h));
  }
  for (u32 u = 0; u < 20; ++u)
    for (u32 v = 0; v < 20; ++v) {
      EXPECT_GE(mats[0][u][v], mats[1][u][v]);
      EXPECT_GE(mats[1][u][v], mats[2][u][v]);
    }
}

TEST(TableFlood, ChargesWordsPerEdgeCrossing) {
  const graph g = gen::path(5);
  hybrid_net net(g, cfg(), 1);
  table_flood(net, {0}, {1000}, 2);
  // The table crosses at least 2 edges (plus re-offers to known holders).
  EXPECT_GE(net.raw_metrics().local_items, 2000u);
}

TEST(TableFlood, MultiplePublishersIndependentRadii) {
  const graph g = gen::grid(6, 6);
  hybrid_net net(g, cfg(), 1);
  const auto holds = table_flood(net, {0, 35}, {10, 10}, 3);
  const auto h0 = bfs_hops(g, 0);
  const auto h1 = bfs_hops(g, 35);
  for (u32 v = 0; v < 36; ++v) {
    const bool has0 =
        std::find(holds[v].begin(), holds[v].end(), 0u) != holds[v].end();
    const bool has1 =
        std::find(holds[v].begin(), holds[v].end(), 1u) != holds[v].end();
    EXPECT_EQ(has0, h0[v] <= 3) << v;
    EXPECT_EQ(has1, h1[v] <= 3) << v;
  }
}

TEST(TruncatedEccentricity, GridCenterVsCorner) {
  const graph g = gen::grid(7, 7);
  hybrid_net net(g, cfg(), 1);
  const auto ecc = truncated_eccentricity(net, 50);
  EXPECT_EQ(ecc[0], 12u);       // corner: 6 + 6
  EXPECT_EQ(ecc[3 * 7 + 3], 6u);  // center: 3 + 3
}

TEST(TruncatedEccentricity, RoundsChargedFully) {
  const graph g = gen::grid(4, 4);
  hybrid_net net(g, cfg(), 1);
  truncated_eccentricity(net, 9);
  EXPECT_EQ(net.round(), 9u);  // fixed budget, no early exit in Algorithm 9
}

// ---- pinned learn order -----------------------------------------------------
//
// Every set flood returns each node's items in learn order, and
// compute_helpers draws from the node RNG once per heard item in that order,
// so a change of order moves the helper families and with them every
// token-routing round. The literals below were captured from the sequential
// push-loop floods (seen-matrix set flood, unordered_set cluster flood) that
// the relaxation kernel replaced; each case runs at two thread counts.

u64 fold(u64 h, u64 x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

/// An order-sensitive digest of a flood's output plus the rounds and local
/// items the flood alone cost.
struct flood_pin {
  u64 digest;
  u64 rounds;
  u64 local_items;
  friend bool operator==(const flood_pin&, const flood_pin&) = default;
  friend std::ostream& operator<<(std::ostream& os, const flood_pin& p) {
    return os << "{" << p.digest << "ull, " << p.rounds << ", "
              << p.local_items << "}";
  }
};

/// Runs `flood(net)` -> per-node lists and digests them with `item(h, x)`.
template <class Flood, class Item>
flood_pin pin_flood(hybrid_net& net, const Flood& flood, const Item& item) {
  const run_metrics before = net.raw_metrics();
  const auto lists = flood(net);
  const run_metrics after = net.raw_metrics();
  u64 h = 1469598103934665603ull;
  for (u32 v = 0; v < lists.size(); ++v) {
    h = fold(h, v);
    for (const auto& x : lists[v]) h = item(h, x);
  }
  return {h, after.rounds - before.rounds,
          after.local_items - before.local_items};
}

TEST(FloodPinned, ClusterFloodHeardListsInLearnOrder) {
  const graph g = gen::grid(32, 3);
  for (const u32 threads : {1u, 4u}) {
    hybrid_net net(g, cfg(), 7, sim_options{threads});
    const cluster_decomposition cd =
        compute_clusters(net, compute_ruling_set(net, 2));
    ASSERT_EQ(cd.members.size(), 6u) << threads;
    std::vector<std::vector<item128>> init(96);
    for (u32 v = 0; v < 96; ++v) {
      init[v].push_back({u64{v} * 0x9E37 + 1, v});
      if (v % 5 == 0) init[v].push_back({u64{v} << 20, ~u64{v}});
    }
    const flood_pin got = pin_flood(
        net,
        [&](hybrid_net& nt) {
          return cluster_flood(nt, cd, init, cd.flood_budget());
        },
        [](u64 h, const item128& it) { return fold(fold(h, it.a), it.b); });
    EXPECT_EQ(got, (flood_pin{15727518074053140831ull, 23, 5560})) << threads;
  }
}

TEST(FloodPinned, HelperFamilyDigest) {
  const graph g = gen::erdos_renyi_connected(128, 3.0, 1, 9);
  std::vector<u32> w_set;
  for (u32 v = 1; v < 128; v += 3) w_set.push_back(v);
  for (const u32 threads : {1u, 4u}) {
    hybrid_net net(g, cfg(), 11, sim_options{threads});
    const flood_pin got = pin_flood(
        net,
        [&](hybrid_net& nt) {
          return compute_helpers(nt, w_set, 4).helpers_of;
        },
        [](u64 h, u32 helper) { return fold(h, helper); });
    EXPECT_EQ(got, (flood_pin{5964217088632782389ull, 143, 409701})) << threads;
  }
}

TEST(FloodPinned, HopDiscoveryEarlyExitWithDuplicatedSeeds) {
  const graph g = gen::erdos_renyi_connected(80, 2.5, 1, 3);
  for (const u32 threads : {1u, 4u}) {
    hybrid_net net(g, cfg(), 1, sim_options{threads});
    // 40 rounds is far past saturation, so the early exit fires.
    const flood_pin got = pin_flood(
        net,
        [](hybrid_net& nt) {
          return hop_discovery(nt, {4, 4, 31, 60}, 40, /*early_exit=*/true);
        },
        [](u64 h, const discovered_seed& d) {
          return fold(fold(h, d.seed), d.hop);
        });
    EXPECT_EQ(got, (flood_pin{4066069910556655885ull, 22, 800})) << threads;
  }
}

TEST(FloodPinned, TableFloodUnequalWords) {
  const graph g = gen::grid(9, 9);
  for (const u32 threads : {1u, 4u}) {
    hybrid_net net(g, cfg(), 1, sim_options{threads});
    const flood_pin got = pin_flood(
        net,
        [](hybrid_net& nt) {
          return table_flood(nt, {0, 40, 80, 13}, {1, 17, 250, 3}, 4);
        },
        [](u64 h, u32 publisher) { return fold(h, publisher); });
    EXPECT_EQ(got, (flood_pin{17528069906546576454ull, 4, 9969})) << threads;
  }
}

}  // namespace
}  // namespace hybrid
