// Differential suite for the two per-node stores of the relaxation kernel
// (proto/sparse_exploration.hpp): sparse_local_exploration against the
// dense reference dense_local_exploration — identical (source, dist,
// first_hop) triples and identical round/message metrics on randomized and
// adversarial graphs, at threads ∈ {1, 2, 8}; run_local_exploration's
// internal store choice on both sides of kDenseExplorationMaxNodes; plus
// the foregrounded edge cases (h = 0, single-node components, isolated
// vertices, early-exit round accounting, first-hop tie-breaks) and the
// sparse_dist_map unit semantics. Runs in the TSAN CI job at 8 threads.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/apsp.hpp"
#include "core/apsp_baseline.hpp"
#include "core/kssp_framework.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "proto/sparse_exploration.hpp"

namespace hybrid {
namespace {

model_config cfg() { return model_config{}; }

sim_options opts(u32 threads) {
  sim_options o;
  o.threads = threads;
  return o;
}

/// An exploration entry point: one of the two named stores, or
/// run_local_exploration's internal choice between them.
using explore_fn = sparse_exploration_result (*)(hybrid_net&, u32, bool,
                                                 const std::vector<u32>*,
                                                 bool);
constexpr explore_fn kStores[] = {dense_local_exploration,
                                  sparse_local_exploration};

struct run_out {
  sparse_exploration_result res;
  run_metrics m;
};

run_out run_path(const graph& g, u32 h, bool advance_rounds, u32 threads,
                 explore_fn explore,
                 const std::vector<u32>* sources = nullptr,
                 bool first_hops = true) {
  hybrid_net net(g, cfg(), 1, opts(threads));
  run_out o;
  o.res = explore(net, h, advance_rounds, sources, first_hops);
  o.m = net.snapshot();
  return o;
}

void expect_metrics_eq(const run_metrics& a, const run_metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.local_items, b.local_items);
  EXPECT_EQ(a.global_messages, b.global_messages);
  EXPECT_EQ(a.global_payload_words, b.global_payload_words);
  EXPECT_EQ(a.max_global_recv_per_round, b.max_global_recv_per_round);
}

/// Both stores, every tested thread count, one dense@1 reference.
void differential(const graph& g, u32 h,
                  const std::vector<u32>* sources = nullptr) {
  const run_out ref = run_path(g, h, true, 1, dense_local_exploration,
                               sources);
  for (u32 threads : {1u, 2u, 8u})
    for (explore_fn explore : kStores) {
      const run_out got = run_path(g, h, true, threads, explore, sources);
      ASSERT_EQ(got.res, ref.res)
          << "threads=" << threads
          << " sparse=" << (explore == sparse_local_exploration);
      expect_metrics_eq(got.m, ref.m);
    }
}

/// Two components (path, triangle) plus two isolated vertices.
graph disconnected_graph() {
  std::vector<edge_spec> edges{{0, 1, 2}, {1, 2, 1}, {2, 3, 3},
                               {4, 5, 1}, {5, 6, 2}, {4, 6, 2}};
  return graph::from_edges(9, edges);
}

// ---- randomized differential runs --------------------------------------------

TEST(SparseExplorationDiff, ErdosRenyiRandomized) {
  for (u64 seed : {11u, 12u, 13u, 14u}) {
    rng r(seed);
    const u32 n = 40 + static_cast<u32>(r.next_below(110));
    const double deg = 3.0 + r.next_double() * 3.0;
    const u64 max_w = r.next_bool(0.5) ? 1 : 7;
    const graph g = gen::erdos_renyi_connected(n, deg, max_w, seed);
    differential(g, static_cast<u32>(1 + r.next_below(6)));
  }
}

TEST(SparseExplorationDiff, Grid) {
  differential(gen::grid(8, 8, 5, 21), 5);
}

TEST(SparseExplorationDiff, Star) {
  // balanced_tree with arity n-1 is a star centered at node 0: every leaf
  // reaches every other leaf in exactly 2 hops through the hub.
  differential(gen::balanced_tree(48, 47, 3, 9), 2);
}

TEST(SparseExplorationDiff, DisconnectedWithIsolatedVertices) {
  const graph g = disconnected_graph();
  differential(g, 4);
  // Isolated vertices (7, 8) reach exactly themselves; components do not
  // leak into each other.
  const run_out got = run_path(g, 4, true, 1, sparse_local_exploration);
  for (u32 v : {7u, 8u}) {
    ASSERT_EQ(got.res.reached(v).size(), 1u);
    EXPECT_EQ(got.res.reached(v)[0],
              (exploration_entry{0, v, v}));
  }
  for (const exploration_entry& e : got.res.reached(0))
    EXPECT_LT(e.source, 4u);  // path component only
}

TEST(SparseExplorationDiff, SourceSubset) {
  // The limited_bellman_ford-shaped workload kssp_framework runs.
  const graph g = gen::erdos_renyi_connected(90, 4.0, 6, 5);
  const std::vector<u32> sources{3, 17, 42, 88};
  differential(g, 4, &sources);
  // Distances agree with the centralized d_h reference.
  const run_out got =
      run_path(g, 4, true, 1, sparse_local_exploration, &sources);
  for (u32 s : sources) {
    const std::vector<u64> ref = limited_distance(g, s, 4);
    for (u32 v = 0; v < 90; ++v) {
      u64 mine = kInfDist;
      for (const exploration_entry& e : got.res.reached(v))
        if (e.source == s) mine = e.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << s << " node " << v;
    }
  }
}

TEST(SparseExplorationDiff, MatchesCentralizedReferenceAllSources) {
  const graph g = gen::erdos_renyi_connected(60, 4.5, 5, 31);
  const run_out got = run_path(g, 4, true, 1, sparse_local_exploration);
  for (u32 s = 0; s < 60; ++s) {
    const std::vector<u64> ref = limited_distance(g, s, 4);
    for (u32 v = 0; v < 60; ++v) {
      u64 mine = kInfDist;
      for (const exploration_entry& e : got.res.reached(v))
        if (e.source == s) mine = e.dist;
      ASSERT_EQ(mine, ref[v]) << "source " << s << " node " << v;
    }
  }
}

// ---- edge cases ----------------------------------------------------------------

TEST(SparseExplorationEdge, HZeroReachesSelfOnly) {
  const graph g = gen::erdos_renyi_connected(30, 4.0, 3, 2);
  differential(g, 0);
  const run_out got = run_path(g, 0, true, 1, sparse_local_exploration);
  EXPECT_EQ(got.m.rounds, 0u);
  EXPECT_EQ(got.m.local_items, 0u);
  ASSERT_EQ(got.res.total_reached(), 30u);
  for (u32 v = 0; v < 30; ++v) {
    ASSERT_EQ(got.res.reached(v).size(), 1u);
    EXPECT_EQ(got.res.reached(v)[0], (exploration_entry{0, v, v}));
  }
}

TEST(SparseExplorationEdge, SingleNodeComponents) {
  // hybrid_net requires n >= 2, so the minimal instance is two singleton
  // components: each node's whole h-ball is itself for every h.
  const graph g = graph::from_edges(2, std::vector<edge_spec>{});
  differential(g, 3);
  const run_out got = run_path(g, 3, true, 1, sparse_local_exploration);
  EXPECT_EQ(got.res.total_reached(), 2u);
  // Budgeted rounds elapse silently even though the frontier died at once.
  EXPECT_EQ(got.m.rounds, 3u);
}

TEST(SparseExplorationEdge, EarlyExitRoundAccounting) {
  // Path of 6: the frontier saturates after 5 rounds, but the fixed budget
  // h = 20 still elapses in full when rounds advance...
  const graph g = gen::path(6, 4, 7);
  for (explore_fn explore : kStores) {
    hybrid_net net(g, cfg(), 1, opts(1));
    explore(net, 20, /*advance_rounds=*/true, nullptr, true);
    EXPECT_EQ(net.round(), 20u);
  }
  // ...and is not charged at all in run-in-parallel mode, where only
  // traffic is charged.
  run_metrics parallel_m[2];
  int i = 0;
  for (explore_fn explore : kStores) {
    hybrid_net net(g, cfg(), 1, opts(1));
    explore(net, 20, /*advance_rounds=*/false, nullptr, true);
    parallel_m[i++] = net.snapshot();
    EXPECT_EQ(net.round(), 0u);
    EXPECT_GT(net.raw_metrics().local_items, 0u);
  }
  expect_metrics_eq(parallel_m[0], parallel_m[1]);
}

TEST(SparseExplorationEdge, FirstHopTieBreakDeterminism) {
  // Diamond 0-1-3, 0-2-3: node 3 sees two equal-cost routes to source 0.
  // The contract: the first strictly-improving neighbor in sorted adjacency
  // order wins and equal later offers never overwrite — so 3's first hop
  // toward 0 is neighbor 1, on both paths, at every thread count.
  const graph unweighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}});
  // Weighted twist: both routes cost 3 but arrive via different neighbors.
  const graph weighted = graph::from_edges(
      4, std::vector<edge_spec>{{0, 1, 2}, {0, 2, 1}, {1, 3, 1}, {2, 3, 2}});
  for (const graph& g : {unweighted, weighted}) {
    differential(g, 3);
    for (u32 threads : {1u, 2u, 8u})
      for (explore_fn explore : kStores) {
        const run_out got = run_path(g, 3, true, threads, explore);
        u32 hop = ~u32{0};
        for (const exploration_entry& e : got.res.reached(3))
          if (e.source == 0) hop = e.first_hop;
        EXPECT_EQ(hop, 1u);
      }
  }
}

TEST(SparseExplorationEdge, NoFirstHopsModeStaysBitIdentical) {
  // The cores only consume (source, dist); first_hops = false spares the
  // dense path its n² first-hop matrix and must blank the field on both
  // paths so cross-path bit-identity still holds.
  const graph g = gen::erdos_renyi_connected(70, 4.0, 5, 3);
  sparse_exploration_result res[2];
  int i = 0;
  for (explore_fn explore : kStores)
    res[i++] = run_path(g, 4, true, 1, explore, nullptr,
                        /*first_hops=*/false)
                   .res;
  ASSERT_EQ(res[0], res[1]);
  for (const exploration_entry& e : res[0].entries)
    ASSERT_EQ(e.first_hop, ~u32{0});
  // Same triples as the first_hops mode, minus the hop field.
  const run_out with = run_path(g, 4, true, 1, sparse_local_exploration);
  ASSERT_EQ(res[0].offsets, with.res.offsets);
  for (u64 k = 0; k < res[0].entries.size(); ++k) {
    ASSERT_EQ(res[0].entries[k].source, with.res.entries[k].source);
    ASSERT_EQ(res[0].entries[k].dist, with.res.entries[k].dist);
  }
}

TEST(SparseExplorationEdge, RejectsDuplicateSources) {
  const graph g = gen::path(8);
  const std::vector<u32> dup{2, 2};
  for (explore_fn explore : kStores) {
    hybrid_net net(g, cfg(), 1, opts(1));
    EXPECT_THROW(explore(net, 2, true, &dup, true), std::invalid_argument);
  }
}

// ---- sparse_dist_map unit semantics -------------------------------------------

TEST(SparseDistMap, RelaxInsertImproveReject) {
  sparse_dist_map m;
  EXPECT_EQ(m.dist_of(7), kInfDist);
  EXPECT_TRUE(m.relax(7, 10, 1));
  EXPECT_EQ(m.dist_of(7), 10u);
  EXPECT_FALSE(m.relax(7, 10, 2));  // equal never overwrites (tie-break)
  EXPECT_TRUE(m.relax(7, 4, 3));
  EXPECT_EQ(m.dist_of(7), 4u);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.entries()[0], (exploration_entry{4, 7, 3}));
}

TEST(SparseDistMap, GrowthKeepsAllEntries) {
  sparse_dist_map m;
  for (u32 s = 0; s < 5000; ++s) EXPECT_TRUE(m.relax(s * 977 + 1, s + 1, s));
  ASSERT_EQ(m.size(), 5000u);
  for (u32 s = 0; s < 5000; ++s) EXPECT_EQ(m.dist_of(s * 977 + 1), s + 1);
  EXPECT_EQ(m.dist_of(0), kInfDist);
}

TEST(SparseDistMap, ClearReuses) {
  sparse_dist_map m;
  for (u32 s = 0; s < 100; ++s) m.relax(s, s, s);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.dist_of(3), kInfDist);
  EXPECT_TRUE(m.relax(3, 9, 1));
  EXPECT_EQ(m.dist_of(3), 9u);
  EXPECT_EQ(m.size(), 1u);
}

// ---- run_local_exploration's store choice ------------------------------------

TEST(SparseExplorationDiff, StoreChoiceAboveDenseCutoff) {
  // n = kDenseExplorationMaxNodes + 1 is the smallest network on which
  // run_local_exploration takes the sparse maps. The internal choice and
  // both named stores must agree there: triples and every metric field.
  const u32 n = kDenseExplorationMaxNodes + 1;
  const graph g = gen::bounded_degree(n, 3, 5, 19);
  const auto all_fields = [](const run_metrics& m) {
    return std::make_tuple(m.rounds, m.global_messages, m.global_payload_words,
                           m.local_items, m.max_global_recv_per_round,
                           m.cut_bits, m.global_sent, m.global_dropped,
                           m.local_delivered, m.local_dropped,
                           m.retransmitted, m.extra_rounds, m.phases.size());
  };
  const run_out ref = run_path(g, 3, true, 2, dense_local_exploration,
                               nullptr, /*first_hops=*/false);
  ASSERT_GT(ref.res.total_reached(), u64{n});
  for (explore_fn explore : {explore_fn{sparse_local_exploration},
                             explore_fn{run_local_exploration}}) {
    const run_out got =
        run_path(g, 3, true, 2, explore, nullptr, /*first_hops=*/false);
    ASSERT_EQ(got.res, ref.res);
    EXPECT_EQ(all_fields(got.m), all_fields(ref.m));
  }
}

// ---- the rewired cores agree across thread counts ----------------------------
//
// The cores take whichever store run_local_exploration picks (the stores
// themselves are differentially tested above); one run per thread count.

TEST(SparseExplorationCores, ApspExactIdenticalAcrossThreads) {
  const graph g = gen::erdos_renyi_connected(80, 4.0, 6, 17);
  const apsp_result ref =
      hybrid_apsp_exact(g, cfg(), 3, /*build_routes=*/true, opts(1));
  const apsp_result got = hybrid_apsp_exact(g, cfg(), 3, true, opts(8));
  ASSERT_EQ(got.dist, ref.dist);
  ASSERT_EQ(got.next_hop, ref.next_hop);
  expect_metrics_eq(got.metrics, ref.metrics);
}

TEST(SparseExplorationCores, ApspBaselineIdenticalAcrossThreads) {
  const graph g = gen::grid(8, 8, 4, 13);
  const apsp_baseline_result ref = baseline_apsp_ahkss(g, cfg(), 5, opts(1));
  const apsp_baseline_result got = baseline_apsp_ahkss(g, cfg(), 5, opts(8));
  ASSERT_EQ(got.dist, ref.dist);
  expect_metrics_eq(got.metrics, ref.metrics);
}

TEST(SparseExplorationCores, KsspIdenticalAcrossThreads) {
  const graph g = gen::erdos_renyi_connected(96, 4.0, 5, 7);
  const auto alg = make_clique_kssp_1eps(0.25, injection::none);
  const std::vector<u32> sources{4, 31, 77};
  const kssp_result ref =
      hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(1));
  const kssp_result got =
      hybrid_kssp(g, cfg(), 7, sources, alg, false, opts(8));
  ASSERT_EQ(got.dist, ref.dist);
  expect_metrics_eq(got.metrics, ref.metrics);
}

}  // namespace
}  // namespace hybrid
