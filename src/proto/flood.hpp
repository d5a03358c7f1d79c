// Audited LOCAL-mode primitives (paper Section 1, "The Hybrid Network
// Model": the unbounded-bandwidth LOCAL mode; used by Algorithms 1, 5, 6
// and 9).
//
// One kernel sits behind every fault-free LOCAL flood and exploration: the
// h-hop relaxation loop of proto/sparse_exploration.cpp, which advances
// simulated rounds and charges traffic, so all LOCAL information flow goes
// through audited code. The entry points here are thin adapters over it:
//
//  * set floods — the kernel with unit weights on the sparse store, keyed
//    by root index; every node records (index, hop) when it first hears an
//    index, in learn order:
//    - hop_discovery        — multi-source BFS flooding; every node learns
//                              (seed, hop) for seeds within T hops ("flood
//                              information on R / W", Algorithm 1). Each
//                              forwarded item costs one local item.
//    - table_flood          — skeleton nodes publish an immutable table
//                              that floods T hops; recipients get shared
//                              read-only access (the "distribute distance
//                              labels to the Õ(x)-neighborhood" step). The
//                              whole table is charged per edge crossing;
//                              sharing the storage is a simulator
//                              optimization, not an information leak,
//                              because the content is identical for all
//                              recipients.
//    cluster_flood (proto/clustering.hpp) is the same flood confined to
//    cluster edges.
//  * relaxation — h synchronous min-plus rounds from a source set:
//    - limited_bellman_ford — node v learns d_h(v, s) for each source
//                              (Algorithm 6's skeleton-edge discovery,
//                              Algorithm 5's local source exploration).
//    The all-sources exploration of the APSP algorithm (Section 3) is
//    run_local_exploration in proto/sparse_exploration.hpp.
//
// The one exception is truncated_eccentricity's hello flood, which keeps
// its own loop over per-node bitsets: every node floods its ID, so the
// flood saturates, and at saturation a bitset costs 1 bit per (node, ID)
// pair while either kernel store costs 16 bytes or more per pair.
//
// Under local-plane faults each primitive switches to a self-healing
// re-offer loop (docs/FAULTS.md §3). All primitives here run over the whole
// graph; restricting propagation to a cluster is done by the clustering
// utilities (proto/clustering.hpp).
#pragma once

#include <memory>
#include <vector>

#include "sim/hybrid_net.hpp"

namespace hybrid {

struct discovered_seed {
  u32 seed;  ///< index into the seeds vector passed in
  u32 hop;
};

/// Multi-source BFS flood for `rounds` rounds.
/// Returns per node the seeds heard with their hop distance (ascending hop).
/// With `early_exit` the flood stops once no node has anything new to
/// forward; since frontier-emptiness is global information, the saved
/// rounds cost one charged AND-aggregation (Lemma B.2). The result is
/// identical either way — once saturated, the remaining budget is silent.
std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit = false);

struct source_distance {
  u32 source;  ///< index into the sources vector passed in
  u64 dist;    ///< d_h(v, source) for the h used
  /// Neighbor through which the best value arrived — the node's first hop
  /// on a d_h-realizing path toward the source (self for the source).
  /// Exactly what routing-table construction needs (paper §1's IP-routing
  /// motivation).
  u32 via = ~u32{0};
  friend bool operator==(const source_distance&,
                         const source_distance&) = default;
};

/// h rounds of synchronous Bellman–Ford from `sources`.
/// Returns per node the h-hop-limited distances to every source it reached.
/// When `advance_rounds` is false the primitive models the paper's "run the
/// local exploration in parallel with the rest of the algorithm" trick
/// (Lemma 4.3's final paragraph): traffic is charged but rounds are not.
/// Under local-plane faults the frozen-round trick is unavailable (healing
/// needs fresh fault draws, so the counter must move): the call falls back
/// to the healed advancing path automatically, with every consumed round
/// surfaced as extra_rounds (docs/FAULTS.md §3).
std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds = true);

/// Flood per-publisher immutable tables for `rounds` rounds.
/// `table_words[i]` is the accounted size of publisher i's table in 64-bit
/// words. Returns for each node the publisher indices whose table it holds.
std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds);

/// Hello-flood eccentricity: every node floods its ID for `rounds` rounds;
/// returns per node the largest hop at which it heard a new ID, i.e.
/// h_v = max_{u in N_rounds(v)} hop(v, u) truncated at `rounds`
/// (Algorithm 9's h_v). Under local-plane faults the flood self-heals
/// through the healed exploration engine (proto/sparse_exploration.hpp) and
/// returns the identical h_v vector.
std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds);

/// Quiet-window update shared by the self-healing re-offer loops
/// (docs/FAULTS.md §3). Progress this round resets the counter; so does any
/// node still being down — a paused node has pulls pending that only run
/// after recovery, so its silence is not convergence (a never-recovering
/// node pushes the loop into its budget and an explicit fault_failure).
u32 heal_next_quiet(hybrid_net& net, round_executor& exec, u32 n, u32 quiet,
                    const std::vector<u8>& changed);

}  // namespace hybrid
