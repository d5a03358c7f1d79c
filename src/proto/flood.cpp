// The LOCAL set floods (hop_discovery, table_flood) and the hello flood
// behind truncated_eccentricity. On a reliable local plane both set floods
// are thin adapters over flood_rounds — the one relaxation kernel of
// proto/sparse_exploration.cpp with unit weights, pulled node-parallel on
// the round executor (docs/CONCURRENCY.md) — and differ only in what they
// charge per item and how they shape the result.
// Fault healing (docs/FAULTS.md): under local-plane faults the set floods
// switch to a re-offer loop — every round every node offers its whole held
// set to its neighbors (not just the last round's frontier), so an item
// lost to a drop gets fresh chances every subsequent round. It stops once
// no node learned anything new for heal_stability_rounds consecutive
// rounds (rounds with a crashed node still down never count as quiet),
// throws fault_failure when heal_budget_mult times the fault-free round
// budget elapses first, and referees its converged state against the
// reliable result — premature stability (possible under adversarial-prefix
// schedules, or with ~p^k probability under random drops) surfaces as
// fault_failure, never as a silently incomplete return.
// truncated_eccentricity heals through the exploration engine in
// proto/sparse_exploration.cpp and returns the fault-free result.
#include "proto/flood.hpp"

#include <algorithm>
#include <string>

#include "proto/aggregation.hpp"
#include "proto/sparse_exploration.hpp"
#include "util/assert.hpp"

namespace hybrid {

namespace {

/// Connected-component labels for the referee checks below. Frontier
/// stability is a heuristic: an adversarial-prefix schedule can starve a
/// link forever and look quiet, so each healed flood validates its
/// converged state against what a reliable flood must produce and throws
/// fault_failure on any shortfall — correct-or-explicitly-failed, never a
/// silently truncated result. The validation is simulator-level, like the
/// reliable path's frontier-emptiness reductions (docs/FAULTS.md).
std::vector<u32> component_labels(const graph& g) {
  const u32 n = g.num_nodes();
  std::vector<u32> comp(n, ~u32{0});
  std::vector<u32> stack;
  u32 c = 0;
  for (u32 root = 0; root < n; ++root) {
    if (comp[root] != ~u32{0}) continue;
    comp[root] = c;
    stack.push_back(root);
    while (!stack.empty()) {
      const u32 u = stack.back();
      stack.pop_back();
      for (const edge& e : g.neighbors(u))
        if (comp[e.to] == ~u32{0}) {
          comp[e.to] = c;
          stack.push_back(e.to);
        }
    }
    ++c;
  }
  return comp;
}

/// Per-component tally of flooded item indices (seeds / publishers): at
/// convergence every node must hold exactly the items rooted in its own
/// component.
std::vector<u64> items_per_component(const std::vector<u32>& comp,
                                     const std::vector<u32>& roots) {
  std::vector<u64> count;
  for (const u32 r : roots) {
    const u32 c = comp[r];
    if (c >= count.size()) count.resize(c + 1, 0);
    ++count[c];
  }
  return count;
}

/// Self-healing set flood behind hop_discovery and table_flood: every
/// round every node offers its whole held set (in learn order) to its
/// neighbors, so an item lost to a drop gets fresh chances every round.
/// Each offered item costs 1 local item, or words[i] for publisher i's
/// table. Node v's map holds (index, learn round) in learn order; learn
/// rounds are upper bounds on the true hop distance. `what` names the
/// primitive in fault_failure messages.
std::vector<sparse_dist_map> healed_set_flood(
    hybrid_net& net, const std::vector<u32>& roots, u32 rounds,
    bool early_exit, const std::vector<u64>* words, const std::string& what) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  std::vector<sparse_dist_map> known(n);
  for (u32 i = 0; i < roots.size(); ++i) {
    HYB_REQUIRE(roots[i] < n, "flood root out of range");
    known[roots[i]].relax(i, 0, roots[i]);
  }
  // Staged acceptances: the pull step reads known[u] of *other* nodes, so
  // it must not grow known[v] mid-round (docs/CONCURRENCY.md); new items
  // land in add[v] and merge after the barrier.
  std::vector<std::vector<exploration_entry>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  const u64 budget =
      u64{fo.heal_budget_mult} * std::max<u32>(rounds, 1) +
      fo.heal_stability_rounds;
  round_executor& exec = net.executor();
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget) throw fault_failure(what + " healing budget exhausted");
    const u32 r = static_cast<u32>(++used);
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::span<const exploration_entry> from = known[e.to].entries();
        const u32 count = static_cast<u32>(from.size());
        for (u32 j = 0; j < count; ++j) {
          const u32 i = from[j].source;
          mine += words ? (*words)[i] : 1;  // a table crosses whole
          if (net.local_drop(e.to, v, j, count)) {
            ++dropped[v];
            continue;
          }
          if (known[v].dist_of(i) == kInfDist) add[v].push_back({r, i, e.to});
        }
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    for (u32 v = 0; v < n; ++v) lost += dropped[v];
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.advance_round();
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (const exploration_entry& a : add[v])
        if (known[v].relax(a.source, a.dist, a.first_hop)) changed[v] = 1;
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee: each node must hold exactly the roots of its own component
  // (the healed flood runs to saturation, not a T-round ball).
  {
    const std::vector<u32> comp = component_labels(g);
    const std::vector<u64> want = items_per_component(comp, roots);
    for (u32 v = 0; v < n; ++v)
      if (known[v].size() !=
          (comp[v] < want.size() ? want[comp[v]] : 0))
        throw fault_failure(
            what + " healing stabilized before reaching every node");
  }
  // Round-accounting parity with the reliable path: pad the fixed budget
  // (or the early-exit detection aggregation), and surface the healing
  // overshoot. Stability detection itself is simulator-level, like the
  // reliable path's frontier-emptiness check.
  if (early_exit) {
    for (u32 extra = aggregation_rounds(n); extra > 0; --extra)
      net.advance_round();
  } else {
    for (; used < rounds; ++used) net.advance_round();
  }
  if (used > rounds) net.note_extra_rounds(used - rounds);
  return known;
}

/// Both set floods: the kernel on a reliable local plane, the re-offer
/// loop under local faults.
std::vector<sparse_dist_map> learn(hybrid_net& net,
                                   const std::vector<u32>& roots, u32 rounds,
                                   bool early_exit,
                                   const std::vector<u64>* words,
                                   const std::string& what) {
  if (net.local_faults_active())
    return healed_set_flood(net, roots, rounds, early_exit, words, what);
  return flood_rounds(net, roots, rounds, early_exit, words);
}

}  // namespace

u32 heal_next_quiet(hybrid_net& net, round_executor& exec, u32 n, u32 quiet,
                    const std::vector<u8>& changed) {
  if (exec.any_node(n, [&](u32 v) { return changed[v] != 0; })) return 0;
  if (!net.faults().crashes.empty() &&
      exec.any_node(n, [&](u32 v) { return !net.is_up(v); }))
    return 0;
  return quiet + 1;
}

std::vector<std::vector<discovered_seed>> hop_discovery(
    hybrid_net& net, const std::vector<u32>& seeds, u32 rounds,
    bool early_exit) {
  std::vector<sparse_dist_map> known =
      learn(net, seeds, rounds, early_exit, nullptr, "hop_discovery");
  std::vector<std::vector<discovered_seed>> out(known.size());
  for (u32 v = 0; v < known.size(); ++v) {
    for (const exploration_entry& e : known[v].entries())
      out[v].push_back({e.source, static_cast<u32>(e.dist)});
    known[v] = {};
  }
  return out;
}

std::vector<std::vector<u32>> table_flood(hybrid_net& net,
                                          const std::vector<u32>& publishers,
                                          const std::vector<u64>& table_words,
                                          u32 rounds) {
  HYB_REQUIRE(publishers.size() == table_words.size(),
              "each publisher needs a table size");
  std::vector<sparse_dist_map> known =
      learn(net, publishers, rounds, false, &table_words, "table_flood");
  std::vector<std::vector<u32>> holds(known.size());
  for (u32 v = 0; v < known.size(); ++v) {
    for (const exploration_entry& e : known[v].entries())
      holds[v].push_back(e.source);
    known[v] = {};
  }
  return holds;
}

std::vector<u32> truncated_eccentricity(hybrid_net& net, u32 rounds) {
  if (net.local_faults_active()) {
    // Hello floods carry hop counts, not weighted distances, so run the
    // healed engine with unit weights (always with real rounds — frozen
    // counters cannot heal) and read each node's truncated eccentricity off
    // its reached set. The engine returns the referee's canonical fixed
    // point, so the h_v vector is bit-identical to the fault-free flood.
    const sparse_exploration_result got = healed_local_exploration(
        net, rounds, true, nullptr, false, true);
    const run_metrics& m = net.raw_metrics();
    HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                  "local plane ledger must balance after a healed flood");
    const u32 n = net.n();
    std::vector<u32> ecc(n, 0);
    for (u32 v = 0; v < n; ++v)
      for (const exploration_entry& e : got.reached(v))
        ecc[v] = std::max(ecc[v], static_cast<u32>(e.dist));
    return ecc;
  }
  // Bitset-based all-sources hello flood: O(n²/8) memory instead of storing
  // (seed, hop) lists per node.
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const u32 words = (n + 63) / 64;
  std::vector<std::vector<u64>> seen(n, std::vector<u64>(words, 0));
  std::vector<std::vector<u32>> frontier(n);
  std::vector<u32> ecc(n, 0);
  for (u32 v = 0; v < n; ++v) {
    seen[v][v / 64] |= u64{1} << (v % 64);
    frontier[v].push_back(v);
  }
  for (u32 r = 1; r <= rounds; ++r) {
    std::vector<std::vector<u32>> next(n);
    const u64 items = net.executor().sum_nodes(n, [&](u32 v) -> u64 {
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        const std::vector<u32>& from = frontier[e.to];
        mine += from.size();
        for (u32 id : from) {
          u64& word = seen[v][id / 64];
          const u64 bit = u64{1} << (id % 64);
          if (!(word & bit)) {
            word |= bit;
            ecc[v] = r;
            next[v].push_back(id);
          }
        }
      }
      return mine;
    });
    net.charge_local(items);
    net.note_local_delivered(items);
    net.advance_round();
    frontier = std::move(next);
    const bool any = net.executor().any_node(
        n, [&](u32 v) { return !frontier[v].empty(); });
    if (!any && r < rounds) {
      // This branch only runs on a reliable local plane (the healed path
      // returned above), so everything charged must have arrived: the
      // ledger local_items == local_delivered + local_dropped balances with
      // a zero dropped share from this flood.
      const run_metrics& m = net.raw_metrics();
      HYB_INVARIANT(m.local_items == m.local_delivered + m.local_dropped,
                    "local plane ledger must balance at flood saturation");
      for (u32 rest = r + 1; rest <= rounds; ++rest) net.advance_round();
      break;
    }
  }
  return ecc;
}

}  // namespace hybrid
