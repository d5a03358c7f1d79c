// The h-hop relaxation engine. Every frontier relaxation in the library —
// sparse/dense/run_local_exploration, explore_adjacency,
// limited_bellman_ford (declared in proto/flood.hpp), the unit-weight set
// flood behind hop_discovery / table_flood / cluster_flood, and the two
// healing referees — runs relax_rounds below over one of two per-node
// stores and, where it returns CSR triples, the one flatten. The healed
// re-offer loops (Pareto sets per source) live here too, since their
// referees are that same kernel with charging off.
#include "proto/sparse_exploration.hpp"

#include <algorithm>
#include <ranges>
#include <tuple>

#include "proto/aggregation.hpp"
#include "proto/flood.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace hybrid {

namespace {

/// Fibonacci multiplicative mix; sources are sequential small ints, so the
/// multiply spreads them across the probe table.
u32 hash_source(u32 source, u32 mask) {
  return static_cast<u32>((u64{source} * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

void require_distinct(const std::vector<u32>& sources, u32 n) {
  std::vector<u32> sorted(sources);
  std::sort(sorted.begin(), sorted.end());
  HYB_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "exploration sources must be distinct");
  HYB_REQUIRE(sorted.empty() || sorted.back() < n, "source out of range");
}

// ---- the two per-node stores ---------------------------------------------------
//
// Both are keyed by source INDEX (a position in the sources vector, or the
// node id when every node explores) and expose the same three operations:
// store[v] yields a row with relax / dist_of, reached(v) counts v's entries
// and copy(v, at) writes them out as exploration_entry.

/// sparse_dist_maps: memory O(Σᵥ|ball_h(v)|), whatever n is.
struct sparse_store {
  std::vector<sparse_dist_map> rows;

  explicit sparse_store(u32 n) : rows(n) {}
  u32 size() const { return static_cast<u32>(rows.size()); }
  sparse_dist_map& operator[](u32 v) { return rows[v]; }
  u32 reached(u32 v) const { return rows[v].size(); }
  exploration_entry* copy(u32 v, exploration_entry* at) const {
    const std::span<const exploration_entry> got = rows[v].entries();
    return std::copy(got.begin(), got.end(), at);
  }
};

/// Dense rows: row v holds d(v, i) for every index i (kInfDist = unknown) —
/// O(n · |indices|) memory, cache-friendly when balls saturate. First hops
/// are kept only when asked for.
struct dense_store {
  struct row {
    u64* dist;
    u32* via;  ///< nullptr when first hops are not kept
    u64 dist_of(u32 i) const { return dist[i]; }
    bool relax(u32 i, u64 nd, u32 from) {
      if (nd >= dist[i]) return false;
      dist[i] = nd;
      if (via) via[i] = from;
      return true;
    }
  };

  std::vector<std::vector<u64>> dist;
  std::vector<std::vector<u32>> via;  ///< empty when first hops are not kept

  dense_store(u32 n, u32 width, bool keep_via)
      : dist(n, std::vector<u64>(width, kInfDist)),
        via(keep_via ? n : 0, std::vector<u32>(width, ~u32{0})) {}
  u32 size() const { return static_cast<u32>(dist.size()); }
  row operator[](u32 v) {
    return {dist[v].data(), via.empty() ? nullptr : via[v].data()};
  }
  u32 reached(u32 v) const {
    return static_cast<u32>(
        std::count_if(dist[v].begin(), dist[v].end(),
                      [](u64 d) { return d != kInfDist; }));
  }
  exploration_entry* copy(u32 v, exploration_entry* at) const {
    for (u32 i = 0; i < dist[v].size(); ++i)
      if (dist[v][i] != kInfDist)
        *at++ = {dist[v][i], i, via.empty() ? ~u32{0} : via[v][i]};
    return at;
  }
};

// ---- the kernel ------------------------------------------------------------------

/// The kernel's default charge: one local item per pulled frontier entry.
struct entry_count {
  u64 operator()(const std::vector<exploration_entry>& from) const {
    return from.size();
  }
};

/// h synchronous min-plus relaxation rounds from `sources` (nullptr = every
/// node, index = node id) into `dist`, pulled node-parallel on `ex`. Each
/// node reads its neighbors' round-frozen frontiers and writes only its own
/// row; adjacency lists are sorted, so the first neighbor in adjacency
/// order that strictly improves a source's distance becomes its first hop
/// at every thread count (docs/CONCURRENCY.md §3). Frontier entries carry
/// the value of the round that produced them, so information moves exactly
/// one hop per round — the hop budget is what makes d_h well-defined.
///
/// `nbrs(v)` yields v's (neighbor, weight) pairs; `unit_weights` counts
/// every edge as 1. Pulling a neighbor's frontier costs `cost(frontier)`
/// local items — one per entry unless a caller charges per item. After
/// each round `end_round(items, idle)` gets the round's cost and, when the
/// frontier just died, the number of budgeted rounds left (0 otherwise) —
/// the charging hook spends them silently, as fixed round budgets require,
/// or spends a saturation check instead (charge_rounds' early exit).
template <class Store, class Neighbors, class Hook, class Cost = entry_count>
void relax_rounds(Store& dist, const std::vector<u32>* sources, u32 h,
                  const Neighbors& nbrs, bool unit_weights, round_executor& ex,
                  const Hook& end_round, const Cost& cost = {}) {
  const u32 n = dist.size();
  std::vector<std::vector<exploration_entry>> frontier(n);
  const u32 seeds = sources ? static_cast<u32>(sources->size()) : n;
  for (u32 i = 0; i < seeds; ++i) {
    const u32 s = sources ? (*sources)[i] : i;
    HYB_REQUIRE(s < n, "source out of range");
    dist[s].relax(i, 0, s);
    frontier[s].push_back({0, i, s});
  }
  for (u32 r = 0; r < h; ++r) {
    std::vector<std::vector<exploration_entry>> next(n);
    const u64 items = ex.sum_nodes(n, [&](u32 v) -> u64 {
      u64 mine = 0;
      auto&& dv = dist[v];
      for (const auto& [to, weight] : nbrs(v)) {
        const std::vector<exploration_entry>& from = frontier[to];
        const u64 w = unit_weights ? 1 : weight;
        mine += cost(from);
        for (const exploration_entry& f : from)
          if (dv.relax(f.source, f.dist + w, to))
            next[v].push_back({f.dist + w, f.source, to});
      }
      // Drop superseded entries — a later, smaller update for the same
      // source makes earlier queued ones redundant. dv is final for the
      // round once this step ends (only v's own step writes it).
      next[v].erase(std::remove_if(next[v].begin(), next[v].end(),
                                   [&](const exploration_entry& e) {
                                     return e.dist != dv.dist_of(e.source);
                                   }),
                    next[v].end());
      return mine;
    });
    frontier = std::move(next);
    const bool any =
        ex.any_node(n, [&](u32 v) { return !frontier[v].empty(); });
    end_round(items, any ? 0 : h - r - 1);
    if (!any) break;
  }
}

auto graph_neighbors(const graph& g) {
  return [&g](u32 v) { return g.neighbors(v); };
}

/// The round hook of every message-level exploration and flood: charge the
/// pulled items as delivered local traffic and, unless running in parallel
/// with the rest of the algorithm (Lemma 4.3's trick), advance the round
/// plus any idle remainder of the budget. With `early_exit` a flood that
/// saturated early skips that remainder; frontier emptiness is global
/// information, so detecting it costs one AND-aggregation (Lemma B.2).
auto charge_rounds(hybrid_net& net, bool advance_rounds,
                   bool early_exit = false) {
  return [&net, advance_rounds, early_exit](u64 items, u32 idle) {
    net.charge_local(items);
    net.note_local_delivered(items);
    if (!advance_rounds) return;
    if (early_exit && idle > 0) idle = aggregation_rounds(net.n());
    for (u32 k = 0; k <= idle; ++k) net.advance_round();
  };
}

/// The round hook of free local computation and of the referees.
void no_charge(u64, u32) {}

/// The referees' executor: one thread, so they stay sequential.
round_executor sequential_executor() {
  sim_options opts;
  opts.threads = 1;
  return round_executor(opts);
}

/// The one CSR flatten: node v's entries land in
/// out.entries[offsets[v] .. offsets[v+1]), with store keys mapped back to
/// source node ids through `ids` (nullptr = keys are node ids), first hops
/// blanked unless kept, and sorted by source id — the canonical,
/// thread-count-invariant order.
template <class Store>
sparse_exploration_result flatten(const Store& dist,
                                  const std::vector<u32>* ids, bool first_hops,
                                  round_executor& ex) {
  const u32 n = dist.size();
  sparse_exploration_result out;
  out.offsets.assign(n + 1, 0);
  for (u32 v = 0; v < n; ++v)
    out.offsets[v + 1] = out.offsets[v] + dist.reached(v);
  out.entries.resize(out.offsets[n]);
  ex.for_nodes(n, [&](u32 v) {
    exploration_entry* const at = out.entries.data() + out.offsets[v];
    exploration_entry* const end = dist.copy(v, at);
    for (exploration_entry* e = at; e != end; ++e) {
      if (ids) e->source = (*ids)[e->source];
      if (!first_hops) e->first_hop = ~u32{0};
    }
    const auto by_source = [](const exploration_entry& a,
                              const exploration_entry& b) {
      return a.source < b.source;
    };
    // Dense rows come out in key order; the maps in discovery order.
    if (!std::is_sorted(at, end, by_source)) std::sort(at, end, by_source);
  });
  return out;
}

/// Sequential reliable replica of sparse_local_exploration — the healed
/// engine's referee. Pure function of the graph (no simulated traffic, no
/// randomness): the same kernel and flatten with charging off, so the
/// result is the bit-identical canonical fixed point the fault-free run
/// would return. `unit_weights` serves truncated_eccentricity, which floods
/// hop counts, not weighted distances.
sparse_exploration_result reliable_exploration_reference(
    const graph& g, u32 h, const std::vector<u32>* sources, bool first_hops,
    bool unit_weights) {
  round_executor seq = sequential_executor();
  sparse_store dist(g.num_nodes());
  relax_rounds(dist, sources, h, graph_neighbors(g), unit_weights, seq,
               no_charge);
  return flatten(dist, sources, first_hops, seq);
}

/// limited_bellman_ford's per-node output format, from a dense store keyed
/// by source index.
std::vector<std::vector<source_distance>> source_lists(const dense_store& d) {
  std::vector<std::vector<source_distance>> out(d.size());
  for (u32 v = 0; v < d.size(); ++v)
    for (u32 i = 0; i < d.dist[v].size(); ++i)
      if (d.dist[v][i] != kInfDist)
        out[v].push_back({i, d.dist[v][i], d.via[v][i]});
  return out;
}

// ---- self-healing ------------------------------------------------------------------

/// Pareto-minimal (dist, hops) pairs a healed node holds for one source:
/// under drops a smaller-dist/more-hops value can arrive before (or instead
/// of) a fewer-hops one, and downstream nodes may only extend walks with
/// hops < h — keeping just the best dist would silently lose valid ≤h-hop
/// distances. Pairs stay sorted by dist ascending (hence hops strictly
/// descending). Each is stamped with the merge iteration that accepted it;
/// offering a pair in any later iteration than stamp + 1 is a
/// retransmission (docs/FAULTS.md §3's `retransmitted` counter).
struct pareto_set {
  struct pair {
    u64 dist;
    u32 hops;
    u32 stamp;
  };
  std::vector<pair> pairs;

  bool dominates(u64 dist, u32 hops) const {
    for (const pair& p : pairs)
      if (p.dist <= dist && p.hops <= hops) return true;
    return false;
  }
  void insert(u64 dist, u32 hops, u32 stamp) {
    pairs.erase(std::remove_if(pairs.begin(), pairs.end(),
                               [&](const pair& p) {
                                 return p.dist >= dist && p.hops >= hops;
                               }),
                pairs.end());
    auto pos = std::lower_bound(
        pairs.begin(), pairs.end(), dist,
        [](const pair& p, u64 d) { return p.dist < d; });
    pairs.insert(pos, {dist, hops, stamp});
  }
};

/// Self-healing limited_bellman_ford: every round every node re-offers all
/// its extendable pairs, enumerated by source index. Distances stay exact
/// because only pairs with hops < h are offered, so every accepted value is
/// realized by some ≤h-hop walk and at convergence it is d_h.
std::vector<std::vector<source_distance>> healed_limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const u32 s_count = static_cast<u32>(sources.size());
  const fault_options& fo = net.faults();
  // cur[v][i]: the pairs v holds for source i.
  std::vector<std::vector<pareto_set>> cur(n,
                                           std::vector<pareto_set>(s_count));
  for (u32 i = 0; i < s_count; ++i) {
    HYB_REQUIRE(sources[i] < n, "source out of range");
    cur[sources[i]][i].insert(0, 0, 0);
  }
  // (source, dist, hops) acceptances staged per round, merged after the
  // barrier (steps read other nodes' cur).
  std::vector<std::vector<std::tuple<u32, u64, u32>>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(h, 1) +
                     fo.heal_stability_rounds;
  round_executor& exec = net.executor();
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("limited_bellman_ford healing budget exhausted");
    const u32 it = static_cast<u32>(++used);
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        // Offered set: every held pair that can still be extended within
        // the hop budget. Enumerate once for the count (the adversarial
        // mode needs it), once for the pulls.
        u32 count = 0;
        for (u32 i = 0; i < s_count; ++i)
          for (const pareto_set::pair& p : cur[e.to][i].pairs)
            if (p.hops < h) ++count;
        mine += count;
        u32 idx = 0;
        for (u32 i = 0; i < s_count; ++i)
          for (const pareto_set::pair& p : cur[e.to][i].pairs) {
            if (p.hops >= h) continue;
            if (net.local_drop(e.to, v, idx++, count)) {
              ++dropped[v];
              continue;
            }
            const u64 nd = p.dist + e.weight;
            const u32 nh = p.hops + 1;
            if (!cur[v][i].dominates(nd, nh)) add[v].push_back({i, nd, nh});
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
      for (const auto& [i, nd, nh] : add[v]) {
        if (cur[v][i].dominates(nd, nh)) continue;
        cur[v][i].insert(nd, nh, it);
        changed[v] = 1;
      }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee: the reliable relaxation replayed sequentially in memory — no
  // simulated traffic — with its via tie-breaking, and the healed distance
  // fronts must match it exactly. Healed entries are always realized by
  // ≤h-hop walks, so any divergence means the stability heuristic fired
  // before convergence. The referee's result is what gets returned: healed
  // vias depend on which copy survived the drop pattern, while the callers'
  // determinism contract promises labels bit-identical to the fault-free
  // run.
  dense_store ref(n, s_count, /*keep_via=*/true);
  round_executor seq = sequential_executor();
  relax_rounds(ref, &sources, h, graph_neighbors(g), false, seq, no_charge);
  for (u32 v = 0; v < n; ++v)
    for (u32 i = 0; i < s_count; ++i)
      if ((cur[v][i].pairs.empty() ? kInfDist
                                   : cur[v][i].pairs.front().dist) !=
          ref.dist[v][i])
        throw fault_failure(
            "limited_bellman_ford healing stabilized before convergence");
  for (; used < h; ++used) net.advance_round();
  if (used > h) net.note_extra_rounds(used - h);
  return source_lists(ref);
}

/// One self-healing exploration attempt: re-offer rounds until a
/// crash-aware quiet window, then validate against the referee's fixed
/// point. Each node's sources are keyed by id but enumerated in insertion
/// (discovery) order — a pure function of the merge history, so the
/// per-edge offer enumeration, and with it every fault draw index, is
/// thread-count-invariant. Returns normally on success; throws
/// fault_failure on budget exhaustion or premature stability (the caller
/// retries with fresh fault draws — the round counter moved).
/// `rounds_spent` accumulates even on throw so the caller can account every
/// burned round as healing overhead.
void healed_exploration_attempt(hybrid_net& net, u32 h,
                                const std::vector<u32>* sources,
                                bool unit_weights,
                                const sparse_exploration_result& ref,
                                u64& rounds_spent) {
  const graph& g = net.g();
  const u32 n = g.num_nodes();
  const fault_options& fo = net.faults();
  round_executor& exec = net.executor();
  std::vector<flat_u64_map<pareto_set>> cur(n);
  if (sources) {
    for (u32 s : *sources) cur[s][s].insert(0, 0, 0);
  } else {
    for (u32 v = 0; v < n; ++v) cur[v][v].insert(0, 0, 0);
  }
  // (source, dist, hops) acceptances staged per round, merged after the
  // barrier (steps read other nodes' cur, docs/CONCURRENCY.md).
  std::vector<std::vector<std::tuple<u32, u64, u32>>> add(n);
  std::vector<u8> changed(n, 0);
  std::vector<u64> dropped(n, 0);
  std::vector<u64> retx(n, 0);
  const u64 budget = u64{fo.heal_budget_mult} * std::max<u32>(h, 1) +
                     fo.heal_stability_rounds;
  u32 quiet = 0;
  u64 used = 0;
  while (quiet < fo.heal_stability_rounds) {
    if (used >= budget)
      throw fault_failure("local exploration healing budget exhausted");
    const u32 it = static_cast<u32>(++used);
    const u64 items = exec.sum_nodes(n, [&](u32 v) -> u64 {
      add[v].clear();
      dropped[v] = 0;
      retx[v] = 0;
      if (!net.is_up(v)) return 0;
      u64 mine = 0;
      for (const edge& e : g.neighbors(v)) {
        // Offered set: every held pair that can still be extended within
        // the hop budget. Enumerate once for the count (the adversarial
        // mode needs it), once for the pulls.
        const std::span<const flat_u64_map<pareto_set>::entry> from =
            cur[e.to].entries();
        u32 count = 0;
        for (const flat_u64_map<pareto_set>::entry& offer : from)
          for (const pareto_set::pair& p : offer.value.pairs)
            if (p.hops < h) ++count;
        mine += count;
        const u64 w = unit_weights ? 1 : e.weight;
        u32 idx = 0;
        for (const auto& [source, set] : from)
          for (const pareto_set::pair& p : set.pairs) {
            if (p.hops >= h) continue;
            // A pair first crosses edges in the iteration after its merge;
            // any later crossing is a retransmission (counted whether or
            // not this copy is then dropped — it did cross the edge).
            if (p.stamp + 1 < it) ++retx[v];
            if (net.local_drop(e.to, v, idx++, count)) {
              ++dropped[v];
              continue;
            }
            const u64 nd = p.dist + w;
            const u32 nh = p.hops + 1;
            const pareto_set* held = cur[v].find(source);
            if (!held || !held->dominates(nd, nh))
              add[v].push_back({static_cast<u32>(source), nd, nh});
          }
      }
      return mine;
    });
    net.charge_local(items);
    u64 lost = 0;
    u64 re = 0;
    for (u32 v = 0; v < n; ++v) {
      lost += dropped[v];
      re += retx[v];
    }
    net.note_local_delivered(items - lost);
    net.note_local_dropped(lost);
    net.note_retransmitted(re);
    // Rounds always advance, even for advance_rounds=false callers: a
    // frozen counter would re-roll the same drops forever, so healing needs
    // real rounds (the caller surfaces them all via note_extra_rounds).
    net.advance_round();
    ++rounds_spent;
    exec.for_nodes(n, [&](u32 v) {
      changed[v] = 0;
      for (const auto& [s, nd, nh] : add[v]) {
        pareto_set& set = cur[v][s];
        if (set.dominates(nd, nh)) continue;
        set.insert(nd, nh, it);
        changed[v] = 1;
      }
    });
    quiet = heal_next_quiet(net, exec, n, quiet, changed);
  }
  // Referee check: the healed support is a subset of the reliable one
  // (every held pair is realized by a ≤h-hop walk), so matching reached
  // counts plus matching front distances on every referee entry means the
  // healed state IS the fixed point. Anything less is premature stability.
  for (u32 v = 0; v < n; ++v) {
    const std::span<const exploration_entry> want = ref.reached(v);
    if (cur[v].size() != want.size())
      throw fault_failure(
          "local exploration healing stabilized before reaching the h-ball");
    for (const exploration_entry& e : want) {
      const pareto_set* got = cur[v].find(e.source);
      if (!got || got->pairs.front().dist != e.dist)
        throw fault_failure(
            "local exploration healing stabilized before convergence");
    }
  }
}

}  // namespace

u64 sparse_dist_map::dist_of(u32 source) const {
  if (table_.empty()) return kInfDist;
  u32 i = hash_source(source, mask_);
  for (;;) {
    const u32 slot = table_[i];
    if (slot == 0) return kInfDist;
    if (entries_[slot - 1].source == source) return entries_[slot - 1].dist;
    i = (i + 1) & mask_;
  }
}

u32* sparse_dist_map::find_slot(u32 source) {
  u32 i = hash_source(source, mask_);
  for (;;) {
    u32& slot = table_[i];
    if (slot == 0 || entries_[slot - 1].source == source) return &slot;
    i = (i + 1) & mask_;
  }
}

bool sparse_dist_map::relax(u32 source, u64 nd, u32 via) {
  if (table_.empty()) grow();
  u32* slot = find_slot(source);
  if (*slot != 0) {
    exploration_entry& e = entries_[*slot - 1];
    if (nd >= e.dist) return false;
    e.dist = nd;
    e.first_hop = via;
    return true;
  }
  entries_.push_back({nd, source, via});
  *slot = static_cast<u32>(entries_.size());
  // Keep load factor under 1/2 so probe chains stay short.
  if (2 * entries_.size() >= table_.size()) grow();
  return true;
}

void sparse_dist_map::grow() {
  const u32 cap = table_.empty() ? 8 : static_cast<u32>(table_.size()) * 2;
  table_.assign(cap, 0);
  mask_ = cap - 1;
  for (u32 k = 0; k < entries_.size(); ++k)
    *find_slot(entries_[k].source) = k + 1;
}

void sparse_dist_map::clear() {
  entries_.clear();
  std::fill(table_.begin(), table_.end(), 0);
}

sparse_exploration_result healed_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops, bool unit_weights) {
  HYB_REQUIRE(net.local_faults_active(),
              "healed exploration requires an injected local fault plane");
  const u32 n = net.n();
  if (sources) require_distinct(*sources, n);
  // The referee fixed point is computed once — it is a pure function of the
  // graph, so retries only redraw the fault schedule, never the target.
  const sparse_exploration_result ref = reliable_exploration_reference(
      net.g(), h, sources, first_hops, unit_weights);
  const u64 nominal = advance_rounds ? h : 0;
  u64 spent = 0;
  for (u32 attempt = 1;; ++attempt) {
    try {
      healed_exploration_attempt(net, h, sources, unit_weights, ref, spent);
      break;
    } catch (const fault_failure&) {
      // Each retry sees fresh fault draws (the round counter moved), so
      // random schedules converge with overwhelming probability; only
      // adversarial ones exhaust the retries.
      if (attempt >= 4) {
        net.note_extra_rounds(spent);
        throw;
      }
    }
  }
  // Round-accounting parity with the reliable path: pad up to the nominal
  // budget and surface everything beyond it as healing overhead. With
  // advance_rounds=false the nominal budget is zero — the run-in-parallel
  // trick is unavailable under faults, so every round spent is overhead.
  for (; spent < nominal; ++spent) net.advance_round();
  if (spent > nominal) net.note_extra_rounds(spent - nominal);
  // Return the referee's canonical triples: bit-identical to the fault-free
  // run (the healed state was just validated to be the same fixed point,
  // but its first hops depend on the drop pattern; the referee's do not).
  return ref;
}

std::vector<std::vector<source_distance>> limited_bellman_ford(
    hybrid_net& net, const std::vector<u32>& sources, u32 h,
    bool advance_rounds) {
  if (net.local_faults_active()) {
    // With a frozen round counter the fault stream would re-roll the same
    // draws every iteration — a dropped edge stays dropped forever and no
    // amount of re-offering heals it. The remediation its former
    // fault_unsupported refusal named (run with advance_rounds=true) is now
    // honored automatically: the healed path runs with real rounds, and
    // because the caller asked for a frozen counter its nominal budget is 0
    // — every round actually consumed surfaces as extra_rounds, so metrics
    // record the whole cost of the fallback (docs/FAULTS.md §3).
    if (!advance_rounds) {
      const u64 r0 = net.round();
      const u64 x0 = net.raw_metrics().extra_rounds;
      auto out = healed_limited_bellman_ford(net, sources, h);
      const u64 spent = net.round() - r0;
      const u64 noted = net.raw_metrics().extra_rounds - x0;
      if (spent > noted) net.note_extra_rounds(spent - noted);
      return out;
    }
    return healed_limited_bellman_ford(net, sources, h);
  }
  dense_store dist(net.n(), static_cast<u32>(sources.size()),
                   /*keep_via=*/true);
  relax_rounds(dist, &sources, h, graph_neighbors(net.g()), false,
               net.executor(), charge_rounds(net, advance_rounds));
  return source_lists(dist);
}

sparse_exploration_result sparse_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  if (sources) require_distinct(*sources, net.n());
  sparse_store dist(net.n());
  relax_rounds(dist, sources, h, graph_neighbors(net.g()), false,
               net.executor(), charge_rounds(net, advance_rounds));
  return flatten(dist, sources, first_hops, net.executor());
}

sparse_exploration_result dense_local_exploration(
    hybrid_net& net, u32 h, bool advance_rounds,
    const std::vector<u32>* sources, bool first_hops) {
  if (net.local_faults_active())
    return healed_local_exploration(net, h, advance_rounds, sources,
                                    first_hops);
  if (sources) require_distinct(*sources, net.n());
  // The n² u32 first-hop rows are only materialized when asked for.
  dense_store dist(net.n(),
                   sources ? static_cast<u32>(sources->size()) : net.n(),
                   first_hops);
  relax_rounds(dist, sources, h, graph_neighbors(net.g()), false,
               net.executor(), charge_rounds(net, advance_rounds));
  return flatten(dist, sources, first_hops, net.executor());
}

std::vector<sparse_dist_map> flood_rounds(hybrid_net& net,
                                          const std::vector<u32>& roots,
                                          u32 rounds, bool early_exit,
                                          const std::vector<u64>* words,
                                          const std::vector<u32>* part) {
  const graph& g = net.g();
  sparse_store known(g.num_nodes());
  const auto hook = charge_rounds(net, true, early_exit);
  const auto cost = [words](const std::vector<exploration_entry>& from) {
    if (!words) return static_cast<u64>(from.size());
    u64 sum = 0;
    for (const exploration_entry& f : from) sum += (*words)[f.source];
    return sum;  // a table crosses whole
  };
  if (part) {
    const auto inside = [&g, part](u32 v) {
      return g.neighbors(v) | std::views::filter([part, v](const edge& e) {
               return (*part)[e.to] == (*part)[v];
             });
    };
    relax_rounds(known, &roots, rounds, inside, true, net.executor(), hook,
                 cost);
  } else {
    relax_rounds(known, &roots, rounds, graph_neighbors(g), true,
                 net.executor(), hook, cost);
  }
  return std::move(known.rows);
}

sparse_exploration_result explore_adjacency(
    const std::vector<std::vector<std::pair<u32, u64>>>& adj, u32 h,
    round_executor& ex) {
  sparse_store dist(static_cast<u32>(adj.size()));
  relax_rounds(
      dist, nullptr, h,
      [&adj](u32 v) -> const std::vector<std::pair<u32, u64>>& {
        return adj[v];
      },
      false, ex, no_charge);
  return flatten(dist, nullptr, true, ex);
}

sparse_exploration_result run_local_exploration(hybrid_net& net, u32 h,
                                                bool advance_rounds,
                                                const std::vector<u32>* sources,
                                                bool first_hops) {
  // Both stores return identical triples and charge identical rounds and
  // traffic, so the choice is a memory/speed trade only: dense rows win
  // while balls saturate, the maps bound memory by the h-balls
  // (docs/ARCHITECTURE.md §6.2). Under local-plane faults either entry
  // point routes to the healed engine.
  return net.n() <= kDenseExplorationMaxNodes
             ? dense_local_exploration(net, h, advance_rounds, sources,
                                       first_hops)
             : sparse_local_exploration(net, h, advance_rounds, sources,
                                        first_hops);
}

}  // namespace hybrid
