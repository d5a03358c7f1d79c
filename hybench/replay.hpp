// The traced half of the benchmark: spans recorded from the benchmark's own
// code around calls into the library, and a replay of hybrid_apsp_exact's
// phase order through proto/'s public functions so every phase gets one.
//
// replay_build() must produce exactly what hybrid_apsp_exact produces for
// the same (graph, config, seed, options): the same run_metrics, phase by
// phase, and bit-identical labels. main.cpp checks both on every traced
// run, so a replay that drifts from core/apsp.cpp fails loudly instead of
// attributing time to phases the program no longer runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/apsp.hpp"
#include "proto/dissemination.hpp"
#include "proto/flood.hpp"
#include "proto/skeleton.hpp"
#include "proto/sparse_exploration.hpp"
#include "proto/token_routing.hpp"
#include "util/assert.hpp"

#include "bench/peak_rss.hpp"

namespace hybench {

using namespace hybrid;

/// Heap allocations so far; main.cpp defines it (a counter in the traced
/// binary, 0 in the untraced one).
unsigned long long allocations();

struct span {
  std::string name;
  int parent = -1;  ///< index into the tracer's spans, -1 for a root
  double t0 = 0;    ///< seconds since the tracer started
  double t1 = 0;
  // Deltas over the span (simulator counters when a net is attached).
  u64 rounds = 0;
  u64 global_messages = 0;
  u64 local_items = 0;
  u64 retransmitted = 0;
  u64 extra_rounds = 0;
  u64 allocs = 0;
  /// Running max of the per-node global receive load at the span's end (the
  /// simulator keeps one max for the whole run, not one per phase).
  u32 max_recv = 0;
  double peak_rss_mb = 0;  ///< process peak RSS during the span (0: unknown)
  /// The pipeline variant does not run this layer: an empty span at its
  /// place in the phase order, so its time is the tracer's own cost.
  bool skipped = false;

  double seconds() const { return t1 - t0; }
};

/// In-memory span recorder. Spans nest by call order; they are written out
/// (Chrome trace-event JSON) only after the run.
class tracer {
 public:
  tracer() : start_(std::chrono::steady_clock::now()) {}

  /// Simulator whose counters the following spans read (nullptr: none).
  void attach(const hybrid_net* net) { net_ = net; }

  template <class F>
  decltype(auto) operator()(std::string name, F&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({});
    spans_[id].name = std::move(name);
    spans_[id].parent = open_;
    const int saved_open = open_;
    open_ = id;
    const run_metrics before = counters();
    const bool rss = benchrss::reset_peak_rss();
    const unsigned long long allocs = allocations();
    spans_[id].t0 = now();
    struct closer {
      tracer& tr;
      int id;
      int saved_open;
      run_metrics before;
      bool rss;
      unsigned long long allocs;
      ~closer() {
        span& s = tr.spans_[id];
        s.t1 = tr.now();
        s.allocs = allocations() - allocs;
        s.peak_rss_mb = rss ? benchrss::peak_rss_mb() : 0.0;
        const run_metrics after = tr.counters();
        s.rounds = after.rounds - before.rounds;
        s.global_messages = after.global_messages - before.global_messages;
        s.local_items = after.local_items - before.local_items;
        s.retransmitted = after.retransmitted - before.retransmitted;
        s.extra_rounds = after.extra_rounds - before.extra_rounds;
        s.max_recv = after.max_global_recv_per_round;
        tr.open_ = saved_open;
      }
    } close{*this, id, saved_open, before, rss, allocs};
    return fn();
  }

  /// Record an empty span for a layer this pipeline variant does not run.
  void skip(std::string name) {
    span s;
    s.name = std::move(name);
    s.parent = open_;
    s.skipped = true;
    s.t0 = now();
    s.t1 = now();
    spans_.push_back(std::move(s));
  }

  const std::vector<span>& spans() const { return spans_; }

  /// The last span with this name, or nullptr.
  const span* find(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
      if (it->name == name) return &*it;
    return nullptr;
  }

  /// The last span with this name: its time minus the time its direct
  /// children cover (0 when there is no such span).
  double self_seconds(const std::string& name) const {
    const span* root = find(name);
    if (root == nullptr) return 0.0;
    const int id = static_cast<int>(root - spans_.data());
    double children = 0;
    for (const span& s : spans_)
      if (s.parent == id) children += s.seconds();
    return root->seconds() - children;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  run_metrics counters() const {
    return net_ != nullptr ? net_->raw_metrics() : run_metrics{};
  }

  std::chrono::steady_clock::time_point start_;
  const hybrid_net* net_ = nullptr;
  std::vector<span> spans_;
  int open_ = -1;
};

/// hybrid_apsp_exact(g, cfg, seed, routes, opts), phase by phase, with a
/// span around each library call. The statements between calls are the
/// ones core/apsp.cpp runs there. Layers of the other hierarchy variant (and
/// materialize when the result stays label-only) get empty spans.
inline apsp_result replay_build(const graph& g, const model_config& cfg,
                                u64 seed, bool build_routes, sim_options opts,
                                tracer& tr) {
  return tr("build", [&] {
    hybrid_net net(g, cfg, seed, opts);
    tr.attach(&net);
    // Detach before `net` is destroyed, on the exception path too: the
    // enclosing span still reads counters when it closes.
    const std::unique_ptr<tracer, void (*)(tracer*)> detach(
        &tr, [](tracer* t) { t->attach(nullptr); });
    const u32 n = net.n();
    apsp_result out;

    net.begin_phase("skeleton");
    const double p = cfg.skeleton_p_override > 0.0
                         ? cfg.skeleton_p_override
                         : 1.0 / std::sqrt(static_cast<double>(n));
    const skeleton_result sk =
        tr("skeleton", [&] { return compute_skeleton(net, p); });
    const u32 n_s = static_cast<u32>(sk.nodes.size());
    out.skeleton_size = n_s;
    out.h = sk.h;

    net.begin_phase("skeleton_dissemination");
    const bool two_level = opts.hierarchy == oracle_hierarchy::kTwoLevel;
    std::vector<std::vector<token2>> edge_tokens(n);
    for (u32 i = 0; i < n_s; ++i)
      for (const auto& [j, w] : sk.edges[i])
        if (i < j) edge_tokens[sk.nodes[i]].push_back({(u64{i} << 32) | j, w});
    tr("dissemination", [&] {
      if (two_level && !net.faults_active())
        disseminate_charged(net, std::move(edge_tokens));
      else
        disseminate(net, std::move(edge_tokens));
    });

    super_skeleton_result ss;
    if (!two_level) {
      const std::vector<std::vector<u64>> dist_s = tr(
          "skeleton_apsp", [&] { return skeleton_apsp(sk, net.executor()); });
      net.begin_phase("token_routing");
      routing_spec spec;
      spec.senders.resize(n);
      for (u32 v = 0; v < n; ++v) spec.senders[v] = v;
      spec.receivers = sk.nodes;
      spec.p_s = 1.0;
      spec.p_r = p;
      spec.k_s = n_s;
      spec.k_r = n;
      std::vector<std::vector<routed_token>> batch(n);
      tr("token_batch", [&] {
        net.executor().for_nodes(n, [&](u32 v) {
          batch[v].reserve(n_s);
          for (u32 s = 0; s < n_s; ++s)
            batch[v].push_back({v, sk.nodes[s], 0, kInfDist});
          for (const source_distance& sd : sk.near[v])
            for (u32 s = 0; s < n_s; ++s) {
              const u64 cand = sd.dist + dist_s[sd.source][s];
              batch[v][s].payload = std::min(batch[v][s].payload, cand);
            }
        });
      });
      routing_context ctx = tr("routing_context", [&] {
        return build_routing_context(net, std::move(spec));
      });
      auto delivered = tr("route_tokens", [&] {
        return route_tokens(net, ctx, std::move(batch));
      });
      tr("label_table", [&] {
        out.labels.skel.assign(u64{n_s} * n, kInfDist);
        net.executor().for_nodes(n_s, [&](u32 s) {
          HYB_INVARIANT(delivered[s].size() == n, "skeleton node missed tokens");
          u64* lbl = out.labels.skel.data() + u64{s} * n;
          for (const routed_token& t : delivered[s]) lbl[t.sender] = t.payload;
          std::vector<routed_token>().swap(delivered[s]);
        });
      });
    } else {
      net.begin_phase("super_skeleton");
      const double p2 = cfg.super_p_override > 0.0
                            ? cfg.super_p_override
                            : 1.0 / std::sqrt(static_cast<double>(n_s));
      const u32 h1 =
          cfg.super_h_override > 0
              ? cfg.super_h_override
              : std::max<u32>(
                    1, static_cast<u32>(std::ceil(
                           cfg.skeleton_xi * (1.0 / p2) *
                           std::log(std::max<double>(2.0, n_s)))));
      ss = tr("super_skeleton",
              [&] { return compute_super_skeleton(net, sk, p2, h1); });
      out.labels.n_s2 = static_cast<u32>(ss.members.size());
      for (const char* layer : {"skeleton_apsp", "token_batch", "routing_context",
                                "route_tokens", "label_table"})
        tr.skip(layer);
    }
    if (!two_level) tr.skip("super_skeleton");

    net.begin_phase("label_flood");
    std::vector<u64> words(n_s, n);
    if (two_level)
      for (u32 i = 0; i < n_s; ++i) {
        const u64 b1 = ss.ball_offsets[i + 1] - ss.ball_offsets[i];
        const u64 g1 = ss.gw_offsets[i + 1] - ss.gw_offsets[i];
        words[i] = 3 * b1 + 3 * g1 +
                   (ss.index_of[i] != super_skeleton_result::npos
                        ? u64{out.labels.n_s2}
                        : 0);
      }
    tr("label_flood", [&] { table_flood(net, sk.nodes, words, sk.h); });
    out.labels.ball = tr("exploration", [&] {
      return run_local_exploration(net, sk.h, /*advance_rounds=*/false,
                                   nullptr, /*first_hops=*/false);
    });

    tr("label_assembly", [&] {
      out.labels.n = n;
      out.labels.n_s = n_s;
      out.labels.h = sk.h;
      out.labels.scheme =
          two_level ? label_scheme::kTwoLevel : label_scheme::kSkeletonRows;
      out.labels.topo = &g;
      out.labels.skeleton_nodes = sk.nodes;
      if (two_level) {
        out.labels.ball1_offsets = std::move(ss.ball_offsets);
        out.labels.ball1_entries = std::move(ss.ball_entries);
        out.labels.gw1_offsets = std::move(ss.gw_offsets);
        out.labels.gw1 = std::move(ss.gateways);
        out.labels.super_nodes = std::move(ss.members);
        out.labels.skel = std::move(ss.pairs);
      }
      out.labels.gw_offsets.assign(n + 1, 0);
      for (u32 v = 0; v < n; ++v)
        out.labels.gw_offsets[v + 1] =
            out.labels.gw_offsets[v] + sk.near[v].size();
      out.labels.gateways.resize(out.labels.gw_offsets[n]);
      net.executor().for_nodes(n, [&](u32 v) {
        std::copy(sk.near[v].begin(), sk.near[v].end(),
                  out.labels.gateways.begin() +
                      static_cast<std::ptrdiff_t>(out.labels.gw_offsets[v]));
      });
    });

    if (build_routes) {
      tr("route_tables", [&] {
        net.begin_phase("route_tables");
        net.charge_local(2 * g.num_edges() * n);
        net.note_local_delivered(2 * g.num_edges() * n);
        net.advance_round();
        out.labels.routes = true;
      });
    }
    out.metrics = net.snapshot();

    if (resolve_materialize(opts, n)) {
      tr("materialize", [&] {
        out.dist = out.labels.materialize(net.executor());
        if (build_routes)
          out.next_hop =
              out.labels.materialize_next_hops(out.dist, net.executor());
      });
    } else {
      tr.skip("materialize");
    }
    return out;
  });
}

}  // namespace hybench
