// The serving half of the benchmark: a seeded query / next_hop / route
// request stream replayed closed-loop against a label_view.
//
// Closed loop: each client thread sends its next request as soon as the
// previous one returns (no think time), cycling through its own contiguous
// slice of the stream until the deadline. Every request is timed on its own
// with steady_clock, so the per-operation percentiles come from the same
// replay that gives the throughput.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/dist_oracle.hpp"
#include "util/rng.hpp"

namespace hybench {

using namespace hybrid;

constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;
inline u64 fold(u64 state, u64 word) { return (state ^ word) * kFnvPrime; }

enum class op : u8 { query = 0, next_hop = 1, route = 2 };
constexpr int kOps = 3;
inline const char* op_name(int k) {
  static const char* const names[kOps] = {"query", "next_hop", "route"};
  return names[k];
}

struct request {
  op kind;
  u32 u;
  u32 v;
};

/// The bench_query_service mix: 60 % query, 30 % next_hop, 10 % route.
inline std::vector<request> make_requests(u32 n, u64 count, u64 seed) {
  std::vector<request> reqs(count);
  rng r(seed);
  for (request& q : reqs) {
    const u64 k = r.next_below(10);
    q.kind = k < 6 ? op::query : k < 9 ? op::next_hop : op::route;
    q.u = static_cast<u32>(r.next_below(n));
    q.v = static_cast<u32>(r.next_below(n));
  }
  return reqs;
}

inline u64 request_digest(const std::vector<request>& reqs) {
  u64 d = kFnvOffset;
  for (const request& q : reqs)
    d = fold(fold(fold(d, static_cast<u64>(q.kind)), q.u), q.v);
  return d;
}

struct answer {
  u64 hash = 0;
  /// "No path" on a connected graph: query = kInfDist, next_hop = ~0 with
  /// u ≠ v, or a route that stops short of its target.
  bool unreachable = false;
  u32 hops = 0;  ///< route hops taken (routes only)
};

/// Serve one request. A route is greedy forwarding along next_hop; it stops
/// at the target, at a ~0 hop, or after n hops.
inline answer serve(const label_view& view, const request& q) {
  answer a;
  switch (q.kind) {
    case op::query: {
      const u64 d = view.query(q.u, q.v);
      a.hash = fold(kFnvOffset, d);
      a.unreachable = d == kInfDist;
      break;
    }
    case op::next_hop: {
      const u32 nh = view.next_hop(q.u, q.v);
      a.hash = fold(kFnvOffset, nh);
      a.unreachable = nh == ~u32{0};
      break;
    }
    case op::route: {
      u32 at = q.u;
      u32 hops = 0;
      while (at != q.v && hops <= view.n) {
        const u32 nh = view.next_hop(at, q.v);
        if (nh == ~u32{0}) break;
        at = nh;
        ++hops;
      }
      a.hash = fold(fold(kFnvOffset, hops), at);
      a.unreachable = at != q.v;
      a.hops = hops;
      break;
    }
  }
  return a;
}

struct op_stats {
  u64 served = 0;
  u64 unreachable = 0;
  u64 hops = 0;                  ///< summed over routes
  std::vector<double> latency_us;
};

/// Nearest-rank percentile (q in [0, 1]); sorts `xs`.
inline double percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t k = static_cast<size_t>(q * static_cast<double>(xs.size() - 1));
  return xs[k];
}

/// Closed-loop replay from a fixed set of client threads, run as one or
/// more timed slices. Each slice splits into kWindows equal windows for the
/// throughput; each client resumes its walk through its own slice of the
/// stream where the previous slice stopped. Statistics accumulate over all
/// slices, so slices spread through a run sample the machine at several
/// points in time.
class closed_loop {
 public:
  static constexpr int kWindows = 20;

  closed_loop(const std::vector<request>& reqs, u32 clients)
      : reqs_(reqs),
        clients_(clients),
        chunk_(reqs.size() / clients),
        cursor_(clients, 0),
        per_(u64{clients} * kOps),
        got_(reqs.size(), 0),
        served_mask_(reqs.size(), 0) {}
  closed_loop(const closed_loop&) = delete;
  closed_loop& operator=(const closed_loop&) = delete;

  /// Serve for `seconds`. A client keeps going past the deadline until it
  /// has served `min_per_op` / clients requests of every kind in total, so
  /// each percentile has enough samples behind it.
  void run(const label_view& view, double seconds, u64 min_per_op) {
    using clock = std::chrono::steady_clock;
    const u64 per_client_min = (min_per_op + clients_ - 1) / clients_;
    const double window_s = seconds / kWindows;
    std::vector<u64> window_counts(u64{clients_} * kWindows, 0);
    std::vector<clock::time_point> ended(clients_);
    std::atomic<u32> ready{0};
    std::atomic<bool> go{false};
    clock::time_point start;
    clock::time_point deadline;

    auto client = [&](u32 t) {
      op_stats* st = &per_[u64{t} * kOps];
      u64* windows = &window_counts[u64{t} * kWindows];
      const u64 lo = t * chunk_;
      u64 i = cursor_[t];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (;;) {
        const u64 idx = lo + i % chunk_;
        const request& q = reqs_[idx];
        const auto t0 = clock::now();
        const answer a = serve(view, q);
        const auto t1 = clock::now();
        op_stats& s = st[static_cast<int>(q.kind)];
        ++s.served;
        s.unreachable += a.unreachable ? 1 : 0;
        s.hops += a.hops;
        s.latency_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        const u64 w = static_cast<u64>(
            std::chrono::duration<double>(t1 - start).count() / window_s);
        if (w < kWindows) ++windows[w];
        got_[idx] = a.hash;
        served_mask_[idx] = 1;
        ++i;
        if (t1 >= deadline && st[0].served >= per_client_min &&
            st[1].served >= per_client_min && st[2].served >= per_client_min) {
          ended[t] = t1;
          cursor_[t] = i;
          return;
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(clients_);
    for (u32 t = 0; t < clients_; ++t) pool.emplace_back(client, t);
    while (ready.load() < clients_) std::this_thread::yield();
    start = clock::now();
    deadline = start + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread& th : pool) th.join();

    wall_s_ += std::chrono::duration<double>(
                   *std::max_element(ended.begin(), ended.end()) - start)
                   .count();
    for (int w = 0; w < kWindows; ++w) {
      u64 count = 0;
      for (u32 t = 0; t < clients_; ++t)
        count += window_counts[u64{t} * kWindows + w];
      window_rps_.push_back(static_cast<double>(count) / window_s);
    }
  }

  double wall_s() const { return wall_s_; }
  const std::vector<double>& window_rps() const { return window_rps_; }
  /// Median window throughput: short stalls of a shared machine are voted
  /// out rather than averaged in.
  double median_rps() const {
    std::vector<double> w = window_rps_;
    std::sort(w.begin(), w.end());
    return w.empty() ? 0.0 : w[w.size() / 2];
  }
  /// Statistics of one operation kind over every client and slice.
  op_stats merged(int kind) const {
    op_stats out;
    for (u32 t = 0; t < clients_; ++t) {
      const op_stats& from = per_[u64{t} * kOps + kind];
      out.served += from.served;
      out.unreachable += from.unreachable;
      out.hops += from.hops;
      out.latency_us.insert(out.latency_us.end(), from.latency_us.begin(),
                            from.latency_us.end());
    }
    return out;
  }
  /// Whether reqs[i] was served, and the hash of its last answer.
  bool served(u64 i) const { return served_mask_[i] != 0; }
  u64 answer_hash(u64 i) const { return got_[i]; }

 private:
  const std::vector<request>& reqs_;
  u32 clients_;
  u64 chunk_;
  std::vector<u64> cursor_;     ///< per client: requests taken so far
  std::vector<op_stats> per_;   ///< [client][kind]
  std::vector<u64> got_;        ///< written only by the client owning i
  std::vector<u8> served_mask_;
  std::vector<double> window_rps_;
  double wall_s_ = 0;
};

}  // namespace hybench
