// hybench — the repository benchmark (see BENCHMARK.json and README.md).
//
//   hybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//
// One run generates its inputs from --seed, builds the distance-label
// oracle with hybrid_apsp_exact, publishes it (save_oracle +
// mapped_oracle::load + attach_topology), serves a closed-loop request mix
// from the mapped file, and checks every output. --trace 0 times the
// library calls with nothing else in the way and reports the end-to-end
// metrics; --trace 1 replays the pipeline through proto/'s functions with
// a span around each (replay.hpp) and reports the per-layer metrics.
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
// the lines before it repeat every metric by name with its unit, plus the
// machine and per-operation counts. The full record and the span trace
// (Chrome trace-event JSON) are written under --out. Exit status is 0 iff
// every check passed.
#ifdef HYBENCH_TRACED
#include "bench/alloc_counter.hpp"
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/peak_rss.hpp"
#include "core/apsp.hpp"
#include "core/oracle_store.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "replay.hpp"
#include "serve.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

#ifndef HYBENCH_COMPILER
#define HYBENCH_COMPILER "unknown"
#endif
#ifndef HYBENCH_BUILD_TYPE
#define HYBENCH_BUILD_TYPE "unknown"
#endif

namespace hybench {

unsigned long long allocations() {
#ifdef HYBENCH_TRACED
  return benchalloc::allocations();
#else
  return 0;
#endif
}

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

template <class F>
double timed_s(F&& fn) {
  const auto t0 = clock_type::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

// ---- workloads --------------------------------------------------------------

constexpr u32 kCheckRows = 64;       ///< rows compared with Dijkstra
constexpr u64 kFinitePairs = 65536;   ///< uniform pairs behind the finite bar
constexpr u32 kSetupReps = 5;        ///< input generation is timed this often
constexpr u64 kRequests = 1 << 20;   ///< request-stream length (clients cycle it)
constexpr double kServeShare = 0.3;  ///< share of the measured loop spent serving
constexpr double kServeSliceS = 1.2; ///< one serving slice (20 rate windows)
constexpr size_t kMaxBuilds = 64;    ///< warm builds per run at most

struct workload {
  std::string name;
  u32 n = 0;
  model_config cfg;
  sim_options opts;  ///< threads = 0: HYBRID_THREADS or every core
  // The build is a fixed job per workload (graph, configuration and
  // simulator seed as the repo's benches use them), so its metrics measure
  // the code, not the sample; --seed drives the traffic and the rows checked.
  u64 graph_seed = 2024;
  u64 sim_seed = 5;
  u64 request_seed = 0;
  /// Labels are exact (single level, h at the Lemma C.1 budget): every
  /// sampled row must equal Dijkstra and no request may come back
  /// unreachable. Otherwise they are upper bounds (two-level at a short h).
  bool exact = true;
  u32 min_builds = 3;  ///< build_s: median of at least this many warm builds

  graph make_graph() const {
    if (name == "oracle_large") return gen::bounded_degree(n, 3, 1, graph_seed);
    return gen::erdos_renyi_connected(n, 6.0, 16, graph_seed);
  }
  apsp_result build(const graph& g, sim_options o) const {
    return hybrid_apsp_exact(g, cfg, sim_seed, /*build_routes=*/true, o);
  }
};

bool make_workload(const std::string& name, u64 seed, workload& w) {
  w.name = name;
  w.request_seed = derive_seed(seed, 3);
  if (name == "apsp_exact") {
    // Theorem 1.1 single level at its default budget (bench_apsp's graph
    // family): round-loop and token-routing bound, dense exploration side.
    // Its builds are short and the noisiest, so the median takes more.
    w.n = 1024;
    w.min_builds = 5;
  } else if (name == "oracle_large") {
    // bench_apsp's label_large: two levels at n = 10^5, h = 5, p1 = 0.08,
    // p2 = 0.05, h1 = 3 (skeleton_xi back-solved from h = ceil(xi/p ln n)).
    w.n = 100000;
    w.graph_seed = 42;
    w.sim_seed = 13;
    const double p = 0.08;
    w.cfg.skeleton_xi = (5.0 - 0.25) * p / std::log(static_cast<double>(w.n));
    w.cfg.skeleton_p_override = p;
    w.cfg.super_p_override = 0.05;
    w.cfg.super_h_override = 3;
    w.cfg.charged_token_routing = true;
    w.opts.storage = result_storage::kLabels;
    w.opts.hierarchy = oracle_hierarchy::kTwoLevel;
    w.exact = false;
  } else if (name == "apsp_faulty") {
    // apsp_exact's family under bench_faults' drop rates: the same stages
    // through their healing paths. n = 384 keeps a build near 2 s, so a
    // run's build_s is a median of several builds.
    w.n = 384;
    w.sim_seed = 7;
    w.opts.faults.drop_global = 0.1;
    w.opts.faults.drop_local = 0.1;
    w.opts.faults.fault_seed = 17;
  } else {
    return false;
  }
  return true;
}

// ---- inputs -----------------------------------------------------------------

struct inputs {
  graph g;
  std::vector<request> reqs;
  double gen_s = 0;
};

inputs make_inputs(const workload& w) {
  inputs in;
  in.gen_s = timed_s([&] { in.g = w.make_graph(); });
  in.reqs = make_requests(w.n, kRequests, w.request_seed);
  return in;
}

// ---- checks -----------------------------------------------------------------

u64 fold_words(u64 d, const u64* p, size_t count) {
  for (size_t i = 0; i < count; ++i) d = fold(d, p[i]);
  return d;
}

/// Digest of every label array (bit-identity across builds and replays).
u64 label_digest(const dist_labels& l) {
  u64 d = kFnvOffset;
  for (const u64 x : {u64{l.n}, u64{l.n_s}, u64{l.n_s2}, u64{l.h},
                      static_cast<u64>(l.scheme), u64{l.routes}})
    d = fold(d, x);
  const auto entries = [&d](const std::vector<exploration_entry>& es) {
    for (const exploration_entry& e : es)
      d = fold(fold(d, e.dist), (u64{e.source} << 32) | e.first_hop);
  };
  const auto gws = [&d](const std::vector<source_distance>& gs) {
    for (const source_distance& s : gs)
      d = fold(fold(d, s.dist), (u64{s.source} << 32) | s.via);
  };
  const auto u32s = [&d](const std::vector<u32>& xs) {
    for (const u32 x : xs) d = fold(d, x);
  };
  d = fold_words(d, l.ball.offsets.data(), l.ball.offsets.size());
  entries(l.ball.entries);
  d = fold_words(d, l.gw_offsets.data(), l.gw_offsets.size());
  gws(l.gateways);
  u32s(l.skeleton_nodes);
  d = fold_words(d, l.skel.data(), l.skel.size());
  d = fold_words(d, l.ball1_offsets.data(), l.ball1_offsets.size());
  entries(l.ball1_entries);
  d = fold_words(d, l.gw1_offsets.data(), l.gw1_offsets.size());
  gws(l.gw1);
  u32s(l.super_nodes);
  return d;
}

/// Field-by-field run_metrics equality; `why` names the first difference.
bool same_metrics(const run_metrics& a, const run_metrics& b,
                  std::string& why) {
  const std::pair<const char*, std::pair<u64, u64>> fields[] = {
      {"rounds", {a.rounds, b.rounds}},
      {"global_messages", {a.global_messages, b.global_messages}},
      {"global_payload_words", {a.global_payload_words, b.global_payload_words}},
      {"local_items", {a.local_items, b.local_items}},
      {"max_global_recv_per_round",
       {a.max_global_recv_per_round, b.max_global_recv_per_round}},
      {"cut_bits", {a.cut_bits, b.cut_bits}},
      {"global_sent", {a.global_sent, b.global_sent}},
      {"global_dropped", {a.global_dropped, b.global_dropped}},
      {"local_delivered", {a.local_delivered, b.local_delivered}},
      {"local_dropped", {a.local_dropped, b.local_dropped}},
      {"retransmitted", {a.retransmitted, b.retransmitted}},
      {"extra_rounds", {a.extra_rounds, b.extra_rounds}},
      {"phases", {a.phases.size(), b.phases.size()}}};
  for (const auto& [name, v] : fields)
    if (v.first != v.second) {
      why = std::string(name) + " " + std::to_string(v.first) + " vs " +
            std::to_string(v.second);
      return false;
    }
  for (size_t i = 0; i < a.phases.size(); ++i) {
    const phase_entry& x = a.phases[i];
    const phase_entry& y = b.phases[i];
    if (x.name != y.name || x.rounds != y.rounds ||
        x.global_messages != y.global_messages ||
        x.retransmitted != y.retransmitted || x.extra_rounds != y.extra_rounds) {
      why = "phase " + std::to_string(i) + " (" + x.name + " vs " + y.name + ")";
      return false;
    }
  }
  return true;
}

struct accuracy {
  u64 sampled = 0;
  u64 finite = 0;
  u64 exact = 0;
  u64 under = 0;  ///< answers below the true distance (never allowed)
  double max_stretch = 1.0;
};

/// kCheckRows seeded source rows compared with Dijkstra, rows spread over
/// every core.
accuracy sample_accuracy(const workload& w, const label_view& view,
                         const graph& g) {
  rng r(derive_seed(w.request_seed, 7));
  std::vector<u32> sources(kCheckRows);
  for (u32& s : sources) s = static_cast<u32>(r.next_below(w.n));
  const u32 threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<accuracy> part(threads);
  std::vector<std::thread> pool;
  for (u32 t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      accuracy& a = part[t];
      std::vector<u64> row;
      for (size_t i = t; i < sources.size(); i += threads) {
        const u32 s = sources[i];
        view.row_into(s, row);
        const std::vector<u64> ref = dijkstra(g, s);
        for (u32 v = 0; v < view.n; ++v) {
          ++a.sampled;
          if (row[v] == ref[v]) ++a.exact;
          if (row[v] < ref[v]) ++a.under;
          if (row[v] == kInfDist) continue;
          ++a.finite;
          if (v != s && ref[v] > 0)
            a.max_stretch =
                std::max(a.max_stretch, static_cast<double>(row[v]) /
                                            static_cast<double>(ref[v]));
        }
      }
    });
  for (std::thread& th : pool) th.join();
  accuracy a;
  for (const accuracy& p : part) {
    a.sampled += p.sampled;
    a.finite += p.finite;
    a.exact += p.exact;
    a.under += p.under;
    a.max_stretch = std::max(a.max_stretch, p.max_stretch);
  }
  return a;
}

/// Uniformly random pairs the labels answer finitely, out of kFinitePairs.
u64 finite_pairs(const workload& w, const label_view& view) {
  rng r(derive_seed(w.request_seed, 11));
  u64 finite = 0;
  for (u64 i = 0; i < kFinitePairs; ++i) {
    const u32 u = static_cast<u32>(r.next_below(w.n));
    const u32 v = static_cast<u32>(r.next_below(w.n));
    finite += view.query(u, v) != kInfDist;
  }
  return finite;
}

u32 covered_nodes(const dist_labels& l) {
  u32 c = 0;
  for (u32 v = 0; v < l.n; ++v) c += l.gw_offsets[v + 1] > l.gw_offsets[v];
  return c;
}

// ---- reporting --------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

struct counts {
  u64 attempted = 0;
  u64 failed = 0;
};

/// Everything one run reports.
struct report {
  bool correct = true;
  std::vector<std::string> failures;  ///< one line per failed check
  counts ops[1 + kOps];               ///< build, query, next_hop, route
  std::vector<metric> metrics;
  std::map<std::string, std::string> facts;  ///< digests, shapes, machine

  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics.push_back({name, value, unit});
  }
  u64 attempted() const {
    u64 s = 0;
    for (const counts& c : ops) s += c.attempted;
    return s;
  }
  u64 failed() const {
    u64 s = 0;
    for (const counts& c : ops) s += c.failed;
    return s;
  }
};

const char* const kOpKinds[1 + kOps] = {"build", "query", "next_hop", "route"};

std::string json_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15)
    std::snprintf(buf, sizeof buf, "%.0f", v);
  else
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string result_line(const report& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted());
  s += ", \"failed\": " + std::to_string(r.failed());
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

std::string read_first(const char* path, const char* key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const size_t b = line.find_first_not_of(" \t", colon + 1);
      return b == std::string::npos ? "" : line.substr(b);
    }
  return "unknown";
}

void machine_facts(report& r, const workload& w, u64 seed) {
  r.facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
  r.facts["sim_threads"] =
      std::to_string(round_executor(w.opts).threads());
  r.facts["cpu_model"] = read_first("/proc/cpuinfo", "model name");
  r.facts["mem_total"] = read_first("/proc/meminfo", "MemTotal");
  r.facts["compiler"] = HYBENCH_COMPILER;
  r.facts["build_type"] = HYBENCH_BUILD_TYPE;
  r.facts["seed"] = std::to_string(seed);
  r.facts["workload"] = w.name;
}

// ---- the pieces of a run ----------------------------------------------------

/// Save, load and attach once; returns the mapped oracle and the times.
struct publish_times {
  double save_s = 0;
  double load_s = 0;
  double total() const { return save_s + load_s; }
};

mapped_oracle publish(const dist_labels& labels, const graph& g,
                      const std::string& path, publish_times& t) {
  t.save_s = timed_s([&] { save_oracle(labels, path); });
  mapped_oracle m;
  t.load_s = timed_s([&] {
    m = mapped_oracle::load(path);
    m.attach_topology(g);
  });
  return m;
}

/// After serving from the mapped oracle: re-serve a strided sample of the
/// served requests from the in-memory labels. The answers must agree, and
/// on exact labels none may be unreachable. Returns the merged per-kind
/// statistics.
std::vector<op_stats> check_serving(const workload& w, const closed_loop& loop,
                                    const label_view& in_memory,
                                    const std::vector<request>& reqs,
                                    report& r) {
  const u64 stride = std::max<u64>(1, reqs.size() / 16384);
  u64 mismatched[kOps] = {};
  u64 digest_mapped = 0;
  u64 digest_memory = 0;
  for (u64 i = 0; i < reqs.size(); i += stride) {
    if (!loop.served(i)) continue;
    const u64 want = serve(in_memory, reqs[i]).hash;
    digest_mapped += loop.answer_hash(i);
    digest_memory += want;
    if (loop.answer_hash(i) != want)
      ++mismatched[static_cast<int>(reqs[i].kind)];
  }
  if (digest_mapped != digest_memory)
    r.fail("mapped oracle answers differ from the in-memory labels");
  std::vector<op_stats> ops;
  for (int k = 0; k < kOps; ++k) {
    ops.push_back(loop.merged(k));
    const op_stats& s = ops.back();
    counts& c = r.ops[1 + k];
    c.attempted += s.served;
    c.failed += mismatched[k] + (w.exact ? s.unreachable : 0);
    if (w.exact && s.unreachable > 0)
      r.fail(std::string(op_name(k)) + ": " + std::to_string(s.unreachable) +
             " unreachable answers on exact labels");
  }
  r.facts["result_digest"] = std::to_string(digest_mapped);
  r.facts["request_digest"] = std::to_string(request_digest(reqs));
  return ops;
}

accuracy check_accuracy(const workload& w, const apsp_result& res,
                        const inputs& in, report& r) {
  const accuracy acc = sample_accuracy(w, res.labels.view(), in.g);
  if (acc.under > 0) r.fail("labels underestimate Dijkstra distances");
  if (w.exact) {
    if (acc.exact != acc.sampled) r.fail("sampled rows differ from Dijkstra");
  } else {
    // bench_apsp's label_large acceptance bars. The finite bar is taken
    // over uniformly random pairs, not over the sampled rows: a row whose
    // source has no gateway (a few dozen of the 10^5 nodes) is infinite
    // almost everywhere, so 64 rows cannot estimate a 99 % share of pairs.
    const u64 finite = finite_pairs(w, res.labels.view());
    r.facts["finite_uniform_pairs"] =
        std::to_string(finite) + "/" + std::to_string(kFinitePairs);
    if (finite * 100 < kFinitePairs * 99)
      r.fail("fewer than 99% of uniformly sampled pairs answered finitely");
    if (u64{covered_nodes(res.labels)} * 100 < u64{w.n} * 99)
      r.fail("skeleton gateways cover fewer than 99% of nodes");
  }
  r.facts["sampled_pairs"] = std::to_string(acc.sampled);
  r.facts["finite_pairs"] = std::to_string(acc.finite);
  r.facts["exact_pairs"] = std::to_string(acc.exact);
  r.facts["covered_nodes"] = std::to_string(covered_nodes(res.labels));
  return acc;
}

/// apsp_faulty: the fault-free build of the same seed is the reference the
/// faulty labels must match bit for bit.
apsp_result fault_free_build(const workload& w, const graph& g) {
  sim_options o = w.opts;
  o.faults = fault_options{};
  return w.build(g, o);
}

struct build_outcome {
  apsp_result res;
  double wall_s = 0;
  double peak_mb = 0;
  bool ok = false;
};

build_outcome timed_build(const workload& w, const graph& g, sim_options o,
                          report& r) {
  build_outcome b;
  const bool rss = benchrss::reset_peak_rss();
  ++r.ops[0].attempted;
  try {
    b.wall_s = timed_s([&] { b.res = w.build(g, o); });
    b.ok = true;
  } catch (const fault_failure& e) {
    ++r.ops[0].failed;
    r.fail(std::string("build threw fault_failure: ") + e.what());
  }
  b.peak_mb = rss ? benchrss::peak_rss_mb() : 0.0;
  return b;
}

// ---- --trace 0: end-to-end --------------------------------------------------

std::string join(const std::vector<double>& xs) {
  std::string out;
  for (const double x : xs) {
    if (!out.empty()) out += ' ';
    out += json_number(x);
  }
  return out;
}

void run_end_to_end(const workload& w, double seconds, const std::string& out,
                    report& r) {
  // Set-up, reported as setup_s: the inputs, generated kSetupReps times
  // (median), plus the warm-up — the process's first, cold build (the one
  // whose peak RSS is reported and whose labels are served) and its first
  // publish. A first-call cost in the library therefore lands in setup_s
  // instead of vanishing from the medians below.
  std::vector<double> setup_times;
  inputs in;
  for (u32 i = 0; i < kSetupReps; ++i) {
    in = inputs{};
    setup_times.push_back(timed_s([&] { in = make_inputs(w); }));
  }
  build_outcome cold = timed_build(w, in.g, w.opts, r);
  if (!cold.ok) return;
  apsp_result res = std::move(cold.res);
  const u64 digest = label_digest(res.labels);
  const u64 rounds = res.metrics.rounds;
  const std::string path = out + "/oracle-" + std::to_string(::getpid()) + ".bin";
  publish_times first;
  mapped_oracle mapped = publish(res.labels, in.g, path, first);
  const double warmup_s = cold.wall_s + first.total();
  r.add("setup_s", median(setup_times) + warmup_s, "s");

  // Measured part: publish cycles, then serving slices interleaved with
  // warm builds until the time is up, so both sample the machine across the
  // whole run rather than in one stretch. Every build must reproduce the
  // served labels bit for bit.
  const auto t_start = clock_type::now();
  std::vector<double> publish_s;
  while (publish_s.size() < 3 ||
         (seconds_since(t_start) < 0.05 * seconds && publish_s.size() < 50)) {
    mapped = mapped_oracle{};
    publish_times t;
    mapped = publish(res.labels, in.g, path, t);
    publish_s.push_back(t.total());
  }
  // Serving takes kServeShare of the time and warm builds the rest: the
  // next step serves while serving is behind its share, otherwise it builds.
  const u32 clients = std::max(1u, std::thread::hardware_concurrency());
  closed_loop loop(in.reqs, clients);
  std::vector<double> build_times;
  const auto t_loop = clock_type::now();
  for (;;) {
    if (build_times.size() >= w.min_builds &&
        (seconds_since(t_start) >= seconds || build_times.size() >= kMaxBuilds))
      break;
    if (loop.wall_s() <= kServeShare * seconds_since(t_loop)) {
      loop.run(mapped.view(), kServeSliceS, /*min_per_op=*/2000);
      continue;
    }
    build_outcome b = timed_build(w, in.g, w.opts, r);
    if (!b.ok) {
      if (r.ops[0].failed >= 3) break;
      continue;
    }
    build_times.push_back(b.wall_s);
    if (label_digest(b.res.labels) != digest) {
      ++r.ops[0].failed;
      r.fail("labels changed between identical builds");
    }
    if (b.res.metrics.rounds != rounds)
      r.fail("build rounds changed between identical builds");
  }
  std::filesystem::remove(path);
  if (build_times.empty()) {
    r.fail("no warm build succeeded");
    return;
  }
  r.add("build_s", median(build_times), "s");
  r.add("build_rounds", static_cast<double>(rounds), "rounds");
  r.add("peak_rss_mb", cold.peak_mb, "MB");
  r.add("publish_s", median(publish_s), "s");

  std::vector<op_stats> ops =
      check_serving(w, loop, res.labels.view(), in.reqs, r);
  r.add("serve_rps", loop.median_rps(), "req/s");
  for (int k = 0; k < kOps; ++k) {
    r.add(std::string(op_name(k)) + "_p50_us",
          percentile(ops[k].latency_us, 0.50), "us");
    r.add(std::string(op_name(k)) + "_p99_us",
          percentile(ops[k].latency_us, 0.99), "us");
  }

  const accuracy acc = check_accuracy(w, res, in, r);
  r.add("exact_ratio",
        static_cast<double>(acc.exact) / static_cast<double>(acc.sampled),
        "share");
  r.add("max_stretch", acc.max_stretch, "ratio");

  if (w.opts.faults.enabled() &&
      label_digest(fault_free_build(w, in.g).labels) != digest) {
    ++r.ops[0].failed;
    r.fail("faulty build labels differ from the fault-free build");
  }
  r.facts["label_digest"] = std::to_string(digest);
  r.facts["warmup_s"] = json_number(warmup_s);
  r.facts["setup_times_s"] = join(setup_times);
  r.facts["build_times_s"] = join(build_times);
  r.facts["publish_times_s"] = join(publish_s);
  r.facts["serve_seconds"] = json_number(loop.wall_s());
  r.facts["serve_clients"] = std::to_string(clients);
  r.facts["serve_window_rps"] = join(loop.window_rps());
}

// ---- --trace 1: per layer ---------------------------------------------------

void write_trace(const std::string& path,
                 const std::vector<std::pair<std::string, const tracer*>>& runs) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [";
  bool first = true;
  int tid = 0;
  for (const auto& [label, tr] : runs) {
    ++tid;
    for (const span& s : tr->spans()) {
      f << (first ? "\n" : ",\n");
      first = false;
      f << "{\"name\": " << json_string(s.name) << ", \"cat\": "
        << json_string(label) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << json_number(s.t0 * 1e6)
        << ", \"dur\": " << json_number((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"parent\": "
        << json_string(s.parent >= 0 ? tr->spans()[s.parent].name : "")
        << ", \"rounds\": " << s.rounds
        << ", \"global_messages\": " << s.global_messages
        << ", \"local_items\": " << s.local_items
        << ", \"allocs\": " << s.allocs
        << ", \"peak_rss_mb\": " << json_number(s.peak_rss_mb) << "}}";
    }
  }
  f << "\n]}\n";
}

void run_traced(const workload& w, double seconds, const std::string& out,
                u64 seed, report& r) {
  std::vector<double> gen_times;
  inputs in;
  for (u32 i = 0; i < kSetupReps; ++i) {
    in = make_inputs(w);
    gen_times.push_back(in.gen_s);
  }

  // Untraced cold build (first in the process), then the traced replay at
  // every thread, an untraced warm build for the overhead, and the traced
  // replay on one thread for the speed-ups. Both replays must match the
  // direct build's metrics and labels exactly.
  build_outcome cold = timed_build(w, in.g, w.opts, r);
  if (!cold.ok) return;
  const run_metrics direct = cold.res.metrics;
  const u64 direct_digest = label_digest(cold.res.labels);
  cold.res = apsp_result{};

  tracer tr_n;
  tracer tr_1;
  const auto replay_checked = [&](tracer& tr, u32 threads) {
    sim_options o = w.opts;
    o.threads = threads;
    apsp_result got;
    ++r.ops[0].attempted;
    try {
      got = replay_build(in.g, w.cfg, w.sim_seed, true, o, tr);
    } catch (const fault_failure& e) {
      ++r.ops[0].failed;
      r.fail(std::string("replay threw fault_failure: ") + e.what());
      return got;
    }
    std::string why;
    if (!same_metrics(direct, got.metrics, why)) {
      ++r.ops[0].failed;
      r.fail("replay metrics differ from hybrid_apsp_exact: " + why);
    }
    if (label_digest(got.labels) != direct_digest) {
      ++r.ops[0].failed;
      r.fail("replay labels differ from hybrid_apsp_exact");
    }
    return got;
  };
  replay_checked(tr_n, 0);
  build_outcome warm = timed_build(w, in.g, w.opts, r);
  warm.res = apsp_result{};
  // The one-thread replay's labels (checked identical) are the ones served.
  const apsp_result replayed = replay_checked(tr_1, 1);
  if (!r.correct) return;

  double fault_overhead = 0;
  if (w.opts.faults.enabled()) {
    apsp_result clean;
    const double clean_s = timed_s([&] { clean = fault_free_build(w, in.g); });
    if (label_digest(clean.labels) != direct_digest) {
      ++r.ops[0].failed;
      r.fail("faulty build labels differ from the fault-free build");
    }
    fault_overhead = warm.wall_s / clean_s;
  }

  // Publish and serve inside spans too.
  tracer tr_io;
  const std::string path = out + "/oracle-" + std::to_string(::getpid()) + ".bin";
  tr_io("save_oracle", [&] { save_oracle(replayed.labels, path); });
  mapped_oracle mapped = tr_io("load", [&] {
    mapped_oracle m = mapped_oracle::load(path);
    m.attach_topology(in.g);
    return m;
  });
  const u64 file_bytes = mapped.header().file_bytes;
  const u32 clients = std::max(1u, std::thread::hardware_concurrency());
  const double serve_s = std::max(1.0, 0.1 * seconds);
  closed_loop many(in.reqs, clients);
  closed_loop one(in.reqs, 1);
  tr_io("serve", [&] { many.run(mapped.view(), serve_s, 2000); });
  tr_io("serve_one_client", [&] { one.run(mapped.view(), serve_s, 2000); });
  const std::vector<op_stats> ops =
      check_serving(w, many, replayed.labels.view(), in.reqs, r);
  check_serving(w, one, replayed.labels.view(), in.reqs, r);
  std::filesystem::remove(path);
  check_accuracy(w, replayed, in, r);

  // ---- per-layer metrics. A layer the workload does not run reads its
  // empty span's time and 0 for every count and ratio.
  const auto sec = [](const tracer& tr, const char* name) {
    const span* s = tr.find(name);
    return s != nullptr ? s->seconds() : 0.0;
  };
  const auto get = [](const tracer& tr, const char* name) {
    static const span none{};
    const span* s = tr.find(name);
    return s != nullptr ? *s : none;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto speedup = [&](const char* name) {
    const span* s = tr_n.find(name);
    return s != nullptr && !s->skipped ? ratio(sec(tr_1, name), s->seconds())
                                       : 0.0;
  };
  const span build = get(tr_n, "build");
  const span rc = get(tr_n, "routing_context");
  r.add("routing_context.s", rc.seconds(), "s");
  r.add("routing_context.rounds", rc.rounds, "rounds");
  r.add("routing_context.allocs_per_round", ratio(rc.allocs, rc.rounds),
        "allocs/round");
  r.add("routing_context.speedup", speedup("routing_context"), "x");
  const span rt = get(tr_n, "route_tokens");
  r.add("route_tokens.s", rt.seconds(), "s");
  r.add("route_tokens.rounds", rt.rounds, "rounds");
  r.add("route_tokens.global_messages", rt.global_messages, "messages");
  r.add("route_tokens.max_recv_per_round", rt.max_recv, "messages");
  const span ss = get(tr_n, "super_skeleton");
  r.add("super_skeleton.s", ss.seconds(), "s");
  r.add("super_skeleton.rounds", ss.rounds, "rounds");
  r.add("super_skeleton.global_messages", ss.global_messages, "messages");
  r.add("super_skeleton.peak_rss_mb", ss.peak_rss_mb, "MB");
  r.add("super_skeleton.speedup", speedup("super_skeleton"), "x");
  const span ex = get(tr_n, "exploration");
  r.add("exploration.s", ex.seconds(), "s");
  r.add("exploration.local_items", ex.local_items, "items");
  r.add("exploration.allocs", ex.allocs, "allocs");
  r.add("exploration.peak_rss_mb", ex.peak_rss_mb, "MB");
  r.add("exploration.speedup", speedup("exploration"), "x");
  const span sk = get(tr_n, "skeleton");
  r.add("skeleton.s", sk.seconds(), "s");
  r.add("skeleton.rounds", sk.rounds, "rounds");
  r.add("skeleton.allocs", sk.allocs, "allocs");
  const span lf = get(tr_n, "label_flood");
  r.add("label_flood.s", lf.seconds(), "s");
  r.add("label_flood.rounds", lf.rounds, "rounds");
  const span ds = get(tr_n, "dissemination");
  r.add("dissemination.s", ds.seconds(), "s");
  r.add("dissemination.rounds", ds.rounds, "rounds");
  r.add("dissemination.global_messages", ds.global_messages, "messages");
  r.add("dissemination.allocs", ds.allocs, "allocs");
  r.add("skeleton_apsp.s", sec(tr_n, "skeleton_apsp"), "s");
  r.add("token_batch.s", sec(tr_n, "token_batch"), "s");
  r.add("label_table.s", sec(tr_n, "label_table"), "s");
  r.add("label_assembly.s", sec(tr_n, "label_assembly"), "s");
  r.add("route_tables.s", sec(tr_n, "route_tables"), "s");
  r.add("materialize.s", sec(tr_n, "materialize"), "s");
  r.add("sim.ms_per_round", ratio(1000.0 * build.seconds(), direct.rounds),
        "ms");
  r.add("sim.allocs_per_round", ratio(build.allocs, direct.rounds),
        "allocs/round");
  r.add("sim.speedup", speedup("build"), "x");
  r.add("fault.retransmitted", direct.retransmitted, "messages");
  r.add("fault.extra_rounds", direct.extra_rounds, "rounds");
  r.add("fault.overhead", fault_overhead, "x");
  r.add("store.save_s", sec(tr_io, "save_oracle"), "s");
  r.add("store.load_s", sec(tr_io, "load"), "s");
  r.add("store.file_bytes", file_bytes, "bytes");
  r.add("oracle.label_entries", replayed.labels.label_entries(), "entries");
  r.add("oracle.bytes_per_node", ratio(file_bytes, w.n), "bytes");
  const op_stats& routes = ops[static_cast<int>(op::route)];
  r.add("serve.route_hops_mean", ratio(routes.hops, routes.served), "hops");
  for (int k = 0; k < kOps; ++k)
    r.add(std::string("serve.") + op_name(k) + "_fail_ratio",
          ratio(ops[k].unreachable, ops[k].served), "share");
  r.add("serve.speedup", ratio(many.median_rps(), one.median_rps()), "x");
  r.add("apsp.unattributed_s", tr_n.self_seconds("build"), "s");
  r.add("graph.gen_s", median(gen_times), "s");
  r.add("trace.overhead_s", build.seconds() - warm.wall_s, "s");
  r.add("build.cold_s", cold.wall_s, "s");
  r.add("build.warm_s", warm.wall_s, "s");
  for (int k = 0; k < 1 + kOps; ++k) {
    r.add(std::string("ops.") + kOpKinds[k] + "_attempted",
          static_cast<double>(r.ops[k].attempted), "count");
    r.add(std::string("ops.") + kOpKinds[k] + "_failed",
          static_cast<double>(r.ops[k].failed), "count");
  }

  const std::string trace_path = out + "/trace-" + w.name + "-seed" +
                                 std::to_string(seed) + ".json";
  write_trace(trace_path, {{"replay_all_threads", &tr_n},
                           {"replay_one_thread", &tr_1},
                           {"publish_serve", &tr_io}});
  r.facts["trace_file"] = trace_path;
  r.facts["label_digest"] = std::to_string(direct_digest);
}

// ---- main -------------------------------------------------------------------

void write_record(const std::string& path, const report& r) {
  std::ofstream f(path);
  f << "{\n  \"result\": " << result_line(r) << ",\n  \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : r.facts) {
    f << (first ? "\n    " : ",\n    ") << json_string(k) << ": "
      << json_string(v);
    first = false;
  }
  f << "\n  },\n  \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i)
    f << (i ? ", " : "") << json_string(r.failures[i]);
  f << "]\n}\n";
}

int usage() {
  std::cerr << "usage: hybench --workload <apsp_exact|oracle_large|apsp_faulty>"
               " --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string name;
  u64 seed = 1;
  double seconds = 30;
  int trace = 0;
  std::string out = ".bench_build/hybench-out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") name = val;
    else if (flag == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(val.c_str());
    else if (flag == "--trace") trace = std::atoi(val.c_str());
    else if (flag == "--out") out = val;
    else return usage();
  }
  workload w;
  if (!make_workload(name, seed, w) || seconds <= 0 || trace < 0 || trace > 1)
    return usage();
  std::filesystem::create_directories(out);

  report r;
  machine_facts(r, w, seed);
  try {
    if (trace == 0)
      run_end_to_end(w, seconds, out, r);
    else
      run_traced(w, seconds, out, seed, r);
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }

  for (const auto& [k, v] : r.facts) std::cout << "# " << k << ": " << v << "\n";
  for (int k = 0; k < 1 + kOps; ++k)
    std::cout << "# ops " << kOpKinds[k] << ": attempted " << r.ops[k].attempted
              << ", failed " << r.ops[k].failed << "\n";
  std::cout << "# failed_ratio: "
            << json_number(r.attempted() > 0
                               ? static_cast<double>(r.failed()) /
                                     static_cast<double>(r.attempted())
                               : 0.0)
            << "\n";
  for (const std::string& f : r.failures) std::cout << "# CHECK FAILED: " << f << "\n";
  for (const metric& m : r.metrics)
    std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  write_record(out + "/result-" + w.name + "-seed" + std::to_string(seed) +
                   "-trace" + std::to_string(trace) + ".json",
               r);
  std::cout << result_line(r) << std::endl;
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace hybench

int main(int argc, char** argv) { return hybench::run(argc, argv); }
