// Tests for the flat-arena mailbox delivery path (sim/mailbox.hpp):
// (src, send-index) inbox ordering, bit-identical delivery and receive-load
// metrics across thread counts, arena reuse (no heap growth after warm-up,
// probed via mailbox stats), γ-cap saturation on the flat outbox, the
// clique mirror's overflow/re-stride path, and a differential check against
// the vector-of-vectors mailbox it replaced. Run under -fsanitize=thread this
// suite doubles as a race detector for the parallel counting sort (the TSAN
// CI job does exactly that).
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "sim/clique_net.hpp"
#include "sim/hybrid_net.hpp"
#include "util/rng.hpp"

namespace hybrid {
namespace {

// Order-sensitive digest of one inbox span (FNV-style fold), so two runs
// agree iff contents AND order agree.
template <class Msg>
u64 inbox_digest(std::span<const Msg> box) {
  u64 h = 1469598103934665603ull;
  auto mix = [&](u64 x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const Msg& m : box) {
    mix(m.src);
    mix(m.dst);
    mix(m.tag);
    mix(m.nw);
    for (u8 i = 0; i < m.nw; ++i) mix(m.w[i]);
  }
  return h;
}

TEST(FlatMailbox, InboxSortedBySrcThenSendIndex) {
  const graph g = gen::path(8);
  hybrid_net net(g, model_config{}, 1);
  // Enqueue in scrambled source order; within each source, send order is
  // the tag sequence.
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, /*tag=*/50, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 10, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(5, 2, 51, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 2, 0, {})));
  EXPECT_TRUE(net.try_send_global(global_msg::make(1, 2, 11, {})));
  net.advance_round();
  const auto box = net.global_inbox(2);
  ASSERT_EQ(box.size(), 5u);
  const u32 want_src[] = {0, 1, 1, 5, 5};
  const u32 want_tag[] = {0, 10, 11, 50, 51};
  for (u32 i = 0; i < 5; ++i) {
    EXPECT_EQ(box[i].src, want_src[i]) << i;
    EXPECT_EQ(box[i].tag, want_tag[i]) << i;
  }
}

// A multi-round workload where every node sends a round_rng-chosen batch
// from inside a parallel step — the exact shape advance_round()'s counting
// sort must deliver identically at every thread count.
TEST(FlatMailbox, DeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 257;  // prime-ish: exercises uneven shard tails
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 12;
  auto run = [&](u32 threads) {
    hybrid_net net(g, model_config{}, 31, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(net.try_send_global(
              global_msg::make(v, dst, i, {rv.next(), u64{v} << 32 | r})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.global_inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_pair(digests, net.snapshot());
  };
  const auto [d1, m1] = run(1);
  for (u32 threads : {2u, 8u}) {
    const auto [dt, mt] = run(threads);
    EXPECT_EQ(dt, d1) << threads << " threads";
    EXPECT_EQ(mt.global_messages, m1.global_messages) << threads;
    EXPECT_EQ(mt.global_payload_words, m1.global_payload_words) << threads;
    EXPECT_EQ(mt.max_global_recv_per_round, m1.max_global_recv_per_round)
        << threads;
  }
}

TEST(FlatMailbox, ArenasStopGrowingAfterWarmup) {
  const u32 n = 128;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 7);
  hybrid_net net(g, model_config{}, 5, sim_options{2});
  auto saturate_round = [&](u32 r) {
    net.executor().for_nodes(n, [&](u32 v) {
      rng rv = net.round_rng(v);
      while (net.global_budget(v) > 0) {
        const u32 dst = static_cast<u32>(rv.next_below(n));
        net.try_send_global(global_msg::make(v, dst, r, {rv.next()}));
      }
    });
    net.advance_round();
  };
  for (u32 r = 0; r < 4; ++r) saturate_round(r);
  const mailbox_stats warm = net.global_mailbox_stats();
  // Slabs start small and re-stride to γ at the first barrier; the send
  // cap guarantees they never need to grow past γ.
  EXPECT_EQ(warm.stride, net.global_cap());
  EXPECT_GT(warm.overflow_messages, 0u);  // round 1 spilled, pre-re-stride
  for (u32 r = 4; r < 24; ++r) saturate_round(r);
  const mailbox_stats done = net.global_mailbox_stats();
  EXPECT_EQ(done.grow_events, warm.grow_events) << "arena grew after warm-up";
  EXPECT_EQ(done.inbox_slots, warm.inbox_slots);
  EXPECT_EQ(done.outbox_slots, warm.outbox_slots);
  EXPECT_EQ(done.overflow_messages, warm.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(done.delivered_total, u64{24} * n * net.global_cap());
}

TEST(FlatMailbox, GammaCapSaturationOnFlatOutbox) {
  const u32 n = 64;
  const graph g = gen::path(n);
  hybrid_net net(g, model_config{}, 9, sim_options{4});
  const u32 cap = net.global_cap();
  net.executor().for_nodes(n, [&](u32 v) {
    for (u32 i = 0; i < cap; ++i)
      ASSERT_TRUE(net.try_send_global(
          global_msg::make(v, (v + i + 1) % n, i, {u64{v}})));
    ASSERT_EQ(net.global_budget(v), 0u);
    ASSERT_FALSE(net.try_send_global(global_msg::make(v, 0, 99, {})));
  });
  net.advance_round();
  u64 delivered = 0;
  for (u32 v = 0; v < n; ++v) {
    delivered += net.global_inbox(v).size();
    EXPECT_EQ(net.global_budget(v), cap);  // budget reset at the barrier
  }
  EXPECT_EQ(delivered, u64{n} * cap);
  EXPECT_EQ(net.raw_metrics().global_messages, u64{n} * cap);
  net.advance_round();
  for (u32 v = 0; v < n; ++v)
    EXPECT_TRUE(net.global_inbox(v).empty());  // cleared next round
}

TEST(FlatMailbox, CliqueOverflowRestridesOnceThenStaysFlat) {
  const u32 n = 64;
  const u32 per_node = 40;  // above the initial slab width of 16
  clique_net net(n, sim_options{2});
  auto full_round = [&] {
    net.executor().for_nodes(n, [&](u32 v) {
      for (u32 i = 0; i < per_node; ++i) {
        clique_msg m;
        m.src = v;
        m.dst = (v + i) % n;
        m.tag = i;
        net.send(m);
      }
    });
    net.advance_round();
  };
  full_round();
  const mailbox_stats first = net.mailbox_stats_probe();
  EXPECT_GT(first.overflow_messages, 0u);  // round 1 spilled past the slab
  EXPECT_GE(first.stride, per_node);       // ...and re-strided at the barrier
  full_round();
  full_round();
  const mailbox_stats later = net.mailbox_stats_probe();
  EXPECT_EQ(later.overflow_messages, first.overflow_messages)
      << "slab overflowed again after the re-stride";
  EXPECT_EQ(later.grow_events, first.grow_events);
  EXPECT_EQ(net.total_messages(), u64{3} * n * per_node);
  EXPECT_EQ(net.max_recv_per_round(), per_node);
  // Inboxes stay (src, send-index)-sorted through slab + overflow delivery.
  const auto box = net.inbox(0);
  ASSERT_EQ(box.size(), per_node);
  for (u32 i = 1; i < box.size(); ++i)
    EXPECT_LT(box[i - 1].src, box[i].src) << i;
}

TEST(FlatMailbox, CliqueDeliveryBitIdenticalAcrossThreadCounts) {
  const u32 n = 96;
  const u32 rounds = 6;
  auto run = [&](u32 threads) {
    clique_net net(n, sim_options{threads});
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        rng rv(derive_seed(derive_seed(1234, v), r));
        const u32 k = static_cast<u32>(rv.next_below(n));
        for (u32 i = 0; i < k; ++i) {
          clique_msg m;
          m.src = v;
          m.dst = static_cast<u32>(rv.next_below(n));
          m.tag = i;
          m.w[0] = rv.next();
          m.nw = 1;
          net.send(m);
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v)
        round_digest ^= (v + 1) * inbox_digest(net.inbox(v));
      digests.push_back(round_digest);
    }
    return std::make_tuple(digests, net.total_messages(),
                           net.max_recv_per_round());
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// Filtered delivery (the fault-injection drop path, sim/fault.hpp): the
// dual-pass counting sort must keep survivors in (src, send-index) order,
// deliver bit-identically at every thread count, and account sent/dropped
// consistently — specifically under sparse scatter, where most nodes send
// nothing and a rotating minority sends bursts, so shard tails see empty
// and dense source runs side by side.
TEST(FlatMailbox, FilteredSparseScatterKeepsOrderAcrossThreadCounts) {
  const u32 n = 257;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 11);
  const u32 rounds = 10;
  auto run = [&](u32 threads) {
    sim_options opts;
    opts.threads = threads;
    opts.faults.drop_global = 0.35;
    opts.faults.fault_seed = 13;
    hybrid_net net(g, model_config{}, 31, opts);
    std::vector<u64> digests;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        if (v % 17 != r % 17) return;  // sparse: ~n/17 senders per round
        rng rv = net.round_rng(v);
        const u32 k = static_cast<u32>(rv.next_below(net.global_cap() + 1));
        for (u32 i = 0; i < k; ++i) {
          const u32 dst = static_cast<u32>(rv.next_below(n));
          ASSERT_TRUE(
              net.try_send_global(global_msg::make(v, dst, i, {rv.next()})));
        }
      });
      net.advance_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = net.global_inbox(v);
        // Survivors keep (src, send-index) order: the tag is the per-source
        // send counter, so within one src it must stay strictly increasing
        // after the filter removed arbitrary positions.
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
    }
    const run_metrics m = net.raw_metrics();
    return std::make_tuple(digests, m.global_sent, m.global_messages,
                           m.global_dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
  EXPECT_GT(std::get<3>(base), 0u);
  EXPECT_EQ(std::get<1>(base), std::get<2>(base) + std::get<3>(base));
}

// The keyed (filtered) kernel through the overflow/re-stride transition:
// the per-shard key streams are sized from the live send counts, so the
// round that spills past the initial slab width and triggers the barrier
// re-stride is exactly where a sizing bug would corrupt the frozen filter
// verdicts. Drive flat_mailbox directly (the bench_scatter shape) with a
// tiny initial stride so round 0 overflows with the filter already
// active, and require bit-identical inboxes and drop accounting at every
// thread count, before AND after the re-stride.
TEST(FlatMailbox, FilteredDeliveryBitIdenticalThroughRestride) {
  const u32 n = 97;
  const u32 cap = 24;
  const u32 rounds = 6;
  const flat_mailbox<global_msg>::drop_filter drop =
      [](u32 src, u32 idx, const global_msg& m) {
        return derive_seed(derive_seed(src, idx), m.w[0]) % 4 == 0;
      };
  auto run = [&](u32 threads) {
    round_executor exec(sim_options{threads});
    flat_mailbox<global_msg> mail(n, cap, /*initial_stride=*/3);
    std::vector<u64> digests;
    u64 delivered = 0, dropped = 0;
    for (u32 r = 0; r < rounds; ++r) {
      exec.for_nodes(n, [&](u32 v) {
        // Every node overflows the 3-slot slab in round 0; later rounds
        // mix empty, slab-only, and full senders.
        const u32 k = r == 0 ? cap : (v + r) % (cap + 1);
        for (u32 i = 0; i < k; ++i)
          mail.push(global_msg::make(v, (v * 31 + i * 7 + r) % n, i,
                                     {derive_seed(v, i ^ r)}));
      });
      mail.deliver(exec, &drop);
      delivered += mail.delivered_last_round();
      dropped += mail.dropped_last_round();
      u64 round_digest = 0;
      for (u32 v = 0; v < n; ++v) {
        const auto box = mail.inbox(v);
        for (u32 i = 1; i < box.size(); ++i)
          EXPECT_TRUE(box[i - 1].src < box[i].src ||
                      (box[i - 1].src == box[i].src &&
                       box[i - 1].tag < box[i].tag))
              << "round " << r << " dst " << v << " pos " << i;
        round_digest ^= (v + 1) * inbox_digest(box);
      }
      digests.push_back(round_digest);
      if (r == 0) {
        // The overflow round must also have re-strided at its barrier.
        EXPECT_GT(mail.stats().overflow_messages, 0u) << threads;
        EXPECT_EQ(mail.stats().stride, cap) << threads;
      }
    }
    EXPECT_GT(dropped, 0u) << threads;
    return std::make_tuple(digests, delivered, dropped);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST(FlatMailbox, EmptyRoundsDeliverNothingAndResetInboxes) {
  const graph g = gen::path(4);
  hybrid_net net(g, model_config{}, 3, sim_options{8});
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_TRUE(net.try_send_global(global_msg::make(0, 1, 0, {7})));
  net.advance_round();
  EXPECT_EQ(net.global_inbox(1).size(), 1u);
  net.advance_round();
  for (u32 v = 0; v < 4; ++v) EXPECT_TRUE(net.global_inbox(v).empty());
  EXPECT_EQ(net.raw_metrics().global_messages, 1u);
}

// The vector-of-vectors mailbox the flat arenas replaced: per-node outbox
// and inbox vectors, drained sequentially at the barrier in (src, send
// order). It is the differential reference for the counting-sort delivery.
struct vecvec_mailbox {
  explicit vecvec_mailbox(u32 n) : inbox(n), outbox(n) {}

  void send(const global_msg& m) { outbox[m.src].push_back(m); }

  void advance_round() {
    for (auto& box : inbox) box.clear();
    for (auto& out : outbox) {
      for (const global_msg& m : out) inbox[m.dst].push_back(m);
      out.clear();
    }
  }

  std::vector<std::vector<global_msg>> inbox;
  std::vector<std::vector<global_msg>> outbox;
};

TEST(FlatMailbox, MatchesVectorOfVectorsDeliveryAcrossThreadCounts) {
  // Every node saturates its γ budget each round; node v's i-th send in
  // round r goes to a pseudo-random destination both mailboxes replay.
  const u32 n = 256;
  const u32 rounds = 6;
  const graph g = gen::erdos_renyi_connected(n, 4.0, 1, 3);
  const u32 cap = hybrid_net(g, model_config{}, 1).global_cap();
  auto dst = [&](u32 v, u32 i, u32 r) {
    return static_cast<u32>(derive_seed(derive_seed(v, i), r) % n);
  };
  std::vector<u64> want;
  vecvec_mailbox ref(n);
  for (u32 r = 0; r < rounds; ++r) {
    for (u32 v = 0; v < n; ++v)
      for (u32 i = 0; i < cap; ++i)
        ref.send(global_msg::make(v, dst(v, i, r), i, {u64{v}}));
    ref.advance_round();
    for (u32 v = 0; v < n; ++v)
      want.push_back(inbox_digest(std::span<const global_msg>(ref.inbox[v])));
  }
  for (const u32 threads : {1u, 2u, 8u}) {
    hybrid_net net(g, model_config{}, 1, sim_options{threads});
    std::vector<u64> got;
    for (u32 r = 0; r < rounds; ++r) {
      net.executor().for_nodes(n, [&](u32 v) {
        for (u32 i = 0; i < cap; ++i)
          ASSERT_TRUE(net.try_send_global(
              global_msg::make(v, dst(v, i, r), i, {u64{v}})));
      });
      net.advance_round();
      for (u32 v = 0; v < n; ++v)
        got.push_back(inbox_digest(net.global_inbox(v)));
    }
    EXPECT_EQ(got, want) << threads << " threads";
    EXPECT_EQ(net.raw_metrics().global_messages, u64{n} * cap * rounds)
        << threads;
  }
}

}  // namespace
}  // namespace hybrid
