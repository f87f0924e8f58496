// Real-thread stress on the native platform. On this machine the RTM probe
// usually succeeds, so these exercise genuine hardware transactions racing
// genuine lock-free fallbacks (with OS preemption forcing aborts); under
// PTO_HTM=soft the same tests exercise SoftHTM's strongly-atomic accessors.
// Kept short: correctness smoke under real concurrency, not benchmarks.
// No prefix site may hit a SoftHTM capacity abort (no_capacity_aborts.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <set>

#include "common/rng.h"

#include "ds/bst/ellen_bst.h"
#include "ds/hashtable/fset_hash.h"
#include "ds/list/harris_list.h"
#include "ds/mindicator/mindicator.h"
#include "ds/mound/mound.h"
#include "ds/queue/ms_queue.h"
#include "ds/skiplist/skiplist.h"
#include "platform/native_platform.h"
#include "service/loadgen.h"
#include "service/shard.h"

#include "no_capacity_aborts.h"

namespace {

using pto::NativePlatform;

constexpr unsigned kThreads = 4;
constexpr int kOps = 4000;

TEST(NativeStress, BstPerKeyConsistency) {
  pto::EllenBST<NativePlatform> set;
  using Mode = pto::EllenBST<NativePlatform>::Mode;
  constexpr int kRange = 64;
  std::vector<std::vector<int>> net(kThreads, std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = set.make_ctx();
      auto mode = static_cast<Mode>(t % 4);
      pto::SplitMix64 rng(t + 1);
      for (int i = 0; i < kOps; ++i) {
        auto k = static_cast<std::int64_t>(rng.next_below(kRange));
        if (rng.next() % 2 == 0) {
          if (set.insert(ctx, k, mode)) ++net[t][static_cast<std::size_t>(k)];
        } else {
          if (set.remove(ctx, k, mode)) --net[t][static_cast<std::size_t>(k)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto ctx = set.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(set.contains(ctx, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(set.check_invariants());
}

TEST(NativeStress, SkiplistPerKeyConsistency) {
  pto::SkipList<NativePlatform> set;
  constexpr int kRange = 64;
  std::vector<std::vector<int>> net(kThreads, std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = set.make_ctx();
      pto::SplitMix64 rng(t + 11);
      for (int i = 0; i < kOps; ++i) {
        auto k = static_cast<std::int64_t>(rng.next_below(kRange));
        bool use_pto = (t % 2) == 0;
        if (rng.next() % 2 == 0) {
          bool ok = use_pto ? set.insert_pto(ctx, k) : set.insert_lf(ctx, k);
          if (ok) ++net[t][static_cast<std::size_t>(k)];
        } else {
          bool ok = use_pto ? set.remove_pto(ctx, k) : set.remove_lf(ctx, k);
          if (ok) --net[t][static_cast<std::size_t>(k)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto ctx = set.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(set.contains(ctx, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(set.check_invariants());
}

TEST(NativeStress, HashPerKeyConsistency) {
  pto::FSetHash<NativePlatform> set;
  using Mode = pto::FSetHash<NativePlatform>::Mode;
  constexpr int kRange = 256;
  std::vector<std::vector<int>> net(kThreads, std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = set.make_ctx();
      // In-place mode mixes only with itself (lookup double-check rule).
      auto mode = Mode::kPtoInplace;
      pto::SplitMix64 rng(t + 21);
      for (int i = 0; i < kOps; ++i) {
        auto k = static_cast<std::int64_t>(rng.next_below(kRange));
        if (rng.next() % 2 == 0) {
          if (set.insert(ctx, k, mode)) ++net[t][static_cast<std::size_t>(k)];
        } else {
          if (set.remove(ctx, k, mode)) --net[t][static_cast<std::size_t>(k)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto ctx = set.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(set.contains(ctx, k, Mode::kPtoInplace), total == 1);
  }
  EXPECT_TRUE(set.check_invariants());
}

TEST(NativeStress, MoundValueConservation) {
  pto::Mound<NativePlatform> q(14);
  std::vector<std::multiset<std::int32_t>> pushed(kThreads), popped(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = q.make_ctx();
      pto::SplitMix64 rng(t + 31);
      for (int i = 0; i < kOps / 2; ++i) {
        if (rng.next() % 2 == 0) {
          auto v = static_cast<std::int32_t>(rng.next_below(100000));
          if (t % 2 == 0) {
            q.insert_lf(ctx, v);
          } else {
            q.insert_pto(ctx, v);
          }
          pushed[t].insert(v);
        } else {
          auto got = (t % 2 == 0) ? q.extract_min_lf(ctx)
                                  : q.extract_min_pto(ctx);
          if (got.has_value()) popped[t].insert(*got);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::multiset<std::int32_t> all_pushed, all_popped;
  for (unsigned t = 0; t < kThreads; ++t) {
    all_pushed.insert(pushed[t].begin(), pushed[t].end());
    all_popped.insert(popped[t].begin(), popped[t].end());
  }
  auto ctx = q.make_ctx();
  while (auto got = q.extract_min_lf(ctx)) all_popped.insert(*got);
  EXPECT_EQ(all_pushed, all_popped);
}

TEST(NativeStress, QueueConservation) {
  pto::MSQueue<NativePlatform> q;
  std::atomic<long> enqueued{0}, dequeued{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = q.make_ctx();
      pto::SplitMix64 rng(t + 41);
      for (int i = 0; i < kOps; ++i) {
        if (rng.next() % 2 == 0) {
          if (t % 2 == 0) {
            q.enqueue_lf(ctx, i);
          } else {
            q.enqueue_pto(ctx, i);
          }
          enqueued.fetch_add(1);
        } else {
          auto got = (t % 2 == 0) ? q.dequeue_lf(ctx) : q.dequeue_pto(ctx);
          if (got.has_value()) dequeued.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(q.size_slow(),
            static_cast<std::size_t>(enqueued.load() - dequeued.load()));
}

TEST(NativeStress, MindicatorQuiesces) {
  pto::Mindicator<NativePlatform> m(64);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pto::SplitMix64 rng(t + 51);
      for (int i = 0; i < kOps; ++i) {
        auto v = static_cast<std::int32_t>(rng.next_below(1000000));
        m.arrive_pto(t, v);
        m.depart_pto(t);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.query(), pto::Mindicator<NativePlatform>::kEmpty);
  EXPECT_TRUE(m.check_invariants());
}

TEST(NativeStress, ShardRouterChurnOversubscribed) {
  // The service shard router under deliberately hostile thread geometry:
  // 2x hardware_concurrency workers (forced OS preemption inside prefix
  // transactions) and client-session churn mid-run — each worker destroys
  // its Client halfway (releasing its per-shard epoch slots) and continues
  // through a fresh one, as a connection-oriented service would on
  // reconnect. Zero lost ops: per-thread per-key net counters must agree
  // with final membership, and aggregate puts-dels with the router size.
  namespace svc = pto::service;
  using KV = svc::ShardedKV<NativePlatform, svc::SkipAdapter<NativePlatform>>;
  KV kv(4, svc::SkipAdapter<NativePlatform>{true});

  constexpr std::uint64_t kKeys = 128;
  const unsigned nthreads =
      std::max(4u, 2 * std::thread::hardware_concurrency());
  svc::WorkloadSpec spec;
  spec.keyspace = kKeys;
  spec.theta = 0.9;
  spec.get_pct = 20;  // update-heavy
  spec.put_pct = 40;
  spec.seed = 0x57CE55;
  const svc::OpStream stream(spec);

  std::vector<std::vector<int>> net(nthreads, std::vector<int>(kKeys, 0));
  std::vector<std::uint64_t> puts_ok(nthreads, 0), dels_ok(nthreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<pto::service::Op> ops;
      stream.fill(t, kOps, ops);
      // Two client sessions per worker: churn in the middle of the stream.
      for (int session = 0; session < 2; ++session) {
        auto client = kv.make_client();
        const std::size_t lo = session == 0 ? 0 : ops.size() / 2;
        const std::size_t hi = session == 0 ? ops.size() / 2 : ops.size();
        for (std::size_t i = lo; i < hi; ++i) {
          const auto k = static_cast<std::size_t>(ops[i].key);
          switch (ops[i].kind) {
            case svc::OpKind::kGet: client.get(ops[i].key); break;
            case svc::OpKind::kPut: net[t][k] += client.put(ops[i].key); break;
            case svc::OpKind::kDel: net[t][k] -= client.del(ops[i].key); break;
          }
        }
        puts_ok[t] += client.puts_ok;
        dels_ok[t] += client.dels_ok;
      }
    });
  }
  for (auto& th : threads) th.join();

  auto check = kv.make_client();
  std::size_t expect_size = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    int total = 0;
    for (const auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(check.get(static_cast<std::int64_t>(k)), total == 1)
        << "key " << k;
    expect_size += static_cast<std::size_t>(total);
  }
  std::uint64_t puts = 0, dels = 0;
  for (unsigned t = 0; t < nthreads; ++t) {
    puts += puts_ok[t];
    dels += dels_ok[t];
  }
  EXPECT_EQ(kv.size_slow(), expect_size);
  EXPECT_EQ(kv.size_slow(), static_cast<std::size_t>(puts - dels));
  EXPECT_TRUE(kv.check_invariants());
}

TEST(NativeStress, ListPerKeyConsistency) {
  pto::HarrisList<NativePlatform> set;
  constexpr int kRange = 48;
  std::vector<std::vector<int>> net(kThreads, std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ctx = set.make_ctx();
      pto::SplitMix64 rng(t + 61);
      for (int i = 0; i < kOps; ++i) {
        auto k = static_cast<std::int64_t>(rng.next_below(kRange));
        bool use_pto = (t % 2) == 0;
        if (rng.next() % 2 == 0) {
          bool ok = use_pto ? set.insert_pto(ctx, k) : set.insert_lf(ctx, k);
          if (ok) ++net[t][static_cast<std::size_t>(k)];
        } else {
          bool ok = use_pto ? set.remove_pto(ctx, k) : set.remove_lf(ctx, k);
          if (ok) --net[t][static_cast<std::size_t>(k)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto ctx = set.make_ctx();
  for (int k = 0; k < kRange; ++k) {
    int total = 0;
    for (auto& v : net) total += v[static_cast<std::size_t>(k)];
    ASSERT_TRUE(total == 0 || total == 1) << "key " << k;
    ASSERT_EQ(set.contains_lf(ctx, k), total == 1) << "key " << k;
  }
  EXPECT_TRUE(set.check_invariants());
}

}  // namespace
