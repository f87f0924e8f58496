// Native HTM layer: backend probing, SoftHTM transactional semantics
// (atomicity, rollback, version validation, snapshot extension, words that
// share an orec, read-own-writes, nesting, bounded read/write sets), the
// strongly-atomic non-transactional accessors, and real-thread stress.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/prefix.h"
#include "htm/htm.h"
#include "htm/softhtm.h"
#include "platform/native_platform.h"
#include "telemetry/registry.h"

namespace {

using pto::Atom;
using pto::NativePlatform;
namespace soft = pto::softhtm;

// The descriptor is a constinit thread_local (softhtm.h); it stays reachable
// without a TLS wrapper call only while it is trivially destructible.
static_assert(std::is_trivially_destructible_v<soft::Tx>);

/// Run `fn` as a SoftHTM transaction directly (independent of the backend
/// the process probed).
template <class Fn>
unsigned soft_tx(Fn&& fn) {
  int j = setjmp(soft::tls_tx().env);
  if (j != 0) return static_cast<unsigned>(j);
  unsigned s = soft::begin();
  EXPECT_EQ(s, pto::TX_STARTED);
  fn();
  soft::commit();
  return pto::TX_STARTED;
}

TEST(SoftHtm, CommitPublishesAllWrites) {
  std::atomic<int> a{0}, b{0};
  unsigned s = soft_tx([&] {
    soft::tx_store(a, 1);
    soft::tx_store(b, 2);
    // Buffered: not visible before commit.
    EXPECT_EQ(a.load(), 0);
  });
  EXPECT_EQ(s, pto::TX_STARTED);
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(SoftHtm, ReadOwnWrites) {
  std::atomic<int> a{5};
  soft_tx([&] {
    soft::tx_store(a, 7);
    EXPECT_EQ(soft::tx_load(a), 7);
    soft::tx_store(a, 9);
    EXPECT_EQ(soft::tx_load(a), 9);
  });
  EXPECT_EQ(a.load(), 9);
}

TEST(SoftHtm, ExplicitAbortDiscardsWrites) {
  std::atomic<int> a{5};
  unsigned s = soft_tx([&] {
    soft::tx_store(a, 7);
    soft::abort_tx(pto::TX_ABORT_EXPLICIT, pto::TX_CODE_POLICY);
  });
  EXPECT_EQ(s, pto::TX_ABORT_EXPLICIT);
  EXPECT_EQ(a.load(), 5);
  EXPECT_EQ(soft::last_user_code(), pto::TX_CODE_POLICY);
}

TEST(SoftHtm, ConflictingNtStoreAborts) {
  std::atomic<int> a{1};
  unsigned s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(a), 1);
    // Another "thread" (here: same thread via the nt accessor) changes the
    // value after our read: commit-time validation must fail. A read-only
    // transaction commits at its snapshot without validating, so force a
    // write to make commit validate.
    soft::tx_store(a, 10);
    soft::nt_store(a, 2);  // a newer version on a's orec + a new value
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);
  EXPECT_EQ(a.load(), 2);  // the nt store survived; the tx did not
}

TEST(SoftHtm, AbaByNtStoresAbortsCommit) {
  // x goes 1 -> 2 -> 1 behind the transaction's back. Its value matches the
  // read again, but its version does not: the commit must not succeed.
  std::atomic<int> x{1}, y{0};
  unsigned s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(x), 1);
    soft::nt_store(x, 2);
    soft::nt_store(x, 1);
    soft::tx_store(y, 5);
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);
  EXPECT_EQ(y.load(), 0);
}

TEST(SoftHtm, NewerReadExtendsSnapshotOrAborts) {
  std::atomic<int> x{1}, z{1};
  // Only z changed since begin: reading it extends the snapshot.
  unsigned s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(x), 1);
    soft::nt_store(z, 2);
    EXPECT_EQ(soft::tx_load(z), 2);
  });
  EXPECT_EQ(s, pto::TX_STARTED);
  // x changed too: z's new value must never be returned beside the old x.
  s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(x), 1);
    soft::nt_store(x, 3);
    soft::nt_store(z, 4);
    int zv = soft::tx_load(z);
    ADD_FAILURE() << "read z=" << zv << " after x=1";
  });
  EXPECT_EQ(s, pto::TX_ABORT_CONFLICT);
}

TEST(SoftHtm, WordsSharingAnOrecCommit) {
  // buf[0] and buf[n] are different words on the same orec.
  const std::size_t n = std::size_t{1} << soft::detail::kOrecBits;
  std::vector<std::atomic<std::uint64_t>> buf(n + 1);
  auto& x = buf[0];
  auto& y = buf[n];
  ASSERT_EQ(&soft::detail::orec_of(&x), &soft::detail::orec_of(&y));
  // Both written: the commit must not wait on its own lock.
  EXPECT_EQ(soft_tx([&] {
              soft::tx_store(x, std::uint64_t{1});
              soft::tx_store(y, std::uint64_t{2});
            }),
            pto::TX_STARTED);
  EXPECT_EQ(x.load(), 1u);
  EXPECT_EQ(y.load(), 2u);
  // x read, y written: the read validates against the orec the commit holds.
  EXPECT_EQ(soft_tx([&] { soft::tx_store(y, soft::tx_load(x) + 10); }),
            pto::TX_STARTED);
  EXPECT_EQ(y.load(), 11u);
}

TEST(SoftHtm, FailedNtCasKeepsReadersValid) {
  std::atomic<int> x{1}, y{0};
  unsigned s = soft_tx([&] {
    EXPECT_EQ(soft::tx_load(x), 1);
    int expect = 7;
    EXPECT_FALSE(soft::nt_cas(x, expect, 9));  // wrote nothing
    EXPECT_EQ(expect, 1);
    soft::tx_store(y, 5);  // make commit validate the read of x
  });
  EXPECT_EQ(s, pto::TX_STARTED);
  EXPECT_EQ(y.load(), 5);
}

TEST(SoftHtm, FlatNesting) {
  std::atomic<int> a{0};
  soft_tx([&] {
    soft::tx_store(a, 1);
    EXPECT_EQ(soft::begin(), pto::TX_STARTED);  // nested
    soft::tx_store(a, 2);
    soft::commit();  // inner commit: nothing published yet
    EXPECT_EQ(a.load(), 0);
    soft::tx_store(a, 3);
  });
  EXPECT_EQ(a.load(), 3);
}

/// The descriptor is idle and holds no logged entries.
void expect_reset() {
  const soft::Tx& tx = soft::tls_tx();
  EXPECT_FALSE(tx.active);
  EXPECT_EQ(tx.n_reads, 0u);
  EXPECT_EQ(tx.n_writes, 0u);
}

/// A later transaction on this thread reads, writes and commits normally.
void expect_next_tx_commits() {
  std::atomic<int> a{1}, b{0};
  EXPECT_EQ(soft_tx([&] { soft::tx_store(b, soft::tx_load(a) + 1); }),
            pto::TX_STARTED);
  EXPECT_EQ(b.load(), 2);
  expect_reset();
}

TEST(SoftHtm, ReadSetOverflowAbortsWithCapacity) {
  std::vector<std::atomic<std::uint64_t>> words(soft::kMaxReads + 1);
  std::size_t logged = 0;
  unsigned s = soft_tx([&] {
    for (auto& w : words) {
      soft::tx_load(w);
      ++logged;
    }
  });
  EXPECT_EQ(s, pto::TX_ABORT_CAPACITY);
  EXPECT_EQ(logged, soft::kMaxReads);  // the extra read is the one refused
  expect_reset();
  expect_next_tx_commits();
}

TEST(SoftHtm, WriteSetOverflowAbortsAndPublishesNothing) {
  std::vector<std::atomic<std::uint64_t>> words(soft::kMaxWrites + 1);
  unsigned s = soft_tx([&] {
    for (auto& w : words) soft::tx_store(w, std::uint64_t{1});
  });
  EXPECT_EQ(s, pto::TX_ABORT_CAPACITY);
  for (auto& w : words) EXPECT_EQ(w.load(), 0u);
  expect_reset();
  expect_next_tx_commits();
}

TEST(SoftHtm, SetsAtCapacityCommit) {
  // Exactly kMaxWrites distinct words, each rewritten (a rewrite updates the
  // entry in place), after exactly kMaxReads reads: no capacity abort.
  std::vector<std::atomic<std::uint64_t>> words(soft::kMaxWrites);
  std::atomic<std::uint64_t> r{3};
  unsigned s = soft_tx([&] {
    for (std::size_t i = 0; i < soft::kMaxReads; ++i) soft::tx_load(r);
    for (int pass = 1; pass <= 2; ++pass) {
      for (auto& w : words) soft::tx_store(w, std::uint64_t(pass));
    }
  });
  EXPECT_EQ(s, pto::TX_STARTED);
  for (auto& w : words) EXPECT_EQ(w.load(), 2u);
  expect_reset();
}

TEST(SoftHtm, PrefixFallsBackOnceOnCapacity) {
  if (pto::htm::backend() != pto::htm::Backend::kSoft) {
    GTEST_SKIP() << "needs the SoftHTM backend";
  }
  const bool was_enabled = pto::telemetry::enabled();
  pto::telemetry::set_enabled(true);
  pto::telemetry::Site* soft_site =
      pto::telemetry::Registry::instance().intern("htm.soft");
  const pto::PrefixStats before = soft_site->snapshot();

  const std::size_t n = soft::kMaxWrites + 1;
  auto words = std::make_unique<Atom<NativePlatform, std::uint64_t>[]>(n);
  pto::PrefixStats st;
  int fast_runs = 0;
  bool slow_ran = pto::prefix<NativePlatform>(
      pto::PrefixPolicy(4),
      [&]() -> bool {
        ++fast_runs;  // a plain local: not rolled back by the abort
        for (std::size_t i = 0; i < n; ++i) words[i].store(1);
        return false;
      },
      [&]() -> bool { return true; }, &st);
  const pto::PrefixStats after = soft_site->snapshot();
  pto::telemetry::set_enabled(was_enabled);

  EXPECT_TRUE(slow_ran);
  EXPECT_EQ(fast_runs, 1);
  EXPECT_EQ(st.attempts, 1u);
  EXPECT_EQ(st.commits, 0u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.aborts[pto::TX_ABORT_CAPACITY], 1u);
  EXPECT_EQ(st.total_aborts(), 1u);
  EXPECT_EQ(after.aborts[pto::TX_ABORT_CAPACITY] -
                before.aborts[pto::TX_ABORT_CAPACITY],
            1u);
  EXPECT_EQ(after.total_aborts() - before.total_aborts(), 1u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(words[i].load(), 0u);
  expect_reset();
}

TEST(SoftHtm, NtAccessorsAreLinearizable) {
  std::atomic<std::uint64_t> x{0};
  std::uint64_t expect = 0;
  EXPECT_TRUE(soft::nt_cas(x, expect, std::uint64_t{5}));
  EXPECT_EQ(soft::nt_load(x), 5u);
  EXPECT_EQ(soft::nt_fetch_add(x, std::uint64_t{3}), 5u);
  EXPECT_EQ(soft::nt_load(x), 8u);
  expect = 7;
  EXPECT_FALSE(soft::nt_cas(x, expect, std::uint64_t{9}));
  EXPECT_EQ(expect, 8u);
}

TEST(SoftHtm, RealThreadsNtRmwOnSharedOrec) {
  // Threads increment x with fetch_add and y (x's orec) with CAS loops; no
  // update may be lost while both words contend for one lock.
  const std::size_t n = std::size_t{1} << soft::detail::kOrecBits;
  std::vector<std::atomic<std::uint64_t>> buf(n + 1);
  auto& x = buf[0];
  auto& y = buf[n];
  constexpr int kThreads = 4;
  constexpr int kIters = 20'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        soft::nt_fetch_add(x, std::uint64_t{1});
        std::uint64_t cur = soft::nt_load(y);
        while (!soft::nt_cas(y, cur, cur + 1)) {
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(soft::nt_load(x), std::uint64_t{kThreads * kIters});
  EXPECT_EQ(soft::nt_load(y), std::uint64_t{kThreads * kIters});
}

TEST(SoftHtm, RealThreadsMultiWordInvariant) {
  // 4 real threads keep (a, b) equal through prefix transactions under
  // whatever backend the machine offers; a checker thread uses the same
  // platform accessors and must never observe a != b.
  Atom<NativePlatform, std::uint64_t> a, b;
  a.init(0);
  b.init(0);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread checker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Read the pair inside a transaction for a consistent snapshot.
      auto pair_equal = pto::prefix<NativePlatform>(
          8,
          [&]() -> bool {
            return a.load(std::memory_order_relaxed) ==
                   b.load(std::memory_order_relaxed);
          },
          [&]() -> bool { return true; /* inconclusive, skip */ });
      if (!pair_equal) violations.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20'000; ++i) {
        pto::prefix<NativePlatform>(
            8,
            [&] {
              auto v = a.load(std::memory_order_relaxed);
              a.store(v + 1, std::memory_order_relaxed);
              b.store(b.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
            },
            [&] {
              // Lock-free-ish fallback preserving the invariant atomically
              // is impossible without a tx; use nt accessors under SoftHTM,
              // or retry the tx. Here: spin on the fast path.
              for (;;) {
                bool done = pto::prefix<NativePlatform>(
                    64,
                    [&]() -> bool {
                      auto v = a.load(std::memory_order_relaxed);
                      a.store(v + 1, std::memory_order_relaxed);
                      b.store(b.load(std::memory_order_relaxed) + 1,
                              std::memory_order_relaxed);
                      return true;
                    },
                    [&]() -> bool { return false; });
                if (done) return;
                std::this_thread::yield();
              }
            });
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  checker.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(a.load(), 80'000u);
  EXPECT_EQ(b.load(), 80'000u);
}

TEST(Htm, BackendProbeIsSticky) {
  auto b1 = pto::htm::backend();
  auto b2 = pto::htm::backend();
  EXPECT_EQ(b1, b2);
  if (b1 == pto::htm::Backend::kRTM) {
    EXPECT_TRUE(pto::htm::strongly_atomic());
  } else {
    EXPECT_FALSE(pto::htm::strongly_atomic());
  }
}

TEST(Htm, InTxReflectsState) {
  EXPECT_FALSE(NativePlatform::in_tx());
  bool was_in_tx = false;
  pto::prefix<NativePlatform>(
      4, [&] { was_in_tx = NativePlatform::in_tx(); }, [&] {});
  EXPECT_FALSE(NativePlatform::in_tx());
  (void)was_in_tx;  // rolled back under RTM on abort; only meaningful if committed
}

}  // namespace
