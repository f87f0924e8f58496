// pto::check — seeded-defect coverage (a plain-plain data race, a doomed-read
// leak into a post-abort dereference/store, an over-capacity prefix site must
// each be flagged), zero findings on clean synchronized and tier-1 DS
// workloads, and the observation-only contract: simulated clocks are
// byte-identical with checking on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "common/defs.h"
#include "core/prefix.h"
#include "ds/bst/ellen_bst.h"
#include "ds/skiplist/skiplist.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "sim_util.h"
#include "telemetry/registry.h"

namespace {

using pto::Atom;
using pto::CacheAligned;
using pto::EllenBST;
using pto::SimPlatform;
using pto::SkipList;
namespace sim = pto::sim;
namespace check = pto::check;

/// RAII: enable checking for one test, restore quiet state afterwards.
struct CheckOn {
  CheckOn() {
    check::reset();
    check::set_enabled(true);
  }
  ~CheckOn() {
    check::set_enabled(false);
    check::reset();
  }
};

bool has_kind(const std::vector<check::Finding>& fs, check::FindingKind k) {
  for (const auto& f : fs) {
    if (f.kind == k) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Observation-only: the golden rich workload from test_sim.cpp/test_prof.cpp,
// byte-for-byte the same pinned constants with PTO_CHECK recording enabled.
// If these move, a checker hook charged virtual cycles.
// ---------------------------------------------------------------------------

TEST(Check, DoesNotPerturbGoldenWorkload) {
  CheckOn guard;
  sim::reset_memory();
  sim::Config cfg;
  cfg.seed = 2026;
  cfg.htm.max_duration = 5'000;
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(64);
  for (auto& c : cells) c.value.init(0);
  pto::testutil::SimBarrier bar(4);
  auto res = sim::run(4, cfg, [&](unsigned tid) {
    for (int i = 0; i < 300; ++i) {
      auto a = static_cast<unsigned>(sim::rnd() % cells.size());
      auto b = static_cast<unsigned>(sim::rnd() % cells.size());
      if (i % 7 == 0) {
        auto* n = SimPlatform::make<Atom<SimPlatform, std::uint64_t>>();
        n->init(i);
        n->store(n->load(std::memory_order_relaxed) + tid,
                 std::memory_order_relaxed);
        SimPlatform::destroy(n);
      }
      pto::prefix<SimPlatform>(
          2,
          [&] {
            auto v = cells[a].value.load(std::memory_order_relaxed);
            cells[b].value.store(v + tid + 1, std::memory_order_relaxed);
          },
          [&] {
            cells[b].value.fetch_add(tid + 1, std::memory_order_seq_cst);
          });
      if (i == 150) bar.wait();
      sim::op_done();
    }
  });
  auto t = res.totals();
  EXPECT_EQ(res.makespan(), 48945u);
  EXPECT_EQ(t.loads, 1469u);
  EXPECT_EQ(t.stores, 1420u);
  EXPECT_EQ(t.cas_ops, 0u);
  EXPECT_EQ(t.rmws, 16u);
  EXPECT_EQ(t.tx_commits, 1192u);
  EXPECT_EQ(t.total_aborts(), 69u);
  EXPECT_EQ(t.allocs, 172u);
  EXPECT_EQ(t.frees, 172u);
  EXPECT_EQ(t.ops_completed, 1200u);
  EXPECT_EQ(res.uaf_count, 0u);
  // The workload is disciplined: relaxed accesses only inside transactions,
  // synchronized (fetch_add) fallback, thread-private node scribbles.
  EXPECT_EQ(check::finding_count(), 0u);
  // But the checker did observe it.
  auto st = check::stats();
  EXPECT_GT(st.tx_reads_logged, 0u);
  EXPECT_GT(st.sync_ops, 0u);
}

// ---------------------------------------------------------------------------
// On/off identity: the same seeded workload with checking off and then on
// must produce identical simulated clocks and stats.
// ---------------------------------------------------------------------------

TEST(Check, OnOffSimulationIdentical) {
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(32);
  auto run_once = [&] {
    sim::reset_memory();
    for (auto& c : cells) c.value.init(0);
    sim::Config cfg;
    cfg.seed = 99;
    return sim::run(4, cfg, [&](unsigned tid) {
      for (int i = 0; i < 400; ++i) {
        auto a = static_cast<unsigned>(sim::rnd() % cells.size());
        auto b = static_cast<unsigned>(sim::rnd() % cells.size());
        pto::prefix<SimPlatform>(
            2,
            [&] {
              auto v = cells[a].value.load(std::memory_order_relaxed);
              cells[b].value.store(v + 1, std::memory_order_seq_cst);
            },
            [&] {
              cells[b].value.fetch_add(tid + 1, std::memory_order_seq_cst);
            },
            pto::StatsHandle(PTO_TELEMETRY_SITE("checktest.op")));
        sim::op_done();
      }
    });
  };
  check::set_enabled(false);
  auto off = run_once();
  {
    CheckOn guard;
    auto on = run_once();
    EXPECT_EQ(off.makespan(), on.makespan());
    EXPECT_EQ(off.clocks, on.clocks);
    auto to = off.totals();
    auto tn = on.totals();
    EXPECT_EQ(to.loads, tn.loads);
    EXPECT_EQ(to.stores, tn.stores);
    EXPECT_EQ(to.tx_commits, tn.tx_commits);
    EXPECT_EQ(to.total_aborts(), tn.total_aborts());
    EXPECT_EQ(to.fences_elided, tn.fences_elided);
    EXPECT_EQ(check::finding_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Seeded defect 1: a plain-plain data race. Two threads hammer the same cell
// with relaxed loads and stores and never synchronize — every flavor
// (write-write, read-write, write-read) must surface, attributed to both
// threads. The same workload with seq_cst accesses must be silent.
// ---------------------------------------------------------------------------

TEST(Check, FlagsSeededPlainPlainRace) {
  CheckOn guard;
  sim::reset_memory();
  Atom<SimPlatform, std::uint64_t> cell;
  cell.init(0);
  sim::Config cfg;
  cfg.seed = 11;
  sim::run(2, cfg, [&](unsigned tid) {
    for (int i = 0; i < 50; ++i) {
      auto v = cell.load(std::memory_order_relaxed);
      cell.store(v + tid + 1, std::memory_order_relaxed);
      sim::op_done();
    }
  });
  auto fs = check::findings();
  ASSERT_FALSE(fs.empty());
  EXPECT_TRUE(has_kind(fs, check::FindingKind::kRaceWriteWrite));
  EXPECT_TRUE(has_kind(fs, check::FindingKind::kRaceWriteRead));
  EXPECT_TRUE(has_kind(fs, check::FindingKind::kRaceReadWrite));
  for (const auto& f : fs) {
    EXPECT_EQ(f.addr, reinterpret_cast<std::uintptr_t>(&cell));
    EXPECT_NE(f.tid_a, f.tid_b);
  }
}

TEST(Check, SeqCstVersionOfTheRaceIsSilent) {
  CheckOn guard;
  sim::reset_memory();
  Atom<SimPlatform, std::uint64_t> cell;
  cell.init(0);
  sim::Config cfg;
  cfg.seed = 11;
  sim::run(2, cfg, [&](unsigned tid) {
    for (int i = 0; i < 50; ++i) {
      auto v = cell.load(std::memory_order_seq_cst);
      cell.store(v + tid + 1, std::memory_order_seq_cst);
      sim::op_done();
    }
  });
  EXPECT_EQ(check::finding_count(), 0u);
}

/// Relaxed publication — the classic elision bug on the fallback path: data
/// written plain, then the flag published with a *relaxed* store. No fence
/// means no HB edge from writer to reader through the flag.
TEST(Check, FlagsRelaxedPublication) {
  CheckOn guard;
  sim::reset_memory();
  // Distinct cache lines: findings dedup per line, and the point here is
  // that *both* cells race.
  CacheAligned<Atom<SimPlatform, std::uint64_t>> data_c, flag_c;
  auto& data = data_c.value;
  auto& flag = flag_c.value;
  data.init(0);
  flag.init(0);
  sim::Config cfg;
  cfg.seed = 5;
  sim::run(2, cfg, [&](unsigned tid) {
    if (tid == 0) {
      data.store(42, std::memory_order_relaxed);
      flag.store(1, std::memory_order_relaxed);  // bug: no release
    } else {
      while (flag.load(std::memory_order_relaxed) == 0) sim::cpu_pause();
      (void)data.load(std::memory_order_relaxed);
    }
    sim::op_done();
  });
  auto fs = check::findings();
  ASSERT_FALSE(fs.empty());
  // The data cell (and the flag itself) raced; publication through a relaxed
  // flag creates no edge.
  bool on_data = false;
  for (const auto& f : fs) {
    if (f.addr == reinterpret_cast<std::uintptr_t>(&data)) on_data = true;
  }
  EXPECT_TRUE(on_data);
}

/// The corrected publication (seq_cst store, i.e. store + fence on the
/// simulated machine) is silent: the fence drains the writer's plain store
/// and every load acquires the flag's release history.
TEST(Check, SeqCstPublicationIsSilent) {
  CheckOn guard;
  sim::reset_memory();
  Atom<SimPlatform, std::uint64_t> data;
  Atom<SimPlatform, std::uint64_t> flag;
  data.init(0);
  flag.init(0);
  sim::Config cfg;
  cfg.seed = 5;
  sim::run(2, cfg, [&](unsigned tid) {
    if (tid == 0) {
      data.store(42, std::memory_order_relaxed);
      flag.store(1, std::memory_order_seq_cst);
    } else {
      while (flag.load(std::memory_order_relaxed) == 0) sim::cpu_pause();
      (void)data.load(std::memory_order_relaxed);
    }
    sim::op_done();
  });
  EXPECT_EQ(check::finding_count(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded defect 2: a doomed-read leak. The fast path captures a pointer read
// inside the transaction into an outer local; a concurrent writer dooms the
// transaction; the buggy fallback then dereferences the captured (stale)
// pointer and stores it to a shared cell instead of re-reading. Both flows
// must be flagged; the fixed fallback that re-reads must be silent.
// ---------------------------------------------------------------------------

namespace doomed {

struct Node {
  Atom<SimPlatform, std::uint64_t> payload;
};

struct World {
  Atom<SimPlatform, Node*> head;
  Atom<SimPlatform, std::uint64_t> out;
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> scratch;
  World() : scratch(64) {
    for (auto& c : scratch) c.value.init(0);
  }
};

/// tid 0 runs one prefix attempt whose transaction reads head and then
/// lingers on private scratch loads; tid 1 warms up on its own scratch, then
/// stores a new head — dooming tid 0's transaction mid-flight.
template <class Fallback>
void run_scenario(World& w, Fallback&& fallback) {
  sim::Config cfg;
  cfg.seed = 3;
  sim::run(2, cfg, [&](unsigned tid) {
    if (tid == 0) {
      Node* captured = nullptr;
      pto::prefix<SimPlatform>(
          1,
          [&] {
            captured = w.head.load(std::memory_order_relaxed);
            // Keep the transaction open so the writer's store lands inside
            // the speculation window.
            for (int i = 0; i < 64; ++i) {
              (void)w.scratch[i % 32].value.load(std::memory_order_relaxed);
            }
          },
          [&] { fallback(captured); });
    } else {
      for (int i = 0; i < 8; ++i) {
        (void)w.scratch[32 + i % 32].value.load(std::memory_order_relaxed);
      }
      auto* n = SimPlatform::make<Node>();
      n->payload.init(7);
      w.head.store(n, std::memory_order_seq_cst);
    }
    sim::op_done();
  });
}

}  // namespace doomed

TEST(Check, FlagsDoomedReadLeak) {
  CheckOn guard;
  sim::reset_memory();
  doomed::World w;
  auto* first = SimPlatform::make<doomed::Node>();
  first->payload.init(1);
  w.head.init(first);
  w.out.init(0);
  std::uint64_t doomed_payload = 0;
  doomed::run_scenario(w, [&](doomed::Node* captured) {
    // BUG: uses the pointer read by the doomed transaction without
    // re-reading head.
    doomed_payload = captured->payload.load(std::memory_order_seq_cst);
    w.out.store(reinterpret_cast<std::uint64_t>(captured),
                std::memory_order_seq_cst);
  });
  (void)doomed_payload;
  ASSERT_GT(check::stats().doomed_txs, 0u)
      << "scenario must doom the reader's transaction";
  ASSERT_GT(check::stats().poisoned_values, 0u);
  auto fs = check::findings();
  EXPECT_TRUE(has_kind(fs, check::FindingKind::kDoomedAddressUse));
  EXPECT_TRUE(has_kind(fs, check::FindingKind::kDoomedValueStore));
}

TEST(Check, FallbackThatReReadsIsSilent) {
  CheckOn guard;
  sim::reset_memory();
  doomed::World w;
  auto* first = SimPlatform::make<doomed::Node>();
  first->payload.init(1);
  w.head.init(first);
  w.out.init(0);
  doomed::run_scenario(w, [&](doomed::Node* /*captured*/) {
    // Correct fallback: re-read head, then dereference the fresh pointer.
    doomed::Node* fresh = w.head.load(std::memory_order_seq_cst);
    (void)fresh->payload.load(std::memory_order_seq_cst);
    w.out.store(reinterpret_cast<std::uint64_t>(fresh),
                std::memory_order_seq_cst);
  });
  ASSERT_GT(check::stats().doomed_txs, 0u);
  EXPECT_EQ(check::finding_count(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded defect 3: an over-capacity prefix. The fast path writes more
// distinct cache lines than the HTM write-set limit, so every attempt
// capacity-aborts and the site never commits a transaction.
// ---------------------------------------------------------------------------

TEST(Check, FlagsOverCapacityPrefix) {
  CheckOn guard;
  sim::reset_memory();
  constexpr unsigned kLines = 96;  // > HtmConfig::max_write_lines (64)
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(kLines);
  for (auto& c : cells) c.value.init(0);
  sim::Config cfg;
  cfg.seed = 17;
  sim::run(1, cfg, [&](unsigned) {
    for (int op = 0; op < 10; ++op) {
      pto::prefix<SimPlatform>(
          1,
          [&] {
            for (unsigned i = 0; i < kLines; ++i) {
              cells[i].value.store(op, std::memory_order_relaxed);
            }
          },
          [&] {
            for (unsigned i = 0; i < kLines; ++i) {
              cells[i].value.fetch_add(1, std::memory_order_seq_cst);
            }
          },
          pto::StatsHandle(PTO_TELEMETRY_SITE("checktest.overcap")));
      sim::op_done();
    }
  });
  auto fs = check::findings();
  ASSERT_TRUE(has_kind(fs, check::FindingKind::kOverCapacity));
  bool found_site = false;
  for (const auto& f : fs) {
    if (f.kind == check::FindingKind::kOverCapacity) {
      EXPECT_EQ(f.site_a, "checktest.overcap");
      EXPECT_GE(f.count, 8u);
      found_site = true;
    }
  }
  EXPECT_TRUE(found_site);
}

/// A site that merely aborts a few times but does commit is not a finding.
TEST(Check, CommittingSiteIsNotOverCapacity) {
  CheckOn guard;
  sim::reset_memory();
  std::vector<CacheAligned<Atom<SimPlatform, std::uint64_t>>> cells(8);
  for (auto& c : cells) c.value.init(0);
  sim::Config cfg;
  cfg.seed = 17;
  sim::run(1, cfg, [&](unsigned) {
    for (int op = 0; op < 100; ++op) {
      pto::prefix<SimPlatform>(
          1,
          [&] { cells[op % 8].value.store(op, std::memory_order_relaxed); },
          [&] { cells[op % 8].value.fetch_add(1, std::memory_order_seq_cst); },
          pto::StatsHandle(PTO_TELEMETRY_SITE("checktest.fits")));
      sim::op_done();
    }
  });
  EXPECT_FALSE(
      has_kind(check::findings(), check::FindingKind::kOverCapacity));
}

/// The capacity table lists sites by name, not by where they were allocated:
/// "b" is interned (and commits) before "a", yet "a" is printed first.
TEST(Check, CapacityTableOrderedBySiteName) {
  CheckOn guard;
  sim::reset_memory();
  auto& reg = pto::telemetry::Registry::instance();
  pto::telemetry::Site* b = reg.intern("checktest.order.b");
  pto::telemetry::Site* a = reg.intern("checktest.order.a");
  Atom<SimPlatform, std::uint64_t> cell;
  cell.init(0);
  sim::Config cfg;
  cfg.seed = 17;
  sim::run(1, cfg, [&](unsigned) {
    for (pto::telemetry::Site* site : {b, a}) {
      pto::prefix<SimPlatform>(
          1, [&] { cell.store(1, std::memory_order_relaxed); },
          [&] { cell.store(1, std::memory_order_seq_cst); },
          pto::StatsHandle(site));
      sim::op_done();
    }
  });
  std::ostringstream os;
  check::report(os, /*full=*/true);
  const std::string out = os.str();
  const auto pos_a = out.find("  checktest.order.a ");
  const auto pos_b = out.find("  checktest.order.b ");
  ASSERT_NE(pos_a, std::string::npos) << out;
  ASSERT_NE(pos_b, std::string::npos) << out;
  EXPECT_LT(pos_a, pos_b) << out;
}

// ---------------------------------------------------------------------------
// Clean tier-1 DS workloads: the contended EllenBST + SkipList mix from the
// profiler tests (seed 2027, 8 vthreads) must report zero findings — the
// library's fast paths are transactional and its fallbacks synchronize.
// ---------------------------------------------------------------------------

TEST(Check, CleanDataStructureWorkloadZeroFindings) {
  CheckOn guard;
  sim::reset_memory();

  using Mode = EllenBST<SimPlatform>::Mode;
  constexpr int kRange = 64;
  auto* tree = new EllenBST<SimPlatform>();
  auto* skip = new SkipList<SimPlatform>();
  {
    auto ctx = tree->make_ctx();
    for (int i = 0; i < kRange / 2; ++i) {
      tree->insert(ctx, (i * 7) % kRange, Mode::kLockfree);
    }
  }
  {
    auto ctx = skip->make_ctx();
    for (int i = 0; i < kRange / 2; ++i) {
      skip->insert_lf(ctx, (i * 5) % kRange);
    }
  }

  sim::Config cfg;
  cfg.seed = 2027;
  sim::run(8, cfg, [&](unsigned tid) {
    if (tid % 2 == 0) {
      auto ctx = tree->make_ctx();
      for (int i = 0; i < 500; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % kRange);
        if (sim::rnd() % 2 == 0) {
          tree->insert(ctx, k, Mode::kPto12);
        } else {
          tree->remove(ctx, k, Mode::kPto12);
        }
        sim::op_done();
      }
    } else {
      auto ctx = skip->make_ctx();
      for (int i = 0; i < 500; ++i) {
        auto k = static_cast<std::int64_t>(sim::rnd() % kRange);
        if (sim::rnd() % 2 == 0) {
          skip->insert_pto(ctx, k);
        } else {
          skip->remove_pto(ctx, k);
        }
        sim::op_done();
      }
    }
  });

  // The workload must actually conflict and doom transactions, or the
  // doomed-read half of the checker saw nothing worth testing.
  auto st = check::stats();
  EXPECT_GT(st.doomed_txs, 0u);
  if (check::finding_count() != 0) {
    check::report(std::cerr, /*full=*/true);
  }
  EXPECT_EQ(check::finding_count(), 0u);

  delete tree;
  delete skip;
  sim::reset_memory();
}

}  // namespace
