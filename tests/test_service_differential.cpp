// Differential tests for the sharded KV service (src/service/shard.h), in
// three tiers, parameterized over shards x threads x key skew x structure:
//
//   1. Single-thread exact — one client replays a loadgen stream and every
//      result must equal the STL set oracle's; final size and invariants
//      must match too. Catches routing bugs (an op applied to the wrong
//      shard changes some result).
//   2. Concurrent conservation — real threads run independent clients;
//      afterwards every key's net insert count across threads must be 0 or 1
//      and equal final membership, and the aggregate size must equal
//      sum(puts_ok - dels_ok). Catches lost or double-applied updates.
//   3. Sampled-key locked oracle — a small sampled key set is protected by a
//      mutex held around BOTH the service op and the oracle op, making the
//      oracle exact for those keys even mid-concurrency (sound because set
//      semantics are per-key independent: ops on other keys can't affect a
//      sampled key's membership). Every sampled-key result is compared
//      op-by-op while unrelated traffic hammers the same shards.
//
// The SvcDifferentialNative suite runs on real threads (and under the ASan/
// TSan CI legs — the "Native" suite-name token is what the TSan job's
// `ctest -R Native` selects); after them no prefix site may have hit a
// SoftHTM capacity abort (no_capacity_aborts.h). The SvcSimTwin suite
// replays the same WorkloadSpec type under simx virtual threads, where
// scheduling is deterministic: two identical runs must produce identical
// final state AND identical simulated makespans.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "service/loadgen.h"
#include "service/shard.h"
#include "sim/sim.h"

#include "no_capacity_aborts.h"

#if defined(__SANITIZE_THREAD__)
#define PTO_SVC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PTO_SVC_TSAN 1
#endif
#endif

namespace {

using pto::NativePlatform;
using pto::SimPlatform;
namespace svc = pto::service;
namespace sim = pto::sim;

#if defined(PTO_SVC_TSAN)
constexpr std::uint64_t kOpsPerThread = 1500;  // TSan: ~20x slowdown
#else
constexpr std::uint64_t kOpsPerThread = 8000;
#endif

struct Config {
  unsigned shards;
  unsigned threads;
  svc::Dist dist;
  double theta;
  svc::Structure structure;
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string n = std::string(svc::structure_name(c.structure)) + "_sh" +
                  std::to_string(c.shards) + "t" + std::to_string(c.threads) +
                  "_" + svc::dist_name(c.dist);
  if (c.dist == svc::Dist::kZipf) {
    n += std::to_string(static_cast<int>(c.theta * 100));
  }
  return n;
}

svc::WorkloadSpec spec_of(const Config& c, std::uint64_t keyspace,
                          std::uint64_t seed) {
  svc::WorkloadSpec spec;
  spec.keyspace = keyspace;
  spec.dist = c.dist;
  spec.theta = c.theta;
  spec.get_pct = 30;  // update-heavy: differentials want state churn
  spec.put_pct = 40;
  spec.seed = seed;
  return spec;
}

/// Oracle step sharing the loadgen's op encoding.
bool oracle_exec(std::set<std::int64_t>& oracle, const svc::Op& op) {
  switch (op.kind) {
    case svc::OpKind::kGet: return oracle.count(op.key) == 1;
    case svc::OpKind::kPut: return oracle.insert(op.key).second;
    case svc::OpKind::kDel: return oracle.erase(op.key) == 1;
  }
  return false;
}

// Tier bodies are templated on the adapter so each case runs the structure
// the config names; dispatch() erases that template into the TEST_P bodies.
template <class A>
void run_single_thread_exact(const Config& c, A adapter) {
  using KV = svc::ShardedKV<NativePlatform, A>;
  KV kv(c.shards, adapter);
  auto client = kv.make_client();
  svc::OpStream stream(spec_of(c, 512, 0xD1FF));
  std::vector<svc::Op> ops;
  stream.fill(0, kOpsPerThread, ops);

  std::set<std::int64_t> oracle;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bool got = client.exec(ops[i]);
    const bool want = oracle_exec(oracle, ops[i]);
    ASSERT_EQ(got, want) << "op " << i << " kind "
                         << static_cast<int>(ops[i].kind) << " key "
                         << ops[i].key;
  }
  EXPECT_EQ(kv.size_slow(), oracle.size());
  EXPECT_TRUE(kv.check_invariants());
}

template <class A>
void run_concurrent_conservation(const Config& c, A adapter) {
  using KV = svc::ShardedKV<NativePlatform, A>;
  constexpr std::uint64_t kKeys = 256;
  KV kv(c.shards, adapter);
  const svc::OpStream stream(spec_of(c, kKeys, 0xC0513));

  std::vector<std::vector<int>> net(c.threads, std::vector<int>(kKeys, 0));
  std::vector<std::uint64_t> puts_ok(c.threads, 0), dels_ok(c.threads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < c.threads; ++t) {
    threads.emplace_back([&, t] {
      auto client = kv.make_client();
      std::vector<svc::Op> ops;
      stream.fill(t, kOpsPerThread, ops);
      for (const svc::Op& op : ops) {
        const auto k = static_cast<std::size_t>(op.key);
        switch (op.kind) {
          case svc::OpKind::kGet: client.get(op.key); break;
          case svc::OpKind::kPut: net[t][k] += client.put(op.key); break;
          case svc::OpKind::kDel: net[t][k] -= client.del(op.key); break;
        }
      }
      puts_ok[t] = client.puts_ok;
      dels_ok[t] = client.dels_ok;
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
  EXPECT_EQ(kv.size_slow(), expect_size);
  // Aggregate conservation — the counters the stress/bench tier relies on.
  std::uint64_t puts = 0, dels = 0;
  for (unsigned t = 0; t < c.threads; ++t) {
    puts += puts_ok[t];
    dels += dels_ok[t];
  }
  EXPECT_EQ(kv.size_slow(), static_cast<std::size_t>(puts - dels));
  EXPECT_TRUE(kv.check_invariants());
}

template <class A>
void run_sampled_key_oracle(const Config& c, A adapter) {
  using KV = svc::ShardedKV<NativePlatform, A>;
  constexpr std::uint64_t kKeys = 256;
  // Keys [0, 8) are the sampled set — under zipf these are also the hottest
  // keys, so the locked differential sees the most contended traffic.
  constexpr std::int64_t kSampled = 8;
  KV kv(c.shards, adapter);
  const svc::OpStream stream(spec_of(c, kKeys, 0x5A3D));

  std::mutex mu;
  std::set<std::int64_t> oracle;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> sampled_ops{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < c.threads; ++t) {
    threads.emplace_back([&, t] {
      auto client = kv.make_client();
      std::vector<svc::Op> ops;
      stream.fill(t, kOpsPerThread, ops);
      for (const svc::Op& op : ops) {
        if (op.key < kSampled) {
          std::lock_guard<std::mutex> lk(mu);
          const bool got = client.exec(op);
          const bool want = oracle_exec(oracle, op);
          if (got != want) mismatches.fetch_add(1);
          sampled_ops.fetch_add(1, std::memory_order_relaxed);
        } else {
          client.exec(op);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(sampled_ops.load(), 0u) << "sample set never hit - test is vacuous";
  auto check = kv.make_client();
  for (std::int64_t k = 0; k < kSampled; ++k) {
    EXPECT_EQ(check.get(k), oracle.count(k) == 1) << "sampled key " << k;
  }
  EXPECT_TRUE(kv.check_invariants());
}

/// Run `fn` with the adapter the config selects.
template <template <class> class Body>
void dispatch(const Config& c) {
  if (c.structure == svc::Structure::kSkiplist) {
    Body<svc::SkipAdapter<NativePlatform>>::run(c, {});
  } else {
    Body<svc::HashAdapter<NativePlatform>>::run(c, {});
  }
}

template <class A>
struct ExactBody {
  static void run(const Config& c, A a) { run_single_thread_exact(c, a); }
};
template <class A>
struct ConservationBody {
  static void run(const Config& c, A a) { run_concurrent_conservation(c, a); }
};
template <class A>
struct SampledBody {
  static void run(const Config& c, A a) { run_sampled_key_oracle(c, a); }
};

class SvcDifferentialNative : public ::testing::TestWithParam<Config> {};

TEST_P(SvcDifferentialNative, SingleThreadExactVsStlOracle) {
  dispatch<ExactBody>(GetParam());
}

TEST_P(SvcDifferentialNative, ConcurrentConservation) {
  dispatch<ConservationBody>(GetParam());
}

TEST_P(SvcDifferentialNative, SampledKeyLockedOracle) {
  dispatch<SampledBody>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SvcDifferentialNative,
    ::testing::Values(
        Config{1, 4, svc::Dist::kZipf, 0.99, svc::Structure::kSkiplist},
        Config{4, 4, svc::Dist::kZipf, 0.99, svc::Structure::kSkiplist},
        Config{4, 2, svc::Dist::kUniform, 0.0, svc::Structure::kSkiplist},
        Config{8, 4, svc::Dist::kHotset, 0.0, svc::Structure::kSkiplist},
        Config{4, 4, svc::Dist::kZipf, 0.99, svc::Structure::kHash},
        Config{4, 4, svc::Dist::kUniform, 0.0, svc::Structure::kHash}),
    config_name);

// ---------------------------------------------------------------------------
// The simx deterministic twin: same WorkloadSpec type, same router, virtual
// threads. (Not a "Native" suite: fibers under TSan are all false positives.)
// ---------------------------------------------------------------------------

struct TwinResult {
  std::vector<bool> members;
  std::size_t size = 0;
  std::uint64_t makespan = 0;
  bool conserved = false;
};

TwinResult run_twin(unsigned shards, unsigned vthreads,
                    const svc::WorkloadSpec& spec, std::uint64_t ops) {
  using KV = svc::ShardedKV<SimPlatform, svc::SkipAdapter<SimPlatform>>;
  // Fresh simulated heap: replays must see identical allocation addresses
  // (and so identical line-table geometry) regardless of what earlier sim
  // tests in this process allocated.
  sim::reset_memory();
  KV kv(shards, svc::SkipAdapter<SimPlatform>{true});

  // Streams drawn on the host: identical bytes to what a native run with the
  // same spec would replay.
  const svc::OpStream stream(spec);
  std::vector<std::vector<svc::Op>> streams(vthreads);
  for (unsigned t = 0; t < vthreads; ++t) {
    stream.fill(t, ops, streams[t]);
  }

  std::vector<std::vector<int>> net(
      vthreads, std::vector<int>(spec.keyspace, 0));
  sim::Config cfg;
  cfg.seed = 77;
  auto res = sim::run(vthreads, cfg, [&](unsigned tid) {
    auto client = kv.make_client();
    for (const svc::Op& op : streams[tid]) {
      const auto k = static_cast<std::size_t>(op.key);
      switch (op.kind) {
        case svc::OpKind::kGet: client.get(op.key); break;
        case svc::OpKind::kPut: net[tid][k] += client.put(op.key); break;
        case svc::OpKind::kDel: net[tid][k] -= client.del(op.key); break;
      }
    }
  });

  // Verification also touches SimPlatform atoms, so it runs as a (single)
  // virtual thread too, writing into host-side capture state.
  TwinResult out;
  out.makespan = res.makespan();
  out.members.assign(spec.keyspace, false);
  out.conserved = true;
  sim::Config vcfg;
  vcfg.seed = 78;
  sim::run(1, vcfg, [&](unsigned) {
    auto check = kv.make_client();
    for (std::uint64_t k = 0; k < spec.keyspace; ++k) {
      int total = 0;
      for (const auto& v : net) total += v[static_cast<std::size_t>(k)];
      if (total != 0 && total != 1) out.conserved = false;
      const bool present = check.get(static_cast<std::int64_t>(k));
      if (present != (total == 1)) out.conserved = false;
      out.members[static_cast<std::size_t>(k)] = present;
      out.size += static_cast<std::size_t>(present);
    }
    if (!kv.check_invariants()) out.conserved = false;
  });
  return out;
}

TEST(SvcSimTwin, ConservationUnderVirtualThreads) {
  svc::WorkloadSpec spec;
  spec.keyspace = 128;
  spec.dist = svc::Dist::kZipf;
  spec.theta = 0.9;
  spec.get_pct = 30;
  spec.put_pct = 40;
  spec.seed = 0x51317;
  const TwinResult r = run_twin(4, 4, spec, 400);
  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.size, 0u);
}

TEST(SvcSimTwin, ReplayIsDeterministic) {
  svc::WorkloadSpec spec;
  spec.keyspace = 64;
  spec.dist = svc::Dist::kUniform;
  spec.get_pct = 20;
  spec.put_pct = 50;
  spec.seed = 0x7317;
  const TwinResult a = run_twin(4, 4, spec, 300);
  const TwinResult b = run_twin(4, 4, spec, 300);
  EXPECT_TRUE(a.conserved);
  EXPECT_TRUE(b.conserved);
  // Determinism is bit-exact: same final membership AND the same simulated
  // makespan (any scheduling divergence shows up in virtual time first).
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.makespan, b.makespan);
}

}  // namespace
