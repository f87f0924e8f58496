// RunnerOptions / ServiceOptions environment parsing: valid overrides apply,
// malformed or zero values fall back to defaults with a (once-per-variable)
// stderr warning so sweep misconfigurations are not invisible.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "benchutil/runner.h"
#include "service/loadgen.h"

namespace {

using pto::bench::RunnerOptions;
using pto::service::ServiceOptions;

class RunnerEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("PTO_BENCH_OPS");
    unsetenv("PTO_BENCH_TRIALS");
    unsetenv("PTO_BENCH_MAXT");
    unsetenv("PTO_BENCH_SWEEP");
  }
};

TEST_F(RunnerEnv, ValidOverridesApply) {
  setenv("PTO_BENCH_OPS", "1234", 1);
  setenv("PTO_BENCH_TRIALS", "7", 1);
  setenv("PTO_BENCH_MAXT", "16", 1);
  RunnerOptions o = RunnerOptions::from_env();
  EXPECT_EQ(o.ops_per_thread, 1234u);
  EXPECT_EQ(o.trials, 7u);
  EXPECT_EQ(o.max_threads, 16u);
}

TEST_F(RunnerEnv, MalformedValueWarnsAndKeepsDefault) {
  const RunnerOptions defaults;
  setenv("PTO_BENCH_OPS", "not-a-number", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.ops_per_thread, defaults.ops_per_thread);
  EXPECT_NE(err.find("PTO_BENCH_OPS"), std::string::npos) << err;
  EXPECT_NE(err.find("not-a-number"), std::string::npos) << err;
  // Warned once per variable: a second parse of the same bad value is quiet.
  ::testing::internal::CaptureStderr();
  (void)RunnerOptions::from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(RunnerEnv, ZeroAndTrailingJunkRejected) {
  const RunnerOptions defaults;
  setenv("PTO_BENCH_TRIALS", "0", 1);
  setenv("PTO_BENCH_MAXT", "12abc", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.trials, defaults.trials);
  EXPECT_EQ(o.max_threads, defaults.max_threads);
  EXPECT_NE(err.find("PTO_BENCH_TRIALS"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_BENCH_MAXT"), std::string::npos) << err;
}

TEST_F(RunnerEnv, GeometricSweepDoublesAndIncludesMax) {
  setenv("PTO_BENCH_MAXT", "48", 1);
  setenv("PTO_BENCH_SWEEP", "geom", 1);
  RunnerOptions o = RunnerOptions::from_env();
  EXPECT_TRUE(o.geometric_sweep);
  EXPECT_EQ(pto::bench::sweep_threads(o),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 48}));
  // A power-of-two max is not duplicated.
  setenv("PTO_BENCH_MAXT", "64", 1);
  o = RunnerOptions::from_env();
  EXPECT_EQ(pto::bench::sweep_threads(o),
            (std::vector<int>{1, 2, 4, 8, 16, 32, 64}));
  // Unknown sweep shape warns and stays dense.
  setenv("PTO_BENCH_SWEEP", "cubic", 1);
  ::testing::internal::CaptureStderr();
  o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(o.geometric_sweep);
  EXPECT_NE(err.find("PTO_BENCH_SWEEP"), std::string::npos) << err;
}

class ServiceEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("PTO_SVC_SHARDS");
    unsetenv("PTO_SVC_STRUCT");
    unsetenv("PTO_SVC_BATCH");
    unsetenv("PTO_SVC_PIN");
    unsetenv("PTO_SVC_KEYS");
    unsetenv("PTO_SVC_DIST");
    unsetenv("PTO_SVC_SKEW");
    unsetenv("PTO_SVC_READPCT");
    unsetenv("PTO_SVC_PUTPCT");
    unsetenv("PTO_SVC_OPENLOOP");
    unsetenv("PTO_SVC_SEED");
  }
};

TEST_F(ServiceEnv, ValidOverridesApply) {
  setenv("PTO_SVC_SHARDS", "8", 1);
  setenv("PTO_SVC_STRUCT", "hash", 1);
  setenv("PTO_SVC_BATCH", "16", 1);
  setenv("PTO_SVC_PIN", "0", 1);
  setenv("PTO_SVC_KEYS", "4096", 1);
  setenv("PTO_SVC_DIST", "hotset", 1);
  setenv("PTO_SVC_SKEW", "0.5", 1);
  setenv("PTO_SVC_READPCT", "80", 1);
  setenv("PTO_SVC_PUTPCT", "15", 1);
  setenv("PTO_SVC_OPENLOOP", "250000", 1);
  setenv("PTO_SVC_SEED", "9", 1);
  const ServiceOptions o = ServiceOptions::from_env();
  EXPECT_EQ(o.shards, 8u);
  EXPECT_EQ(o.structure, pto::service::Structure::kHash);
  EXPECT_EQ(o.batch, 16u);
  EXPECT_FALSE(o.pin);
  EXPECT_EQ(o.workload.keyspace, 4096u);
  EXPECT_EQ(o.workload.dist, pto::service::Dist::kHotset);
  EXPECT_DOUBLE_EQ(o.workload.theta, 0.5);
  EXPECT_EQ(o.workload.get_pct, 80u);
  EXPECT_EQ(o.workload.put_pct, 15u);
  EXPECT_DOUBLE_EQ(o.workload.openloop_rate, 250000.0);
  EXPECT_EQ(o.workload.seed, 9u);
}

TEST_F(ServiceEnv, MalformedValuesWarnOnceAndKeepDefaults) {
  const ServiceOptions defaults;
  setenv("PTO_SVC_SHARDS", "zero-ish", 1);
  setenv("PTO_SVC_STRUCT", "btree", 1);
  setenv("PTO_SVC_SKEW", "1.7", 1);  // past the theta<1 normalization limit
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.shards, defaults.shards);
  EXPECT_EQ(o.structure, defaults.structure);
  EXPECT_DOUBLE_EQ(o.workload.theta, defaults.workload.theta);
  EXPECT_NE(err.find("PTO_SVC_SHARDS"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_SVC_STRUCT"), std::string::npos) << err;
  EXPECT_NE(err.find("PTO_SVC_SKEW"), std::string::npos) << err;
  // warn_once: the same bad values re-parsed stay quiet.
  ::testing::internal::CaptureStderr();
  (void)ServiceOptions::from_env();
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(ServiceEnv, MixExceedingHundredPercentWarnsAndResets) {
  setenv("PTO_SVC_READPCT", "90", 1);
  setenv("PTO_SVC_PUTPCT", "40", 1);
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.workload.get_pct, 50u);
  EXPECT_EQ(o.workload.put_pct, 25u);
  EXPECT_NE(err.find("exceed 100"), std::string::npos) << err;
}

TEST_F(ServiceEnv, BatchZeroIsValidAndSilent) {
  setenv("PTO_SVC_BATCH", "0", 1);
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  EXPECT_EQ(o.batch, 0u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(ServiceEnv, TinyKeyspaceClampsWithWarning) {
  setenv("PTO_SVC_KEYS", "1", 1);
  ::testing::internal::CaptureStderr();
  const ServiceOptions o = ServiceOptions::from_env();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.workload.keyspace, 2u);
  EXPECT_NE(err.find("PTO_SVC_KEYS"), std::string::npos) << err;
}

TEST_F(RunnerEnv, MaxThreadsAboveSimulatorLimitClampsWithWarning) {
  setenv("PTO_BENCH_MAXT", "4096", 1);
  ::testing::internal::CaptureStderr();
  RunnerOptions o = RunnerOptions::from_env();
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.max_threads, pto::kMaxThreads);
  EXPECT_NE(err.find("PTO_BENCH_MAXT"), std::string::npos) << err;
  EXPECT_NE(err.find("clamping"), std::string::npos) << err;
  // The simulator limit itself is accepted silently.
  setenv("PTO_BENCH_MAXT", "1024", 1);
  ::testing::internal::CaptureStderr();
  o = RunnerOptions::from_env();
  err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(o.max_threads, 1024u);
  EXPECT_EQ(err.find("clamping"), std::string::npos) << err;
}

// The per-trial simulation config every figure point runs.
TEST_F(RunnerEnv, TrialConfigUnderRrIsTheFigureConfig) {
  unsetenv("PTO_SCHED");
  RunnerOptions opts;
  pto::sim::Config base;
  base.seed = 5;
  base.fences_in_tx = true;
  const pto::explore::Options xbase = pto::explore::resolved(base.explore);
  for (unsigned threads : {1u, 4u}) {
    for (unsigned trial : {0u, 1u, 2u}) {
      const pto::sim::Config cfg =
          pto::bench::trial_config(opts, base, xbase, threads, trial);
      EXPECT_EQ(cfg.seed, opts.base_seed + 7919ull * trial + 131ull * threads);
      EXPECT_TRUE(cfg.fences_in_tx);
      // rr keeps the base explore options, so sim::run resolves them as the
      // figure binaries always did.
      EXPECT_EQ(cfg.explore.policy, base.explore.policy);
      EXPECT_EQ(cfg.explore.seed, base.explore.seed);
    }
  }
}

TEST_F(RunnerEnv, TrialConfigGivesEachTrialItsOwnScheduleSeed) {
  RunnerOptions opts;
  const pto::sim::Config base;
  for (auto pol : {pto::explore::Policy::kPCT, pto::explore::Policy::kRandom}) {
    pto::explore::Options xbase;
    xbase.policy = pol;
    xbase.seed = 11;
    const auto a = pto::bench::trial_config(opts, base, xbase, 4, 0);
    const auto b = pto::bench::trial_config(opts, base, xbase, 4, 1);
    const auto c = pto::bench::trial_config(opts, base, xbase, 2, 0);
    EXPECT_EQ(a.explore.policy, pol);
    EXPECT_NE(a.explore.seed, b.explore.seed);
    EXPECT_NE(a.explore.seed, c.explore.seed);
    // Same inputs, same seed: sweeps stay reproducible.
    EXPECT_EQ(a.explore.seed,
              pto::bench::trial_config(opts, base, xbase, 4, 0).explore.seed);
  }
}

}  // namespace
