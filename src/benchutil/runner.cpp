#include "benchutil/runner.h"

#include "common/env.h"
#include "common/warn.h"
#include "explore/explore.h"
#include "metrics/metrics.h"
#include "telemetry/emit.h"
#include "telemetry/prof.h"
#include "telemetry/registry.h"

namespace pto::bench {

RunnerOptions RunnerOptions::from_env() {
  RunnerOptions o;
  o.ops_per_thread = env::integer(env::Id::kBenchOps, o.ops_per_thread);
  o.trials =
      static_cast<unsigned>(env::integer(env::Id::kBenchTrials, o.trials));
  o.max_threads =
      static_cast<unsigned>(env::integer(env::Id::kBenchMaxt, o.max_threads));
  if (o.max_threads > kMaxThreads) {
    // Passing the clamped value on to sim::run would throw mid-sweep; clamp
    // here with a warning so a fat-fingered sweep still produces data.
    warn_once("env.PTO_BENCH_MAXT.clamp",
              "PTO_BENCH_MAXT=%u exceeds the simulator limit of %u virtual "
              "threads; clamping to %u",
              o.max_threads, kMaxThreads, kMaxThreads);
    o.max_threads = kMaxThreads;
  }
  o.geometric_sweep = env::choice(env::Id::kBenchSweep, 0) == 1;  // dense|geom
  return o;
}

std::vector<int> sweep_threads(const RunnerOptions& opts) {
  std::vector<int> xs;
  if (opts.geometric_sweep) {
    for (unsigned t = 1; t <= opts.max_threads; t *= 2) {
      xs.push_back(static_cast<int>(t));
    }
    if (xs.empty() || xs.back() != static_cast<int>(opts.max_threads)) {
      xs.push_back(static_cast<int>(opts.max_threads));
    }
    return xs;
  }
  for (unsigned t = 1; t <= opts.max_threads; ++t) xs.push_back(static_cast<int>(t));
  return xs;
}

sim::Config trial_config(const RunnerOptions& opts, const sim::Config& base_cfg,
                         const explore::Options& xbase, unsigned threads,
                         unsigned trial) {
  sim::Config cfg = base_cfg;
  cfg.seed = opts.base_seed + 7919ull * trial + 131ull * threads;
  if (xbase.policy == explore::Policy::kPCT ||
      xbase.policy == explore::Policy::kRandom) {
    cfg.explore = xbase;
    cfg.explore.seed = explore::derive_seed(xbase.seed, cfg.seed);
  }
  return cfg;
}

double measure_point(const RunnerOptions& opts, unsigned threads,
                     const sim::Config& base_cfg,
                     const std::function<TrialBody(std::uint64_t)>& make_trial,
                     const char* bench, const char* series) {
  const bool emit =
      telemetry::stats_format() != telemetry::StatsFormat::kOff &&
      bench != nullptr;
  if (telemetry::prof::on() && bench != nullptr) {
    std::string scope = bench;
    if (series != nullptr && *series != '\0') {
      scope += '/';
      scope += series;
    }
    telemetry::prof::set_scope(scope);
  }
  telemetry::BenchPoint pt;
  PrefixStats reg_before;
  if (emit) {
    reg_before = telemetry::registry_totals();
    pt.ts_start = telemetry::iso8601_now();
  }
  const std::uint64_t intervals_before = metrics::intervals_emitted();
  metrics::set_point_labels(bench, series, threads);
  double sum = 0.0;
  // Resolve the exploration policy once per point; trial_config derives
  // each trial's schedule seed from it, so multi-trial sweeps under
  // PTO_SCHED=pct/rand stay a pure function of (options, env) while every
  // trial explores a distinct interleaving.
  const explore::Options xbase = explore::resolved(base_cfg.explore);
  for (unsigned trial = 0; trial < opts.trials; ++trial) {
    const sim::Config cfg = trial_config(opts, base_cfg, xbase, threads, trial);
    TrialBody body = make_trial(cfg.seed);
    auto res = sim::run(threads, cfg, [&](unsigned tid) {
      body(tid, opts.ops_per_thread);
    });
    sum += res.ops_per_msec();
    if (emit) {
      pt.sim.accumulate(res.totals());
      pt.makespan += res.makespan();
      for (auto c : res.clocks) pt.cpu_cycles += c;
    }
    body = nullptr;  // tear the trial's structure down before the arena goes
    sim::reset_memory();
  }
  const double mean = sum / opts.trials;
  if (emit) {
    pt.bench = bench;
    pt.series = series != nullptr ? series : "";
    pt.threads = threads;
    pt.trials = opts.trials;
    pt.ops_per_ms = mean;
    pt.prefix = telemetry::registry_delta(reg_before);
    pt.ts_end = telemetry::iso8601_now();
    pt.intervals = metrics::intervals_emitted() - intervals_before;
    telemetry::emit_bench_point(pt);
  }
  return mean;
}

}  // namespace pto::bench
