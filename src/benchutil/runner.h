// Simulator bench runner: thread sweeps, trial averaging, and environment
// knobs shared by every figure binary.
//
// RunnerOptions::from_env reads PTO_BENCH_OPS / _TRIALS / _MAXT / _SWEEP
// (README's environment table).
//
// With PTO_STATS=json|csv each measured point additionally emits a
// structured record (telemetry/emit.h) carrying the full abort/fallback
// breakdown alongside the throughput mean.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "explore/explore.h"
#include "sim/sim.h"

namespace pto::bench {

struct RunnerOptions {
  std::uint64_t ops_per_thread = 6'000;
  unsigned trials = 3;  // deterministic sim: seeds differ, variance is tiny
  unsigned max_threads = 8;
  bool geometric_sweep = false;  // PTO_BENCH_SWEEP=geom
  std::uint64_t base_seed = 42;

  /// Apply PTO_BENCH_* environment overrides.
  static RunnerOptions from_env();
};

/// Thread counts for a sweep: 1..max_threads dense, or doubling
/// (1, 2, 4, ..., plus max_threads itself) when geometric_sweep is set.
std::vector<int> sweep_threads(const RunnerOptions& opts);

/// The simulation config of one trial of a point: `base_cfg` with workload
/// seed base_seed + 7919*trial + 131*threads. Under PTO_SCHED=pct|rand
/// (`xbase`, the point's resolved exploration policy) each trial also gets
/// its own schedule seed; under rr the explore options stay `base_cfg`'s.
sim::Config trial_config(const RunnerOptions& opts, const sim::Config& base_cfg,
                         const explore::Options& xbase, unsigned threads,
                         unsigned trial);

/// Per-trial workload: built on the host from the trial's seed, then run as
/// `body(tid, ops)` on each virtual thread.
using TrialBody = std::function<void(unsigned, std::uint64_t)>;

/// One measured point: for each trial, build `make_trial(seed)`, run it on
/// `threads` virtual threads, destroy it and reset simulated memory; return
/// the mean throughput in ops/ms.
///
/// When `bench`/`series` labels are given and PTO_STATS is active, the point
/// also emits a structured telemetry record; under PTO_PROF the point is
/// profiled in scope "bench/series".
double measure_point(const RunnerOptions& opts, unsigned threads,
                     const sim::Config& base_cfg,
                     const std::function<TrialBody(std::uint64_t)>& make_trial,
                     const char* bench = nullptr, const char* series = nullptr);

}  // namespace pto::bench
