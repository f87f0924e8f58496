// Shared driving code for the figure-reproduction binaries.
//
// Every figure binary sweeps thread counts 1..8 (paper hardware: i7-4770,
// 8 hardware threads) on the simulated multicore, averages PTO_BENCH_TRIALS
// trials per point (paper: 5 trials), prints the figure as a table, writes a
// CSV next to the binary, and emits [shape] lines comparing the measured
// ratios with the paper's qualitative claims (recorded in EXPERIMENTS.md).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "benchutil/runner.h"
#include "benchutil/series.h"
#include "sim/sim.h"

namespace pto::bench {

/// One variant of one benchmark: fresh structure per trial, sequential
/// prefill on the host, measured multi-threaded simulation, teardown +
/// arena reset (all per trial, by measure_point).
///
/// `factory()` allocates a fixture; the fixture must provide:
///   void prefill(std::uint64_t seed);
///   void thread_body(unsigned tid, std::uint64_t ops);  // calls op_done
template <class Fixture>
void run_variant(Figure& fig, const RunnerOptions& opts,
                 const sim::Config& base_cfg, const std::string& name,
                 const std::function<Fixture*()>& factory) {
  Series& s = fig.add_series(name);
  const auto make_trial = [&](std::uint64_t seed) -> TrialBody {
    std::shared_ptr<Fixture> f(factory());
    f->prefill(seed ^ 0xABCDEF);
    return [f](unsigned tid, std::uint64_t ops) { f->thread_body(tid, ops); };
  };
  for (int threads : fig.xs) {
    s.y.push_back(measure_point(opts, static_cast<unsigned>(threads),
                                base_cfg, make_trial, fig.id.c_str(),
                                name.c_str()));
    std::cerr << "  " << name << " t=" << threads << " done\r" << std::flush;
  }
  std::cerr << "                                        \r";
}

inline void finish(Figure& fig, const std::string& csv_name) {
  fig.print(std::cout);
  fig.write_csv(csv_name);
  std::cout << "CSV written to " << csv_name << "\n";
}

}  // namespace pto::bench
