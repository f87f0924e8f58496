// Native (std::thread) set microbenchmark — the driving workload for the
// pto::obs observability stack and the CI overhead/abort-attribution gates.
//
// Runs the skiplist on REAL threads over the native HTM facade (RTM when the
// probe commits, SoftHTM otherwise; force with PTO_HTM=soft|rtm). Two series:
// the PTO-accelerated ops and the plain lock-free fallback ops, mixed
// 25% insert / 25% remove / 50% contains over a PTO_BENCH_RANGE-key range
// (default 512).
//
// Observability knobs (see README):
//   PTO_OBS=1      per-op latency histograms -> p50/p90/p99/p999 in PTO_STATS
//   PTO_OBS_SAMPLE=k   time 1 in k ops (cheaper; percentiles stay unbiased)
//   PTO_FLIGHT=n   per-thread flight ring, dumped to PTO_FLIGHT_OUT on exit
//   PTO_PERF=1     hardware counters (cycles/instructions/LLC, TSX if exposed)
//   PTO_STATS=json|csv   structured BenchPoint per measured point (schema v2)
//
// Unlike the fig* binaries this measures wall-clock time on whatever cores
// the host gives us, so absolute numbers are machine-dependent; the emitted
// records carry everything needed to compare runs (provenance + percentiles).
#include <cstdint>
#include <iostream>
#include <memory>

#include "benchutil/native_runner.h"
#include "benchutil/series.h"
#include "common/env.h"
#include "common/rng.h"
#include "ds/skiplist/skiplist.h"
#include "obs/obs.h"
#include "platform/native_platform.h"

namespace {

using pto::NativePlatform;
using pto::SkipList;
namespace pb = pto::bench;

/// Key range (PTO_BENCH_RANGE, default 512). Larger ranges mean taller
/// skiplists and longer ops — the obs-overhead CI gate uses a large range so
/// the fixed per-op instrumentation cost is measured against realistic work,
/// not a toy 10-node traversal.
int g_range = 512;

std::function<std::function<void(unsigned, std::uint64_t)>()> fixture(
    bool pto_path) {
  // Latency sites: one per op class, shared by both series (the series label
  // in the emitted record disambiguates).
  pto::obs::LatencySite* ins = pto::obs::intern_latency_site("native_set.insert");
  pto::obs::LatencySite* rem = pto::obs::intern_latency_site("native_set.remove");
  pto::obs::LatencySite* look =
      pto::obs::intern_latency_site("native_set.contains");
  return [pto_path, ins, rem, look] {
    auto set = std::make_shared<SkipList<NativePlatform>>();
    {
      auto ctx = set->make_ctx();
      pto::SplitMix64 prefill(0xF1F1);
      for (int i = 0; i < g_range / 2; ++i) {
        set->insert_lf(ctx, static_cast<std::int64_t>(
                                prefill.next_below(static_cast<std::uint64_t>(g_range))));
      }
    }
    return [set, pto_path, ins, rem, look](unsigned tid, std::uint64_t ops) {
      auto ctx = set->make_ctx();
      pto::SplitMix64 rng(0x9E37 + tid * 7919ull);
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto k = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(g_range)));
        switch (rng.next() & 3) {
          case 0: {
            pto::obs::OpTimer t(ins);
            if (pto_path) {
              set->insert_pto(ctx, k);
            } else {
              set->insert_lf(ctx, k);
            }
            break;
          }
          case 1: {
            pto::obs::OpTimer t(rem);
            if (pto_path) {
              set->remove_pto(ctx, k);
            } else {
              set->remove_lf(ctx, k);
            }
            break;
          }
          default: {
            pto::obs::OpTimer t(look);
            set->contains(ctx, k);
            break;
          }
        }
      }
    };
  };
}

}  // namespace

int main() {
  const pb::RunnerOptions opts = pb::RunnerOptions::from_env();
  g_range =
      static_cast<int>(pto::env::integer(pto::env::Id::kBenchRange, 512));
  pb::Figure fig;
  fig.id = "native_set";
  fig.title = "Native skiplist (real threads, wall-clock)";
  fig.xs = pb::sweep_threads(opts);

  struct {
    const char* name;
    bool pto;
  } series[] = {{"Skip(PTO)", true}, {"Skip(LF)", false}};
  for (const auto& s : series) {
    pb::Series& out = fig.add_series(s.name);
    for (int threads : fig.xs) {
      out.y.push_back(pb::native_measure_point(
          opts, static_cast<unsigned>(threads), fixture(s.pto), fig.id.c_str(),
          s.name));
      std::cerr << "  " << s.name << " t=" << threads << " done\r"
                << std::flush;
    }
    std::cerr << "                                        \r";
  }

  fig.print(std::cout);
  fig.write_csv("native_set.csv");
  std::cout << "CSV written to native_set.csv\n";
  return 0;
}
