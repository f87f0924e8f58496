#include "common/env.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>

#include "common/warn.h"

namespace pto::env {

namespace {

constexpr Kind kFlag = Kind::kFlag, kInt = Kind::kInt, kReal = Kind::kReal,
               kChoice = Kind::kChoice, kText = Kind::kText;
constexpr double kU32Max = 4294967295.0;

// The schema. README's environment table lists exactly these names (the
// env_schema ctest checks both directions).
constexpr Knob kTable[] = {
    {Id::kBenchOps, "PTO_BENCH_OPS", kInt, 1, kNoMax},
    {Id::kBenchTrials, "PTO_BENCH_TRIALS", kInt, 1, kU32Max},
    // Values past the simulator's thread limit are clamped by the runner.
    {Id::kBenchMaxt, "PTO_BENCH_MAXT", kInt, 1, kU32Max},
    {Id::kBenchSweep, "PTO_BENCH_SWEEP", kChoice, 0, 0, "dense|geom"},
    {Id::kBenchRange, "PTO_BENCH_RANGE", kInt, 2, 2147483647.0},
    {Id::kSimSpeedOps, "PTO_SIM_SPEED_OPS", kInt, 1, kNoMax},
    {Id::kSimSpeedReps, "PTO_SIM_SPEED_REPS", kInt, 1, kU32Max},
    {Id::kSimStackKb, "PTO_SIM_STACK_KB", kInt, 16, 1ull << 40},
    {Id::kSvcShards, "PTO_SVC_SHARDS", kInt, 1, kU32Max},
    {Id::kSvcStruct, "PTO_SVC_STRUCT", kChoice, 0, 0, "skip|hash"},
    {Id::kSvcBatch, "PTO_SVC_BATCH", kInt, 0, kU32Max},
    {Id::kSvcPin, "PTO_SVC_PIN", kFlag},
    // 1 parses; ServiceOptions clamps it to the 2-key minimum with a warning.
    {Id::kSvcKeys, "PTO_SVC_KEYS", kInt, 1, kNoMax},
    {Id::kSvcDist, "PTO_SVC_DIST", kChoice, 0, 0, "uniform|zipf|hotset"},
    // theta = 1 divides the zipf harmonic normalization; keep strictly below.
    {Id::kSvcSkew, "PTO_SVC_SKEW", kReal, 0.0, 0.9999},
    {Id::kSvcHotfrac, "PTO_SVC_HOTFRAC", kReal, 1e-6, 1.0},
    {Id::kSvcHotprob, "PTO_SVC_HOTPROB", kReal, 0.0, 1.0},
    {Id::kSvcReadpct, "PTO_SVC_READPCT", kInt, 0, 100},
    {Id::kSvcPutpct, "PTO_SVC_PUTPCT", kInt, 0, 100},
    {Id::kSvcOpenloop, "PTO_SVC_OPENLOOP", kReal, 0.0, 1e9},
    {Id::kSvcSeed, "PTO_SVC_SEED", kInt, 1, kNoMax},
    {Id::kSched, "PTO_SCHED", kText},
    {Id::kSchedDump, "PTO_SCHED_DUMP", kText},
    {Id::kHtmFaults, "PTO_HTM_FAULTS", kText},
    {Id::kTestSeed, "PTO_TEST_SEED", kInt, 0, kNoMax},
    {Id::kExploreSeeds, "PTO_EXPLORE_SEEDS", kInt, 1, kU32Max},
    {Id::kReplayTokens, "PTO_REPLAY_TOKENS", kText},
    {Id::kHtm, "PTO_HTM", kChoice, 0, 0, "rtm|soft"},
    {Id::kTelemetry, "PTO_TELEMETRY", kChoice, 0, 0, "0|1|report"},
    {Id::kStats, "PTO_STATS", kChoice, 0, 0, "json|csv"},
    {Id::kTrace, "PTO_TRACE", kText},
    {Id::kTraceCap, "PTO_TRACE_CAP", kInt, 1, kNoMax},
    {Id::kTraceSched, "PTO_TRACE_SCHED", kFlag},
    {Id::kProf, "PTO_PROF", kChoice, 0, 0, "text|json"},
    {Id::kProfOut, "PTO_PROF_OUT", kText},
    {Id::kProfTopn, "PTO_PROF_TOPN", kInt, 1, kU32Max},
    {Id::kCheck, "PTO_CHECK", kChoice, 0, 0, "0|1|on|report"},
    {Id::kCheckOut, "PTO_CHECK_OUT", kText},
    {Id::kCheckMax, "PTO_CHECK_MAX", kInt, 1, kU32Max},
    {Id::kObs, "PTO_OBS", kFlag},
    // The period rounds up to a power of two; 2^63 is the largest that can.
    {Id::kObsSample, "PTO_OBS_SAMPLE", kInt, 1, 1ull << 63},
    {Id::kFlight, "PTO_FLIGHT", kInt, 1, kU32Max},
    {Id::kFlightOut, "PTO_FLIGHT_OUT", kText},
    {Id::kPerf, "PTO_PERF", kFlag},
    {Id::kMetrics, "PTO_METRICS", kInt, 1, kNoMax},
    {Id::kMetricsOut, "PTO_METRICS_OUT", kText},
    {Id::kMetricsProm, "PTO_METRICS_PROM", kText},
    {Id::kWatch, "PTO_WATCH", kText},
    {Id::kWatchStrict, "PTO_WATCH_STRICT", kFlag},
};

constexpr bool rows_in_id_order() {
  for (std::size_t i = 0; i < std::size(kTable); ++i) {
    if (kTable[i].id != static_cast<Id>(i)) return false;
  }
  return std::size(kTable) == static_cast<std::size_t>(Id::kCount);
}
static_assert(rows_in_id_order(), "one env row per Id, in Id order");

bool unset(const char* v) { return v == nullptr || *v == '\0'; }

/// Warn once per knob that `v` is not of `k`'s accepted form.
void warn_invalid(const Knob& k, const char* v) {
  char want[96];
  switch (k.kind) {
    case Kind::kInt:
      if (k.hi == kNoMax) {
        std::snprintf(want, sizeof want, "an integer >= %.0f", k.lo);
      } else {
        std::snprintf(want, sizeof want, "an integer in [%.0f, %.0f]", k.lo,
                      k.hi);
      }
      break;
    case Kind::kReal:
      std::snprintf(want, sizeof want, "a number in [%g, %g]", k.lo, k.hi);
      break;
    case Kind::kChoice:
      std::snprintf(want, sizeof want, "one of %s", k.choices);
      break;
    default:
      std::snprintf(want, sizeof want, "0|1");
  }
  char key[64];
  std::snprintf(key, sizeof key, "env.%s", k.name);
  warn_once(key, "ignoring invalid %s='%s' (want %s); using the default",
            k.name, v, want);
}

/// Whole-string unsigned decimal: digits only, no sign, no whitespace.
bool parse_u64(const char* v, std::uint64_t& out) {
  std::uint64_t n = 0;
  for (const char* p = v; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const unsigned d = static_cast<unsigned>(*p - '0');
    if (n > (UINT64_MAX - d) / 10) return false;  // overflow
    n = n * 10 + d;
  }
  out = n;
  return true;
}

}  // namespace

const Knob& knob(Id id) { return kTable[static_cast<std::size_t>(id)]; }

std::span<const Knob> knobs() { return kTable; }

const char* text(Id id) {
  const char* v = std::getenv(knob(id).name);
  return v == nullptr ? "" : v;
}

bool flag(const Knob& k, const char* v, bool dflt) {
  assert(k.kind == Kind::kFlag);
  if (unset(v)) return dflt;
  if (std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0) return *v == '1';
  warn_invalid(k, v);
  return dflt;
}

std::uint64_t integer(const Knob& k, const char* v, std::uint64_t dflt) {
  assert(k.kind == Kind::kInt);
  if (unset(v)) return dflt;
  std::uint64_t n = 0;
  if (parse_u64(v, n) && static_cast<double>(n) >= k.lo &&
      static_cast<double>(n) <= k.hi) {
    return n;
  }
  warn_invalid(k, v);
  return dflt;
}

double real(const Knob& k, const char* v, double dflt) {
  assert(k.kind == Kind::kReal);
  if (unset(v)) return dflt;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (std::isspace(static_cast<unsigned char>(*v)) == 0 && *end == '\0' &&
      x >= k.lo && x <= k.hi) {
    return x;
  }
  warn_invalid(k, v);
  return dflt;
}

unsigned choice(const Knob& k, const char* v, unsigned dflt) {
  assert(k.kind == Kind::kChoice);
  if (unset(v)) return dflt;
  unsigned idx = 0;
  for (const char* w = k.choices;; ++idx) {
    const char* bar = std::strchr(w, '|');
    const std::size_t len =
        bar == nullptr ? std::strlen(w) : static_cast<std::size_t>(bar - w);
    if (std::string_view(w, len) == v) return idx;
    if (bar == nullptr) break;
    w = bar + 1;
  }
  warn_invalid(k, v);
  return dflt;
}

}  // namespace pto::env
