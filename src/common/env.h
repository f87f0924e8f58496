// pto::env — every PTO_* environment knob, declared once and read through
// one typed parser.
//
// The schema is a constant-initialized table in env.cpp, one row per knob:
// name, kind and bounds. Kinds: flag (exactly `0` or `1`); int (whole-string
// decimal in [lo, hi]); real (a number in [lo, hi]); choice (one word of an
// `a|b|c` list, parsed to its index); text (paths, and the PTO_SCHED /
// PTO_HTM_FAULTS / PTO_WATCH grammars, which keep their own parsers).
//
// One rule for every knob: unset or empty means the caller's default; any
// other invalid value prints one warn_once("env.<NAME>", ...) naming the
// value and the accepted form, and then also means the default.
//
// Nothing is cached: each call reads the variable, so a test may setenv()
// and re-run a from_env(). Knobs are read at start-up and in from_env(),
// never per operation. Static initializers in other translation units read
// knobs through this header, which is safe because the table is constexpr.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

namespace pto::env {

enum class Kind : std::uint8_t { kFlag, kInt, kReal, kChoice, kText };

/// Knob identifiers, in table order (env.cpp static_asserts the match).
enum class Id : unsigned {
  // Simulated figure benches (benchutil/runner.h) and the native set bench.
  kBenchOps, kBenchTrials, kBenchMaxt, kBenchSweep, kBenchRange,
  // Simulator.
  kSimSpeedOps, kSimSpeedReps, kSimStackKb,
  // Native KV service (service/loadgen.h).
  kSvcShards, kSvcStruct, kSvcBatch, kSvcPin, kSvcKeys, kSvcDist, kSvcSkew,
  kSvcHotfrac, kSvcHotprob, kSvcReadpct, kSvcPutpct, kSvcOpenloop, kSvcSeed,
  // Schedule exploration and the seeded / explored test suites.
  kSched, kSchedDump, kHtmFaults, kTestSeed, kExploreSeeds, kReplayTokens,
  // Native HTM backend.
  kHtm,
  // Telemetry: registry, structured stats, Chrome trace, profiler.
  kTelemetry, kStats, kTrace, kTraceCap, kTraceSched, kProf, kProfOut,
  kProfTopn,
  // Dynamic checker.
  kCheck, kCheckOut, kCheckMax,
  // Native observability.
  kObs, kObsSample, kFlight, kFlightOut, kPerf,
  // Interval metrics and watchdog.
  kMetrics, kMetricsOut, kMetricsProm, kWatch, kWatchStrict,
  kCount
};

inline constexpr double kNoMax = std::numeric_limits<double>::infinity();

struct Knob {
  Id id;
  const char* name;
  Kind kind;
  double lo = 0.0;                ///< kInt / kReal: inclusive bounds
  double hi = 0.0;
  const char* choices = nullptr;  ///< kChoice: words separated by '|'
};

/// The schema row of `id`, and the whole table.
const Knob& knob(Id id);
std::span<const Knob> knobs();

/// The raw value of a knob, "" when unset. The pointer is the environment's
/// own storage; copy it before the next setenv().
const char* text(Id id);

/// Parse `v` ("" or nullptr = unset) as a value of `k`. `choice` returns the
/// index of the matched word, or `dflt` — which may lie past the end of the
/// list to mean "none of them".
bool flag(const Knob& k, const char* v, bool dflt);
std::uint64_t integer(const Knob& k, const char* v, std::uint64_t dflt);
double real(const Knob& k, const char* v, double dflt);
unsigned choice(const Knob& k, const char* v, unsigned dflt);

/// The same parsers applied to the environment.
inline bool flag(Id id, bool dflt) { return flag(knob(id), text(id), dflt); }
inline std::uint64_t integer(Id id, std::uint64_t dflt) {
  return integer(knob(id), text(id), dflt);
}
inline double real(Id id, double dflt) {
  return real(knob(id), text(id), dflt);
}
inline unsigned choice(Id id, unsigned dflt) {
  return choice(knob(id), text(id), dflt);
}

}  // namespace pto::env
