#include "telemetry/emit.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <ostream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "common/buildinfo.h"
#include "common/env.h"
#include "common/json.h"
#include "telemetry/registry.h"

namespace pto::telemetry {

namespace {

StatsFormat format_from_env() {
  switch (env::choice(env::Id::kStats, 2)) {  // json|csv
    case 0: return StatsFormat::kJson;
    case 1: return StatsFormat::kCsv;
    default: return StatsFormat::kOff;
  }
}

struct State {
  StatsFormat format = format_from_env();
  std::ostream* os = nullptr;  ///< nullptr = stdout
  bool csv_header_done = false;
};

State& state() {
  static State s;
  return s;
}

std::ostream& out() {
  State& s = state();
  return s.os != nullptr ? *s.os : std::cout;
}

double fallback_fraction(const PrefixStats& p) {
  const std::uint64_t done = p.commits + p.fallbacks;
  return done == 0 ? 0.0
                   : static_cast<double>(p.fallbacks) /
                         static_cast<double>(done);
}

double tx_cycle_share(const BenchPoint& p) {
  return p.cpu_cycles == 0 ? 0.0
                           : static_cast<double>(p.sim.tx_cycles) /
                                 static_cast<double>(p.cpu_cycles);
}

/// RFC 4180 CSV field quoting: fields containing comma, quote, or newline
/// are wrapped in quotes with embedded quotes doubled.
void csv_str(std::ostream& os, const std::string& v) {
  if (v.find_first_of(",\"\n\r") == std::string::npos) {
    os << v;
    return;
  }
  os << '"';
  for (char c : v) {
    if (c == '"') os << "\"\"";
    else os << c;
  }
  os << '"';
}

const std::string& or_default(const std::string& v, const char* dflt) {
  static thread_local std::string tmp;
  if (!v.empty()) return v;
  tmp = dflt;
  return tmp;
}

/// The summary's fields without the enclosing braces, so the top-level
/// "latency" object can append the fast/fallback/sites members after them.
void json_summary_fields(std::ostream& os, const obs::HistSummary& s) {
  os << "\"samples\":" << s.samples << ",\"p50_ns\":" << s.p50
     << ",\"p90_ns\":" << s.p90 << ",\"p99_ns\":" << s.p99
     << ",\"p999_ns\":" << s.p999 << ",\"max_ns\":" << s.max;
}

void json_summary(std::ostream& os, const obs::HistSummary& s) {
  os << "{";
  json_summary_fields(os, s);
  os << "}";
}

void emit_json(std::ostream& os, const BenchPoint& p) {
  os << "{\"type\":\"bench_point\",\"schema_version\":" << kStatsSchemaVersion
     << ",\"bench\":";
  json::put_str(os, p.bench);
  os << ",\"series\":";
  json::put_str(os, p.series);
  os << ",\"threads\":" << p.threads << ",\"trials\":" << p.trials
     << ",\"ops\":" << p.sim.ops_completed << ",\"ops_per_ms\":";
  json::put_num(os, p.ops_per_ms);
  os << ",\"makespan_cycles\":" << p.makespan
     << ",\"cpu_cycles\":" << p.cpu_cycles
     << ",\"tx_started\":" << p.sim.tx_started
     << ",\"tx_commits\":" << p.sim.tx_commits
     << ",\"tx_cycles\":" << p.sim.tx_cycles << ",\"tx_cycle_share\":";
  json::put_num(os, tx_cycle_share(p));
  os << ",\"aborts\":{";
  for (unsigned c = 0; c < kTxCodeCount; ++c) {
    os << (c == 0 ? "\"" : ",\"") << tx_code_name(c)
       << "\":" << p.sim.tx_aborts[c];
  }
  os << "},\"abort_total\":" << p.sim.total_aborts()
     << ",\"fences\":" << p.sim.fences
     << ",\"fences_elided\":" << p.sim.fences_elided
     << ",\"allocs\":" << p.sim.allocs << ",\"frees\":" << p.sim.frees
     << ",\"prefix_attempts\":" << p.prefix.attempts
     << ",\"prefix_commits\":" << p.prefix.commits
     << ",\"prefix_fallbacks\":" << p.prefix.fallbacks
     << ",\"fallback_fraction\":";
  json::put_num(os, fallback_fraction(p.prefix));
  // v2: per-cause prefix abort buckets — on native runs this is where the
  // decoded RTM/SoftHTM abort causes land (sim.tx_aborts stays zero there).
  os << ",\"prefix_aborts\":{";
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    os << (c == 1 ? "\"" : ",\"") << tx_code_name(c)
       << "\":" << p.prefix.aborts[c];
  }
  os << "},\"latency\":{";
  json_summary_fields(os, p.lat);
  os << ",\"fast\":";
  json_summary(os, p.lat_fast);
  os << ",\"fallback\":";
  json_summary(os, p.lat_fallback);
  if (!p.lat_sites.empty()) {
    os << ",\"sites\":[";
    for (std::size_t i = 0; i < p.lat_sites.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"site\":";
      json::put_str(os, p.lat_sites[i].site);
      os << ",\"fast\":";
      json_summary(os, p.lat_sites[i].fast);
      os << ",\"fallback\":";
      json_summary(os, p.lat_sites[i].fallback);
      os << "}";
    }
    os << "]";
  }
  os << "}";
  if (p.perf.valid) {
    os << ",\"perf\":{\"cycles\":" << p.perf.cycles
       << ",\"instructions\":" << p.perf.instructions
       << ",\"llc_misses\":" << p.perf.llc_misses;
    if (p.perf.tsx_valid) {
      os << ",\"tx_start\":" << p.perf.tx_start
         << ",\"tx_abort\":" << p.perf.tx_abort
         << ",\"tx_capacity\":" << p.perf.tx_capacity
         << ",\"tx_conflict\":" << p.perf.tx_conflict;
    }
    os << "}";
  }
  os << ",\"git_sha\":";
  json::put_str(os, or_default(p.git_sha, build_git_sha()));
  os << ",\"build_type\":";
  json::put_str(os, or_default(p.build_type, build_type()));
  os << ",\"fiber_backend\":";
  json::put_str(os, or_default(p.fiber_backend, fiber_backend()));
  const std::string now = iso8601_now();
  os << ",\"ts_start\":";
  json::put_str(os, or_default(p.ts_start, now.c_str()));
  os << ",\"ts_end\":";
  json::put_str(os, or_default(p.ts_end, now.c_str()));
  os << ",\"hostname\":";
  json::put_str(os, or_default(p.hostname, host_name().c_str()));
  os << ",\"intervals\":" << p.intervals;
  os << "}\n";
}

void csv_summary_header(std::ostream& os, const char* prefix) {
  os << ',' << prefix << "_samples," << prefix << "_p50_ns," << prefix
     << "_p90_ns," << prefix << "_p99_ns," << prefix << "_p999_ns," << prefix
     << "_max_ns";
}

void csv_summary(std::ostream& os, const obs::HistSummary& s) {
  os << ',' << s.samples << ',' << s.p50 << ',' << s.p90 << ',' << s.p99
     << ',' << s.p999 << ',' << s.max;
}

void emit_csv(std::ostream& os, const BenchPoint& p, bool header) {
  if (header) {
    os << "bench,series,threads,trials,ops,ops_per_ms,makespan_cycles,"
          "cpu_cycles,tx_started,tx_commits,tx_cycles,tx_cycle_share";
    for (unsigned c = 0; c < kTxCodeCount; ++c) {
      os << ",aborts_" << tx_code_name(c);
    }
    os << ",abort_total,fences,fences_elided,allocs,frees,prefix_attempts,"
          "prefix_commits,prefix_fallbacks,fallback_fraction";
    for (unsigned c = 1; c < kTxCodeCount; ++c) {
      os << ",prefix_aborts_" << tx_code_name(c);
    }
    csv_summary_header(os, "lat");
    csv_summary_header(os, "lat_fast");
    csv_summary_header(os, "lat_fallback");
    // Perf cells stay empty (not zero) when counters were unavailable, so
    // "sampled as zero" and "not sampled" are distinguishable.
    os << ",perf_cycles,perf_instructions,perf_llc_misses,perf_tx_start,"
          "perf_tx_abort,perf_tx_capacity,perf_tx_conflict";
    os << ",schema_version,git_sha,build_type,fiber_backend,ts_start,ts_end,"
          "hostname,intervals\n";
  }
  csv_str(os, p.bench);
  os << ',';
  csv_str(os, p.series);
  os << ',' << p.threads << ',' << p.trials
     << ',' << p.sim.ops_completed << ',';
  json::put_num(os, p.ops_per_ms);
  os << ',' << p.makespan << ',' << p.cpu_cycles << ',' << p.sim.tx_started
     << ',' << p.sim.tx_commits << ',' << p.sim.tx_cycles << ',';
  json::put_num(os, tx_cycle_share(p));
  for (unsigned c = 0; c < kTxCodeCount; ++c) os << ',' << p.sim.tx_aborts[c];
  os << ',' << p.sim.total_aborts() << ',' << p.sim.fences << ','
     << p.sim.fences_elided << ',' << p.sim.allocs << ',' << p.sim.frees
     << ',' << p.prefix.attempts << ',' << p.prefix.commits << ','
     << p.prefix.fallbacks << ',';
  json::put_num(os, fallback_fraction(p.prefix));
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    os << ',' << p.prefix.aborts[c];
  }
  csv_summary(os, p.lat);
  csv_summary(os, p.lat_fast);
  csv_summary(os, p.lat_fallback);
  if (p.perf.valid) {
    os << ',' << p.perf.cycles << ',' << p.perf.instructions << ','
       << p.perf.llc_misses;
    if (p.perf.tsx_valid) {
      os << ',' << p.perf.tx_start << ',' << p.perf.tx_abort << ','
         << p.perf.tx_capacity << ',' << p.perf.tx_conflict;
    } else {
      os << ",,,,";
    }
  } else {
    os << ",,,,,,,";
  }
  os << ',' << kStatsSchemaVersion << ',';
  csv_str(os, or_default(p.git_sha, build_git_sha()));
  os << ',';
  csv_str(os, or_default(p.build_type, build_type()));
  os << ',';
  csv_str(os, or_default(p.fiber_backend, fiber_backend()));
  const std::string now = iso8601_now();
  os << ',';
  csv_str(os, or_default(p.ts_start, now.c_str()));
  os << ',';
  csv_str(os, or_default(p.ts_end, now.c_str()));
  os << ',';
  csv_str(os, or_default(p.hostname, host_name().c_str()));
  os << ',' << p.intervals << '\n';
}

}  // namespace

StatsFormat stats_format() { return state().format; }

void set_stats_format(StatsFormat f) {
  state().format = f;
  state().csv_header_done = false;
  if (f != StatsFormat::kOff) set_enabled(true);
}

void set_stats_stream(std::ostream* os) { state().os = os; }

std::string iso8601_now() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t t = system_clock::to_time_t(now);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  const auto ms = static_cast<int>(
      duration_cast<milliseconds>(now.time_since_epoch()).count() % 1000);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, ms);
  return buf;
}

const std::string& host_name() {
  static const std::string h = [] {
#if defined(_WIN32)
    return std::string("unknown");
#else
    char buf[256];
    if (::gethostname(buf, sizeof buf) == 0) {
      buf[sizeof buf - 1] = '\0';
      return std::string(buf);
    }
    return std::string("unknown");
#endif
  }();
  return h;
}

void emit_bench_point(const BenchPoint& p) {
  State& s = state();
  switch (s.format) {
    case StatsFormat::kOff:
      return;
    case StatsFormat::kJson:
      emit_json(out(), p);
      break;
    case StatsFormat::kCsv:
      emit_csv(out(), p, !s.csv_header_done);
      s.csv_header_done = true;
      break;
  }
  out().flush();
}

}  // namespace pto::telemetry
