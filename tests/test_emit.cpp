// Structured bench emission (telemetry/emit.cpp): CSV header discipline,
// RFC 4180 field escaping for hostile series names, and json/csv round-trip
// of the per-cause abort buckets.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "htm/txcode.h"
#include "json_util.h"
#include "telemetry/emit.h"

namespace {

namespace telemetry = pto::telemetry;
using telemetry::BenchPoint;
using telemetry::StatsFormat;

/// RAII: route emission into a stringstream, restore defaults afterwards.
struct Capture {
  std::ostringstream os;
  explicit Capture(StatsFormat f) {
    telemetry::set_stats_stream(&os);
    telemetry::set_stats_format(f);
  }
  ~Capture() {
    telemetry::set_stats_format(StatsFormat::kOff);
    telemetry::set_stats_stream(nullptr);
  }
};

BenchPoint sample_point() {
  BenchPoint p;
  p.bench = "fig3a";
  p.series = "Tree(PTO)";
  p.threads = 4;
  p.trials = 5;
  p.ops_per_ms = 123.5;
  p.makespan = 1000;
  p.cpu_cycles = 4000;
  p.sim.ops_completed = 2048;
  p.sim.tx_started = 900;
  p.sim.tx_commits = 800;
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) p.sim.tx_aborts[c] = 0;
  p.sim.tx_aborts[pto::TX_ABORT_CONFLICT] = 61;
  p.sim.tx_aborts[pto::TX_ABORT_CAPACITY] = 7;
  p.sim.tx_aborts[pto::TX_ABORT_EXPLICIT] = 3;
  // Fixed stamps: left empty, each emission would read the wall clock, and
  // two emissions compared byte for byte would differ when it ticks.
  p.ts_start = "2026-08-07T12:00:00.000Z";
  p.ts_end = "2026-08-07T12:00:01.500Z";
  return p;
}

/// sample_point plus the v2 observability payload (percentiles, per-cause
/// prefix buckets, perf counters).
BenchPoint obs_point() {
  BenchPoint p = sample_point();
  p.prefix.attempts = 500;
  p.prefix.commits = 450;
  p.prefix.fallbacks = 50;
  p.prefix.aborts[pto::TX_ABORT_CONFLICT] = 40;
  p.prefix.aborts[pto::TX_ABORT_SPURIOUS] = 9;
  p.prefix.aborts[pto::TX_ABORT_OTHER] = 1;
  p.lat = {2048, 400, 700, 1500, 6000, 21000};
  p.lat_fast = {2000, 390, 650, 1200, 5000, 18000};
  p.lat_fallback = {48, 2500, 5000, 9000, 15000, 21000};
  p.lat_sites.push_back({"set.insert", p.lat_fast, p.lat_fallback});
  p.perf.valid = true;
  p.perf.cycles = 1000000;
  p.perf.instructions = 2500000;
  p.perf.llc_misses = 3200;
  return p;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

/// Quote-aware CSV row splitter (RFC 4180): commas inside quoted fields do
/// not split; doubled quotes inside quoted fields unescape to one quote.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  return fields;
}

int field_index(const std::vector<std::string>& header,
                const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

TEST(Emit, CsvHeaderEmittedOnce) {
  Capture cap(StatsFormat::kCsv);
  BenchPoint p = sample_point();
  telemetry::emit_bench_point(p);
  p.threads = 8;
  telemetry::emit_bench_point(p);
  telemetry::emit_bench_point(p);
  auto lines = split_lines(cap.os.str());
  ASSERT_EQ(lines.size(), 4u);  // 1 header + 3 data rows
  EXPECT_EQ(lines[0].rfind("bench,series,", 0), 0u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].rfind("bench,", 0), 0u) << "repeated header at " << i;
  }
  // Every data row splits into exactly as many fields as the header.
  auto header = split_csv(lines[0]);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(split_csv(lines[i]).size(), header.size()) << "row " << i;
  }
}

TEST(Emit, CsvHeaderResetsWithFormat) {
  std::string first, second;
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(sample_point());
    first = cap.os.str();
  }
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(sample_point());
    second = cap.os.str();
  }
  // A fresh format selection re-emits the header (new file, new header).
  EXPECT_EQ(first, second);
  EXPECT_EQ(split_lines(second).size(), 2u);
}

TEST(Emit, CsvEscapesHostileSeriesNames) {
  Capture cap(StatsFormat::kCsv);
  BenchPoint p = sample_point();
  p.bench = "fig5,b";
  p.series = "Skip(PTO, \"fast\")";
  telemetry::emit_bench_point(p);
  auto lines = split_lines(cap.os.str());
  ASSERT_EQ(lines.size(), 2u);
  auto header = split_csv(lines[0]);
  auto row = split_csv(lines[1]);
  ASSERT_EQ(row.size(), header.size());
  // The embedded comma and quotes survive the round-trip un-mangled and
  // do not shift later columns.
  EXPECT_EQ(row[static_cast<std::size_t>(field_index(header, "bench"))],
            "fig5,b");
  EXPECT_EQ(row[static_cast<std::size_t>(field_index(header, "series"))],
            "Skip(PTO, \"fast\")");
  EXPECT_EQ(row[static_cast<std::size_t>(field_index(header, "threads"))],
            "4");
}

TEST(Emit, JsonCsvAbortBucketsRoundTrip) {
  BenchPoint p = sample_point();

  std::string json_text;
  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(p);
    json_text = cap.os.str();
  }
  testjson::Value v;
  ASSERT_TRUE(testjson::parse(json_text, &v)) << json_text;
  const testjson::Value* aborts = v.find("aborts");
  ASSERT_NE(aborts, nullptr);

  std::string csv_text;
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(p);
    csv_text = cap.os.str();
  }
  auto lines = split_lines(csv_text);
  ASSERT_EQ(lines.size(), 2u);
  auto header = split_csv(lines[0]);
  auto row = split_csv(lines[1]);
  ASSERT_EQ(row.size(), header.size());

  // Each per-cause bucket appears in both formats with the value we put in.
  std::uint64_t json_total = 0;
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    const char* name = pto::tx_code_name(c);
    const testjson::Value* jv = aborts->find(name);
    ASSERT_NE(jv, nullptr) << name;
    ASSERT_TRUE(jv->is_num());
    const auto want = p.sim.tx_aborts[c];
    EXPECT_EQ(static_cast<std::uint64_t>(jv->num()), want) << name;
    const int col = field_index(header, std::string("aborts_") + name);
    ASSERT_GE(col, 0) << name;
    EXPECT_EQ(row[static_cast<std::size_t>(col)], std::to_string(want))
        << name;
    json_total += static_cast<std::uint64_t>(jv->num());
  }
  const testjson::Value* total = v.find("abort_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(total->num()), json_total);
  EXPECT_EQ(json_total, 71u);

  // Provenance fields are present and non-empty in both formats.
  for (const char* key : {"git_sha", "build_type", "fiber_backend"}) {
    const testjson::Value* jv = v.find(key);
    ASSERT_NE(jv, nullptr) << key;
    EXPECT_TRUE(jv->is_str()) << key;
    const int col = field_index(header, key);
    ASSERT_GE(col, 0) << key;
    EXPECT_FALSE(row[static_cast<std::size_t>(col)].empty()) << key;
  }
}

TEST(Emit, SchemaVersionPresentInBothFormats) {
  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(sample_point());
    testjson::Value v;
    ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
    const testjson::Value* sv = v.find("schema_version");
    ASSERT_NE(sv, nullptr);
    ASSERT_TRUE(sv->is_num());
    EXPECT_EQ(static_cast<unsigned>(sv->num()), telemetry::kStatsSchemaVersion);
    EXPECT_EQ(static_cast<unsigned>(sv->num()), 2u);
  }
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(sample_point());
    auto lines = split_lines(cap.os.str());
    ASSERT_EQ(lines.size(), 2u);
    auto header = split_csv(lines[0]);
    auto row = split_csv(lines[1]);
    const int col = field_index(header, "schema_version");
    ASSERT_GE(col, 0);
    EXPECT_EQ(row[static_cast<std::size_t>(col)], "2");
  }
}

TEST(Emit, LatencyPercentilesRoundTrip) {
  const BenchPoint p = obs_point();

  std::string json_text;
  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(p);
    json_text = cap.os.str();
  }
  testjson::Value v;
  ASSERT_TRUE(testjson::parse(json_text, &v)) << json_text;
  const testjson::Value* lat = v.find("latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("samples")->num()), 2048u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p50_ns")->num()), 400u);
  EXPECT_EQ(static_cast<std::uint64_t>(lat->find("p999_ns")->num()), 6000u);
  const testjson::Value* fast = lat->find("fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(fast->find("p99_ns")->num()), 1200u);
  const testjson::Value* fb = lat->find("fallback");
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(fb->find("max_ns")->num()), 21000u);

  std::string csv_text;
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(p);
    csv_text = cap.os.str();
  }
  auto lines = split_lines(csv_text);
  ASSERT_EQ(lines.size(), 2u);
  auto header = split_csv(lines[0]);
  auto row = split_csv(lines[1]);
  ASSERT_EQ(row.size(), header.size());
  struct {
    const char* col;
    std::uint64_t want;
  } cells[] = {
      {"lat_samples", 2048},         {"lat_p50_ns", 400},
      {"lat_p90_ns", 700},           {"lat_p99_ns", 1500},
      {"lat_p999_ns", 6000},         {"lat_max_ns", 21000},
      {"lat_fast_p99_ns", 1200},     {"lat_fallback_p50_ns", 2500},
      {"lat_fallback_max_ns", 21000},
  };
  for (const auto& c : cells) {
    const int col = field_index(header, c.col);
    ASSERT_GE(col, 0) << c.col;
    EXPECT_EQ(row[static_cast<std::size_t>(col)], std::to_string(c.want))
        << c.col;
  }
}

TEST(Emit, PrefixAbortBucketsRoundTrip) {
  const BenchPoint p = obs_point();
  Capture cap(StatsFormat::kJson);
  telemetry::emit_bench_point(p);
  testjson::Value v;
  ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
  const testjson::Value* pa = v.find("prefix_aborts");
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("conflict")->num()), 40u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("spurious")->num()), 9u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("other")->num()), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(pa->find("capacity")->num()), 0u);
  EXPECT_EQ(pa->find("started"), nullptr)
      << "started is not an abort cause and must not emit a bucket";
}

TEST(Emit, PerfFieldsOmittedWhenInvalid) {
  // JSON: no "perf" object at all when counters were unavailable.
  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(sample_point());
    testjson::Value v;
    ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
    EXPECT_EQ(v.find("perf"), nullptr);
  }
  // JSON: present (core counters, no tsx) when valid.
  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(obs_point());
    testjson::Value v;
    ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
    const testjson::Value* perf = v.find("perf");
    ASSERT_NE(perf, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(perf->find("cycles")->num()),
              1000000u);
    EXPECT_EQ(perf->find("tx_start"), nullptr)
        << "tsx fields must be absent when the PMU lacks them";
  }
  // CSV: cells stay EMPTY (not zero) when invalid, and alignment holds.
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(sample_point());
    auto lines = split_lines(cap.os.str());
    auto header = split_csv(lines[0]);
    auto row = split_csv(lines[1]);
    ASSERT_EQ(row.size(), header.size());
    for (const char* name : {"perf_cycles", "perf_llc_misses",
                             "perf_tx_conflict"}) {
      const int col = field_index(header, name);
      ASSERT_GE(col, 0) << name;
      EXPECT_TRUE(row[static_cast<std::size_t>(col)].empty()) << name;
    }
  }
}

TEST(Emit, HostileNamesDoNotShiftV2Columns) {
  Capture cap(StatsFormat::kCsv);
  BenchPoint p = obs_point();
  p.bench = "native,set\n2";
  p.series = "Skip(\"PTO\", v2)";
  telemetry::emit_bench_point(p);
  const std::string text = cap.os.str();
  // The embedded newline is quoted, so the logical row spans two physical
  // lines; split on the header boundary instead.
  const auto nl = text.find('\n');
  ASSERT_NE(nl, std::string::npos);
  auto header = split_csv(text.substr(0, nl));
  std::string row_text = text.substr(nl + 1);
  if (!row_text.empty() && row_text.back() == '\n') row_text.pop_back();
  auto row = split_csv(row_text);
  ASSERT_EQ(row.size(), header.size());
  EXPECT_EQ(row[static_cast<std::size_t>(field_index(header, "bench"))],
            "native,set\n2");
  const int col = field_index(header, "lat_p50_ns");
  ASSERT_GE(col, 0);
  EXPECT_EQ(row[static_cast<std::size_t>(col)], "400");
}

TEST(Emit, ProvenanceTimestampsRoundTrip) {
  BenchPoint p = sample_point();
  p.ts_start = "2026-08-07T12:00:00.000Z";
  p.ts_end = "2026-08-07T12:00:01.500Z";
  p.hostname = "bench-host-1";
  p.intervals = 17;

  {
    Capture cap(StatsFormat::kJson);
    telemetry::emit_bench_point(p);
    testjson::Value v;
    ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
    EXPECT_EQ(v.find("ts_start")->str(), "2026-08-07T12:00:00.000Z");
    EXPECT_EQ(v.find("ts_end")->str(), "2026-08-07T12:00:01.500Z");
    EXPECT_EQ(v.find("hostname")->str(), "bench-host-1");
    EXPECT_EQ(static_cast<std::uint64_t>(v.find("intervals")->num()), 17u);
    // The additions are backward-compatible: schema_version stays 2.
    EXPECT_EQ(static_cast<unsigned>(v.find("schema_version")->num()), 2u);
  }
  {
    Capture cap(StatsFormat::kCsv);
    telemetry::emit_bench_point(p);
    auto lines = split_lines(cap.os.str());
    ASSERT_EQ(lines.size(), 2u);
    auto header = split_csv(lines[0]);
    auto row = split_csv(lines[1]);
    ASSERT_EQ(row.size(), header.size());
    struct {
      const char* col;
      const char* want;
    } cells[] = {
        {"ts_start", "2026-08-07T12:00:00.000Z"},
        {"ts_end", "2026-08-07T12:00:01.500Z"},
        {"hostname", "bench-host-1"},
        {"intervals", "17"},
    };
    for (const auto& c : cells) {
      const int col = field_index(header, c.col);
      ASSERT_GE(col, 0) << c.col;
      EXPECT_EQ(row[static_cast<std::size_t>(col)], c.want) << c.col;
    }
  }
}

TEST(Emit, ProvenanceDefaultsFilledAtEmitTime) {
  // A point the runner never stamped still emits usable provenance: both
  // timestamps default to "now" and hostname to the machine name.
  BenchPoint p = sample_point();
  p.ts_start.clear();
  p.ts_end.clear();
  Capture cap(StatsFormat::kJson);
  telemetry::emit_bench_point(p);
  testjson::Value v;
  ASSERT_TRUE(testjson::parse(cap.os.str(), &v));
  const std::string ts = v.find("ts_start")->str();
  EXPECT_EQ(ts.size(), 24u) << ts;  // 2026-08-07T12:00:00.000Z
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
  EXPECT_FALSE(v.find("ts_end")->str().empty());
  EXPECT_FALSE(v.find("hostname")->str().empty());
  EXPECT_EQ(static_cast<std::uint64_t>(v.find("intervals")->num()), 0u);
}

}  // namespace
