// telemetry_smoke — run one small bench point through the runner with JSON
// stats emission and validate that the record parses and carries the full
// schema (throughput, aborts by every cause, fallback fraction, cycle share).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "benchutil/runner.h"
#include "core/prefix.h"
#include "json_util.h"
#include "platform/sim_platform.h"
#include "sim/sim.h"
#include "telemetry/emit.h"
#include "telemetry/registry.h"

namespace {

using pto::SimPlatform;
using pto::StatsHandle;
namespace sim = pto::sim;
namespace tel = pto::telemetry;
namespace bench = pto::bench;

TEST(TelemetrySmoke, BenchPointEmitsParsableJsonWithRequiredKeys) {
  tel::set_stats_format(tel::StatsFormat::kJson);
  std::ostringstream out;
  tel::set_stats_stream(&out);

  bench::RunnerOptions opts;
  opts.ops_per_thread = 200;
  opts.trials = 1;
  sim::Config cfg;

  auto make_fixture = [](std::uint64_t) {
    auto counter =
        std::make_shared<pto::Atom<SimPlatform, std::uint64_t>>();
    counter->init(0);
    return bench::TrialBody(
        [counter](unsigned, std::uint64_t ops) {
          for (std::uint64_t i = 0; i < ops; ++i) {
            pto::prefix<SimPlatform>(
                2,
                [&] {
                  auto v = counter->load(std::memory_order_relaxed);
                  counter->store(v + 1, std::memory_order_relaxed);
                },
                [&] { counter->fetch_add(1, std::memory_order_seq_cst); },
                StatsHandle{PTO_TELEMETRY_SITE("smoke.op")});
            sim::op_done();
          }
        });
  };

  double mean = bench::measure_point(opts, /*threads=*/2, cfg, make_fixture,
                                     "smoke", "Counter(PTO)");
  tel::set_stats_stream(nullptr);
  tel::set_stats_format(tel::StatsFormat::kOff);
  EXPECT_GT(mean, 0.0);

  // Exactly one record, one line.
  std::string text = out.str();
  ASSERT_FALSE(text.empty()) << "no record emitted";
  ASSERT_EQ(text.find('\n'), text.size() - 1) << "expected one line:\n"
                                              << text;

  testjson::Value rec;
  ASSERT_TRUE(testjson::parse(text, &rec)) << "record is not valid JSON:\n"
                                           << text;
  ASSERT_TRUE(rec.is_object());

  for (const char* key :
       {"type", "bench", "series", "threads", "trials", "ops", "ops_per_ms",
        "makespan_cycles", "cpu_cycles", "tx_started", "tx_commits",
        "tx_cycles", "tx_cycle_share", "aborts", "abort_total", "fences",
        "fences_elided", "allocs", "frees", "prefix_attempts",
        "prefix_commits", "prefix_fallbacks", "fallback_fraction"}) {
    EXPECT_NE(rec.find(key), nullptr) << "missing key " << key;
  }

  EXPECT_EQ(rec.find("type")->str(), "bench_point");
  EXPECT_EQ(rec.find("bench")->str(), "smoke");
  EXPECT_EQ(rec.find("series")->str(), "Counter(PTO)");
  EXPECT_EQ(rec.find("threads")->num(), 2.0);
  EXPECT_EQ(rec.find("trials")->num(), 1.0);
  EXPECT_EQ(rec.find("ops")->num(), 400.0);  // 2 threads x 200 ops
  EXPECT_GT(rec.find("ops_per_ms")->num(), 0.0);

  // Aborts must be broken out by every cause the codebase knows about.
  const testjson::Value* aborts = rec.find("aborts");
  ASSERT_TRUE(aborts->is_object());
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    EXPECT_NE(aborts->find(pto::tx_code_name(c)), nullptr)
        << "missing abort cause " << pto::tx_code_name(c);
  }

  // Every op went through the instrumented prefix exactly once.
  const double commits = rec.find("prefix_commits")->num();
  const double fallbacks = rec.find("prefix_fallbacks")->num();
  EXPECT_EQ(commits + fallbacks, 400.0);
  const double frac = rec.find("fallback_fraction")->num();
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  const double share = rec.find("tx_cycle_share")->num();
  EXPECT_GE(share, 0.0);
  EXPECT_LE(share, 1.0);
}

TEST(TelemetrySmoke, CsvEmitsHeaderOnceAndMatchingColumns) {
  tel::set_stats_format(tel::StatsFormat::kCsv);
  std::ostringstream out;
  tel::set_stats_stream(&out);

  tel::BenchPoint p;
  p.bench = "smoke";
  p.series = "s";
  p.threads = 1;
  p.trials = 1;
  tel::emit_bench_point(p);
  tel::emit_bench_point(p);
  tel::set_stats_stream(nullptr);
  tel::set_stats_format(tel::StatsFormat::kOff);

  std::istringstream lines(out.str());
  std::string header, row1, row2, extra;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row1));
  ASSERT_TRUE(std::getline(lines, row2));
  EXPECT_FALSE(std::getline(lines, extra)) << "header re-emitted";

  auto cols = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_NE(header.find("fallback_fraction"), std::string::npos);
  for (unsigned c = 0; c < pto::kTxCodeCount; ++c) {
    EXPECT_NE(header.find(std::string("aborts_") + pto::tx_code_name(c)),
              std::string::npos);
  }
  EXPECT_EQ(cols(header), cols(row1));
  EXPECT_EQ(cols(header), cols(row2));
}

}  // namespace
