// pto::env — the one PTO_* schema and its typed parsers: a table of
// (kind, input, expected, warns?) cases through each parser, the schema
// rows' own bounds on values that used to slip through, and warn-once.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/env.h"
#include "common/warn.h"
#include "explore_util.h"
#include "htm/htm.h"
#include "telemetry/registry.h"

namespace {

namespace env = pto::env;
using env::Id;
using env::Kind;
using env::Knob;

// Test-only rows; their names are outside the PTO_* namespace on purpose.
constexpr Knob kFlagRow{Id::kCount, "TEST_ENV_FLAG", Kind::kFlag};
constexpr Knob kIntRow{Id::kCount, "TEST_ENV_INT", Kind::kInt, 2, 100};
constexpr Knob kRealRow{Id::kCount, "TEST_ENV_REAL", Kind::kReal, 0.5, 2.0};
constexpr Knob kChoiceRow{Id::kCount, "TEST_ENV_CHOICE", Kind::kChoice, 0, 0,
                          "alpha|beta|gamma"};

struct Case {
  Kind kind;
  const char* input;  ///< nullptr = unset
  double expected;    ///< flag 0/1, integer, real, or choice index
  bool warns;
};

// Defaults: flag 1, int 7, real 1.0, choice 9 (past the list = "none").
constexpr bool kFlagDflt = true;
constexpr std::uint64_t kIntDflt = 7;
constexpr double kRealDflt = 1.0;
constexpr unsigned kChoiceDflt = 9;

const Case kCases[] = {
    // flag: exactly 0|1
    {Kind::kFlag, nullptr, 1, false},
    {Kind::kFlag, "", 1, false},
    {Kind::kFlag, "0", 0, false},
    {Kind::kFlag, "1", 1, false},
    {Kind::kFlag, "2", 1, true},
    {Kind::kFlag, "yes", 1, true},
    {Kind::kFlag, " 0", 1, true},
    {Kind::kFlag, "0 ", 1, true},
    // int in [2, 100]: whole-string decimal
    {Kind::kInt, nullptr, 7, false},
    {Kind::kInt, "", 7, false},
    {Kind::kInt, "2", 2, false},
    {Kind::kInt, "100", 100, false},
    {Kind::kInt, "042", 42, false},
    {Kind::kInt, "1", 7, true},
    {Kind::kInt, "101", 7, true},
    {Kind::kInt, "0", 7, true},
    {Kind::kInt, "12abc", 7, true},
    {Kind::kInt, "abc12", 7, true},
    {Kind::kInt, " 12", 7, true},
    {Kind::kInt, "12 ", 7, true},
    {Kind::kInt, "+12", 7, true},
    {Kind::kInt, "-12", 7, true},
    {Kind::kInt, "1e1", 7, true},
    {Kind::kInt, "99999999999999999999999", 7, true},  // overflows u64
    // real in [0.5, 2.0]
    {Kind::kReal, nullptr, 1.0, false},
    {Kind::kReal, "", 1.0, false},
    {Kind::kReal, "0.5", 0.5, false},
    {Kind::kReal, "2", 2.0, false},
    {Kind::kReal, "1.25", 1.25, false},
    {Kind::kReal, "0.49", 1.0, true},
    {Kind::kReal, "2.01", 1.0, true},
    {Kind::kReal, "1.5x", 1.0, true},
    {Kind::kReal, "x1.5", 1.0, true},
    {Kind::kReal, " 1.5", 1.0, true},
    {Kind::kReal, "nan", 1.0, true},
    {Kind::kReal, "inf", 1.0, true},
    // choice alpha|beta|gamma
    {Kind::kChoice, nullptr, 9, false},
    {Kind::kChoice, "", 9, false},
    {Kind::kChoice, "alpha", 0, false},
    {Kind::kChoice, "beta", 1, false},
    {Kind::kChoice, "gamma", 2, false},
    {Kind::kChoice, "delta", 9, true},
    {Kind::kChoice, "alph", 9, true},
    {Kind::kChoice, "alphabet", 9, true},
    {Kind::kChoice, "alpha|beta", 9, true},
    {Kind::kChoice, "ALPHA", 9, true},
    {Kind::kChoice, " alpha", 9, true},
};

const Knob& row_of(Kind kind) {
  switch (kind) {
    case Kind::kFlag: return kFlagRow;
    case Kind::kInt: return kIntRow;
    case Kind::kReal: return kRealRow;
    default: return kChoiceRow;
  }
}

double parse(Kind kind, const char* input) {
  switch (kind) {
    case Kind::kFlag: return env::flag(kFlagRow, input, kFlagDflt) ? 1 : 0;
    case Kind::kInt:
      return static_cast<double>(env::integer(kIntRow, input, kIntDflt));
    case Kind::kReal: return env::real(kRealRow, input, kRealDflt);
    default: return env::choice(kChoiceRow, input, kChoiceDflt);
  }
}

std::uint64_t warns_of(const Knob& k) {
  return pto::warn_count(("env." + std::string(k.name)).c_str());
}

TEST(EnvParse, CaseTable) {
  ::testing::internal::CaptureStderr();
  for (const Case& c : kCases) {
    SCOPED_TRACE(::testing::Message()
                 << "kind=" << static_cast<int>(c.kind) << " input='"
                 << (c.input != nullptr ? c.input : "<unset>") << "'");
    const std::uint64_t before = warns_of(row_of(c.kind));
    EXPECT_EQ(parse(c.kind, c.input), c.expected);
    EXPECT_EQ(warns_of(row_of(c.kind)) - before, c.warns ? 1u : 0u);
  }
  (void)::testing::internal::GetCapturedStderr();
}

TEST(EnvParse, WarningNamesValueAndForm) {
  const Knob row{Id::kCount, "TEST_ENV_MSG", Kind::kInt, 2, 100};
  ::testing::internal::CaptureStderr();
  (void)env::integer(row, "12abc", kIntDflt);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("TEST_ENV_MSG='12abc'"), std::string::npos) << err;
  EXPECT_NE(err.find("an integer in [2, 100]"), std::string::npos) << err;
  EXPECT_NE(err.find("using the default"), std::string::npos) << err;
}

TEST(EnvParse, SecondBadParseOfSameKnobIsSilent) {
  const Knob row{Id::kCount, "TEST_ENV_ONCE", Kind::kChoice, 0, 0, "on|off"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::choice(row, "maybe", 1), 1u);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("TEST_ENV_ONCE"),
            std::string::npos);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::choice(row, "perhaps", 0), 0u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(pto::warn_count("env.TEST_ENV_ONCE"), 2u);
}

TEST(EnvSchema, OneRowPerKnobInIdOrder) {
  const auto all = env::knobs();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(Id::kCount));
  EXPECT_EQ(all.size(), 49u);
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].id, static_cast<Id>(i));
    EXPECT_EQ(&env::knob(static_cast<Id>(i)), &all[i]);
    EXPECT_EQ(std::string_view(all[i].name).substr(0, 4), "PTO_");
    EXPECT_TRUE(names.insert(all[i].name).second) << all[i].name;
  }
  EXPECT_EQ(names.count("PTO_CHECK_DEBUG"), 0u);
  EXPECT_EQ(names.count("PTO_TELEMETRY_REPORT"), 0u);
}

/// Sets (or unsets) one variable for the scope, restoring it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = env::text(id_of(name)); *old != '\0') old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  static Id id_of(std::string_view name) {
    for (const Knob& k : env::knobs()) {
      if (name == k.name) return k.id;
    }
    ADD_FAILURE() << name << " is not a schema knob";
    return Id::kSched;
  }
  const char* name_;
  std::optional<std::string> old_;
};

// Values the per-module parsers used to accept, checked through the
// schema's own rows.
TEST(EnvRegression, TraceCapRejectsUnitSuffix) {
  const std::uint64_t before = warns_of(env::knob(Id::kTraceCap));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::integer(env::knob(Id::kTraceCap), "10k", 262144), 262144u);
  (void)::testing::internal::GetCapturedStderr();
  EXPECT_EQ(warns_of(env::knob(Id::kTraceCap)) - before, 1u);
}

TEST(EnvRegression, BenchRangeRejectsTrailingJunkAndOne) {
  const std::uint64_t before = warns_of(env::knob(Id::kBenchRange));
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::integer(env::knob(Id::kBenchRange), "12abc", 512), 512u);
  EXPECT_EQ(env::integer(env::knob(Id::kBenchRange), "1", 512), 512u);
  (void)::testing::internal::GetCapturedStderr();
  EXPECT_EQ(warns_of(env::knob(Id::kBenchRange)) - before, 2u);
  EXPECT_EQ(env::integer(env::knob(Id::kBenchRange), "2", 512), 2u);
}

TEST(EnvRegression, ExploreSeedsZeroKeepsTheDefault) {
  ScopedEnv e("PTO_EXPLORE_SEEDS", "0");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(pto::testutil::explore_seeds(4), 4u);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("PTO_EXPLORE_SEEDS='0'"), std::string::npos) << err;
}

TEST(EnvRegression, TelemetryZeroLeavesRecordingOff) {
  ScopedEnv stats("PTO_STATS", nullptr);
  ScopedEnv trace("PTO_TRACE", nullptr);
  ScopedEnv metrics("PTO_METRICS", nullptr);
  {
    ScopedEnv t("PTO_TELEMETRY", "0");
    EXPECT_FALSE(pto::telemetry::detail::enabled_from_env());
  }
  for (const char* on : {"1", "report"}) {
    ScopedEnv t("PTO_TELEMETRY", on);
    EXPECT_TRUE(pto::telemetry::detail::enabled_from_env()) << on;
  }
  ScopedEnv t("PTO_TELEMETRY", nullptr);
  EXPECT_FALSE(pto::telemetry::detail::enabled_from_env());
}

TEST(EnvRegression, UnknownHtmBackendWarns) {
  ScopedEnv e("PTO_HTM", "bogus");
  const std::uint64_t before = pto::warn_count("env.PTO_HTM");
  ::testing::internal::CaptureStderr();
  (void)pto::htm::detail::probe_backend();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(pto::warn_count("env.PTO_HTM") - before, 1u);
  EXPECT_NE(err.find("PTO_HTM='bogus'"), std::string::npos) << err;
}

TEST(EnvRegression, RtmOnBuildWithoutRtmWarns) {
#if defined(PTO_HAVE_RTM)
  GTEST_SKIP() << "this build has RTM support; PTO_HTM=rtm is honoured";
#else
  ScopedEnv e("PTO_HTM", "rtm");
  const std::uint64_t before = pto::warn_count("env.PTO_HTM");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(pto::htm::detail::probe_backend(), pto::htm::Backend::kSoft);
  (void)::testing::internal::GetCapturedStderr();
  EXPECT_EQ(pto::warn_count("env.PTO_HTM") - before, 1u);
#endif
}

}  // namespace
