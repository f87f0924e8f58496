// Including this header registers a gtest environment that turns telemetry
// on for the whole test binary and, after the last test, fails if any
// registered site counted a TX_ABORT_CAPACITY abort under SoftHTM: no
// shipped prefix site may overflow SoftHTM's bounded read/write sets
// (softhtm::kMaxReads / kMaxWrites) on the workloads these suites run.
#pragma once

#include <gtest/gtest.h>

#include "htm/htm.h"
#include "htm/txcode.h"
#include "telemetry/registry.h"

namespace pto_test {

class NoCapacityAborts : public ::testing::Environment {
 public:
  void SetUp() override { pto::telemetry::set_enabled(true); }
  void TearDown() override {
    if (pto::htm::backend() != pto::htm::Backend::kSoft) return;
    for (pto::telemetry::Site* s :
         pto::telemetry::Registry::instance().sites()) {
      EXPECT_EQ(s->snapshot().aborts[pto::TX_ABORT_CAPACITY], 0u)
          << "capacity aborts at site " << s->name();
    }
  }
};

inline ::testing::Environment* const kNoCapacityAborts =
    ::testing::AddGlobalTestEnvironment(new NoCapacityAborts);

}  // namespace pto_test
