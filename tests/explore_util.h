// Shared helpers for seeded / explored tests.
//
//   PTO_TEST_SEED=N      overrides the base seed of every seeded test (each
//                        test derives its per-case seeds from the base, so
//                        one variable steers the whole suite onto a new
//                        deterministic path — the flake-sweep and nightly
//                        jobs rotate it)
//   PTO_EXPLORE_SEEDS=N  how many explored schedules per (structure, policy)
//                        sweep (default 4; CI smoke uses 8, nightly 512)
//   PTO_REPLAY_TOKENS=f  append the replay token of every failing explored
//                        case to file f (nightly uploads it as an artifact)
//
// Every failing seeded case prints its seed and, for explored runs, the
// one-line `PTO_SCHED=...` replay token that reproduces it byte-identically.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/env.h"
#include "explore/explore.h"
#include "sim/sim.h"

namespace pto::testutil {

/// Base seed for a seeded test: the hard-coded default unless PTO_TEST_SEED
/// overrides it.
inline std::uint64_t test_seed(std::uint64_t dflt) {
  return env::integer(env::Id::kTestSeed, dflt);
}

/// Explored schedules per sweep (PTO_EXPLORE_SEEDS, at least 1).
inline unsigned explore_seeds(unsigned dflt = 4) {
  return static_cast<unsigned>(env::integer(env::Id::kExploreSeeds, dflt));
}

/// Record a failing explored case: append its replay token to
/// PTO_REPLAY_TOKENS (when set) and return the human-readable line for the
/// assertion message.
inline std::string note_failure(const explore::Options& xopts,
                                const std::string& what) {
  std::string line = what + "  [replay: " + explore::token(xopts) + "]";
  if (const char* path = env::text(env::Id::kReplayTokens); *path != '\0') {
    if (std::FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "%s\n", line.c_str());
      std::fclose(f);
    }
  }
  return line;
}

/// SCOPED_TRACE payload for a seeded test case: names the seed and how to
/// pin it from the environment.
#define PTO_TRACE_SEED(seed)                                              \
  SCOPED_TRACE(::testing::Message()                                       \
               << "seed=" << (seed)                                       \
               << " (rerun with PTO_TEST_SEED=" << (seed) << ")")

/// SCOPED_TRACE payload for an explored run: the replay token reproduces
/// the schedule (and injected faults) byte-identically.
#define PTO_TRACE_EXPLORE(xopts)                                          \
  SCOPED_TRACE(::testing::Message()                                       \
               << "replay token: " << ::pto::explore::token(xopts))

/// The standard sweep of adversarial policies for an explored test: for
/// seed index i of n, yields pct and rand options (both with HTM fault
/// injection when `fault_rate` > 0).
inline std::vector<explore::Options> sweep_policies(std::uint64_t base_seed,
                                                    unsigned nseeds,
                                                    double fault_rate = 0.0) {
  std::vector<explore::Options> all;
  for (unsigned i = 0; i < nseeds; ++i) {
    std::uint64_t s = explore::derive_seed(base_seed, i);
    for (auto pol : {explore::Policy::kPCT, explore::Policy::kRandom}) {
      explore::Options o;
      o.policy = pol;
      o.seed = s;
      if (fault_rate > 0.0) {
        o.fault_seed = explore::derive_seed(s, 0xFA17ull);
        o.fault_rate = fault_rate;
      }
      all.push_back(o);
    }
  }
  return all;
}

}  // namespace pto::testutil
