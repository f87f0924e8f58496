// Option parsing, replay tokens, and seed derivation for pto::explore.
#include "explore/explore.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/warn.h"

namespace pto::explore {

namespace {

/// Parse a decimal u64 from [s, end-of-field); returns false on junk.
bool parse_u64(const char* s, const char* end, std::uint64_t& out) {
  if (s == end) return false;
  std::uint64_t v = 0;
  for (; s != end; ++s) {
    if (*s < '0' || *s > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(*s - '0');
  }
  out = v;
  return true;
}

const char* field_end(const char* s) {
  while (*s != '\0' && *s != ':') ++s;
  return s;
}

}  // namespace

bool parse_sched(const char* s, Options& o) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "rr") == 0) {
    o.policy = Policy::kRR;
    return true;
  }
  if (std::strncmp(s, "replay:", 7) == 0 && s[7] != '\0') {
    o.policy = Policy::kReplay;
    o.replay_path = s + 7;
    return true;
  }
  Policy pol;
  const char* rest;
  if (std::strncmp(s, "pct:", 4) == 0) {
    pol = Policy::kPCT;
    rest = s + 4;
  } else if (std::strncmp(s, "rand:", 5) == 0) {
    pol = Policy::kRandom;
    rest = s + 5;
  } else {
    return false;
  }
  Options tmp = o;
  const char* e = field_end(rest);
  if (!parse_u64(rest, e, tmp.seed)) return false;
  if (pol == Policy::kPCT && *e == ':') {
    rest = e + 1;
    e = field_end(rest);
    std::uint64_t d;
    if (!parse_u64(rest, e, d) || d > 64) return false;
    tmp.change_points = static_cast<unsigned>(d);
    if (*e == ':') {
      rest = e + 1;
      e = field_end(rest);
      if (!parse_u64(rest, e, tmp.horizon) || tmp.horizon == 0) return false;
    }
  }
  if (*e != '\0') return false;
  tmp.policy = pol;
  o = tmp;
  return true;
}

bool parse_faults(const char* s, Options& o) {
  if (s == nullptr) return false;
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) return false;
  std::uint64_t seed;
  if (!parse_u64(s, colon, seed)) return false;
  char* end = nullptr;
  double rate = std::strtod(colon + 1, &end);
  if (end == colon + 1 || *end != '\0' || !(rate >= 0.0) || rate > 1.0) {
    return false;
  }
  o.fault_seed = seed;
  o.fault_rate = rate;
  return true;
}

Options resolved(const Options& o) {
  Options r = o;
  if (r.policy == Policy::kEnv) {
    r.policy = Policy::kRR;
    const char* s = env::text(env::Id::kSched);
    if (*s != '\0' && !parse_sched(s, r)) {
      warn_once("env.PTO_SCHED",
                "ignoring invalid PTO_SCHED='%s' (want rr | "
                "pct:<seed>[:d[:k]] | rand:<seed> | replay:<file>); using rr",
                s);
    }
  }
  if (r.fault_rate == 0.0) {
    const char* f = env::text(env::Id::kHtmFaults);
    if (*f != '\0' && !parse_faults(f, r)) {
      warn_once("env.PTO_HTM_FAULTS",
                "ignoring invalid PTO_HTM_FAULTS='%s' (want <seed>:<rate> "
                "with rate in [0,1])",
                f);
    }
  }
  return r;
}

std::string token(const Options& o) {
  char buf[160];
  std::string t;
  switch (o.policy) {
    case Policy::kEnv:
    case Policy::kRR:
      t = "PTO_SCHED=rr";
      break;
    case Policy::kPCT:
      std::snprintf(buf, sizeof buf, "PTO_SCHED=pct:%llu:%u:%llu",
                    static_cast<unsigned long long>(o.seed), o.change_points,
                    static_cast<unsigned long long>(o.horizon));
      t = buf;
      break;
    case Policy::kRandom:
      std::snprintf(buf, sizeof buf, "PTO_SCHED=rand:%llu",
                    static_cast<unsigned long long>(o.seed));
      t = buf;
      break;
    case Policy::kReplay:
      t = "PTO_SCHED=replay:" + o.replay_path;
      break;
  }
  if (o.fault_rate > 0.0) {
    std::snprintf(buf, sizeof buf, " PTO_HTM_FAULTS=%llu:%g",
                  static_cast<unsigned long long>(o.fault_seed), o.fault_rate);
    t += buf;
  }
  return t;
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t salt) {
  // SplitMix64 finalizer over (base, salt): distinct trials get
  // well-separated schedule streams while staying a pure function of the
  // pair, so multi-trial benches remain deterministic.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace pto::explore
