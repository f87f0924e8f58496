// pto::telemetry — process-wide transaction telemetry registry.
//
// A *site* is a named aggregation point for PrefixStats-shaped counters
// ("bst.insert.pto1", "queue.enqueue", ...). Call sites obtain a site once
// with PTO_TELEMETRY_SITE("name") (a cached intern) and pass it to
// pto::prefix() through a StatsHandle; the native HTM facade (htm/htm.h) and
// the simulator report through the same sites, so native stress runs and
// simx runs share one schema.
//
// Counters are thread-sharded: each thread bumps its own cache-line-padded
// shard (virtual thread id inside a simulation, a thread-local slot on native
// threads), using relaxed atomics, so recording is lock-free and snapshotting
// never blocks writers. Snapshots sum the shards and may observe a record
// mid-flight — exact totals are guaranteed only at quiescence (which is when
// benches and tests read them).
//
// Zero overhead when off: recording is gated on a single relaxed bool that
// defaults to false and is flipped by PTO_STATS / PTO_TRACE / PTO_TELEMETRY /
// PTO_METRICS or telemetry::set_enabled(). Inside the simulator no counter
// update ever charges virtual cycles, so enabling telemetry cannot change a
// simulated result — simx determinism doubles as the zero-overhead proof.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/defs.h"
#include "core/prefix.h"
#include "htm/txcode.h"

namespace pto::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
/// The environment's recording gate, parsed now: PTO_TELEMETRY=1|report,
/// PTO_STATS=json|csv, a PTO_TRACE path or a PTO_METRICS interval.
bool enabled_from_env();
}  // namespace detail

/// True when sites record events. Initialized from enabled_from_env().
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// One thread's slot of a site. Padded so concurrent native threads never
/// false-share.
struct alignas(kCacheLine) SiteShard {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> fallbacks{0};
  std::atomic<std::uint64_t> aborts[kTxCodeCount]{};
};

class Site {
 public:
  explicit Site(std::string name, unsigned id = 0)
      : name_(std::move(name)), id_(id) {}
  ~Site();
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }
  /// Dense registration index (assigned by Registry::intern); used as the
  /// compact site key in flight-recorder records (obs/flight.h).
  unsigned id() const { return id_; }

  // Hot-path recorders; the enabled() gate lives in the site_* free functions
  // so pto::prefix() pays only a null check plus one branch when off.
  void record_attempt() {
    shard().attempts.fetch_add(1, std::memory_order_relaxed);
  }
  void record_commit() {
    shard().commits.fetch_add(1, std::memory_order_relaxed);
  }
  void record_fallback() {
    shard().fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  void record_abort(unsigned cause) {
    shard().aborts[cause < kTxCodeCount ? cause : TX_ABORT_OTHER].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Sum of all shards as a plain PrefixStats.
  PrefixStats snapshot() const;
  void reset();

 private:
  // Shard storage is segmented: the first kShardSeg slots (every slot a
  // <= 64-thread run ever touches) are embedded in the Site, so the common
  // case stays a single indexed access with no extra indirection branch
  // mispredicts; the remaining kMaxThreads - kShardSeg slots live in
  // lazily-allocated segments, so a site costs ~8 KB until a run actually
  // exceeds 64 live threads (eagerly sizing every site for 1024 threads
  // would be ~128 KB per site).
  static constexpr unsigned kShardSeg = 64;
  static constexpr unsigned kShardSegs = kMaxThreads / kShardSeg;

  SiteShard& shard();
  SiteShard& shard_at(unsigned slot);
  /// Cold path: materialize extension segment `seg` (registry.cpp).
  SiteShard* ext_segment(unsigned seg);

  std::string name_;
  unsigned id_;
  SiteShard shards_[kShardSeg];
  std::atomic<SiteShard*> ext_[kShardSegs - 1]{};
};

class Registry {
 public:
  static Registry& instance();

  /// Find-or-create the site named `name`. Pointers are stable for the
  /// process lifetime (sites are never removed).
  Site* intern(std::string_view name);

  /// Stable pointers to every registered site, in registration order.
  std::vector<Site*> sites();

  /// Sum over every site.
  PrefixStats totals();

  /// Zero every shard of every site (tests / between measurement phases).
  void reset_all();

  /// Human-readable per-site table (the PTO_TELEMETRY=report exit dump).
  void report(std::ostream& os);

 private:
  Registry() = default;
  std::mutex mu_;
  std::vector<std::unique_ptr<Site>> sites_;
};

/// Registry::instance().totals(), and its delta against an earlier snapshot.
PrefixStats registry_totals();
PrefixStats registry_delta(const PrefixStats& before);

}  // namespace pto::telemetry

/// Interns a telemetry site once per call site and returns the cached
/// Site*. Usable in any expression context, including template headers.
#define PTO_TELEMETRY_SITE(name)                             \
  ([]() -> ::pto::telemetry::Site* {                         \
    static ::pto::telemetry::Site* const pto_site_ =         \
        ::pto::telemetry::Registry::instance().intern(name); \
    return pto_site_;                                        \
  }())
