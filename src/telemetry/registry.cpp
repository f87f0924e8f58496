#include "telemetry/registry.h"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <ostream>

#include "check/check.h"
#include "common/env.h"
#include "common/warn.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "sim/sim.h"
#include "telemetry/prof.h"

namespace pto::telemetry {

namespace detail {

bool enabled_from_env() {
  using env::Id;
  // PTO_METRICS counts too: the interval stream samples these counters, and
  // static-init order across translation units means metrics::configure()
  // cannot reliably flip the gate before this initializer runs.
  return env::choice(Id::kTelemetry, 0) != 0 ||   // 0|1|report
         env::choice(Id::kStats, 2) != 2 ||       // json|csv, 2 = off
         *env::text(Id::kTrace) != '\0' ||
         env::integer(Id::kMetrics, 0) != 0;
}

std::atomic<bool> g_enabled{enabled_from_env()};

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Site::~Site() {
  for (auto& e : ext_) delete[] e.load(std::memory_order_relaxed);
}

SiteShard* Site::ext_segment(unsigned seg) {
  SiteShard* p = ext_[seg].load(std::memory_order_acquire);
  if (p != nullptr) return p;
  // Cold path, taken at most kShardSegs - 1 times per site over the process
  // lifetime; one process-wide mutex is plenty.
  static std::mutex mu;
  std::lock_guard<std::mutex> lk(mu);
  p = ext_[seg].load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new SiteShard[kShardSeg];
    ext_[seg].store(p, std::memory_order_release);
  }
  return p;
}

SiteShard& Site::shard_at(unsigned slot) {
  if (PTO_LIKELY(slot < kShardSeg)) return shards_[slot];
  return ext_segment(slot / kShardSeg - 1)[slot % kShardSeg];
}

SiteShard& Site::shard() {
  // Virtual threads within a simulation map to their thread id (they all run
  // on one host thread, so the slots are exclusive). Native threads get a
  // slot from a process-wide counter; past kMaxThreads live threads slots
  // are reused, which stays correct because shards are atomic — but warn
  // once, because aliased shards make per-thread attribution lie silently.
  if (sim::active()) return shard_at(sim::thread_id());
  static std::atomic<unsigned> next_slot{0};
  thread_local unsigned slot = [] {
    unsigned raw = next_slot.fetch_add(1, std::memory_order_relaxed);
    if (PTO_UNLIKELY(raw >= kMaxThreads)) {
      warn_once("registry.slot_overflow",
                "more than %u live threads; telemetry shard slots are being "
                "reused (counters stay correct, per-thread attribution "
                "aliases)",
                kMaxThreads);
    }
    return raw % kMaxThreads;
  }();
  return shard_at(slot);
}

namespace {
void accumulate_shard(PrefixStats& s, const SiteShard& sh) {
  s.attempts += sh.attempts.load(std::memory_order_relaxed);
  s.commits += sh.commits.load(std::memory_order_relaxed);
  s.fallbacks += sh.fallbacks.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < kTxCodeCount; ++i) {
    s.aborts[i] += sh.aborts[i].load(std::memory_order_relaxed);
  }
}

void zero_shard(SiteShard& sh) {
  sh.attempts.store(0, std::memory_order_relaxed);
  sh.commits.store(0, std::memory_order_relaxed);
  sh.fallbacks.store(0, std::memory_order_relaxed);
  for (unsigned i = 0; i < kTxCodeCount; ++i) {
    sh.aborts[i].store(0, std::memory_order_relaxed);
  }
}
}  // namespace

PrefixStats Site::snapshot() const {
  PrefixStats s;
  for (const SiteShard& sh : shards_) accumulate_shard(s, sh);
  for (const auto& e : ext_) {
    if (const SiteShard* seg = e.load(std::memory_order_acquire)) {
      for (unsigned i = 0; i < kShardSeg; ++i) accumulate_shard(s, seg[i]);
    }
  }
  return s;
}

void Site::reset() {
  for (SiteShard& sh : shards_) zero_shard(sh);
  for (auto& e : ext_) {
    if (SiteShard* seg = e.load(std::memory_order_acquire)) {
      for (unsigned i = 0; i < kShardSeg; ++i) zero_shard(seg[i]);
    }
  }
}

Registry& Registry::instance() {
  static Registry* r = [] {
    auto* reg = new Registry();
    if (env::choice(env::Id::kTelemetry, 0) == 2) {  // PTO_TELEMETRY=report
      detail::g_enabled.store(true, std::memory_order_relaxed);
      std::atexit([] { Registry::instance().report(std::cerr); });
    }
    return reg;
  }();
  return *r;
}

Site* Registry::intern(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sites_) {
    if (s->name() == name) return s.get();
  }
  const unsigned id = static_cast<unsigned>(sites_.size());
  sites_.push_back(std::make_unique<Site>(std::string(name), id));
  // Publish the name into the flight recorder's lock-free table so a
  // fatal-signal dump can label records without touching mu_.
  obs::flight_register_site(id, sites_.back()->name().c_str());
  return sites_.back().get();
}

std::vector<Site*> Registry::sites() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Site*> out;
  out.reserve(sites_.size());
  for (const auto& s : sites_) out.push_back(s.get());
  return out;
}

PrefixStats Registry::totals() {
  PrefixStats t;
  for (Site* s : sites()) t.accumulate(s->snapshot());
  return t;
}

void Registry::reset_all() {
  for (Site* s : sites()) s->reset();
}

void Registry::report(std::ostream& os) {
  os << "== pto telemetry ==\n";
  os << std::left << std::setw(24) << "site" << std::right << std::setw(12)
     << "attempts" << std::setw(12) << "commits" << std::setw(12)
     << "fallbacks";
  for (unsigned c = 1; c < kTxCodeCount; ++c) {
    os << std::setw(10) << tx_code_name(c);
  }
  os << "\n";
  for (Site* s : sites()) {
    PrefixStats st = s->snapshot();
    // The native facade sites record only commits and aborts (attempts can't
    // be counted inside a speculative region), so filter on every counter.
    if (st.attempts == 0 && st.commits == 0 && st.fallbacks == 0 &&
        st.total_aborts() == 0) {
      continue;
    }
    os << std::left << std::setw(24) << s->name() << std::right
       << std::setw(12) << st.attempts << std::setw(12) << st.commits
       << std::setw(12) << st.fallbacks;
    for (unsigned c = 1; c < kTxCodeCount; ++c) {
      os << std::setw(10) << st.aborts[c];
    }
    os << "\n";
  }
  os.flush();
}

PrefixStats registry_totals() { return Registry::instance().totals(); }

PrefixStats registry_delta(const PrefixStats& before) {
  PrefixStats now = registry_totals();
  PrefixStats d;
  d.attempts = now.attempts - before.attempts;
  d.commits = now.commits - before.commits;
  d.fallbacks = now.fallbacks - before.fallbacks;
  for (unsigned i = 0; i < kTxCodeCount; ++i) {
    d.aborts[i] = now.aborts[i] - before.aborts[i];
  }
  return d;
}

// Hooks referenced from core/prefix.h (declared there to avoid an include
// cycle). Each is a no-op unless telemetry is enabled. The profiler
// (telemetry/prof.h) taps the same stream under its own independent gate so
// PTO_PROF works without PTO_TELEMETRY.

namespace {
/// Flight-recorder tap. Native-only by contract: simulated runs already have
/// PTO_TRACE with virtual-time fidelity, so PTO_FLIGHT is ignored there.
inline void flight(Site* site, unsigned char event, std::uint32_t arg = 0) {
  if (sim::active()) return;
  obs::flight_record(
      static_cast<std::uint16_t>(site->id() < 0xffffu ? site->id() : 0xffffu),
      event, arg);
}
}  // namespace

void site_attempt(Site* site) {
  if (enabled()) site->record_attempt();
  if (PTO_UNLIKELY(obs::flight_on())) flight(site, obs::kFlightAttempt);
  if (PTO_UNLIKELY(prof::on())) prof::on_site_attempt(site);
  if (PTO_UNLIKELY(check::on())) check::on_site_attempt(site);
}
void site_commit(Site* site) {
  if (enabled()) site->record_commit();
  if (PTO_UNLIKELY(obs::flight_on())) flight(site, obs::kFlightCommit);
  if (PTO_UNLIKELY(prof::on())) prof::on_site_commit(site);
  if (PTO_UNLIKELY(check::on())) check::on_site_commit(site);
}
void site_abort(Site* site, unsigned cause) {
  if (enabled()) site->record_abort(cause);
  if (PTO_UNLIKELY(obs::flight_on())) flight(site, obs::kFlightAbort, cause);
  if (PTO_UNLIKELY(prof::on())) prof::on_site_abort(site, cause);
  if (PTO_UNLIKELY(check::on())) check::on_site_abort(site, cause);
}
void site_fallback(Site* site) {
  if (enabled()) site->record_fallback();
  if (PTO_UNLIKELY(obs::hist_on())) obs::note_fallback();
  if (PTO_UNLIKELY(obs::flight_on())) flight(site, obs::kFlightFallback);
  if (PTO_UNLIKELY(prof::on())) prof::on_site_fallback(site);
  if (PTO_UNLIKELY(check::on())) check::on_site_fallback(site);
}
void site_fallback_end(Site* site) {
  if (PTO_UNLIKELY(prof::on())) prof::on_site_fallback_end(site);
  if (PTO_UNLIKELY(check::on())) check::on_site_fallback_end(site);
}

}  // namespace pto::telemetry
