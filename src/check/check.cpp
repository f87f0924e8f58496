#include "check/check.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/defs.h"
#include "common/env.h"
#include "htm/txcode.h"
#include "sim/sim.h"
#include "telemetry/registry.h"

namespace pto::check {

namespace detail {
std::atomic<bool> g_on{false};
}  // namespace detail

namespace {

constexpr unsigned kNoTid = 0xFFFFFFFFu;
constexpr unsigned kMaxSpans = 32;
constexpr std::size_t kTxLogCap = 4096;
constexpr std::size_t kPoisonCap = 64;
constexpr unsigned kDefaultMaxFindings = 100;
/// Capacity aborts at one site before a zero-commit site counts as a
/// statically-doomed prefix (a handful of retries is normal; a site that
/// *only* capacity-aborts can never fit the HTM).
constexpr std::uint64_t kCapacityAbortThreshold = 8;

/// Vector clock over virtual threads, sized to the run's thread count when
/// the run begins (on_run_begin / ensure_sync). A fixed kMaxThreads-wide
/// array would be 8 KB per clock at kMaxThreads = 1024, and a clock is
/// allocated per release-history shadow entry — dynamic sizing keeps the
/// checker's footprint proportional to the threads actually running.
struct VClock {
  std::vector<std::uint64_t> c;
};

struct SpanRef {
  const telemetry::Site* site = nullptr;
  bool fallback = false;
};

struct TxRead {
  std::uintptr_t addr;
  std::uint64_t value;
  unsigned size;
};

struct PoisonEntry {
  std::uint64_t value;      ///< the pointer-looking doomed-read value
  unsigned victim_tid;
  unsigned depth;           ///< span depth at doom time (scoping, see below)
  std::string site;         ///< attribution of the doomed transaction
};

struct ReadEntry {
  std::uint64_t clk;
  unsigned tid;
  const telemetry::Site* site;
  bool fallback;
};

struct LastWrite {
  std::uint64_t clk = 0;
  unsigned tid = kNoTid;
  bool plain = false;
  const telemetry::Site* site = nullptr;
  bool fallback = false;
};

struct VarState {
  LastWrite w;
  std::vector<ReadEntry> reads;    ///< plain reads, one slot per thread
  std::unique_ptr<VClock> sync;  ///< release history of this location
  /// Threads with an undrained plain write, one bit per thread (word-array
  /// so tids past 64 don't alias — a single uint64_t indexed by tid & 63
  /// would report missed store-buffer drains as false races).
  std::vector<std::uint64_t> pending_w;
};

bool pending_test(const VarState& vs, unsigned tid) {
  const unsigned w = tid >> 6;
  return w < vs.pending_w.size() &&
         ((vs.pending_w[w] >> (tid & 63)) & 1) != 0;
}

void pending_set(VarState& vs, unsigned tid) {
  const unsigned w = tid >> 6;
  if (w >= vs.pending_w.size()) vs.pending_w.resize(w + 1, 0);
  vs.pending_w[w] |= std::uint64_t{1} << (tid & 63);
}

void pending_clear(VarState& vs, unsigned tid) {
  const unsigned w = tid >> 6;
  if (w < vs.pending_w.size()) {
    vs.pending_w[w] &= ~(std::uint64_t{1} << (tid & 63));
  }
}

struct ThreadState {
  VClock vc;
  std::vector<VarState*> pending;  ///< plainly-written, not yet fenced
  std::vector<TxRead> tx_log;
  bool tx_overflow = false;
  std::vector<PoisonEntry> poison;
  SpanRef spans[kMaxSpans];
  unsigned depth = 0;

  void clear() {
    vc = VClock{};
    pending.clear();
    tx_log.clear();
    tx_overflow = false;
    poison.clear();
    depth = 0;
  }
};

struct SiteCap {
  std::uint64_t commits = 0;
  std::uint64_t capacity_aborts = 0;
  std::size_t max_rset = 0;
  std::size_t max_wset = 0;
};

struct CheckState {
  bool active = false;  ///< inside sim::run with checking enabled
  unsigned nthreads = 0;
  ThreadState threads[kMaxThreads];
  std::unordered_map<std::uintptr_t, VarState> shadow;
  VClock fence_vc;
  Stats st;

  std::vector<Finding> findings;
  std::map<std::tuple<unsigned, std::uint64_t, std::string, std::string>,
           std::size_t>
      index;
  std::map<const telemetry::Site*, SiteCap> site_caps;

  unsigned max_findings = kDefaultMaxFindings;
  bool full_report = false;
  std::string out_path;
  bool report_at_exit = false;

  CheckState() {
    // PTO_CHECK=0|1|on|report: any but 0 arms the checker.
    if (const unsigned mode = env::choice(env::Id::kCheck, 0); mode != 0) {
      full_report = mode == 3;
      detail::g_on.store(true, std::memory_order_relaxed);
      report_at_exit = true;
    }
    out_path = env::text(env::Id::kCheckOut);
    max_findings = static_cast<unsigned>(
        env::integer(env::Id::kCheckMax, max_findings));
  }
};

CheckState& state() {
  static CheckState s;
  return s;
}

const bool g_env_scanned = [] {
  if (state().report_at_exit) {
    std::atexit([] { report_if_enabled(); });
  }
  return true;
}();

void vc_join(VClock& into, const VClock& from, unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    if (from.c[i] > into.c[i]) into.c[i] = from.c[i];
  }
}

/// Did the event at epoch (tid, clk) happen before the observer clock?
bool epoch_hb(unsigned tid, std::uint64_t clk, const VClock& vc) {
  return clk <= vc.c[tid];
}

bool pointer_like(std::uint64_t v) {
  return v != 0 && (v & 7) == 0 && v >= (1u << 16) &&
         v < (std::uint64_t{1} << 48);
}

std::string span_name(const telemetry::Site* site, bool fallback) {
  if (site == nullptr) return "(none)";
  std::string s = site->name();
  if (fallback) s += "/fallback";
  return s;
}

SpanRef cur_span(const ThreadState& t) {
  return t.depth > 0 ? t.spans[t.depth - 1] : SpanRef{};
}

std::string cur_site_name(const ThreadState& t) {
  SpanRef s = cur_span(t);
  return span_name(s.site, s.fallback);
}

void add_finding(CheckState& S, FindingKind kind, std::uintptr_t addr,
                 unsigned tid_a, unsigned tid_b, std::string site_a,
                 std::string site_b) {
  // Races dedup per (site pair, line) — unsited code would otherwise fold
  // every raced address into one finding. Doomed-value findings dedup per
  // site pair only: one leaky fallback touches many nodes.
  const bool is_race = kind == FindingKind::kRaceWriteWrite ||
                       kind == FindingKind::kRaceReadWrite ||
                       kind == FindingKind::kRaceWriteRead;
  auto key = std::make_tuple(static_cast<unsigned>(kind),
                             is_race ? std::uint64_t{addr / kCacheLine} : 0,
                             site_a, site_b);
  auto it = S.index.find(key);
  if (it != S.index.end()) {
    ++S.findings[it->second].count;
    return;
  }
  if (S.findings.size() >= S.max_findings) {
    ++S.st.findings_dropped;
    return;
  }
  Finding f;
  f.kind = kind;
  f.addr = addr;
  f.line = addr / kCacheLine;
  f.tid_a = tid_a;
  f.tid_b = tid_b;
  f.site_a = std::move(site_a);
  f.site_b = std::move(site_b);
  f.count = 1;
  S.index.emplace(std::move(key), S.findings.size());
  S.findings.push_back(std::move(f));
}

VarState& var_of(CheckState& S, std::uintptr_t a) { return S.shadow[a]; }

void ensure_sync(CheckState& S, VarState& vs) {
  if (!vs.sync) vs.sync = std::make_unique<VClock>();
  if (vs.sync->c.size() < S.nthreads) vs.sync->c.resize(S.nthreads, 0);
}

/// Fence semantics of the modeled machine: the thread's plainly-written
/// locations become acquirable (store-buffer drain).
void drain_pending(CheckState& S, ThreadState& t, unsigned tid) {
  for (VarState* vs : t.pending) {
    ensure_sync(S, *vs);
    vc_join(*vs->sync, t.vc, S.nthreads);
    pending_clear(*vs, tid);
  }
  t.pending.clear();
}

void record_read(VarState& vs, unsigned tid, std::uint64_t clk, SpanRef span) {
  for (ReadEntry& r : vs.reads) {
    if (r.tid == tid) {
      r.clk = clk;
      r.site = span.site;
      r.fallback = span.fallback;
      return;
    }
  }
  vs.reads.push_back(ReadEntry{clk, tid, span.site, span.fallback});
}

/// Doomed-value checks on an access: the address matching a poisoned value's
/// cache line is a stale-pointer dereference; a store *of* a poisoned value
/// publishes speculative garbage. A load that returns a poisoned value
/// re-validates it (the code re-read the pointer from the structure).
void check_poison(CheckState& S, ThreadState& t, unsigned tid,
                  std::uintptr_t addr, std::uint64_t value, bool is_store) {
  // Lock-free structures tag pointers in their low bits (marks, flags) and
  // pack counters/versions into bits 48..63 (canonical user pointers fit in
  // 48 bits), so values compare modulo both: a load returning B|1 — or B
  // with a bumped packed counter, as in FSetHash's bucket words —
  // re-validates poisoned B, and a store of either publishes poisoned B.
  constexpr std::uint64_t kTagMask = 7 | 0xFFFF000000000000ull;
  for (std::size_t i = 0; i < t.poison.size();) {
    PoisonEntry& p = t.poison[i];
    if (addr / kCacheLine == p.value / kCacheLine) {
      add_finding(S, FindingKind::kDoomedAddressUse, addr, p.victim_tid, tid,
                  p.site, cur_site_name(t));
    }
    const bool same_ptr = ((value ^ p.value) & ~kTagMask) == 0;
    if (is_store && same_ptr) {
      add_finding(S, FindingKind::kDoomedValueStore, addr, p.victim_tid, tid,
                  p.site, cur_site_name(t));
    }
    if (!is_store && same_ptr) {
      ++S.st.revalidated_values;
      t.poison.erase(t.poison.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

const char* kKindNames[] = {
    "race-write-write",  "race-read-write",    "race-write-read",
    "doomed-address-use", "doomed-value-store", "over-capacity",
};

/// The per-site capacity rows ordered by site name, so reports do not depend
/// on where the sites happen to be allocated.
std::vector<std::pair<std::string, const SiteCap*>> caps_by_name(
    const CheckState& S) {
  std::vector<std::pair<std::string, const SiteCap*>> rows;
  for (const auto& [site, cap] : S.site_caps) {
    rows.emplace_back(span_name(site, false), &cap);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

/// Findings synthesized at report time: prefix sites whose transactions only
/// ever capacity-abort (the body can statically never fit the HTM).
std::vector<Finding> capacity_findings(const CheckState& S) {
  std::vector<Finding> out;
  for (const auto& [name, cap] : caps_by_name(S)) {
    if (cap->commits == 0 && cap->capacity_aborts >= kCapacityAbortThreshold) {
      Finding f;
      f.kind = FindingKind::kOverCapacity;
      f.site_a = name;
      f.site_b = f.site_a;
      f.count = cap->capacity_aborts;
      f.addr = 0;
      f.line = cap->max_wset;  // footprint, not an address: wlines at abort
      out.push_back(std::move(f));
    }
  }
  return out;
}

}  // namespace

const char* finding_kind_name(FindingKind k) {
  auto i = static_cast<unsigned>(k);
  return i < sizeof(kKindNames) / sizeof(kKindNames[0]) ? kKindNames[i] : "?";
}

void set_enabled(bool on) {
  detail::g_on.store(on, std::memory_order_relaxed);
}

void reset() {
  CheckState& S = state();
  S.active = false;
  S.nthreads = 0;
  for (auto& t : S.threads) t.clear();
  S.shadow.clear();
  S.fence_vc = VClock{};
  S.st = Stats{};
  S.findings.clear();
  S.index.clear();
  S.site_caps.clear();
}

// ---------------------------------------------------------------------------
// Run lifecycle.
// ---------------------------------------------------------------------------

void on_run_begin(unsigned nthreads) {
  CheckState& S = state();
  S.active = true;
  S.nthreads = nthreads;
  // Addresses recycle across runs (the arena resets between measurement
  // points), so shadow state from a previous run would be garbage. Clear the
  // per-thread pointers into it first.
  for (auto& t : S.threads) t.clear();
  S.shadow.clear();
  S.fence_vc.c.assign(nthreads, 0);
  // Fork point: epochs start at 1 so a first-access epoch is never
  // vacuously happened-before a fresh observer clock.
  for (unsigned i = 0; i < nthreads; ++i) {
    S.threads[i].vc.c.assign(nthreads, 0);
    S.threads[i].vc.c[i] = 1;
  }
}

void on_run_end() { state().active = false; }

// ---------------------------------------------------------------------------
// Memory accesses.
// ---------------------------------------------------------------------------

void on_load(unsigned tid, const void* addr, unsigned size,
             std::uint64_t value, unsigned order, bool in_tx) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (PTO_UNLIKELY(!t.poison.empty())) {
    check_poison(S, t, tid, a, value, /*is_store=*/false);
  }
  VarState& vs = var_of(S, a);
  if (in_tx) {
    // Opacity log; HB-wise a transactional read acquires the location (the
    // HTM orders the committed transaction after every write it observed).
    if (t.tx_log.size() < kTxLogCap) {
      t.tx_log.push_back(TxRead{a, value, size});
      ++S.st.tx_reads_logged;
    } else if (!t.tx_overflow) {
      t.tx_overflow = true;
      ++S.st.tx_log_overflows;
    }
    if (vs.sync) vc_join(t.vc, *vs.sync, S.nthreads);
    return;
  }
  // Every load acquires the location's release history: x86-TSO coherence
  // plus dependency ordering — no real load reorders before the store it
  // reads from.
  if (vs.sync) vc_join(t.vc, *vs.sync, S.nthreads);
  if (order == 0) {  // relaxed: plain read, race-checkable
    ++S.st.plain_reads;
    if (vs.w.tid != kNoTid && vs.w.plain && vs.w.tid != tid &&
        !epoch_hb(vs.w.tid, vs.w.clk, t.vc)) {
      add_finding(S, FindingKind::kRaceWriteRead, a, vs.w.tid, tid,
                  span_name(vs.w.site, vs.w.fallback), cur_site_name(t));
    }
    record_read(vs, tid, t.vc.c[tid], cur_span(t));
  } else {
    ++S.st.sync_ops;
  }
}

void on_store(unsigned tid, void* addr, unsigned size, std::uint64_t value,
              unsigned order, bool in_tx) {
  (void)size;
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (PTO_UNLIKELY(!t.poison.empty())) {
    check_poison(S, t, tid, a, value, /*is_store=*/true);
  }
  VarState& vs = var_of(S, a);
  SpanRef span = cur_span(t);
  if (in_tx) {
    // Theorem 2 as an HB rule: an in-tx write is ordered against every
    // conflicting access by the HTM (conflicts doom one side), so it is a
    // release+acquire on the location whatever its nominal order.
    ensure_sync(S, vs);
    vc_join(t.vc, *vs.sync, S.nthreads);
    vc_join(*vs.sync, t.vc, S.nthreads);
    vs.w = LastWrite{t.vc.c[tid], tid, false, span.site, span.fallback};
    ++t.vc.c[tid];
    return;
  }
  if (vs.sync) vc_join(t.vc, *vs.sync, S.nthreads);  // coherence order
  if (order == 0) {  // relaxed: plain write
    ++S.st.plain_writes;
    if (vs.w.tid != kNoTid && vs.w.plain && vs.w.tid != tid &&
        !epoch_hb(vs.w.tid, vs.w.clk, t.vc)) {
      add_finding(S, FindingKind::kRaceWriteWrite, a, vs.w.tid, tid,
                  span_name(vs.w.site, vs.w.fallback), cur_site_name(t));
    }
    for (const ReadEntry& r : vs.reads) {
      if (r.tid != tid && !epoch_hb(r.tid, r.clk, t.vc)) {
        add_finding(S, FindingKind::kRaceReadWrite, a, r.tid, tid,
                    span_name(r.site, r.fallback), cur_site_name(t));
      }
    }
    vs.w = LastWrite{t.vc.c[tid], tid, true, span.site, span.fallback};
    if (!pending_test(vs, tid)) {
      pending_set(vs, tid);
      t.pending.push_back(&vs);
    }
  } else {
    // Ordered store: releases this location immediately (release/seq_cst;
    // the fence half of a seq_cst store additionally drains via on_fence).
    ++S.st.sync_ops;
    ensure_sync(S, vs);
    vc_join(*vs.sync, t.vc, S.nthreads);
    vs.w = LastWrite{t.vc.c[tid], tid, false, span.site, span.fallback};
    ++t.vc.c[tid];
  }
}

void on_rmw(unsigned tid, void* addr, unsigned size, std::uint64_t observed,
            bool wrote, bool in_tx) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  auto a = reinterpret_cast<std::uintptr_t>(addr);
  if (PTO_UNLIKELY(!t.poison.empty())) {
    check_poison(S, t, tid, a, observed, /*is_store=*/false);
  }
  VarState& vs = var_of(S, a);
  SpanRef span = cur_span(t);
  if (in_tx) {
    // In-tx CAS degenerates to load(+store); log the read for opacity.
    if (t.tx_log.size() < kTxLogCap) {
      t.tx_log.push_back(TxRead{a, observed, size});
      ++S.st.tx_reads_logged;
    } else if (!t.tx_overflow) {
      t.tx_overflow = true;
      ++S.st.tx_log_overflows;
    }
    ensure_sync(S, vs);
    vc_join(t.vc, *vs.sync, S.nthreads);
    if (wrote) {
      vc_join(*vs.sync, t.vc, S.nthreads);
      vs.w = LastWrite{t.vc.c[tid], tid, false, span.site, span.fallback};
      ++t.vc.c[tid];
    }
    return;
  }
  // Non-transactional CAS / RMW: a locked instruction is a full barrier on
  // the modeled machine — drain the store buffer, then acquire+release the
  // location.
  ++S.st.sync_ops;
  drain_pending(S, t, tid);
  ensure_sync(S, vs);
  vc_join(t.vc, *vs.sync, S.nthreads);
  if (wrote) {
    vc_join(*vs.sync, t.vc, S.nthreads);
    vs.w = LastWrite{t.vc.c[tid], tid, false, span.site, span.fallback};
  }
  ++t.vc.c[tid];
}

void on_fence(unsigned tid) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  drain_pending(S, t, tid);
  vc_join(t.vc, S.fence_vc, S.nthreads);
  vc_join(S.fence_vc, t.vc, S.nthreads);
  ++t.vc.c[tid];
}

// ---------------------------------------------------------------------------
// Transactions.
// ---------------------------------------------------------------------------

void on_tx_begin(unsigned tid) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  t.tx_log.clear();
  t.tx_overflow = false;
}

void on_tx_commit(unsigned tid) {
  CheckState& S = state();
  if (!S.active) return;
  state().threads[tid].tx_log.clear();
}

void on_tx_doomed(unsigned victim, std::uintptr_t line) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[victim];
  ++S.st.doomed_txs;
  // Called after the undo rollback and before the aggressor's own write
  // lands, so a logged value that differs from memory was invalidated by the
  // rollback (read-your-own-write) or an earlier aggressor; the faulting
  // line covers the conflicting value the aggressor is about to replace.
  std::string site = cur_site_name(t);
  for (const TxRead& r : t.tx_log) {
    if (!pointer_like(r.value)) continue;
    std::uint64_t now_val = 0;
    std::memcpy(&now_val, reinterpret_cast<const void*>(r.addr), r.size);
    const bool invalidated =
        now_val != r.value || r.addr / kCacheLine == line;
    if (!invalidated) continue;
    bool dup = false;
    for (const PoisonEntry& p : t.poison) {
      if (p.value == r.value) {
        dup = true;
        break;
      }
    }
    if (dup || t.poison.size() >= kPoisonCap) continue;
    t.poison.push_back(PoisonEntry{r.value, victim, t.depth, site});
    ++S.st.poisoned_values;
  }
  t.tx_log.clear();
  t.tx_overflow = false;
}

void on_tx_self_abort(unsigned tid, unsigned cause, std::size_t rset,
                      std::size_t wset) {
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[tid];
  // A self-abort (capacity / duration / explicit / spurious) observed a
  // consistent snapshot: no poisoning, just close the log.
  t.tx_log.clear();
  t.tx_overflow = false;
  if (cause == TX_ABORT_CAPACITY) {
    SiteCap& cap = S.site_caps[cur_span(t).site];
    ++cap.capacity_aborts;
    if (rset > cap.max_rset) cap.max_rset = rset;
    if (wset > cap.max_wset) cap.max_wset = wset;
  }
}

void on_op_done(unsigned tid) {
  CheckState& S = state();
  if (!S.active) return;
  // Operation boundary: values read by this operation's doomed attempts are
  // dead — the next operation re-reads everything it needs.
  S.threads[tid].poison.clear();
}

// ---------------------------------------------------------------------------
// Prefix-site spans (attribution; mirrors pto::prof's span stack).
// ---------------------------------------------------------------------------

namespace {

void push_span(const telemetry::Site* site, bool fallback) {
  if (!sim::active()) return;
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[sim::thread_id() % kMaxThreads];
  if (t.depth >= kMaxSpans) return;
  t.spans[t.depth++] = SpanRef{site, fallback};
}

/// Pop the innermost span matching (site, kind), discarding spans above it —
/// attempts abandoned when an abort longjmp'd through their frames.
///
/// `call_done` marks pops that end the whole prefix() call (a fast-path
/// commit or the fallback returning, never a per-attempt abort): poison from
/// attempts doomed inside that call expires there. The hazard window of a
/// doomed read is the prefix call itself — only its retries and its fallback
/// closure can see the attempt's captured locals; once the call returns, the
/// operation re-derives state from the structure, and values that merely
/// *equal* a stale pointer (a thread-local node cache, a re-inserted key)
/// would be false positives.
void pop_span(const telemetry::Site* site, bool fallback, bool call_done) {
  if (!sim::active()) return;
  CheckState& S = state();
  if (!S.active) return;
  ThreadState& t = S.threads[sim::thread_id() % kMaxThreads];
  for (unsigned i = t.depth; i-- > 0;) {
    if (t.spans[i].site == site && t.spans[i].fallback == fallback) {
      t.depth = i;
      break;
    }
  }
  if (call_done && !t.poison.empty()) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < t.poison.size(); ++i) {
      if (t.poison[i].depth <= t.depth) t.poison[kept++] = t.poison[i];
    }
    t.poison.resize(kept);
  }
}

}  // namespace

void on_site_attempt(const telemetry::Site* site) { push_span(site, false); }

void on_site_commit(const telemetry::Site* site) {
  pop_span(site, false, /*call_done=*/true);
  if (!sim::active()) return;
  CheckState& S = state();
  if (!S.active) return;
  auto it = S.site_caps.find(site);
  if (it != S.site_caps.end()) ++it->second.commits;
  else S.site_caps[site].commits = 1;
}

void on_site_abort(const telemetry::Site* site, unsigned cause) {
  (void)cause;
  pop_span(site, false, /*call_done=*/false);
}

void on_site_fallback(const telemetry::Site* site) { push_span(site, true); }

void on_site_fallback_end(const telemetry::Site* site) {
  pop_span(site, true, /*call_done=*/true);
}

// ---------------------------------------------------------------------------
// Findings and reporting.
// ---------------------------------------------------------------------------

std::vector<Finding> findings() {
  CheckState& S = state();
  std::vector<Finding> out = S.findings;
  for (auto& f : capacity_findings(S)) out.push_back(std::move(f));
  return out;
}

std::uint64_t finding_count() { return findings().size(); }

Stats stats() { return state().st; }

void report(std::ostream& os, bool full) {
  CheckState& S = state();
  std::vector<Finding> all = findings();
  os << "== pto check ==\n";
  os << "pto_check: " << all.size() << " findings\n";
  for (const Finding& f : all) {
    os << "  [" << finding_kind_name(f.kind) << "] ";
    if (f.kind == FindingKind::kOverCapacity) {
      os << "site " << f.site_a << ": " << f.count
         << " capacity aborts, 0 commits (wset " << f.line
         << " lines at abort)";
    } else {
      os << "addr 0x" << std::hex << f.addr << std::dec << " line 0x"
         << std::hex << f.line << std::dec << " t" << f.tid_a << " ("
         << f.site_a << ") vs t" << f.tid_b << " (" << f.site_b << ") x"
         << f.count;
    }
    os << "\n";
  }
  if (S.st.findings_dropped != 0) {
    os << "  (+" << S.st.findings_dropped
       << " occurrences dropped beyond PTO_CHECK_MAX)\n";
  }
  if (full) {
    const Stats& st = S.st;
    os << "stats: plain_reads=" << st.plain_reads
       << " plain_writes=" << st.plain_writes << " sync_ops=" << st.sync_ops
       << " tx_reads_logged=" << st.tx_reads_logged
       << " doomed_txs=" << st.doomed_txs
       << " poisoned=" << st.poisoned_values
       << " revalidated=" << st.revalidated_values
       << " tx_log_overflows=" << st.tx_log_overflows << "\n";
    if (!S.site_caps.empty()) {
      os << "capacity table (site commits capacity_aborts max_rset "
            "max_wset):\n";
      for (const auto& [name, cap] : caps_by_name(S)) {
        os << "  " << name << " " << cap->commits << " "
           << cap->capacity_aborts << " " << cap->max_rset << " "
           << cap->max_wset << "\n";
      }
    }
  }
  os.flush();
}

void report_if_enabled() {
  CheckState& S = state();
  if (!on()) return;
  if (!S.out_path.empty()) {
    std::ofstream os(S.out_path, std::ios::trunc);
    if (os) {
      report(os, S.full_report);
      return;
    }
    std::fprintf(stderr, "[pto] warning: cannot open PTO_CHECK_OUT=%s\n",
                 S.out_path.c_str());
  }
  report(std::cerr, S.full_report);
}

}  // namespace pto::check
