#include "telemetry/prof.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/defs.h"
#include "common/env.h"
#include "common/json.h"
#include "common/warn.h"
#include "sim/sim.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace pto::telemetry::prof {

namespace detail {
std::atomic<bool> g_on{false};
}  // namespace detail

namespace {

constexpr unsigned kMaxSpans = 32;
constexpr unsigned kDefaultTopN = 10;

const char* kClassNames[kClassCount] = {
    "load",  "store",       "sync",  "fence", "alloc",
    "tx_overhead", "pause", "bench", "other"};

/// One open prefix attempt or fallback execution on a virtual thread.
struct Span {
  const Site* site = nullptr;
  bool fallback = false;
  std::uint64_t start = 0;  ///< thread virtual clock at push
  std::uint64_t classed[kClassCount] = {};
  std::uint64_t fence_elided_count = 0;
  std::uint64_t fence_elided_cycles = 0;
  std::uint64_t cas_collapsed_cycles = 0;
  void open(const Site* s, bool fb, std::uint64_t now) {
    *this = Span{};
    site = s;
    fallback = fb;
    start = now;
  }
};

/// Per-virtual-thread profiling state. The simulator multiplexes all virtual
/// threads onto one host thread, so no synchronization is needed.
struct ThreadProf {
  Span stack[kMaxSpans];
  unsigned depth = 0;
  /// Identity of the thread's live transaction for conflict attribution:
  /// the attempt span that was on top at the outermost tx_begin (the span
  /// whose site will record the CONFLICT abort after the longjmp).
  const Site* tx_site = nullptr;
  /// Non-zero while inside do_alloc/do_dealloc: nested charges (the shared
  /// refill RMW) class as allocation traffic.
  unsigned alloc_depth = 0;

  void clear() {
    depth = 0;
    tx_site = nullptr;
    alloc_depth = 0;
  }
};

struct LedgerData {
  SpanProfile fast;
  SpanProfile fallback;
  std::uint64_t fence_elided_count = 0;
  std::uint64_t fence_elided_cycles = 0;
  std::uint64_t cas_collapsed_cycles = 0;
  std::uint64_t retry_waste_cycles = 0;
  std::uint64_t aborts[kTxCodeCount] = {};
};

struct MatrixEntry {
  const Site* victim;
  const Site* aggressor;
  std::uint64_t count = 0;
  std::uint64_t doomed_cycles = 0;
};

struct LineData {
  std::uint64_t aborts = 0;
  std::uint64_t doomed_cycles = 0;
  /// Victim-site histogram; small, linear scan (first touch keeps order).
  std::vector<std::pair<const Site*, std::uint64_t>> victims;
};

struct ScopeData {
  std::string label;
  /// First-touch order; site count is small, linear find.
  std::vector<std::pair<const Site*, LedgerData>> sites;
  std::vector<MatrixEntry> matrix;
  std::map<std::uint64_t, LineData> lines;  ///< keyed by line index
  std::uint64_t unattributed[kClassCount] = {};

  explicit ScopeData(std::string l) : label(std::move(l)) {}

  LedgerData& ledger(const Site* s) {
    for (auto& e : sites) {
      if (e.first == s) return e.second;
    }
    sites.emplace_back(s, LedgerData{});
    return sites.back().second;
  }
};

struct ProfState {
  std::vector<std::unique_ptr<ScopeData>> scopes;
  ScopeData* cur = nullptr;
  /// Per-virtual-thread profiles, grown on demand (~4 KB each: sizing for
  /// kMaxThreads = 1024 eagerly would be ~4 MB; runs of <= 64 threads never
  /// grow past the initial 64). References into this vector are invalidated
  /// by growth — call ensure_threads() before taking any.
  std::vector<ThreadProf> threads = std::vector<ThreadProf>(64);
  /// Cumulative process-wide counters feeding the perfetto counter tracks.
  std::uint64_t conflicts_total = 0;
  std::uint64_t doomed_total = 0;

  Format fmt = Format::kText;
  std::string out_path;  ///< empty = stderr
  unsigned topn = kDefaultTopN;
  bool report_at_exit = false;

  ProfState() {
    scopes.push_back(std::make_unique<ScopeData>(""));
    cur = scopes.front().get();
    // PTO_PROF=text|json (Format order) arms the profiler; 2 = unset.
    if (const unsigned f = env::choice(env::Id::kProf, 2); f != 2) {
      fmt = static_cast<Format>(f);
      detail::g_on.store(true, std::memory_order_relaxed);
      report_at_exit = true;
    }
    out_path = env::text(env::Id::kProfOut);
    topn = static_cast<unsigned>(env::integer(env::Id::kProfTopn, topn));
  }
};

ProfState& state() {
  static ProfState s;
  return s;
}

// Force the env scan at startup (hooks are gated on g_on, which only the
// ProfState constructor sets) and register the end-of-run report.
const bool g_env_scanned = [] {
  if (state().report_at_exit) {
    std::atexit([] { report_if_enabled(); });
  }
  return true;
}();

/// Grow the per-thread profile vector to cover `tid` (invalidates earlier
/// ThreadProf references; callers take refs only after all growth). Warn
/// once on an out-of-range id instead of silently aliasing a shared slot.
ThreadProf& thread_prof(ProfState& ps, unsigned tid) {
  if (PTO_UNLIKELY(tid >= kMaxThreads)) {
    warn_once("prof.thread_id_overflow",
              "prof thread id %u >= kMaxThreads (%u); profile slots are "
              "being reused",
              tid, kMaxThreads);
    tid %= kMaxThreads;
  }
  if (PTO_UNLIKELY(tid >= ps.threads.size())) {
    ps.threads.resize(tid + 1);
  }
  return ps.threads[tid];
}

ThreadProf& me() { return thread_prof(state(), sim::thread_id()); }

/// Pop the innermost span matching (site, kind), discarding any spans above
/// it — those are attempts abandoned when an abort longjmp'd through their
/// frames. Returns nullptr (stack untouched) when no span matches.
Span* pop_match(ThreadProf& tp, const Site* site, bool fallback) {
  for (unsigned i = tp.depth; i-- > 0;) {
    Span& s = tp.stack[i];
    if (s.site == site && s.fallback == fallback) {
      tp.depth = i;  // storage stays valid until the next push
      return &s;
    }
  }
  return nullptr;
}

void fold(SpanProfile& p, const Span& s) {
  ++p.count;
  for (unsigned c = 0; c < kClassCount; ++c) p.classed[c] += s.classed[c];
}

std::string site_name(const Site* s) {
  return s != nullptr ? s->name() : std::string("(none)");
}

// ---------------------------------------------------------------------------
// Reporting helpers.
// ---------------------------------------------------------------------------

void json_classes(std::ostream& os, const std::uint64_t (&cl)[kClassCount]) {
  os << '{';
  for (unsigned c = 0; c < kClassCount; ++c) {
    os << (c == 0 ? "\"" : ",\"") << kClassNames[c] << "\":" << cl[c];
  }
  os << '}';
}

void report_json(std::ostream& os, const std::vector<ScopeSnapshot>& scopes) {
  os << "{\"type\":\"pto_prof\",\"scopes\":[";
  bool first_scope = true;
  for (const auto& sc : scopes) {
    os << (first_scope ? "" : ",") << "{\"label\":";
    first_scope = false;
    json::put_str(os, sc.label);
    os << ",\"sites\":[";
    for (std::size_t i = 0; i < sc.sites.size(); ++i) {
      const SiteLedger& l = sc.sites[i];
      os << (i == 0 ? "" : ",") << "{\"site\":";
      json::put_str(os, l.site);
      os << ",\"fast_count\":" << l.fast.count << ",\"fast_classes\":";
      json_classes(os, l.fast.classed);
      os << ",\"fallback_count\":" << l.fallback.count
         << ",\"fallback_classes\":";
      json_classes(os, l.fallback.classed);
      os << ",\"fence_elided_count\":" << l.fence_elided_count
         << ",\"fence_elided_cycles\":" << l.fence_elided_cycles
         << ",\"cas_collapsed_cycles\":" << l.cas_collapsed_cycles
         << ",\"retry_waste_cycles\":" << l.retry_waste_cycles
         << ",\"aborts\":{";
      for (unsigned c = 0; c < kTxCodeCount; ++c) {
        os << (c == 0 ? "\"" : ",\"") << tx_code_name(c) << "\":"
           << l.aborts[c];
      }
      SavingsBreakdown sv = derive_savings(l);
      os << "},\"savings\":{\"fence_removed\":";
      json::put_num(os, sv.fence_removed);
      os << ",\"second_read_collapsed\":";
      json::put_num(os, sv.second_read_collapsed);
      os << ",\"store_sync_removed\":";
      json::put_num(os, sv.store_sync_removed);
      os << ",\"alloc_avoided\":";
      json::put_num(os, sv.alloc_avoided);
      os << ",\"other_removed\":";
      json::put_num(os, sv.other_removed);
      os << ",\"tx_overhead\":";
      json::put_num(os, sv.tx_overhead);
      os << ",\"retry_waste\":";
      json::put_num(os, sv.retry_waste);
      os << ",\"explained\":";
      json::put_num(os, sv.explained());
      os << "}}";
    }
    os << "],\"matrix\":[";
    for (std::size_t i = 0; i < sc.matrix.size(); ++i) {
      const ConflictCell& c = sc.matrix[i];
      os << (i == 0 ? "" : ",") << "{\"victim\":";
      json::put_str(os, c.victim);
      os << ",\"aggressor\":";
      json::put_str(os, c.aggressor);
      os << ",\"count\":" << c.count
         << ",\"doomed_cycles\":" << c.doomed_cycles << "}";
    }
    os << "],\"hot_lines\":[";
    for (std::size_t i = 0; i < sc.hot_lines.size(); ++i) {
      const HotLine& h = sc.hot_lines[i];
      os << (i == 0 ? "" : ",") << "{\"line\":" << h.line
         << ",\"region\":" << h.region << ",\"owner\":";
      json::put_str(os, h.owner);
      os << ",\"aborts\":" << h.aborts
         << ",\"doomed_cycles\":" << h.doomed_cycles << "}";
    }
    os << "],\"unattributed\":";
    json_classes(os, sc.unattributed);
    os << "}";
  }
  os << "]}\n";
}

void report_text(std::ostream& os, const std::vector<ScopeSnapshot>& scopes,
                 unsigned topn) {
  os << "== pto prof ==\n";
  for (const auto& sc : scopes) {
    bool empty = sc.sites.empty() && sc.matrix.empty() && sc.hot_lines.empty();
    std::uint64_t unattr = 0;
    for (auto u : sc.unattributed) unattr += u;
    if (empty && unattr == 0) continue;
    os << "-- scope \"" << sc.label << "\" --\n";
    if (!sc.sites.empty()) {
      os << "cycle ledger:\n";
      os << std::left << std::setw(24) << "  site" << std::right
         << std::setw(10) << "commits" << std::setw(12) << "cyc/commit"
         << std::setw(10) << "fallbacks" << std::setw(12) << "cyc/fb"
         << std::setw(12) << "retrywaste" << std::setw(12) << "fence_elide"
         << std::setw(10) << "cas_save" << "\n";
      for (const SiteLedger& l : sc.sites) {
        auto per = [](std::uint64_t tot, std::uint64_t n) {
          return n == 0 ? 0.0
                        : static_cast<double>(tot) / static_cast<double>(n);
        };
        os << "  " << std::left << std::setw(22) << l.site << std::right
           << std::setw(10) << l.fast.count << std::setw(12) << std::fixed
           << std::setprecision(1) << per(l.fast.total(), l.fast.count)
           << std::setw(10) << l.fallback.count << std::setw(12)
           << per(l.fallback.total(), l.fallback.count) << std::setw(12)
           << l.retry_waste_cycles << std::setw(12) << l.fence_elided_cycles
           << std::setw(10) << l.cas_collapsed_cycles << "\n";
        os.unsetf(std::ios::fixed);
        SavingsBreakdown sv = derive_savings(l);
        if (l.fallback.count > 0 && l.fast.count > 0) {
          os << "    savings: fence=" << std::llround(sv.fence_removed)
             << " second_read=" << std::llround(sv.second_read_collapsed)
             << " store_sync=" << std::llround(sv.store_sync_removed)
             << " alloc=" << std::llround(sv.alloc_avoided)
             << " other=" << std::llround(sv.other_removed)
             << " - txov=" << std::llround(sv.tx_overhead)
             << " - retry=" << std::llround(sv.retry_waste)
             << " => explained=" << std::llround(sv.explained()) << "\n";
        }
      }
    }
    if (!sc.matrix.empty()) {
      os << "conflict matrix (victim <- aggressor):\n";
      for (const ConflictCell& c : sc.matrix) {
        os << "  " << std::left << std::setw(22) << c.victim << " <- "
           << std::setw(22) << c.aggressor << std::right << std::setw(8)
           << c.count << " aborts" << std::setw(12) << c.doomed_cycles
           << " doomed cycles\n";
      }
    }
    if (!sc.hot_lines.empty()) {
      os << "hot lines (top " << std::min<std::size_t>(topn,
                                                       sc.hot_lines.size())
         << " of " << sc.hot_lines.size() << "):\n";
      unsigned shown = 0;
      for (const HotLine& h : sc.hot_lines) {
        if (shown++ >= topn) break;
        os << "  line 0x" << std::hex << h.line << std::dec << " region "
           << h.region << " owner " << std::left << std::setw(22) << h.owner
           << std::right << std::setw(8) << h.aborts << " aborts"
           << std::setw(12) << h.doomed_cycles << " doomed cycles\n";
      }
    }
    if (unattr != 0) {
      os << "unattributed cycles:";
      for (unsigned c = 0; c < kClassCount; ++c) {
        if (sc.unattributed[c] != 0) {
          os << " " << kClassNames[c] << "=" << sc.unattributed[c];
        }
      }
      os << "\n";
    }
  }
  os.flush();
}

}  // namespace

const char* cycle_class_name(unsigned cls) {
  return cls < kClassCount ? kClassNames[cls] : "?";
}

void set_enabled(bool on) {
  detail::g_on.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Simulator-side hooks.
// ---------------------------------------------------------------------------

void on_charge(unsigned cls, std::uint64_t cycles) {
  ProfState& ps = state();
  ThreadProf& tp = me();
  if (tp.alloc_depth > 0) cls = kClassAlloc;
  if (cls >= kClassCount) cls = kClassOther;
  if (tp.depth > 0) {
    tp.stack[tp.depth - 1].classed[cls] += cycles;
  } else {
    ps.cur->unattributed[cls] += cycles;
  }
}

void on_fence_elided(std::uint64_t cycles) {
  ThreadProf& tp = me();
  if (tp.depth == 0) return;
  Span& s = tp.stack[tp.depth - 1];
  ++s.fence_elided_count;
  s.fence_elided_cycles += cycles;
}

void on_cas_collapsed(std::uint64_t saved) {
  ThreadProf& tp = me();
  if (tp.depth == 0) return;
  tp.stack[tp.depth - 1].cas_collapsed_cycles += saved;
}

void on_alloc_enter() { ++me().alloc_depth; }

void on_alloc_exit() {
  ThreadProf& tp = me();
  if (tp.alloc_depth > 0) --tp.alloc_depth;
}

void on_tx_begin() {
  ThreadProf& tp = me();
  tp.tx_site = (tp.depth > 0 && !tp.stack[tp.depth - 1].fallback)
                   ? tp.stack[tp.depth - 1].site
                   : nullptr;
}

void on_tx_commit() { me().tx_site = nullptr; }

void on_conflict(unsigned victim, unsigned aggressor, std::uintptr_t line,
                 std::uint64_t doomed_cycles) {
  ProfState& ps = state();
  // Grow for both ids before taking either reference: a resize between the
  // two would invalidate the first.
  thread_prof(ps, victim);
  thread_prof(ps, aggressor);
  ThreadProf& vp = thread_prof(ps, victim);
  ThreadProf& ap = thread_prof(ps, aggressor);
  const Site* vs = vp.tx_site;
  // The aggressor attributes from its innermost open span, attempt or
  // fallback — "fallback of X doomed the fast path of Y" is a real and
  // interesting cell.
  const Site* as = ap.depth > 0 ? ap.stack[ap.depth - 1].site : nullptr;
  vp.tx_site = nullptr;  // the victim's transaction is dead

  MatrixEntry* cell = nullptr;
  for (auto& e : ps.cur->matrix) {
    if (e.victim == vs && e.aggressor == as) {
      cell = &e;
      break;
    }
  }
  if (cell == nullptr) {
    ps.cur->matrix.push_back(MatrixEntry{vs, as, 0, 0});
    cell = &ps.cur->matrix.back();
  }
  ++cell->count;
  cell->doomed_cycles += doomed_cycles;

  LineData& ld = ps.cur->lines[static_cast<std::uint64_t>(line)];
  ++ld.aborts;
  ld.doomed_cycles += doomed_cycles;
  bool found = false;
  for (auto& v : ld.victims) {
    if (v.first == vs) {
      ++v.second;
      found = true;
      break;
    }
  }
  if (!found) ld.victims.emplace_back(vs, 1);

  ++ps.conflicts_total;
  ps.doomed_total += doomed_cycles;
  if (PTO_UNLIKELY(trace_on())) {
    trace_counter(sim::now(), 0, ps.conflicts_total);
    trace_counter(sim::now(), 1, ps.doomed_total);
  }
}

void on_abort_unwind() {
  ThreadProf& tp = me();
  tp.alloc_depth = 0;
  tp.tx_site = nullptr;
}

// ---------------------------------------------------------------------------
// Prefix-side hooks. Spans only exist inside a simulation: the host-side
// prefix calls (fixture setup) immediately fall back and carry no cycles.
// ---------------------------------------------------------------------------

void on_site_attempt(Site* site) {
  if (!sim::active()) return;
  ThreadProf& tp = me();
  if (tp.depth >= kMaxSpans) return;  // beyond-plausible nesting: drop
  tp.stack[tp.depth++].open(site, false, sim::now());
}

void on_site_commit(Site* site) {
  if (!sim::active()) return;
  ThreadProf& tp = me();
  Span* s = pop_match(tp, site, false);
  if (s == nullptr) return;
  LedgerData& l = state().cur->ledger(site);
  fold(l.fast, *s);
  l.fence_elided_count += s->fence_elided_count;
  l.fence_elided_cycles += s->fence_elided_cycles;
  l.cas_collapsed_cycles += s->cas_collapsed_cycles;
}

void on_site_abort(Site* site, unsigned cause) {
  if (!sim::active()) return;
  ThreadProf& tp = me();
  Span* s = pop_match(tp, site, false);
  if (s == nullptr) return;
  LedgerData& l = state().cur->ledger(site);
  ++l.aborts[cause < kTxCodeCount ? cause : TX_ABORT_OTHER];
  // Everything since the attempt opened was thrown away: accesses, the
  // tx_begin charge, and the abort penalty the doom added while the victim
  // was suspended. Classed cycles of the doomed work are deliberately
  // discarded — they never produced anything.
  l.retry_waste_cycles += sim::now() - s->start;
}

void on_site_fallback(Site* site) {
  if (!sim::active()) return;
  ThreadProf& tp = me();
  if (tp.depth >= kMaxSpans) return;
  tp.stack[tp.depth++].open(site, true, sim::now());
}

void on_site_fallback_end(Site* site) {
  if (!sim::active()) return;
  ThreadProf& tp = me();
  Span* s = pop_match(tp, site, true);
  if (s == nullptr) return;
  fold(state().cur->ledger(site).fallback, *s);
}

// ---------------------------------------------------------------------------
// Control, snapshot, reporting.
// ---------------------------------------------------------------------------

void set_scope(std::string_view label) {
  ProfState& ps = state();
  for (auto& s : ps.scopes) {
    if (s->label == label) {
      ps.cur = s.get();
      return;
    }
  }
  ps.scopes.push_back(std::make_unique<ScopeData>(std::string(label)));
  ps.cur = ps.scopes.back().get();
}

void reset() {
  ProfState& ps = state();
  ps.scopes.clear();
  ps.scopes.push_back(std::make_unique<ScopeData>(""));
  ps.cur = ps.scopes.front().get();
  for (auto& t : ps.threads) t.clear();
  ps.conflicts_total = 0;
  ps.doomed_total = 0;
}

SavingsBreakdown derive_savings(const SiteLedger& l) {
  SavingsBreakdown sv;
  sv.retry_waste = static_cast<double>(l.retry_waste_cycles);
  sv.tx_overhead = static_cast<double>(l.fast.classed[kClassTxOverhead]);
  if (l.fast.count == 0 || l.fallback.count == 0) {
    // Without a fallback population there is no baseline profile to diff
    // against; only the paid costs are known.
    return sv;
  }
  const double commits = static_cast<double>(l.fast.count);
  double d[kClassCount];
  for (unsigned c = 0; c < kClassCount; ++c) {
    d[c] = static_cast<double>(l.fallback.classed[c]) /
               static_cast<double>(l.fallback.count) -
           static_cast<double>(l.fast.classed[c]) /
               static_cast<double>(l.fast.count);
  }
  // TxOverhead is excluded from the diffs (the fallback never pays it); it is
  // reported as the absolute cost side instead.
  sv.fence_removed = d[kClassFence] * commits;
  sv.second_read_collapsed = d[kClassLoad] * commits;
  sv.store_sync_removed = (d[kClassStore] + d[kClassSync]) * commits;
  sv.alloc_avoided = d[kClassAlloc] * commits;
  sv.other_removed =
      (d[kClassPause] + d[kClassBench] + d[kClassOther]) * commits;
  return sv;
}

LedgerTotals ledger_totals() {
  ProfState& ps = state();
  LedgerTotals t;
  for (const auto& sc : ps.scopes) {
    for (unsigned c = 0; c < kClassCount; ++c) {
      t.classed[c] += sc->unattributed[c];
    }
    for (const auto& [site, l] : sc->sites) {
      (void)site;
      for (unsigned c = 0; c < kClassCount; ++c) {
        t.classed[c] += l.fast.classed[c] + l.fallback.classed[c];
      }
      t.fast_spans += l.fast.count;
      t.fallback_spans += l.fallback.count;
      t.retry_waste_cycles += l.retry_waste_cycles;
    }
  }
  return t;
}

std::vector<ScopeSnapshot> snapshot() {
  ProfState& ps = state();
  std::vector<ScopeSnapshot> out;
  out.reserve(ps.scopes.size());
  for (const auto& sc : ps.scopes) {
    ScopeSnapshot snap;
    snap.label = sc->label;
    for (const auto& [site, l] : sc->sites) {
      SiteLedger sl;
      sl.site = site_name(site);
      sl.fast = l.fast;
      sl.fallback = l.fallback;
      sl.fence_elided_count = l.fence_elided_count;
      sl.fence_elided_cycles = l.fence_elided_cycles;
      sl.cas_collapsed_cycles = l.cas_collapsed_cycles;
      sl.retry_waste_cycles = l.retry_waste_cycles;
      for (unsigned c = 0; c < kTxCodeCount; ++c) sl.aborts[c] = l.aborts[c];
      snap.sites.push_back(std::move(sl));
    }
    for (const auto& e : sc->matrix) {
      ConflictCell c;
      c.victim = site_name(e.victim);
      c.aggressor = site_name(e.aggressor);
      c.count = e.count;
      c.doomed_cycles = e.doomed_cycles;
      snap.matrix.push_back(std::move(c));
    }
    std::sort(snap.matrix.begin(), snap.matrix.end(),
              [](const ConflictCell& a, const ConflictCell& b) {
                if (a.victim != b.victim) return a.victim < b.victim;
                return a.aggressor < b.aggressor;
              });
    for (const auto& [line, ld] : sc->lines) {
      HotLine h;
      h.line = line;
      h.region = line >> (18 - 6);  // line index -> 256 KB region ordinal
      h.aborts = ld.aborts;
      h.doomed_cycles = ld.doomed_cycles;
      const Site* owner = nullptr;
      std::uint64_t best = 0;
      for (const auto& [vs, n] : ld.victims) {
        if (n > best) {
          best = n;
          owner = vs;
        }
      }
      h.owner = site_name(owner);
      snap.hot_lines.push_back(std::move(h));
    }
    std::sort(snap.hot_lines.begin(), snap.hot_lines.end(),
              [](const HotLine& a, const HotLine& b) {
                if (a.aborts != b.aborts) return a.aborts > b.aborts;
                return a.line < b.line;
              });
    for (unsigned c = 0; c < kClassCount; ++c) {
      snap.unattributed[c] = sc->unattributed[c];
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void report(std::ostream& os, Format f) {
  std::vector<ScopeSnapshot> scopes = snapshot();
  if (f == Format::kJson) {
    report_json(os, scopes);
  } else {
    report_text(os, scopes, state().topn);
  }
}

void report_if_enabled() {
  ProfState& ps = state();
  if (!on()) return;
  if (!ps.out_path.empty()) {
    std::ofstream os(ps.out_path, std::ios::trunc);
    if (os) {
      report(os, ps.fmt);
      return;
    }
    warn_once("env.PTO_PROF_OUT", "cannot open PTO_PROF_OUT=%s",
              ps.out_path.c_str());
  }
  report(std::cerr, ps.fmt);
}

}  // namespace pto::telemetry::prof
