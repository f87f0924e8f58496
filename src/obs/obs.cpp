#include "obs/obs.h"

#include <bit>
#include <cstdio>
#include <memory>
#include <mutex>

#include "common/env.h"

namespace pto::obs {

namespace detail {

bool g_hist_on = env::flag(env::Id::kObs, false);
// PTO_OBS_SAMPLE=k times 1 in bit_ceil(k) ops: a mask of bit_ceil(k) - 1.
std::uint64_t g_sample_mask =
    std::bit_ceil(env::integer(env::Id::kObsSample, 1)) - 1;
thread_local std::uint64_t tls_op_seq = 0;
thread_local std::uint64_t tls_fallbacks = 0;

}  // namespace detail

void set_hist_on(bool on) { detail::g_hist_on = on; }

namespace {

/// One thread's histograms for one site (fast / fallback split).
struct ThreadSiteHists {
  Histogram fast;
  Histogram fallback;
};

/// Everything obs allocates lives here, under one mutex taken only on cold
/// paths (site intern, first record from a new thread, merge, reset). The
/// hot path touches only the thread-local index below.
struct LatencyState {
  std::mutex mu;
  std::vector<std::unique_ptr<LatencySite>> sites;
  // All (thread, site) histogram blocks ever created, for merge/reset.
  // Never freed: a finished thread's samples must survive until emission.
  std::vector<std::unique_ptr<ThreadSiteHists>> blocks;
  std::vector<unsigned> block_site;  ///< site id per block, parallel array
};

LatencyState& lat_state() {
  static LatencyState* s = new LatencyState();
  return *s;
}

/// Per-thread site-id -> histogram block index (grown on demand).
thread_local std::vector<ThreadSiteHists*> tls_site_hists;

ThreadSiteHists* thread_hists(LatencySite* site) {
  const unsigned id = site->id();
  if (PTO_LIKELY(id < tls_site_hists.size() &&
                 tls_site_hists[id] != nullptr)) {
    return tls_site_hists[id];
  }
  LatencyState& st = lat_state();
  std::lock_guard<std::mutex> lk(st.mu);
  if (id >= tls_site_hists.size()) tls_site_hists.resize(id + 1, nullptr);
  st.blocks.push_back(std::make_unique<ThreadSiteHists>());
  st.block_site.push_back(id);
  tls_site_hists[id] = st.blocks.back().get();
  return tls_site_hists[id];
}

}  // namespace

LatencySite* intern_latency_site(std::string_view name) {
  LatencyState& st = lat_state();
  std::lock_guard<std::mutex> lk(st.mu);
  for (const auto& s : st.sites) {
    if (s->name() == name) return s.get();
  }
  st.sites.push_back(std::make_unique<LatencySite>(
      std::string(name), static_cast<unsigned>(st.sites.size())));
  return st.sites.back().get();
}

void record_latency(LatencySite* site, bool fallback, std::uint64_t ticks) {
  ThreadSiteHists* h = thread_hists(site);
  (fallback ? h->fallback : h->fast).record(ticks);
}

void reset_latency() {
  LatencyState& st = lat_state();
  std::lock_guard<std::mutex> lk(st.mu);
  for (auto& b : st.blocks) {
    b->fast.reset();
    b->fallback.reset();
  }
}

namespace {
HistSummary to_ns(const Histogram& h) {
  HistSummary s = h.summarize();
  s.p50 = ticks_to_ns(s.p50);
  s.p90 = ticks_to_ns(s.p90);
  s.p99 = ticks_to_ns(s.p99);
  s.p999 = ticks_to_ns(s.p999);
  s.max = ticks_to_ns(s.max);
  return s;
}
}  // namespace

RawMerged merged_raw() {
  LatencyState& st = lat_state();
  std::lock_guard<std::mutex> lk(st.mu);
  RawMerged m;
  for (const auto& b : st.blocks) {
    m.fast.merge(b->fast);
    m.fallback.merge(b->fallback);
  }
  m.all.merge(m.fast);
  m.all.merge(m.fallback);
  return m;
}

MergedLatency merged_latency(std::vector<LatencySiteSummary>* out_sites) {
  LatencyState& st = lat_state();
  std::lock_guard<std::mutex> lk(st.mu);
  Histogram all_fast, all_fallback, all;
  std::vector<Histogram> site_fast(st.sites.size());
  std::vector<Histogram> site_fallback(st.sites.size());
  for (std::size_t i = 0; i < st.blocks.size(); ++i) {
    const ThreadSiteHists& b = *st.blocks[i];
    const unsigned id = st.block_site[i];
    site_fast[id].merge(b.fast);
    site_fallback[id].merge(b.fallback);
    all_fast.merge(b.fast);
    all_fallback.merge(b.fallback);
  }
  all.merge(all_fast);
  all.merge(all_fallback);
  if (out_sites != nullptr) {
    out_sites->clear();
    for (std::size_t id = 0; id < st.sites.size(); ++id) {
      if (site_fast[id].total() == 0 && site_fallback[id].total() == 0) {
        continue;
      }
      out_sites->push_back({st.sites[id]->name(), to_ns(site_fast[id]),
                            to_ns(site_fallback[id])});
    }
  }
  return {to_ns(all), to_ns(all_fast), to_ns(all_fallback)};
}

}  // namespace pto::obs
