// The benchmark's own arithmetic: percentiles, medians, span self time, the
// runtime idle fraction and the bases of every ratio the benchmark reports.
// Header-only and free of pto dependencies so selftest.cpp can check each
// function against hand-computed values on every run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]). Reorders `v`. 0 for no samples.
template <class T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Median of a set of trial values (mean of the middle two for an even
/// count). 0 for no values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// num / den, or 0 when nothing was counted (den == 0).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Events per 1,000 operations.
inline double per_kop(std::uint64_t events, std::uint64_t ops) {
  return ratio(1000.0 * static_cast<double>(events), static_cast<double>(ops));
}

/// Share of worker time spent waiting in a parallel section:
/// (makespan * workers - sum of worker busy time) / (makespan * workers).
/// Clamped at 0: worker timestamps are taken inside the section, so their
/// sum can exceed makespan * workers by clock skew only.
inline double idle_frac(double makespan_ns, unsigned workers, double busy_ns) {
  const double cap = makespan_ns * workers;
  return cap > 0 ? std::max(0.0, (cap - busy_ns) / cap) : 0.0;
}

/// max / mean of per-shard op counts: 1 for a perfectly even spread.
inline double imbalance(const std::vector<std::uint64_t>& per_shard) {
  if (per_shard.empty()) return 0.0;
  std::uint64_t sum = 0, mx = 0;
  for (const std::uint64_t n : per_shard) {
    sum += n;
    mx = std::max(mx, n);
  }
  return ratio(static_cast<double>(mx) * static_cast<double>(per_shard.size()),
               static_cast<double>(sum));
}

/// One traced interval. `id` is unique within a run and never 0; `parent` is
/// the id of the span that caused it (0 for a root); spans of one request
/// share `op_id`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op_id = 0;
  std::uint64_t t0 = 0;  ///< start, in ticks
  std::uint64_t t1 = 0;  ///< end, in ticks
  std::uint32_t name = 0;
  std::uint32_t attr = 0;  ///< span-kind specific packed attributes
  std::uint32_t slot = 0;  ///< recording thread (0 = main thread)
};

/// Self time of every span: its duration minus the part of its interval
/// covered by at least one direct child (children on other threads may
/// overlap each other, so their union is subtracted, clipped to the
/// parent). Returned in the order of `spans`.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.t0, s.t1);
    }
  }

  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const std::uint64_t dur = p.t1 > p.t0 ? p.t1 - p.t0 : 0;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, lo = 0, hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.t0);
      b = std::min(b, p.t1);
      if (b <= a) continue;
      if (open && a <= hi) {
        hi = std::max(hi, b);
      } else {
        if (open) covered += hi - lo;
        lo = a;
        hi = b;
        open = true;
      }
    }
    if (open) covered += hi - lo;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

}  // namespace perfbench
