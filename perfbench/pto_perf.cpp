// pto_perf — the measurement program behind perfbench/run.py.
//
//   pto_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <file>] [--source-digest <hex>]
//
// Drives the system only through facades that survive a backend swap:
// service::ShardedKV / Client / Runtime / OpStream for the native key-value
// workloads, sim::run for the simulated one, telemetry::Registry site totals,
// obs::fallbacks_now / now_ticks and gauges::reclaim_backlog for the counts.
// It never reaches into an HTM backend's internals.
//
// A run repeats rounds of trials until --seconds have passed (at least
// kMinRounds rounds), checks every trial for correctness and reports medians
// over trials. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it switches on telemetry and fast/fallback classification,
// records spans at each layer boundary and prints the per-layer metrics.
// The last stdout line is the result object; README.md defines every metric.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/buildinfo.h"
#include "common/gauges.h"
#include "common/rng.h"
#include "ds/bst/ellen_bst.h"
#include "htm/htm.h"
#include "obs/obs.h"
#include "obs/tsc.h"
#include "platform/native_platform.h"
#include "platform/sim_platform.h"
#include "service/loadgen.h"
#include "service/runtime.h"
#include "service/shard.h"
#include "sim/sim.h"
#include "stats.h"
#include "telemetry/registry.h"

namespace {

namespace svc = pto::service;
namespace obs = pto::obs;
using perfbench::median;
using perfbench::per_kop;
using perfbench::ratio;
using perfbench::Span;

constexpr unsigned kMinRounds = 3;
constexpr std::uint64_t kOpSpanEvery = 64;   ///< 1-in-k service.op spans
constexpr std::uint64_t kBacklogEvery = 256; ///< reclaim gauge sample period

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pto_perf: %s\nusage: pto_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] "
               "[--source-digest <hex>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage("bad value for " + flag + ": " + s);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, v);
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--spans") {
      a.spans_out = v;
    } else if (flag == "--source-digest") {
      a.source_digest = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum SpanName : std::uint32_t { kSetup, kSection, kWorker, kOp, kSimRun };
constexpr const char* kSpanNames[] = {"setup", "runtime.section",
                                      "runtime.worker", "service.op",
                                      "sim.run"};

/// In-memory span store: one buffer per recording thread (slot 0 = main
/// thread, slot t+1 = runtime worker t), so recording never synchronizes.
/// Buffers only grow during a run; they are read after the workers quiesce.
class Tracer {
 public:
  explicit Tracer(unsigned slots) : bufs_(slots) {}

  std::uint64_t open(unsigned slot, std::uint32_t name, std::uint64_t parent,
                     std::uint64_t op_id, std::uint64_t t0,
                     std::uint32_t attr = 0) {
    auto& b = bufs_[slot];
    const std::uint64_t id = (std::uint64_t{slot} + 1) << 40 | (b.size() + 1);
    b.push_back({id, parent, op_id, t0, t0, name, attr, slot});
    return id;
  }
  void close(unsigned slot, std::uint64_t id, std::uint64_t t1) {
    bufs_[slot][(id & ((std::uint64_t{1} << 40) - 1)) - 1].t1 = t1;
  }
  std::uint64_t add(unsigned slot, std::uint32_t name, std::uint64_t parent,
                    std::uint64_t op_id, std::uint64_t t0, std::uint64_t t1,
                    std::uint32_t attr = 0) {
    const std::uint64_t id = open(slot, name, parent, op_id, t0, attr);
    close(slot, id, t1);
    return id;
  }
  /// Counts read at a span's boundary, as a JSON object body.
  void note(std::uint64_t id, std::string counts) {
    notes_[id] = std::move(counts);
  }

  std::vector<Span> all() const {
    std::vector<Span> out;
    for (const auto& b : bufs_) out.insert(out.end(), b.begin(), b.end());
    return out;
  }
  const std::unordered_map<std::uint64_t, std::string>& notes() const {
    return notes_;
  }

 private:
  std::vector<std::vector<Span>> bufs_;
  std::unordered_map<std::uint64_t, std::string> notes_;
};

/// service.op attributes: op kind (2 bits), shard (5 bits), fallback (1 bit).
std::uint32_t op_attr(svc::OpKind k, unsigned shard, bool fallback) {
  return static_cast<std::uint32_t>(k) | (shard & 31u) << 2 |
         static_cast<std::uint32_t>(fallback) << 7;
}

// ---------------------------------------------------------------------------
// Counts
// ---------------------------------------------------------------------------

/// Registry site totals split into prefix sites and the native HTM facade's
/// own site ("htm.rtm" / "htm.soft"), which counts every hardware or software
/// transaction whichever backend is active.
struct TxCounts {
  pto::PrefixStats prefix;
  pto::PrefixStats htm;
};

TxCounts tx_counts() {
  TxCounts c;
  for (pto::telemetry::Site* s : pto::telemetry::Registry::instance().sites()) {
    (s->name().rfind("htm.", 0) == 0 ? c.htm : c.prefix)
        .accumulate(s->snapshot());
  }
  return c;
}

pto::PrefixStats minus(const pto::PrefixStats& a, const pto::PrefixStats& b) {
  pto::PrefixStats d;
  d.attempts = a.attempts - b.attempts;
  d.commits = a.commits - b.commits;
  d.fallbacks = a.fallbacks - b.fallbacks;
  for (unsigned i = 0; i < pto::kTxCodeCount; ++i) {
    d.aborts[i] = a.aborts[i] - b.aborts[i];
  }
  return d;
}

TxCounts delta(const TxCounts& before) {
  const TxCounts now = tx_counts();
  return {minus(now.prefix, before.prefix), minus(now.htm, before.htm)};
}

std::string counts_json(const pto::PrefixStats& s) {
  std::string o = "\"attempts\":" + std::to_string(s.attempts) +
                  ",\"commits\":" + std::to_string(s.commits) +
                  ",\"fallbacks\":" + std::to_string(s.fallbacks);
  for (unsigned c = 1; c < pto::kTxCodeCount; ++c) {
    o += ",\"abort_" + std::string(pto::tx_code_name(c)) +
         "\":" + std::to_string(s.aborts[c]);
  }
  return o;
}

std::int64_t backlog_now() {
  return pto::gauges::reclaim_backlog().load(std::memory_order_relaxed);
}

double ticks_to_ns(std::uint64_t ticks) {
  return static_cast<double>(ticks) * 1e9 /
         static_cast<double>(obs::ticks_per_sec());
}

std::uint32_t saturate32(std::uint64_t v) {
  return v > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(v);
}

unsigned allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Hand freed heap pages back to the OS between set-ups, so peak RSS tracks
/// the largest single set-up rather than heap fragmentation across them.
void release_free_memory() { malloc_trim(0); }

/// Switch the repository's own telemetry and fast/fallback classification
/// on or off (only between trials, when no worker runs).
void set_tracing(bool on) {
  pto::telemetry::set_enabled(on);
  obs::set_hist_on(on);
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string provenance;  ///< JSON object body
};

/// One trial's correctness verdict: counts the trial's ops as attempted and,
/// when the check failed, as failed.
void account(Outcome& out, std::uint64_t ops, bool ok, const char* what) {
  out.attempted += ops;
  if (!ok) {
    out.correct = false;
    out.failed += ops;
    std::fprintf(stderr, "pto_perf: correctness check failed: %s\n", what);
  }
}

/// Every per-layer metric, in report order. A workload reports 0 for the
/// metrics of layers that do no work on it (README.md says which apply).
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"service.runtime.idle_frac", "ratio"},
    {"service.shard.imbalance", "ratio"},
    {"service.op_ns.get", "ns"},
    {"service.op_ns.put", "ns"},
    {"service.op_ns.del", "ns"},
    {"service.op_ns.fast", "ns"},
    {"service.op_ns.fallback", "ns"},
    {"core.prefix.commit_ratio", "ratio"},
    {"core.prefix.fallback_op_frac", "ratio"},
    {"core.prefix.aborts_per_kop.conflict", "1/kop"},
    {"core.prefix.aborts_per_kop.explicit", "1/kop"},
    {"core.prefix.aborts_per_kop.capacity", "1/kop"},
    {"core.prefix.aborts_per_kop.other", "1/kop"},
    {"htm.tx_abort_ratio", "ratio"},
    {"htm.commits_per_op", "count/op"},
    {"reclaim.backlog_peak", "count"},
    {"reclaim.backlog_end", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"sim.accesses_per_op", "count/op"},
    {"sim.dispatches_per_op", "count/op"},
    {"sim.fallbacks_per_kop", "1/kop"},
    {"sim.tx_abort_ratio", "ratio"},
    {"sim.tx_cycle_frac", "ratio"},
    {"sim.host_ns_per_access", "ns"},
};

using Measured = std::unordered_map<std::string, double>;

std::vector<Metric> layer_metrics(const Measured& measured) {
  std::vector<Metric> out;
  std::size_t used = 0;
  for (const auto& m : kLayerMetrics) {
    const auto it = measured.find(m.name);
    used += it != measured.end();
    out.push_back({m.name, m.unit, it != measured.end() ? it->second : 0.0});
  }
  if (used != measured.size()) {
    std::fprintf(stderr, "pto_perf: a measured metric is not in kLayerMetrics\n");
    std::exit(3);
  }
  return out;
}

/// core.prefix.* ratios from prefix-site registry deltas over `ops` ops.
void prefix_metrics(Measured& m, const pto::PrefixStats& p, std::uint64_t ops) {
  m["core.prefix.commit_ratio"] =
      ratio(static_cast<double>(p.commits), static_cast<double>(p.attempts));
  m["core.prefix.aborts_per_kop.conflict"] =
      per_kop(p.aborts[pto::TX_ABORT_CONFLICT], ops);
  m["core.prefix.aborts_per_kop.explicit"] =
      per_kop(p.aborts[pto::TX_ABORT_EXPLICIT], ops);
  m["core.prefix.aborts_per_kop.capacity"] =
      per_kop(p.aborts[pto::TX_ABORT_CAPACITY], ops);
  m["core.prefix.aborts_per_kop.other"] =
      per_kop(p.total_aborts() - p.aborts[pto::TX_ABORT_CONFLICT] -
                  p.aborts[pto::TX_ABORT_EXPLICIT] -
                  p.aborts[pto::TX_ABORT_CAPACITY],
              ops);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_outcome(const Outcome& o) {
  std::printf("provenance {%s}\n", o.provenance.c_str());
  if (o.correct) {
    for (const Metric& m : o.metrics) {
      std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string j = "{\"correct\": " + std::string(o.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(o.attempted) +
                  ", \"failed\": " + std::to_string(o.failed) +
                  ", \"metrics\": {";
  if (o.correct) {
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
      const Metric& m = o.metrics[i];
      j += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

/// Per-span-name totals and self time (span minus covered child time), and
/// the spans themselves as a Chrome trace-event file.
void report_spans(const Tracer& tr, const std::string& path,
                  const std::string& provenance) {
  const std::vector<Span> spans = tr.all();
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  struct Agg {
    std::uint64_t n = 0;
    double total_ns = 0, self_ns = 0;
  };
  Agg agg[std::size(kSpanNames)];
  std::uint64_t base = UINT64_MAX;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& g = agg[spans[i].name];
    ++g.n;
    g.total_ns += ticks_to_ns(spans[i].t1 - spans[i].t0);
    g.self_ns += ticks_to_ns(self[i]);
    base = std::min(base, spans[i].t0);
  }
  std::printf("spans: self time = duration - time covered by child spans; "
              "service.op sampled 1 in %llu ops\n",
              static_cast<unsigned long long>(kOpSpanEvery));
  std::printf("  %-16s %10s %14s %14s %12s\n", "span", "count", "total_ms",
              "self_ms", "self_us/span");
  for (std::size_t k = 0; k < std::size(kSpanNames); ++k) {
    if (agg[k].n == 0) continue;
    std::printf("  %-16s %10llu %14.3f %14.3f %12.3f\n", kSpanNames[k],
                static_cast<unsigned long long>(agg[k].n),
                agg[k].total_ns / 1e6, agg[k].self_ns / 1e6,
                agg[k].self_ns / 1e3 / static_cast<double>(agg[k].n));
  }
  if (path.empty()) return;

  std::ofstream f(path);
  f << "{\"otherData\":{" << provenance << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << kSpanNames[s.name]
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.slot
      << ",\"ts\":" << num(ticks_to_ns(s.t0 - base) / 1e3)
      << ",\"dur\":" << num(ticks_to_ns(s.t1 - s.t0) / 1e3)
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"op_id\":" << s.op_id
      << ",\"self_us\":" << num(ticks_to_ns(self[i]) / 1e3);
    if (s.name == kOp) {
      f << ",\"kind\":" << (s.attr & 3u) << ",\"shard\":" << (s.attr >> 2 & 31u)
        << ",\"fallback\":" << (s.attr >> 7 & 1u);
    }
    const auto it = tr.notes().find(s.id);
    if (it != tr.notes().end()) f << "," << it->second;
    f << "}}";
  }
  f << "\n]}\n";
  if (!f) std::fprintf(stderr, "pto_perf: could not write %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Native key-value workloads
// ---------------------------------------------------------------------------

struct KvWorkload {
  svc::Structure structure;
  unsigned shards;
  svc::WorkloadSpec spec;   ///< keyspace, popularity, mix; seed from --seed
  std::uint64_t trial_ops;  ///< ops per timed section, split over workers
};

/// Timed sections per set-up, after one untimed warm-up section: the timed
/// sections start from a used, steady-state structure. Set-ups are repeated
/// rather than sections, because throughput varies more between set-ups
/// (memory placement) than between sections of one set-up.
constexpr unsigned kSectionsPerSetup = 2;

struct alignas(64) WorkerOut {
  std::vector<std::uint32_t> lat;  ///< Client::exec span per op, ticks
  std::uint64_t t0 = 0, t1 = 0;    ///< body start/end, ticks
  std::uint64_t puts_ok = 0, dels_ok = 0;
  // Traced sections only.
  std::uint64_t kind_ticks[3] = {}, kind_n[3] = {};
  std::uint64_t path_ticks[2] = {}, path_n[2] = {};  ///< [fast, fallback]
  std::int64_t backlog_peak = 0;
};

/// One timed section's results (a trial).
struct KvTrial {
  bool ok = false;
  std::uint64_t ops = 0;
  double makespan_ns = 0;
  double busy_ns = 0;  ///< sum over workers of body time
  double p50_ns = 0, p99_ns = 0;
  std::uint64_t lat_samples = 0;
  // Traced sections only.
  std::uint64_t kind_ticks[3] = {}, kind_n[3] = {};
  std::uint64_t path_ticks[2] = {}, path_n[2] = {};
  std::int64_t backlog_peak = 0, backlog_end = 0;
  TxCounts tx;

  double ops_per_s() const { return ops / (makespan_ns * 1e-9); }
};

template <bool kTraced, class KV>
void kv_worker(KV& kv, const std::vector<svc::Op>& ops, WorkerOut& o,
               Tracer* tr, unsigned tid, std::uint64_t section,
               std::uint64_t trial) {
  const unsigned slot = tid + 1;
  o.t0 = obs::now_ticks();
  std::uint64_t wid = 0;
  if constexpr (kTraced) wid = tr->open(slot, kWorker, section, trial, o.t0);
  {
    auto c = kv.make_client();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const svc::Op& op = ops[i];
      if constexpr (kTraced) {
        const std::uint64_t fb0 = obs::fallbacks_now();
        const std::uint64_t a = obs::now_ticks();
        c.exec(op);
        const std::uint64_t b = obs::now_ticks();
        const bool fb = obs::fallbacks_now() != fb0;
        const auto k = static_cast<unsigned>(op.kind);
        o.lat[i] = saturate32(b - a);
        o.kind_ticks[k] += b - a;
        ++o.kind_n[k];
        o.path_ticks[fb] += b - a;
        ++o.path_n[fb];
        if (i % kOpSpanEvery == 0) {
          tr->add(slot, kOp, wid, trial << 32 | std::uint64_t{tid} << 24 | i,
                  a, b, op_attr(op.kind, KV::shard_of(op.key, kv.shards()), fb));
        }
        if (i % kBacklogEvery == 0) {
          o.backlog_peak = std::max(o.backlog_peak, backlog_now());
        }
      } else {
        const std::uint64_t a = obs::now_ticks();
        c.exec(op);
        o.lat[i] = saturate32(obs::now_ticks() - a);
      }
    }
    o.puts_ok = c.puts_ok;
    o.dels_ok = c.dels_ok;
  }
  o.t1 = obs::now_ticks();
  if constexpr (kTraced) tr->close(slot, wid, o.t1);
}

/// One series' set-up (op streams, structure build, prefill of the even
/// keys), on which timed sections then run. Each section is checked: the
/// service size must move by exactly its successful puts minus dels, and
/// every shard's invariants must hold.
template <class A>
class KvFixture {
 public:
  using KV = svc::ShardedKV<pto::NativePlatform, A>;

  KvFixture(const KvWorkload& w, A adapter, svc::Runtime& rt, Tracer* tr,
            std::uint64_t id)
      : rt_(rt), out_(rt.threads()) {
    const unsigned nw = rt.threads();
    const std::uint64_t per_worker = w.trial_ops / nw;
    const std::uint64_t s0 = obs::now_ticks();
    streams_.resize(nw);
    {
      const svc::OpStream os(w.spec);
      for (unsigned t = 0; t < nw; ++t) os.fill(t, per_worker, streams_[t]);
    }
    kv_ = std::make_unique<KV>(w.shards, adapter);
    {
      auto c = kv_->make_client();
      for (std::uint64_t k = 0; k < w.spec.keyspace; k += 2) {
        size_ += c.put(static_cast<std::int64_t>(k));
      }
    }
    const std::uint64_t s1 = obs::now_ticks();
    setup_s = ticks_to_ns(s1 - s0) * 1e-9;
    if (tr != nullptr) tr->add(0, kSetup, 0, id, s0, s1);
    for (WorkerOut& o : out_) o.lat.resize(per_worker);
  }

  template <bool kTraced>
  KvTrial section(Tracer* tr, std::uint64_t trial) {
    for (WorkerOut& o : out_) {
      std::vector<std::uint32_t> lat = std::move(o.lat);
      o = WorkerOut{};
      o.lat = std::move(lat);
    }
    KvTrial r;
    TxCounts before;
    std::uint64_t section = 0;
    if constexpr (kTraced) {
      before = tx_counts();
      section = tr->open(0, kSection, 0, trial, obs::now_ticks());
    }
    r.makespan_ns = static_cast<double>(rt_.run([&](unsigned tid) {
      kv_worker<kTraced>(*kv_, streams_[tid], out_[tid], tr, tid, section,
                         trial);
    }));
    if constexpr (kTraced) {
      tr->close(0, section, obs::now_ticks());
      r.backlog_end = backlog_now();
      r.tx = delta(before);
      tr->note(section, "\"prefix\":{" + counts_json(r.tx.prefix) +
                            "},\"htm\":{" + counts_json(r.tx.htm) +
                            "},\"reclaim_backlog\":" +
                            std::to_string(r.backlog_end));
    }

    std::uint64_t puts = 0, dels = 0;
    std::vector<std::uint32_t> lat;
    for (const WorkerOut& o : out_) {
      puts += o.puts_ok;
      dels += o.dels_ok;
      r.ops += o.lat.size();
      r.busy_ns += ticks_to_ns(o.t1 - o.t0);
      lat.insert(lat.end(), o.lat.begin(), o.lat.end());
      for (unsigned k = 0; k < 3; ++k) {
        r.kind_ticks[k] += o.kind_ticks[k];
        r.kind_n[k] += o.kind_n[k];
      }
      for (unsigned p = 0; p < 2; ++p) {
        r.path_ticks[p] += o.path_ticks[p];
        r.path_n[p] += o.path_n[p];
      }
      r.backlog_peak = std::max(r.backlog_peak, o.backlog_peak);
    }
    r.lat_samples = lat.size();
    r.p50_ns = ticks_to_ns(
        static_cast<std::uint64_t>(perfbench::percentile(lat, 50)));
    r.p99_ns = ticks_to_ns(
        static_cast<std::uint64_t>(perfbench::percentile(lat, 99)));
    // Set semantics: every successful put adds one key and every successful
    // del removes one, whatever the interleaving.
    const std::uint64_t expect = size_ + puts - dels;
    size_ = kv_->size_slow();
    r.ok = size_ == expect && kv_->check_invariants();
    return r;
  }

  double setup_s = 0;

 private:
  svc::Runtime& rt_;
  std::vector<std::vector<svc::Op>> streams_;
  std::unique_ptr<KV> kv_;
  std::uint64_t size_ = 0;
  std::vector<WorkerOut> out_;
};

/// Exact max/mean ops per shard of the measured op streams.
template <class A>
double shard_imbalance(const KvWorkload& w, unsigned nw) {
  std::vector<std::uint64_t> per_shard(w.shards);
  const svc::OpStream os(w.spec);
  std::vector<svc::Op> ops;
  for (unsigned t = 0; t < nw; ++t) {
    ops.clear();
    os.fill(t, w.trial_ops / nw, ops);
    for (const svc::Op& op : ops) {
      ++per_shard[svc::ShardedKV<pto::NativePlatform, A>::shard_of(
          op.key, w.shards)];
    }
  }
  return perfbench::imbalance(per_shard);
}

template <class A>
Outcome run_kv(const Args& a, const std::string& provenance,
               const KvWorkload& w, A pto_adapter, A lf_adapter) {
  const unsigned nw = std::min(4u, allowed_cpus());
  svc::Runtime rt_w({nw, true});
  svc::Runtime rt_1({1, true});
  Outcome out;
  const double deadline_ns = a.seconds * 1e9;
  const std::uint64_t start = obs::now_ticks();
  auto elapsed_ns = [&] { return ticks_to_ns(obs::now_ticks() - start); };

  std::vector<KvTrial> pto, lf, pto1, traced;
  std::vector<double> setup;
  std::uint64_t trial = 0;
  std::unique_ptr<Tracer> tr;
  if (a.trace) tr = std::make_unique<Tracer>(nw + 1);

  std::uint64_t fixture = 0;
  for (unsigned round = 0; round < kMinRounds || elapsed_ns() < deadline_ns;
       ++round) {
    if (!a.trace) {
      // Rotate the series order so no series always runs first in a round.
      for (unsigned i = 0; i < 3; ++i) {
        const unsigned s = (round + i) % 3;
        {
          KvFixture<A> f(w, s == 1 ? lf_adapter : pto_adapter,
                         s == 2 ? rt_1 : rt_w, nullptr, ++fixture);
          setup.push_back(f.setup_s);
          for (unsigned k = 0; k <= kSectionsPerSetup; ++k) {
            const KvTrial t = f.template section<false>(nullptr, ++trial);
            account(out, t.ops, t.ok, s == 0 ? "pto" : s == 1 ? "lf" : "pto-1t");
            if (k == 0) continue;  // warm-up
            (s == 0 ? pto : s == 1 ? lf : pto1).push_back(t);
          }
        }
        release_free_memory();
      }
    } else {
      // After the warm-up, untraced and traced PTO sections alternate on
      // one set-up: their throughput ratio is the cost of tracing.
      {
        KvFixture<A> f(w, pto_adapter, rt_w, tr.get(), ++fixture);
        setup.push_back(f.setup_s);
        for (unsigned k = 0; k <= 2 * kSectionsPerSetup; ++k) {
          const bool on = k > 0 && (round + k) % 2 == 1;
          set_tracing(on);
          const KvTrial t = on ? f.template section<true>(tr.get(), ++trial)
                               : f.template section<false>(nullptr, ++trial);
          set_tracing(false);
          account(out, t.ops, t.ok, on ? "pto-traced" : "pto");
          if (k == 0) continue;  // warm-up
          (on ? traced : pto).push_back(t);
        }
      }
      release_free_memory();
    }
  }

  auto med = [](const std::vector<KvTrial>& ts, double (KvTrial::*f)() const) {
    std::vector<double> v;
    for (const KvTrial& t : ts) v.push_back((t.*f)());
    return median(v);
  };
  auto med_field = [](const std::vector<KvTrial>& ts, double KvTrial::*f) {
    std::vector<double> v;
    for (const KvTrial& t : ts) v.push_back(t.*f);
    return median(v);
  };

  std::uint64_t samples = 0;
  for (const KvTrial& t : pto) samples += t.lat_samples;
  out.provenance =
      provenance + ",\"workers\":" + std::to_string(nw) + ",\"shards\":" +
      std::to_string(w.shards) + ",\"structure\":\"" +
      svc::structure_name(w.structure) + "\",\"dist\":\"" +
      svc::dist_name(w.spec.dist) + "\",\"keyspace\":" +
      std::to_string(w.spec.keyspace) + ",\"ops_per_trial\":" +
      std::to_string(w.trial_ops) + ",\"setups\":" +
      std::to_string(setup.size()) + ",\"trials\":{\"pto\":" +
      std::to_string(pto.size()) + ",\"lf\":" + std::to_string(lf.size()) +
      ",\"pto_1t\":" + std::to_string(pto1.size()) + ",\"pto_traced\":" +
      std::to_string(traced.size()) + "},\"latency_samples\":" +
      std::to_string(samples);

  if (!a.trace) {
    out.metrics = {
        {"ops_per_s", "1/s", med(pto, &KvTrial::ops_per_s)},
        {"lf_ops_per_s", "1/s", med(lf, &KvTrial::ops_per_s)},
        {"ops_per_s_1t", "1/s", med(pto1, &KvTrial::ops_per_s)},
        {"p50_us", "us", med_field(pto, &KvTrial::p50_ns) / 1e3},
        {"p99_us", "us", med_field(pto, &KvTrial::p99_ns) / 1e3},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    return out;
  }

  // Per-layer: sums over the traced sections, so every ratio has the traced
  // ops (or attempts) of the whole run as its base.
  KvTrial s;
  double makespan_ns = 0;
  for (const KvTrial& t : traced) {
    s.ops += t.ops;
    makespan_ns += t.makespan_ns;
    s.busy_ns += t.busy_ns;
    for (unsigned k = 0; k < 3; ++k) {
      s.kind_ticks[k] += t.kind_ticks[k];
      s.kind_n[k] += t.kind_n[k];
    }
    for (unsigned p = 0; p < 2; ++p) {
      s.path_ticks[p] += t.path_ticks[p];
      s.path_n[p] += t.path_n[p];
    }
    s.backlog_peak = std::max(s.backlog_peak, t.backlog_peak);
    s.backlog_end = std::max(s.backlog_end, t.backlog_end);
    s.tx.prefix.accumulate(t.tx.prefix);
    s.tx.htm.accumulate(t.tx.htm);
  }
  auto mean_ns = [](std::uint64_t ticks, std::uint64_t n) {
    return ratio(ticks_to_ns(ticks), static_cast<double>(n));
  };
  const pto::PrefixStats& h = s.tx.htm;
  Measured m = {
      {"service.runtime.idle_frac",
       perfbench::idle_frac(makespan_ns, nw, s.busy_ns)},
      {"service.shard.imbalance", shard_imbalance<A>(w, nw)},
      {"service.op_ns.get", mean_ns(s.kind_ticks[0], s.kind_n[0])},
      {"service.op_ns.put", mean_ns(s.kind_ticks[1], s.kind_n[1])},
      {"service.op_ns.del", mean_ns(s.kind_ticks[2], s.kind_n[2])},
      {"service.op_ns.fast", mean_ns(s.path_ticks[0], s.path_n[0])},
      {"service.op_ns.fallback", mean_ns(s.path_ticks[1], s.path_n[1])},
      {"core.prefix.fallback_op_frac",
       ratio(static_cast<double>(s.path_n[1]), static_cast<double>(s.ops))},
      {"htm.tx_abort_ratio",
       ratio(static_cast<double>(h.total_aborts()),
             static_cast<double>(h.commits + h.total_aborts()))},
      {"htm.commits_per_op",
       ratio(static_cast<double>(h.commits), static_cast<double>(s.ops))},
      {"reclaim.backlog_peak", static_cast<double>(s.backlog_peak)},
      {"reclaim.backlog_end", static_cast<double>(s.backlog_end)},
      {"obs.trace_overhead_frac",
       1.0 - ratio(med(traced, &KvTrial::ops_per_s),
                   med(pto, &KvTrial::ops_per_s))},
  };
  prefix_metrics(m, s.tx.prefix, s.ops);
  out.metrics = layer_metrics(m);
  report_spans(*tr, a.spans_out, out.provenance);
  return out;
}

// ---------------------------------------------------------------------------
// Simulated workload (simx)
// ---------------------------------------------------------------------------

constexpr unsigned kSimThreads = 8;         ///< the paper's 4C/8T machine
constexpr std::int64_t kSimRange = 512;     ///< Fig 3 key range
constexpr unsigned kSimLookupPct = 34;      ///< Fig 3b
constexpr double kCyclesPerUs = 3400.0;     ///< the paper's 3.4 GHz clock

using Bst = pto::EllenBST<pto::SimPlatform>;

struct SimTrial {
  bool ok = false;
  pto::sim::RunResult res;
  std::uint64_t ops = 0;
  double setup_s = 0;
  double host_ns = 0;  ///< host time inside sim::run
  std::vector<std::uint32_t> lat;  ///< per-op virtual cycles, all threads
  std::int64_t backlog_peak = 0, backlog_end = 0;
  TxCounts tx;

  double ops_per_s() const { return res.ops_per_msec() * 1e3; }
  double host_ops_per_s() const { return ops / (host_ns * 1e-9); }
  /// The modelled outcome: equal for equal seeds, or the model is broken.
  bool same_model(const SimTrial& o) const {
    const auto a = res.totals(), b = o.res.totals();
    return res.clocks == o.res.clocks && a.ops_completed == b.ops_completed &&
           a.tx_commits == b.tx_commits && a.total_aborts() == b.total_aborts() &&
           a.loads == b.loads && a.dispatches == b.dispatches && lat == o.lat;
  }
};

SimTrial sim_trial(Bst::Mode mode, unsigned threads, std::uint64_t ops_per_thread,
                   std::uint64_t seed, Tracer* tr, std::uint64_t trial) {
  SimTrial r;
  const std::uint64_t s0 = obs::now_ticks();
  auto set = std::make_unique<Bst>();
  std::uint64_t prefilled = 0;
  {
    auto ctx = set->make_ctx();
    pto::SplitMix64 rng(seed ^ 0xABCDEF);
    for (std::int64_t i = 0; i < kSimRange / 2; ++i) {
      prefilled += set->insert(
          ctx, static_cast<std::int64_t>(rng.next_below(kSimRange)),
          Bst::Mode::kLockfree);
    }
  }
  const std::uint64_t s1 = obs::now_ticks();
  r.setup_s = ticks_to_ns(s1 - s0) * 1e-9;

  std::vector<std::vector<std::uint32_t>> lat(threads);
  std::vector<std::uint64_t> ins(threads), rem(threads);
  std::vector<std::int64_t> backlog(threads);
  for (auto& l : lat) l.resize(ops_per_thread);
  pto::sim::Config cfg;
  cfg.seed = seed;
  TxCounts before;
  if (tr != nullptr) {
    tr->add(0, kSetup, 0, trial, s0, s1);
    before = tx_counts();
  }
  const std::uint64_t h0 = obs::now_ticks();
  r.res = pto::sim::run(threads, cfg, [&](unsigned tid) {
    auto ctx = set->make_ctx();
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
      const auto k = static_cast<std::int64_t>(pto::sim::rnd() % kSimRange);
      const auto c = static_cast<unsigned>(pto::sim::rnd() % 100);
      const std::uint64_t t0 = pto::sim::now();
      if (c < kSimLookupPct) {
        set->contains(ctx, k, mode);
      } else if (c < kSimLookupPct + (100 - kSimLookupPct) / 2) {
        ins[tid] += set->insert(ctx, k, mode);
      } else {
        rem[tid] += set->remove(ctx, k, mode);
      }
      lat[tid][i] = saturate32(pto::sim::now() - t0);
      pto::sim::op_done();
      if (i % kBacklogEvery == 0) {
        backlog[tid] = std::max(backlog[tid], backlog_now());
      }
    }
  });
  const std::uint64_t h1 = obs::now_ticks();
  r.host_ns = ticks_to_ns(h1 - h0);
  r.backlog_end = backlog_now();
  r.ops = r.res.totals().ops_completed;
  if (tr != nullptr) {
    r.tx = delta(before);
    const auto t = r.res.totals();
    const std::uint64_t id = tr->add(0, kSimRun, 0, trial, h0, h1);
    tr->note(id, "\"prefix\":{" + counts_json(r.tx.prefix) +
                     "},\"sim\":{\"ops\":" + std::to_string(t.ops_completed) +
                     ",\"makespan\":" + std::to_string(r.res.makespan()) +
                     ",\"tx_started\":" + std::to_string(t.tx_started) +
                     ",\"tx_commits\":" + std::to_string(t.tx_commits) +
                     ",\"tx_aborts\":" + std::to_string(t.total_aborts()) +
                     ",\"dispatches\":" + std::to_string(t.dispatches) + "}");
  }
  std::uint64_t puts = 0, dels = 0;
  for (unsigned t = 0; t < threads; ++t) {
    puts += ins[t];
    dels += rem[t];
    r.backlog_peak = std::max(r.backlog_peak, backlog[t]);
    r.lat.insert(r.lat.end(), lat[t].begin(), lat[t].end());
  }
  r.ok = r.res.uaf_count == 0 && r.ops == ops_per_thread * threads &&
         set->size_slow() == prefilled + puts - dels && set->check_invariants();
  set.reset();
  pto::sim::reset_memory();
  return r;
}

Outcome run_sim(const Args& a, const std::string& provenance) {
  // Per virtual thread at 8 threads; the 1-thread series runs the same total.
  constexpr std::uint64_t kOpsPerThread = 25'000;
  Outcome out;
  const double deadline_ns = a.seconds * 1e9;
  const std::uint64_t start = obs::now_ticks();
  auto elapsed_ns = [&] { return ticks_to_ns(obs::now_ticks() - start); };
  std::unique_ptr<Tracer> tr;
  if (a.trace) tr = std::make_unique<Tracer>(1);

  // Every round repeats the same seeded runs: the modelled numbers must come
  // out identical each time (and with telemetry on), while host time gives
  // one sample per round.
  std::vector<SimTrial> first;  // round 0, per series
  std::vector<double> setup, host_pto, host_traced;
  std::uint64_t trial = 0;
  struct Series {
    Bst::Mode mode;
    unsigned threads;
    const char* tag;
  };
  const std::vector<Series> series =
      a.trace ? std::vector<Series>{{Bst::Mode::kPto12, kSimThreads, "pto"},
                                    {Bst::Mode::kPto12, kSimThreads, "pto-traced"}}
              : std::vector<Series>{{Bst::Mode::kPto12, kSimThreads, "pto"},
                                    {Bst::Mode::kLockfree, kSimThreads, "lf"},
                                    {Bst::Mode::kPto12, 1, "pto-1t"}};
  SimTrial traced_sum;
  for (unsigned round = 0; round < kMinRounds || elapsed_ns() < deadline_ns;
       ++round) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::size_t si = (round + i) % series.size();
      const Series& s = series[si];
      const bool on = a.trace && si == 1;
      set_tracing(on);
      SimTrial t = sim_trial(s.mode, s.threads,
                             kOpsPerThread * kSimThreads / s.threads, a.seed,
                             on ? tr.get() : nullptr, ++trial);
      set_tracing(false);
      bool ok = t.ok;
      if (round == 0) {
        first.resize(series.size());
        first[si] = t;
      } else {
        ok = ok && t.same_model(first[si]);
      }
      // Telemetry charges no virtual cycles: traced and untraced runs of
      // the same seed must model the same execution.
      if (on) ok = ok && t.same_model(first[0]);
      account(out, t.ops, ok, s.tag);
      setup.push_back(t.setup_s);
      if (si == 0) host_pto.push_back(t.host_ops_per_s());
      if (on) {
        host_traced.push_back(t.host_ops_per_s());
        traced_sum.host_ns += t.host_ns;
        traced_sum.tx.prefix.accumulate(t.tx.prefix);
        traced_sum.backlog_peak = std::max(traced_sum.backlog_peak, t.backlog_peak);
        traced_sum.backlog_end = std::max(traced_sum.backlog_end, t.backlog_end);
      }
    }
  }

  const SimTrial& pto = first[0];
  const auto tot = pto.res.totals();
  const std::uint64_t accesses = tot.loads + tot.stores + tot.cas_ops + tot.rmws;
  out.provenance =
      provenance + ",\"model\":\"simx\",\"virtual_threads\":" + std::to_string(kSimThreads) +
      ",\"key_range\":" + std::to_string(kSimRange) + ",\"lookup_pct\":" +
      std::to_string(kSimLookupPct) + ",\"ops_per_trial\":" +
      std::to_string(kOpsPerThread * kSimThreads) + ",\"rounds\":" +
      std::to_string(host_pto.size()) + ",\"sim_ops_per_ms\":" +
      num(pto.res.ops_per_msec()) +
      (a.trace ? std::string()
               : ",\"sim_lf_ops_per_ms\":" + num(first[1].res.ops_per_msec()) +
                     ",\"sim_ops_per_ms_1t\":" + num(first[2].res.ops_per_msec())) +
      ",\"sim_host_ops_per_s\":" + num(median(host_pto)) +
      ",\"latency_samples\":" + std::to_string(pto.lat.size());

  if (!a.trace) {
    std::vector<std::uint32_t> lat = pto.lat;
    out.metrics = {
        {"ops_per_s", "1/s", pto.ops_per_s()},
        {"lf_ops_per_s", "1/s", first[1].ops_per_s()},
        {"ops_per_s_1t", "1/s", first[2].ops_per_s()},
        {"p50_us", "us", perfbench::percentile(lat, 50) / kCyclesPerUs},
        {"p99_us", "us", perfbench::percentile(lat, 99) / kCyclesPerUs},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    return out;
  }

  const std::uint64_t traced_ops = tot.ops_completed * host_traced.size();
  std::uint64_t cycles = 0;
  for (const std::uint64_t c : pto.res.clocks) cycles += c;
  const double ops = static_cast<double>(tot.ops_completed);
  Measured m = {
      {"reclaim.backlog_peak", static_cast<double>(traced_sum.backlog_peak)},
      {"reclaim.backlog_end", static_cast<double>(traced_sum.backlog_end)},
      {"obs.trace_overhead_frac",
       1.0 - ratio(median(host_traced), median(host_pto))},
      {"sim.accesses_per_op", ratio(static_cast<double>(accesses), ops)},
      {"sim.dispatches_per_op", ratio(static_cast<double>(tot.dispatches), ops)},
      {"sim.fallbacks_per_kop", per_kop(traced_sum.tx.prefix.fallbacks, traced_ops)},
      {"sim.tx_abort_ratio", ratio(static_cast<double>(tot.total_aborts()),
                                   static_cast<double>(tot.tx_started))},
      {"sim.tx_cycle_frac",
       ratio(static_cast<double>(tot.tx_cycles), static_cast<double>(cycles))},
      {"sim.host_ns_per_access",
       ratio(traced_sum.host_ns,
             static_cast<double>(accesses * host_traced.size()))},
  };
  prefix_metrics(m, traced_sum.tx.prefix, traced_ops);
  out.metrics = layer_metrics(m);
  report_spans(*tr, a.spans_out, out.provenance);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  (void)obs::ticks_per_sec();  // calibrate before any timed section
  set_tracing(false);
  std::printf("workload %s  seed %llu  trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0);
  const std::string provenance =
      "\"workload\":\"" + a.workload + "\",\"seed\":" +
      std::to_string(a.seed) + ",\"trace\":" + (a.trace ? "1" : "0") +
      ",\"git_sha\":\"" + pto::build_git_sha() + "\",\"source_digest\":\"" +
      a.source_digest + "\",\"build_type\":\"" + pto::build_type() +
      "\",\"nproc\":" + std::to_string(allowed_cpus()) +
      ",\"htm_backend\":\"" +
      (pto::htm::backend() == pto::htm::Backend::kRTM ? "rtm" : "soft") + "\"";

  Outcome o;
  if (a.workload == "kv-skip-zipf-rw" || a.workload == "kv-hash-uniform-read") {
    const bool skip = a.workload == "kv-skip-zipf-rw";
    KvWorkload w;
    w.structure = skip ? svc::Structure::kSkiplist : svc::Structure::kHash;
    w.shards = 4;
    w.spec.keyspace = 1u << 16;
    w.spec.seed = a.seed;
    if (skip) {
      w.spec.dist = svc::Dist::kZipf;
      w.spec.theta = 0.99;
      w.spec.get_pct = 50;
      w.spec.put_pct = 25;
      w.trial_ops = 250'000;
      o = run_kv(a, provenance, w, svc::SkipAdapter<pto::NativePlatform>{true},
                 svc::SkipAdapter<pto::NativePlatform>{false});
    } else {
      using Mode = pto::FSetHash<pto::NativePlatform>::Mode;
      w.spec.dist = svc::Dist::kUniform;
      w.spec.get_pct = 90;
      w.spec.put_pct = 5;
      w.trial_ops = 400'000;
      o = run_kv(a, provenance, w, svc::HashAdapter<pto::NativePlatform>{Mode::kPto},
                 svc::HashAdapter<pto::NativePlatform>{Mode::kLockfree});
    }
  } else if (a.workload == "sim-bst-fig3b") {
    o = run_sim(a, provenance);
  } else {
    usage("unknown workload " + a.workload);
  }

  o.provenance += ",\"ops\":" + std::to_string(o.attempted);
  print_outcome(o);
  return o.correct ? 0 : 1;
}
