// Runtime construction, the public run() entry point, and thin hook wrappers.
#include "sim/runtime_internal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "check/check.h"
#include "common/env.h"
#include "metrics/metrics.h"
#include "telemetry/prof.h"
#include "telemetry/trace.h"

namespace pto::sim {

namespace prof = ::pto::telemetry::prof;
namespace check = ::pto::check;

namespace internal {

Runtime* g_rt = nullptr;
GlobalMemory g_mem;

Runtime::Runtime(unsigned nthreads, const Config& c)
    : cfg(c), xopts(explore::resolved(c.explore)), threads([&] {
        // Per-line conflict tracking is a kMaxThreads-bit ThreadSet and the
        // dispatcher packs the tid into 10 key bits, so reject early with a
        // clear message rather than corrupting line state.
        if (nthreads == 0 || nthreads > kMaxThreads) {
          throw std::invalid_argument(
              "sim::Runtime: nthreads must be in [1, 1024] (per-line thread "
              "sets are kMaxThreads = 1024 bits wide)");
        }
        return nthreads;
      }()) {
  // Lines persist across runs (fixtures built in a setup run stay valid), so
  // the per-line scan width is the widest any run has needed since the last
  // reset_memory() — a narrow run after a wide one must still see (and
  // clear) the high words the wide run populated.
  const unsigned want_words = (nthreads + 63) / 64;
  if (want_words > g_mem.line_words) g_mem.line_words = want_words;
  nwords = g_mem.line_words;
  if (xopts.adversarial()) {
    explorer =
        std::make_unique<explore::internal::Explorer>(xopts, nthreads);
  }
  for (unsigned i = 0; i < nthreads; ++i) {
    threads[i].rng.reseed(c.seed * 0x9E3779B97F4A7C15ull + i + 1);
    if (xopts.fault_rate > 0.0) {
      threads[i].fault_rng.reseed(xopts.fault_seed * 0x9E3779B97F4A7C15ull +
                                  i + 0xFA17ull);
    }
    // Pre-reserve transaction footprints to the configured HTM limits so
    // the first transactions never reallocate mid-speculation.
    TxDesc& tx = threads[i].tx;
    tx.rlines.reserve(c.htm.max_read_lines);
    tx.wlines.reserve(c.htm.max_write_lines);
    tx.undo.reserve(c.htm.max_write_lines);
  }
}

std::size_t fiber_stack_bytes(unsigned nthreads) {
  const std::size_t dflt =
      nthreads <= kFiberStackSmallCutoff ? kFiberStack : kFiberStackLarge;
  return static_cast<std::size_t>(
             env::integer(env::Id::kSimStackKb, dflt / 1024)) *
         1024;
}

}  // namespace internal

using namespace internal;

void ThreadStats::accumulate(const ThreadStats& o) {
  dispatches += o.dispatches;
  loads += o.loads;
  stores += o.stores;
  cas_ops += o.cas_ops;
  rmws += o.rmws;
  fences += o.fences;
  fences_elided += o.fences_elided;
  allocs += o.allocs;
  frees += o.frees;
  tx_started += o.tx_started;
  tx_commits += o.tx_commits;
  for (unsigned i = 0; i < kTxCodeCount; ++i) tx_aborts[i] += o.tx_aborts[i];
  tx_cycles += o.tx_cycles;
  ops_completed += o.ops_completed;
}

std::uint64_t RunResult::makespan() const {
  std::uint64_t m = 0;
  for (auto c : clocks) m = std::max(m, c);
  return m;
}

ThreadStats RunResult::totals() const {
  ThreadStats t;
  for (const auto& s : stats) t.accumulate(s);
  return t;
}

double RunResult::ops_per_msec() const {
  std::uint64_t ms = makespan();
  if (ms == 0) return 0.0;
  // 3.4 GHz, the paper's i7-4770: 3.4e6 cycles per millisecond.
  return static_cast<double>(totals().ops_completed) /
         (static_cast<double>(ms) / 3.4e6);
}

RunResult run(unsigned nthreads, const Config& cfg,
              const std::function<void(unsigned)>& body) {
  if (nthreads == 0 || nthreads > kMaxThreads) {
    throw std::invalid_argument("sim::run: thread count out of range");
  }
  if (g_rt != nullptr) {
    throw std::logic_error("sim::run: nested simulations are not supported");
  }
  Runtime rt(nthreads, cfg);
  const std::uint64_t uaf_before = g_mem.uaf_count;
  if (PTO_UNLIKELY(telemetry::trace_on())) {
    telemetry::trace_run_begin(nthreads, cfg.seed);
  }
  g_rt = &rt;
  if (PTO_UNLIKELY(check::on())) check::on_run_begin(nthreads);
  if (PTO_UNLIKELY(metrics::armed())) metrics::sim_run_begin(nthreads);
  const std::size_t stack_bytes = fiber_stack_bytes(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) {
    rt.threads[i].fiber =
        std::make_unique<Fiber>(stack_bytes, [i, &body, &rt] {
          body(i);
          rt.on_fiber_done();  // switches away forever
        });
  }
  rt.run_all();
  if (PTO_UNLIKELY(check::on())) check::on_run_end();
  if (PTO_UNLIKELY(metrics::armed())) {
    std::uint64_t final_vt = 0;
    for (const auto& t : rt.threads) final_vt = std::max(final_vt, t.clock);
    metrics::sim_run_end(final_vt);
  }
  g_rt = nullptr;
  // Rewrite the trace file at every run boundary so a partially-finished
  // bench still leaves a loadable trace behind.
  if (PTO_UNLIKELY(telemetry::trace_on())) telemetry::trace_flush();

  RunResult res;
  res.uaf_count = g_mem.uaf_count - uaf_before;
  for (auto& t : rt.threads) {
    res.stats.push_back(t.stats);
    res.clocks.push_back(t.clock);
  }
  return res;
}

bool active() { return g_rt != nullptr; }
unsigned thread_id() { return g_rt ? g_rt->cur : 0; }
unsigned num_threads() {
  return g_rt ? static_cast<unsigned>(g_rt->threads.size()) : 1;
}
std::uint64_t now() { return g_rt ? g_rt->me().clock : 0; }

std::uint64_t rnd() {
  if (g_rt) return g_rt->me().rng.next();
  static SplitMix64 host_rng(0xF1C5EEDull);  // host-side setup code
  return host_rng.next();
}

namespace {
std::uint64_t g_seq = 0;
}  // namespace

std::uint64_t global_seq() { return ++g_seq; }

void op_done(std::uint64_t n) {
  if (g_rt == nullptr) return;
  g_rt->me().stats.ops_completed += n;
  if (PTO_UNLIKELY(check::on())) check::on_op_done(g_rt->cur);
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_charge(prof::kClassBench, n * g_rt->cfg.cost.bench_op_overhead);
  }
  g_rt->charge(n * g_rt->cfg.cost.bench_op_overhead);
  g_rt->check_doom();
}

void cpu_pause() {
  if (!g_rt) return;
  if (PTO_UNLIKELY(prof::on())) {
    prof::on_charge(prof::kClassPause, g_rt->cfg.cost.pause);
  }
  if (PTO_UNLIKELY(g_rt->explorer != nullptr)) {
    // Under strict-priority PCT a spinning thread would monopolize the
    // schedule; a pause deprioritizes it so the threads it waits on can run.
    g_rt->explorer->on_pause(g_rt->cur);
  }
  g_rt->charge(g_rt->cfg.cost.pause);
  g_rt->check_doom();
}

// Outside a simulation (fixture setup/teardown on the host), memory hooks
// degrade to raw accesses: no costs, no conflicts, no stats — but frees still
// poison lines so a later in-simulation use-after-free is caught.

std::uint64_t mem_load(const void* addr, unsigned size, unsigned order) {
  if (g_rt) return g_rt->do_load(addr, size, order);
  return raw_read(addr, size);
}
void mem_store(void* addr, unsigned size, std::uint64_t val, unsigned order) {
  if (g_rt) {
    g_rt->do_store(addr, size, val, order);
    return;
  }
  raw_write(addr, size, val);
}
bool mem_cas(void* addr, unsigned size, std::uint64_t& expected,
             std::uint64_t desired) {
  if (g_rt) return g_rt->do_cas(addr, size, expected, desired);
  std::uint64_t cur = raw_read(addr, size);
  if (cur == expected) {
    raw_write(addr, size, desired);
    return true;
  }
  expected = cur;
  return false;
}
std::uint64_t mem_fetch_add(void* addr, unsigned size, std::uint64_t delta) {
  if (g_rt) return g_rt->do_fetch_add(addr, size, delta);
  std::uint64_t old = raw_read(addr, size);
  raw_write(addr, size, old + delta);
  return old;
}
void fence() {
  if (g_rt) g_rt->do_fence();
}

void* alloc(std::size_t bytes) {
  if (g_rt) return g_rt->do_alloc(bytes);
  return g_mem.arena.allocate(bytes);
}

void dealloc(void* p, std::size_t bytes) {
  if (g_rt) {
    g_rt->do_dealloc(p, bytes);
    return;
  }
  auto first = reinterpret_cast<std::uintptr_t>(p) / kCacheLine;
  auto last =
      (reinterpret_cast<std::uintptr_t>(p) + (bytes ? bytes - 1 : 0)) /
      kCacheLine;
  for (auto la = first; la <= last; ++la) {
    LineState& L = g_mem.lines.line_by_index(la);
    L.freed = true;
    L.sharers.reset(g_mem.line_words);
  }
  std::memset(p, 0xDD, bytes);
}

void reset_memory() {
  assert(g_rt == nullptr && "reset_memory during a simulation");
  g_mem.lines.clear();
  g_mem.arena.reset();
  g_mem.line_words = 1;
  g_mem.alloc_word = 0;
}

std::uint64_t uaf_count() { return g_mem.uaf_count; }

}  // namespace pto::sim
