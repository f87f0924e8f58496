#include "htm/softhtm.h"

#include "htm/htm.h"

namespace pto::softhtm {

namespace detail {
alignas(kCacheLine) Orec g_orecs[std::size_t{1} << kOrecBits];
alignas(kCacheLine) std::atomic<std::uint64_t> g_clock{0};
}  // namespace detail

namespace {
thread_local unsigned char g_last_user_code = TX_CODE_NONE;

/// Whether this commit holds `o` (entries not yet locked are kNotOwner).
bool owns(const Tx& tx, const Orec* o) {
  for (const WriteEntry& e : tx.write_set()) {
    if (e.orec == o && e.locked != kNotOwner) return true;
  }
  return false;
}

/// Every logged read still carries the orec word it was read under. An orec
/// this commit has locked counts as unchanged if it was locked from that word.
bool reads_valid(const Tx& tx) {
  for (const ReadEntry& r : tx.read_set()) {
    std::uint64_t w = r.orec->load(std::memory_order_acquire);
    if (w == r.word) continue;
    if (w == (r.word | 1) && owns(tx, r.orec)) continue;
    return false;
  }
  return true;
}

/// Restore the orecs locked by the first `n` write entries (nothing was
/// written through them, so their versions stay).
void unlock_first(Tx& tx, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const WriteEntry& e = tx.writes[i];
    if (e.locked != kNotOwner) {
      e.orec->store(e.locked, std::memory_order_release);
    }
  }
}

/// Lock the write set, validate the read set, write back, release. A busy
/// orec aborts instead of waiting, so no commit ever waits on another.
void write_back(Tx& tx) {
  const std::size_t n = tx.n_writes;
  for (std::size_t i = 0; i < n; ++i) {
    WriteEntry& e = tx.writes[i];
    if (owns(tx, e.orec)) continue;  // two written words share this orec
    std::uint64_t w = e.orec->load(std::memory_order_relaxed);
    if (detail::is_locked(w) ||
        !e.orec->compare_exchange_strong(w, w | 1, std::memory_order_acquire)) {
      unlock_first(tx, i);
      abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
    }
    e.locked = w;
  }
  if (!reads_valid(tx)) {
    unlock_first(tx, n);
    abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
  }
  for (const WriteEntry& e : tx.write_set()) e.wr(e.obj, e.val);
  for (const WriteEntry& e : tx.write_set()) {
    if (e.locked != kNotOwner) detail::release_orec(*e.orec, e.locked);
  }
  // Like a hardware commit, order the write-back before later loads.
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
}  // namespace

unsigned char last_user_code() { return g_last_user_code; }

namespace detail {

void extend(Tx& tx, std::uint64_t ver) {
  std::uint64_t c = g_clock.load(std::memory_order_acquire);
  while (c < ver &&
         !g_clock.compare_exchange_weak(c, ver, std::memory_order_acq_rel)) {
  }
  // The new timestamp is taken before revalidating: a read still unchanged
  // after this point is current at it.
  const std::uint64_t rv = std::max(c, ver);
  if (!reads_valid(tx)) abort_tx(TX_ABORT_CONFLICT, TX_CODE_NONE);
  tx.rv = rv;
}

}  // namespace detail

unsigned begin() {
  Tx& tx = tls_tx();
  if (tx.active) {
    ++tx.depth;  // flat nesting
    return TX_STARTED;
  }
  tx.n_reads = 0;
  tx.n_writes = 0;
  tx.depth = 0;
  tx.rv = detail::g_clock.load(std::memory_order_acquire);
  tx.active = true;
  return TX_STARTED;
}

void commit() {
  Tx& tx = tls_tx();
  if (tx.depth > 0) {
    --tx.depth;
    return;
  }
  // A read-only transaction is already consistent at its read timestamp.
  if (tx.n_writes != 0) write_back(tx);
  tx.active = false;
  tx.n_reads = 0;
  tx.n_writes = 0;
}

void abort_tx(unsigned cause, unsigned char user_code) {
  Tx& tx = tls_tx();
  g_last_user_code = user_code;
  tx.active = false;
  tx.depth = 0;
  tx.n_reads = 0;
  tx.n_writes = 0;
  // The longjmp bypasses htm::tx_begin's abort-return path, so the facade's
  // telemetry site is fed here (writes are buffered, nothing to roll back).
  if (PTO_UNLIKELY(::pto::telemetry::enabled())) {
    ::pto::telemetry::site_abort(htm::detail::native_site(), cause);
  }
  std::longjmp(tx.env, static_cast<int>(cause));
}

}  // namespace pto::softhtm
