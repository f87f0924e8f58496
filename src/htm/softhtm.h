// SoftHTM: a software stand-in for best-effort hardware transactional memory,
// used on machines without working Intel TSX.
//
// Design: a TL2/LSA-style STM over a fixed table of versioned ownership
// records (orecs) [Dice, Shalev, Shavit, DISC'06; Riegel et al., DISC'06].
// Every 8-byte word of memory hashes to one orec; an orec word holds a
// version (upper bits) and a lock bit (bit 0). Writes are buffered and
// applied at commit while holding the orecs of the write set. Reads log
// (orec, version) and must not be newer than the transaction's read
// timestamp `rv`; a newer read extends the snapshot (revalidate every read,
// then advance rv) instead of returning a value inconsistent with earlier
// reads. Only the global version clock is shared, and nothing locks it:
// writers read it to stamp their versions, and only snapshot extension
// advances it (TL2's GV5 scheme).
//
// Strong atomicity: the paper's PTO technique requires that transactions and
// *non-transactional* lock-free code interoperate. SoftHTM achieves this by
// routing every non-transactional access to shared `std::atomic` objects
// through accessors that respect the same orecs: loads are orec-stable reads
// (orec, value, orec) that wait while the orec is locked, and a store,
// successful CAS or fetch_add locks only its own orec and releases it with a
// newer version, so every transaction that read the word fails validation.
// A failed CAS releases the orec unchanged. Accessors of different data
// lines touch different orec lines, so lock-free code scales across cores;
// but a preempted orec holder stalls accessors of that stripe, so SoftHTM is
// not lock-free (DESIGN.md §2).
//
// Capacity (best-effort, like RTM): the read and write sets are fixed arrays
// of kMaxReads / kMaxWrites word entries; a transaction that needs one more
// aborts with TX_ABORT_CAPACITY. The bound also keeps the per-thread
// descriptor trivially destructible, so it is a constant-initialized
// thread_local and every accessor reaches it with one %fs-relative load and
// no call.
//
// Restrictions (same as real RTM): code inside a transaction must be
// trivially unwindable — aborts longjmp to the checkpoint installed by
// pto::prefix(), skipping destructors.
#pragma once

#include <algorithm>
#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/bits.h"
#include "common/defs.h"
#include "htm/txcode.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pto::softhtm {

/// A versioned ownership record: `version << 1 | locked`.
using Orec = std::atomic<std::uint64_t>;
using WriteFn = void (*)(void*, std::uint64_t);

/// One logged read: the orec word (unlocked) seen when the value was read.
struct ReadEntry {
  const Orec* orec;
  std::uint64_t word;
};

/// Orec words are even when unlocked, so an odd value can mark "no lock".
inline constexpr std::uint64_t kNotOwner = 1;

/// One buffered write. `obj` points at a std::atomic<T>; `wr` stores into it.
/// During commit, `locked` holds the orec word this entry's lock replaced;
/// it is kNotOwner before commit and when an earlier entry of the same
/// commit holds that orec.
struct WriteEntry {
  void* obj;
  std::uint64_t val;
  WriteFn wr;
  Orec* orec;
  std::uint64_t locked;
};

/// Read- and write-set capacities: the simulator's HtmConfig defaults
/// (512 read lines, 64 write lines) counted per logged word instead of per
/// cache line.
inline constexpr std::size_t kMaxReads = 512;
inline constexpr std::size_t kMaxWrites = 64;

/// Per-thread transaction descriptor.
struct Tx {
  bool active = false;
  int depth = 0;  ///< flat nesting depth beyond the outermost begin
  std::uint64_t rv = 0;  ///< read timestamp: every logged read is <= rv
  std::size_t n_reads = 0;
  std::size_t n_writes = 0;
  ReadEntry reads[kMaxReads]{};
  WriteEntry writes[kMaxWrites]{};
  std::jmp_buf env{};  ///< abort checkpoint, armed by pto::prefix()

  std::span<const ReadEntry> read_set() const { return {reads, n_reads}; }
  std::span<WriteEntry> write_set() { return {writes, n_writes}; }
  std::span<const WriteEntry> write_set() const { return {writes, n_writes}; }
};
// A non-trivial destructor would put a TLS wrapper call on every access.
static_assert(std::is_trivially_destructible_v<Tx>);

namespace detail {
inline constinit thread_local Tx g_tx;
}  // namespace detail

inline Tx& tls_tx() { return detail::g_tx; }

/// Begin a transaction (or nest into the active one). Returns TX_STARTED.
/// The caller must have armed tls_tx().env with setjmp *before* calling.
unsigned begin();

/// Commit the innermost begin; the outermost commit validates and writes back.
void commit();

/// Abort the active transaction: roll back buffered state and longjmp to the
/// checkpoint with `cause`.
[[noreturn]] void abort_tx(unsigned cause, unsigned char user_code);

inline bool in_tx() { return tls_tx().active; }

/// User payload of the last explicit abort on this thread.
unsigned char last_user_code();

namespace detail {

/// Table size: 2^16 orecs (512 KiB), one per 8-byte word modulo 512 KiB, so
/// the 8 words of a cache line share one line of orecs.
inline constexpr unsigned kOrecBits = 16;
extern Orec g_orecs[std::size_t{1} << kOrecBits];
extern std::atomic<std::uint64_t> g_clock;

inline Orec& orec_of(const void* p) {
  return g_orecs[(reinterpret_cast<std::uintptr_t>(p) >> 3) &
                 ((std::uintptr_t{1} << kOrecBits) - 1)];
}
constexpr bool is_locked(std::uint64_t w) { return (w & 1) != 0; }
constexpr std::uint64_t version_of(std::uint64_t w) { return w >> 1; }

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

template <class T>
void erased_write(void* p, std::uint64_t v) {
  static_cast<std::atomic<T>*>(p)->store(::pto::narrow<T>(v),
                                         std::memory_order_release);
}

/// Spin until `o` is unlocked; returns the unlocked word.
inline std::uint64_t await_unlocked(const Orec& o) {
  for (;;) {
    std::uint64_t w = o.load(std::memory_order_acquire);
    if (!is_locked(w)) return w;
    cpu_relax();
  }
}

/// Spin until `o` is unlocked, then lock it; returns the word it replaced.
inline std::uint64_t lock_orec(Orec& o) {
  for (;;) {
    std::uint64_t w = await_unlocked(o);
    if (o.compare_exchange_weak(w, w | 1, std::memory_order_acquire)) return w;
  }
}

/// Release `o`, locked from `old`, with a version newer than both `old` (so
/// a logged read of this orec fails validation) and the clock (so every
/// transaction that began before the lock was taken sees the write as newer
/// than its snapshot).
inline void release_orec(Orec& o, std::uint64_t old) {
  std::uint64_t c = g_clock.load(std::memory_order_acquire);
  o.store((std::max(c, version_of(old)) + 1) << 1, std::memory_order_release);
}

/// Read `a` while its orec `o` is unlocked and unchanged; `w` receives that
/// orec word.
template <class T>
T stable_read(const std::atomic<T>& a, const Orec& o, std::uint64_t& w) {
  for (;;) {
    w = await_unlocked(o);
    T v = a.load(std::memory_order_seq_cst);
    if (o.load(std::memory_order_acquire) == w) return v;
  }
}

/// A read saw version `ver` > tx.rv: advance the clock to at least `ver`,
/// revalidate every logged read and move rv forward, or abort.
void extend(Tx& tx, std::uint64_t ver);

}  // namespace detail

// ---------------------------------------------------------------------------
// Transactional accessors
// ---------------------------------------------------------------------------

template <class T>
T tx_load(const std::atomic<T>& a) {
  Tx& tx = tls_tx();
  for (const WriteEntry& e : tx.write_set()) {  // read-own-writes
    if (e.obj == &a) return ::pto::narrow<T>(e.val);
  }
  const Orec& o = detail::orec_of(&a);
  for (;;) {
    std::uint64_t w = 0;
    T v = detail::stable_read(a, o, w);
    if (detail::version_of(w) > tx.rv) {
      detail::extend(tx, detail::version_of(w));
      continue;
    }
    if (PTO_UNLIKELY(tx.n_reads == kMaxReads)) {
      abort_tx(TX_ABORT_CAPACITY, TX_CODE_NONE);
    }
    tx.reads[tx.n_reads++] = {&o, w};
    return v;
  }
}

template <class T>
void tx_store(std::atomic<T>& a, T v) {
  Tx& tx = tls_tx();
  for (WriteEntry& e : tx.write_set()) {
    if (e.obj == &a) {
      e.val = ::pto::widen(v);
      return;
    }
  }
  if (PTO_UNLIKELY(tx.n_writes == kMaxWrites)) {
    abort_tx(TX_ABORT_CAPACITY, TX_CODE_NONE);
  }
  tx.writes[tx.n_writes++] = {&a, ::pto::widen(v), &detail::erased_write<T>,
                              &detail::orec_of(&a), kNotOwner};
}

// ---------------------------------------------------------------------------
// Strongly-atomic non-transactional accessors
// ---------------------------------------------------------------------------
// The data access of a write is seq_cst, so (as with plain std::atomic) it
// is globally visible before the thread's later loads; the orec release
// after it may stay buffered.

template <class T>
T nt_load(const std::atomic<T>& a) {
  std::uint64_t w = 0;
  return detail::stable_read(a, detail::orec_of(&a), w);
}

template <class T>
void nt_store(std::atomic<T>& a, T v) {
  Orec& o = detail::orec_of(&a);
  std::uint64_t w = detail::lock_orec(o);
  a.store(v, std::memory_order_seq_cst);
  detail::release_orec(o, w);
}

template <class T>
bool nt_cas(std::atomic<T>& a, T& expected, T desired) {
  Orec& o = detail::orec_of(&a);
  std::uint64_t w = detail::lock_orec(o);
  bool ok = a.compare_exchange_strong(expected, desired,
                                      std::memory_order_seq_cst);
  if (ok) {
    detail::release_orec(o, w);
  } else {
    o.store(w, std::memory_order_release);  // nothing written: same version
  }
  return ok;
}

template <class T>
T nt_fetch_add(std::atomic<T>& a, T delta) {
  Orec& o = detail::orec_of(&a);
  std::uint64_t w = detail::lock_orec(o);
  T old = a.fetch_add(delta, std::memory_order_seq_cst);
  detail::release_orec(o, w);
  return old;
}

}  // namespace pto::softhtm
