// Native HTM facade: dispatches to Intel RTM when the CPU supports it and a
// probe transaction commits, otherwise to SoftHTM (htm/softhtm.h).
//
// Backend selection happens once, at first use, and can be forced with the
// environment variable PTO_HTM=rtm|soft. Selection must occur before threads
// start transactions (it is made on first call, which NativePlatform performs
// eagerly).
#pragma once

#include <csetjmp>
#include <cstdint>

#include "htm/rtm_status.h"
#include "htm/softhtm.h"
#include "htm/txcode.h"
#include "telemetry/registry.h"

#if defined(PTO_HAVE_RTM)
#include <immintrin.h>

// rtm_status.h mirrors the ISA-defined bit layout so the decoder is testable
// without TSX; pin the mirror to the intrinsic header's definitions.
static_assert(pto::htm::kRtmExplicit == _XABORT_EXPLICIT);
static_assert(pto::htm::kRtmRetry == _XABORT_RETRY);
static_assert(pto::htm::kRtmConflict == _XABORT_CONFLICT);
static_assert(pto::htm::kRtmCapacity == _XABORT_CAPACITY);
static_assert(pto::htm::kRtmDebug == _XABORT_DEBUG);
static_assert(pto::htm::kRtmNested == _XABORT_NESTED);
#endif

namespace pto::htm {

enum class Backend { kRTM, kSoft };

namespace detail {
Backend probe_backend();
}  // namespace detail

/// The active backend (probed once; sticky for the process lifetime). Inline,
/// so after the first call it costs one guard-byte test and no call.
inline Backend backend() {
  static const Backend b = detail::probe_backend();
  return b;
}

/// True when transactions are strongly atomic with respect to plain
/// non-transactional accesses. RTM: yes. SoftHTM: only for accesses made
/// through its nt_* wrappers, which move the orecs its transactions validate
/// against; memory reused through plain `init()` stores bypasses the orecs,
/// so a transaction reading a freed-and-reused node would not notice. Epoch
/// elision therefore stays off there (reclaim/epoch.h).
inline bool strongly_atomic() { return backend() == Backend::kRTM; }

/// Checkpoint for software aborts; pto::prefix() arms it with setjmp before
/// calling tx_begin(). Unused (but harmless) under RTM.
inline std::jmp_buf& checkpoint() { return softhtm::tls_tx().env; }

unsigned char last_user_code();

namespace detail {
/// Telemetry site for the native facade ("htm.rtm" / "htm.soft"), so native
/// runs report commits and aborts-by-cause through the same registry schema
/// as the simulator. Commits are recorded after tx_end and aborts on the
/// abort return path — never inside a running transaction, where the shard
/// write would join the write set and be rolled back. RTM aborts surface
/// here via tx_begin's status; SoftHTM aborts are recorded by
/// softhtm::abort_tx (the longjmp bypasses tx_begin's return).
telemetry::Site* native_site();
#if defined(PTO_HAVE_RTM)
extern thread_local unsigned char tls_rtm_user_code;
#endif
}  // namespace detail

inline unsigned tx_begin() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) {
    unsigned s = _xbegin();
    if (s == _XBEGIN_STARTED) return TX_STARTED;
    if (s & kRtmExplicit) detail::tls_rtm_user_code = rtm_abort_code(s);
    unsigned code = decode_rtm_status(s);
    if (PTO_UNLIKELY(telemetry::enabled())) {
      telemetry::site_abort(detail::native_site(), code);
    }
    return code;
  }
#endif
  return softhtm::begin();
}

inline void tx_end() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) {
    _xend();
    // _xtest guards the flat-nested case: only the outermost commit leaves
    // the transaction, and the shard write must stay non-transactional.
    if (_xtest() == 0 && PTO_UNLIKELY(telemetry::enabled())) {
      telemetry::site_commit(detail::native_site());
    }
    return;
  }
#endif
  softhtm::commit();
  if (!softhtm::in_tx() && PTO_UNLIKELY(telemetry::enabled())) {
    telemetry::site_commit(detail::native_site());
  }
}

/// Explicitly abort the running transaction with user payload C.
/// RTM requires the abort code to be an immediate, hence the template.
template <unsigned char C>
[[noreturn]] inline void tx_abort() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) {
    _xabort(C);
    __builtin_unreachable();
  }
#endif
  softhtm::abort_tx(TX_ABORT_EXPLICIT, C);
}

inline bool in_tx() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) return _xtest() != 0;
#endif
  return softhtm::in_tx();
}

}  // namespace pto::htm
