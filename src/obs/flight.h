// Per-thread lock-free flight recorder for native transaction events.
//
//   PTO_FLIGHT=<events>     arm; fixed ring of <events> records per thread
//                           (rounded up to a power of two, min 64)
//   PTO_FLIGHT_OUT=<path>   dump destination (default pto_flight.bin)
//
// Each thread owns a fixed-size binary ring of 16-byte records
// {tsc, site, event, arg}; recording is a thread-local store plus a counter
// bump — no atomics, no sharing, old records overwritten. Rings are dumped
// at process exit and on fatal signals (SIGSEGV/SIGBUS/SIGABRT/SIGFPE/
// SIGILL), so the last <events> transaction events per thread survive a
// crash for post-mortem timeline reconstruction with tools/pto_flight.py.
//
// Events come from the telemetry hook stream (telemetry/registry.cpp):
// prefix attempt (tx begin), commit, abort (arg = cause code), and
// fallback-acquire. Simulated runs never record (simx already has PTO_TRACE
// with virtual-time fidelity; the hook checks sim::active()).
//
// Dump format (little-endian), parsed by tools/pto_flight.py:
//   magic   8s  "PTOFLT01"
//   u32         version (1)
//   u64         tsc ticks per second (calibrated)
//   u32         site count N
//   N x { u32 len, bytes }   site names, index = site id
//   u32         ring count R
//   R x { u32 thread_index, u64 total_recorded, u32 nrec,
//         nrec x { u64 tsc, u16 site, u8 event, u8 pad, u32 arg } }
//       records oldest-first.
#pragma once

#include <cstdint>

namespace pto::obs {

enum FlightEvent : unsigned char {
  kFlightAttempt = 1,   ///< prefix attempt / tx begin
  kFlightCommit = 2,    ///< fast-path commit
  kFlightAbort = 3,     ///< tx abort; arg = TxAbort cause
  kFlightFallback = 4,  ///< fallback path acquired
};

#pragma pack(push, 1)
struct FlightRec {
  std::uint64_t tsc;
  std::uint16_t site;
  std::uint8_t event;
  std::uint8_t pad;
  std::uint32_t arg;
};
#pragma pack(pop)
static_assert(sizeof(FlightRec) == 16);

/// A single-writer ring. Public so tests can pin the wraparound semantics
/// without arming the process-wide recorder.
class FlightRing {
 public:
  /// Capacity rounded up to a power of two, min 64. Buffer owned.
  explicit FlightRing(std::uint32_t capacity);
  ~FlightRing();
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  void push(std::uint64_t tsc, std::uint16_t site, std::uint8_t event,
            std::uint32_t arg) {
    FlightRec& r = recs_[head_ & mask_];
    r.tsc = tsc;
    r.site = site;
    r.event = event;
    r.pad = 0;
    r.arg = arg;
    ++head_;
  }

  std::uint64_t total_recorded() const { return head_; }
  std::uint32_t capacity() const { return mask_ + 1; }
  /// Records currently held (min(total, capacity)).
  std::uint32_t size() const;
  /// i-th surviving record, oldest first (0 <= i < size()).
  const FlightRec& at(std::uint32_t i) const;
  /// Backing storage (capacity() records), for the dump's two-span write.
  const FlightRec* storage() const { return recs_; }

 private:
  FlightRec* recs_;
  std::uint32_t mask_;
  std::uint64_t head_ = 0;
};

namespace detail {
extern bool g_flight_on;  ///< set once from PTO_FLIGHT before threads start
}  // namespace detail

inline bool flight_on() { return detail::g_flight_on; }

/// Record one event on this thread's ring (creates it on first use).
/// Call only when flight_on(); never records inside a simulation.
void flight_record(std::uint16_t site, std::uint8_t event, std::uint32_t arg);

/// Site-name table for the dump header. Registered eagerly by the telemetry
/// registry at intern time (bounded, lock-free publication) so the fatal-
/// signal dump path never touches a mutex. `name` must outlive the process
/// (telemetry sites are never destroyed).
void flight_register_site(unsigned id, const char* name);

/// Write every ring to PTO_FLIGHT_OUT (latched when PTO_FLIGHT arms).
/// Async-signal-safe (open/write only); also installed as the atexit +
/// fatal-signal handler when armed.
void flight_dump();

}  // namespace pto::obs
