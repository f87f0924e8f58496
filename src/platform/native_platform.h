// NativePlatform: Platform implementation for real threads, backed by
// std::atomic plus the native HTM facade (RTM when available, SoftHTM
// otherwise). Under SoftHTM every access is routed through the strongly-
// atomic accessors (see htm/softhtm.h), which touch only the accessed word's
// orec; under RTM accesses compile to plain std::atomic operations.
#pragma once

#include <atomic>
#include <csetjmp>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "htm/htm.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pto {

struct NativePlatform {
  static bool soft_backend() { return htm::backend() == htm::Backend::kSoft; }

  template <class T>
  class atomic {
   public:
    atomic() : a_{} {}
    explicit atomic(T v) : a_(v) {}
    atomic(const atomic&) = delete;
    atomic& operator=(const atomic&) = delete;

    T load(std::memory_order mo = std::memory_order_seq_cst) const {
      if (PTO_UNLIKELY(soft_backend())) {
        if (softhtm::in_tx()) return softhtm::tx_load(a_);
        return softhtm::nt_load(a_);
      }
      return a_.load(mo);
    }

    void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
      if (PTO_UNLIKELY(soft_backend())) {
        if (softhtm::in_tx()) {
          softhtm::tx_store(a_, v);
        } else {
          softhtm::nt_store(a_, v);
        }
        return;
      }
      a_.store(v, mo);
    }

    bool compare_exchange_strong(
        T& expected, T desired,
        std::memory_order mo = std::memory_order_seq_cst) {
      if (PTO_UNLIKELY(soft_backend())) {
        if (softhtm::in_tx()) {
          T cur = softhtm::tx_load(a_);
          if (cur != expected) {
            expected = cur;
            return false;
          }
          softhtm::tx_store(a_, desired);
          return true;
        }
        return softhtm::nt_cas(a_, expected, desired);
      }
      return a_.compare_exchange_strong(expected, desired, mo);
    }

    T fetch_add(T delta, std::memory_order mo = std::memory_order_seq_cst)
      requires std::is_integral_v<T>
    {
      if (PTO_UNLIKELY(soft_backend())) {
        if (softhtm::in_tx()) {
          T cur = softhtm::tx_load(a_);
          softhtm::tx_store(a_, static_cast<T>(cur + delta));
          return cur;
        }
        return softhtm::nt_fetch_add(a_, delta);
      }
      return a_.fetch_add(delta, mo);
    }

    void init(T v) { a_.store(v, std::memory_order_relaxed); }

   private:
    std::atomic<T> a_;
  };

  /// Fences inside hardware transactions are skipped: they are subsumed by
  /// TxBegin/TxEnd (and MFENCE may abort an RTM transaction outright).
  static void fence() {
    if (htm::in_tx()) return;
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  static unsigned tx_begin() { return htm::tx_begin(); }
  static void tx_end() { htm::tx_end(); }
  template <unsigned char C>
  [[noreturn]] static void tx_abort() {
    htm::tx_abort<C>();
  }
  static bool in_tx() { return htm::in_tx(); }
  static std::jmp_buf& tx_checkpoint() { return htm::checkpoint(); }
  static unsigned char last_user_code() { return htm::last_user_code(); }

  /// Only real RTM gives strong atomicity; under SoftHTM a node reused
  /// through plain init() stores leaves its orecs unchanged, so version
  /// validation would not see the reuse and epoch reservations are NOT
  /// elided there (reclaim/epoch.h consults this).
  static bool strongly_atomic() { return htm::strongly_atomic(); }

  static std::uint64_t rnd();
  static void pause() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#endif
  }

  template <class T, class... A>
  static T* make(A&&... args) {
    return ::new T(std::forward<A>(args)...);
  }

  template <class T>
  static void destroy(T* p) {
    delete p;
  }

  static void* alloc_bytes(std::size_t n) { return ::operator new(n); }
  static void free_bytes(void* p, std::size_t) { ::operator delete(p); }
};

}  // namespace pto
