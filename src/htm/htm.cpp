#include "htm/htm.h"

#include "common/env.h"
#include "common/warn.h"

#if defined(PTO_HAVE_RTM)
#include <cpuid.h>
#endif

namespace pto::htm {

namespace detail {

#if defined(PTO_HAVE_RTM)
thread_local unsigned char tls_rtm_user_code = TX_CODE_NONE;

namespace {
bool cpu_has_rtm() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 11)) != 0;  // CPUID.07H:EBX.RTM
}

/// Some CPUs advertise RTM but always abort (TSX disabled by microcode).
/// Require at least one committed probe transaction before trusting it.
bool rtm_actually_commits() {
  for (int i = 0; i < 16; ++i) {
    unsigned s = _xbegin();
    if (s == _XBEGIN_STARTED) {
      _xend();
      return true;
    }
  }
  return false;
}
}  // namespace
#endif

Backend probe_backend() {
  const unsigned forced = env::choice(env::Id::kHtm, 2);  // rtm|soft; 2 = probe
  if (forced == 1) return Backend::kSoft;
#if defined(PTO_HAVE_RTM)
  if (forced == 0) return Backend::kRTM;
  if (cpu_has_rtm() && rtm_actually_commits()) return Backend::kRTM;
#else
  if (forced == 0) {
    warn_once("env.PTO_HTM",
              "PTO_HTM=rtm needs a build with RTM support; using soft");
  }
#endif
  return Backend::kSoft;
}

}  // namespace detail

namespace detail {
telemetry::Site* native_site() {
  static telemetry::Site* const s = telemetry::Registry::instance().intern(
      backend() == Backend::kRTM ? "htm.rtm" : "htm.soft");
  return s;
}
}  // namespace detail

unsigned char last_user_code() {
#if defined(PTO_HAVE_RTM)
  if (backend() == Backend::kRTM) return detail::tls_rtm_user_code;
#endif
  return softhtm::last_user_code();
}

}  // namespace pto::htm
