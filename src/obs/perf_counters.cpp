#include "obs/perf_counters.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/warn.h"

#if defined(__linux__)
#include <fcntl.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace pto::obs {

#if defined(__linux__)

namespace {

long perf_event_open_sys(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// Parse a sysfs PMU event spec ("event=0xc9,umask=0x1[,...]") into a raw
/// config word. Returns false on unknown keys we cannot fold in.
bool parse_sysfs_event(const char* spec, std::uint64_t* config) {
  std::uint64_t cfg = 0;
  const char* p = spec;
  while (*p != '\0' && *p != '\n') {
    char key[32];
    unsigned long long val = 1;  // a bare flag ("in_tx") means 1
    std::size_t k = 0;
    while (*p != '\0' && *p != '=' && *p != ',' && *p != '\n' &&
           k + 1 < sizeof key) {
      key[k++] = *p++;
    }
    key[k] = '\0';
    if (*p == '=') {
      ++p;
      char* end = nullptr;
      val = std::strtoull(p, &end, 0);
      if (end == p) return false;
      p = end;
    }
    if (std::strcmp(key, "event") == 0) {
      cfg |= val & 0xffu;
    } else if (std::strcmp(key, "umask") == 0) {
      cfg |= (val & 0xffu) << 8;
    } else if (std::strcmp(key, "cmask") == 0) {
      cfg |= (val & 0xffu) << 24;
    } else if (std::strcmp(key, "edge") == 0) {
      cfg |= (val & 0x1u) << 18;
    } else if (std::strcmp(key, "inv") == 0) {
      cfg |= (val & 0x1u) << 23;
    } else {
      return false;  // in_tx/in_tx_cp etc. need bits we don't model
    }
    if (*p == ',') ++p;
  }
  *config = cfg;
  return true;
}

/// Look up a named event under the core PMU's sysfs directory.
bool sysfs_raw_event(const char* name, std::uint64_t* config) {
  char path[256];
  std::snprintf(path, sizeof path,
                "/sys/bus/event_source/devices/cpu/events/%s", name);
  int fd = ::open(path, O_RDONLY);
  if (fd < 0) return false;
  char buf[256];
  ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  return parse_sysfs_event(buf, config);
}

struct Counter {
  int fd = -1;
  std::uint64_t PerfSample::* field = nullptr;
};

struct PerfState {
  bool on = false;
  bool tsx = false;
  Counter counters[7];
  int n = 0;
};

int open_counter(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // inherit: child threads spawned after this open are aggregated into the
  // read() value — which is why counters must open before bench threads.
  attr.inherit = 1;
  return static_cast<int>(
      perf_event_open_sys(&attr, 0, -1, -1, PERF_FLAG_FD_CLOEXEC));
}

PerfState init_state() {
  PerfState st;
  if (!env::flag(env::Id::kPerf, false)) return st;

  auto add = [&st](int fd, std::uint64_t PerfSample::* field) {
    if (fd < 0) return false;
    st.counters[st.n].fd = fd;
    st.counters[st.n].field = field;
    ++st.n;
    return true;
  };

  bool core_ok = true;
  core_ok &= add(open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES),
                 &PerfSample::cycles);
  core_ok &= add(open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS),
                 &PerfSample::instructions);
  core_ok &= add(open_counter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES),
                 &PerfSample::llc_misses);
  if (!core_ok) {
    warn_once("perf.unavailable",
              "PTO_PERF=1 but perf_event_open is unavailable (%s); hardware "
              "counters disabled",
              std::strerror(errno));
    for (int i = 0; i < st.n; ++i) ::close(st.counters[i].fd);
    return PerfState{};
  }
  st.on = true;

  struct {
    const char* name;
    std::uint64_t PerfSample::* field;
  } tsx_events[] = {
      {"tx-start", &PerfSample::tx_start},
      {"tx-abort", &PerfSample::tx_abort},
      {"tx-capacity", &PerfSample::tx_capacity},
      {"tx-conflict", &PerfSample::tx_conflict},
  };
  bool tsx_ok = true;
  for (const auto& e : tsx_events) {
    std::uint64_t config = 0;
    if (!sysfs_raw_event(e.name, &config) ||
        !add(open_counter(PERF_TYPE_RAW, config), e.field)) {
      tsx_ok = false;
      break;
    }
  }
  st.tsx = tsx_ok;
  if (!tsx_ok) {
    warn_once("perf.no_tsx_events",
              "PTO_PERF=1: TSX PMU events not exposed here; emitting core "
              "counters only");
  }
  return st;
}

PerfState& state() {
  static PerfState st = init_state();
  return st;
}

}  // namespace

bool perf_on() { return state().on; }

PerfSample perf_read() {
  PerfSample s;
  PerfState& st = state();
  if (!st.on) return s;
  s.valid = true;
  s.tsx_valid = st.tsx;
  for (int i = 0; i < st.n; ++i) {
    std::uint64_t v = 0;
    if (::read(st.counters[i].fd, &v, sizeof v) !=
        static_cast<ssize_t>(sizeof v)) {
      continue;  // leave the field at 0; deltas stay consistent
    }
    s.*(st.counters[i].field) = v;
  }
  return s;
}

#else  // !__linux__

bool perf_on() {
  static bool warned = [] {
    if (env::flag(env::Id::kPerf, false)) {
      warn_once("env.PTO_PERF", "PTO_PERF is Linux-only; ignoring");
    }
    return true;
  }();
  (void)warned;
  return false;
}

PerfSample perf_read() { return {}; }

#endif

PerfSample perf_delta(const PerfSample& before, const PerfSample& after) {
  PerfSample d;
  d.valid = before.valid && after.valid;
  d.tsx_valid = before.tsx_valid && after.tsx_valid;
  if (!d.valid) return d;
  d.cycles = after.cycles - before.cycles;
  d.instructions = after.instructions - before.instructions;
  d.llc_misses = after.llc_misses - before.llc_misses;
  if (d.tsx_valid) {
    d.tx_start = after.tx_start - before.tx_start;
    d.tx_abort = after.tx_abort - before.tx_abort;
    d.tx_capacity = after.tx_capacity - before.tx_capacity;
    d.tx_conflict = after.tx_conflict - before.tx_conflict;
  }
  return d;
}

}  // namespace pto::obs
