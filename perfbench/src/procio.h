// Process I/O and memory counters from /proc/self.
//
// /proc/self/io counts every read and write syscall of the whole process
// (all threads).  Reading it is itself a read: a snapshot taken with
// read_proc_io() costs exactly one read syscall, which lands in the
// NEXT snapshot, so the syscr of a delta between two snapshots includes
// one read of the probe's own and its rchar includes the first
// snapshot's text.  wchar and syscw are untouched by the probe.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

struct IoCounters {
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
};

/// Parses the text of /proc/<pid>/io; nullopt when a counter the struct
/// holds is missing or malformed.
std::optional<IoCounters> parse_proc_io(std::string_view text);

/// Snapshot of this process's counters (one open, one read, one close).
/// Throws std::runtime_error when the file cannot be read or parsed.
IoCounters read_proc_io();

/// later - earlier, counter by counter.
IoCounters delta(const IoCounters& later, const IoCounters& earlier);

/// Peak resident set size (VmHWM of /proc/self/status) in MiB.
double peak_rss_mib();

/// Clock ticks of the aggregate "cpu" line of /proc/stat, summed over
/// all CPUs.
struct CpuTicks {
  /// Time this virtual machine's CPUs wanted to run while the hypervisor
  /// ran something else (the steal column).
  uint64_t steal = 0;
  /// All CPU time: the first eight columns (user nice system idle iowait
  /// irq softirq steal).  The guest columns after them are already
  /// counted in user and nice.
  uint64_t total = 0;
};

/// The ticks of the first line of /proc/stat text; nullopt when the line
/// or one of its first eight columns is missing.
std::optional<CpuTicks> parse_cpu_ticks(std::string_view stat_text);

/// Ticks of /proc/stat now; zeros when the kernel does not report them.
CpuTicks cpu_ticks();

/// The share of all CPU time between two readings that went to steal: a
/// rate, so it does not grow with the time between the readings.  0 when
/// no tick passed.
double steal_share(const CpuTicks& later, const CpuTicks& earlier);

}  // namespace perfbench
