// State shared by the workloads of one run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "schema.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string workdir;    ///< scratch files of this run (created, removed)
  std::string spans_dir;  ///< where the traced run writes its span file
};

/// One run: its options, report, spans, and the operation ledger.
struct Run {
  Options opt;
  Report report;
  Tracer tracer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;             ///< false once any output was wrong
  std::vector<std::string> notes;  ///< first failure messages, for meta

  /// An operation errored or was refused: it counts as failed.
  void error(const std::string& what) {
    ++failed;
    note(what);
  }
  /// An operation returned a wrong output: failed, and the run is wrong.
  void wrong(const std::string& what) {
    ++failed;
    correct = false;
    note(what);
  }
  void note(const std::string& what) {
    if (notes.size() < 8) notes.push_back(what);
  }

  /// Whether the measurement loop that started at `t0` should run
  /// another round: until --seconds have passed and every latency set
  /// holds `min_samples`, but never past the hard cap.
  bool keep_going(double t0, size_t samples, size_t min_samples) const {
    const double elapsed = now_s() - t0;
    if (elapsed >= cap_seconds()) return false;
    return elapsed < opt.seconds || samples < min_samples;
  }
  double cap_seconds() const { return std::min(3 * opt.seconds, 120.0); }
};

/// Index of the first element of `got` farther than `eb` from `want`,
/// or -1 when every element is within the bound (and the sizes match).
inline long first_out_of_bound(std::span<const float> want,
                               std::span<const float> got, double eb) {
  if (want.size() != got.size()) return 0;
  for (size_t i = 0; i < want.size(); ++i) {
    const double err =
        std::abs(static_cast<double>(want[i]) - static_cast<double>(got[i]));
    if (!(err <= eb)) return static_cast<long>(i);
  }
  return -1;
}

/// The rounds a run reports: those whose share of CPU time lost to the
/// hypervisor (steal_share) was no larger than the median round's, so at
/// least half of them.  On a shared host, steal stretches every timing
/// of a round and its latency tail most; the quieter half measures the
/// program.  A share, not a tick count: ticks grow with the round's own
/// length, and ranking by them would drop slow rounds for being slow.
inline std::vector<size_t> quiet_rounds(const std::vector<double>& share) {
  if (share.empty()) return {};
  std::vector<double> sorted = share;
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[(sorted.size() - 1) / 2];
  std::vector<size_t> keep;
  for (size_t i = 0; i < share.size(); ++i) {
    if (share[i] <= limit) keep.push_back(i);
  }
  return keep;
}

int run_archive(Run& run);
int run_small_fields(Run& run);

}  // namespace perfbench
