// Order statistics for the benchmark's metrics.
//
// A timing is reported as a median and the highest percentile that has
// at least kMinTail samples beyond it.  Failed operations enter a
// latency sample set as +infinity, so they count as missing every
// latency limit.
//
// Latency percentiles are taken per block of consecutive samples and the
// run reports the median block (block_percentile): a shared virtual
// machine has episodes of CPU contention lasting seconds, and one such
// episode shifts a pooled p90 of the whole run, while it spoils only the
// blocks it overlaps.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Samples a percentile must leave beyond it to be reported.
inline constexpr size_t kMinTail = 10;

/// 0-based index of the nearest-rank `pct` percentile of n sorted
/// samples: the smallest sample with at least pct% of all samples at or
/// below it.  Integer arithmetic, so p90 of 100 samples is exactly the
/// 90th.
inline size_t rank_index(size_t n, unsigned pct) {
  const size_t rank = (n * pct + 99) / 100;  // ceil(n * pct / 100)
  return rank == 0 ? 0 : rank - 1;
}

/// Samples lying strictly beyond the nearest-rank `pct` percentile.
inline size_t samples_beyond(size_t n, unsigned pct) {
  return n == 0 ? 0 : n - 1 - rank_index(n, pct);
}

/// Smallest sample count whose `pct` percentile has kMinTail samples
/// beyond it (100 for p90, 20 for p50).
inline size_t min_samples(unsigned pct) {
  size_t n = 1;
  while (samples_beyond(n, pct) < kMinTail) ++n;
  return n;
}

/// Nearest-rank percentile; 0 for an empty set.
inline double percentile(std::vector<double> v, unsigned pct) {
  if (v.empty()) return 0;
  const size_t i = rank_index(v.size(), pct);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(i), v.end());
  return v[i];
}

/// Median: the middle sample, or the mean of the two middle samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Consecutive samples per block: the fewest that leave kMinTail samples
/// beyond a p90.
inline constexpr size_t kBlock = 100;

/// Splits `v` (in measurement order) into as many consecutive blocks of
/// at least kBlock samples as it holds, takes the `pct` percentile of
/// each, and returns the median of those.  Fewer than 2 x kBlock samples
/// make one block: the plain percentile.
inline double block_percentile(const std::vector<double>& v, unsigned pct) {
  const size_t blocks = std::max<size_t>(1, v.size() / kBlock);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = b * v.size() / blocks;
    const size_t hi = (b + 1) * v.size() / blocks;
    per_block.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<long>(lo),
                            v.begin() + static_cast<long>(hi)),
        pct));
  }
  return median(per_block);
}

inline double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace perfbench
