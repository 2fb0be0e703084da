// Wall-clock timing for the benchmark harness and the per-stage breakdown
// the paper reports in Figure 7.
#pragma once

#include <chrono>
#include <ctime>
#include <map>
#include <string>

namespace szsec {

/// Simple monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_s() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Process-CPU-time stopwatch.  For single-threaded benchmarking on
/// shared machines this is far more stable than wall clock (scheduler
/// preemption does not count against the measurement); the bench harness
/// uses it for every overhead/bandwidth statistic.
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  double elapsed_s() const { return now() - start_; }

 private:
  static double now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Accounting for one named pipeline stage: wall time plus the byte
/// volume that entered and left the stage, so a metrics consumer can
/// derive both a Figure-7 style time breakdown and each stage's
/// contribution to the final compression ratio.
struct StageMetric {
  double seconds = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  /// Size reduction contributed by this stage (bytes_in / bytes_out);
  /// 0 when the stage recorded no byte flow.
  double ratio() const {
    return bytes_out == 0 ? 0.0
                          : static_cast<double>(bytes_in) /
                                static_cast<double>(bytes_out);
  }
};

/// Accumulates per-stage metrics (prediction, quantization, huffman,
/// encryption, lossless, ...) across one compression run: durations for
/// the paper's Figure 7 time breakdown plus bytes-in/bytes-out recorded
/// by every codec stage.  Byte accounting is optional for callers that
/// only time (add/get/total).
class PipelineMetrics {
 public:
  void add(const std::string& stage, double seconds) {
    stages_[stage].seconds += seconds;
  }

  void add_bytes(const std::string& stage, uint64_t bytes_in,
                 uint64_t bytes_out) {
    StageMetric& m = stages_[stage];
    m.bytes_in += bytes_in;
    m.bytes_out += bytes_out;
  }

  /// Seconds spent in `stage` (0 when never recorded).
  double get(const std::string& stage) const {
    auto it = stages_.find(stage);
    return it == stages_.end() ? 0.0 : it->second.seconds;
  }

  /// Full metric for `stage` (zero-initialized when never recorded).
  StageMetric metric(const std::string& stage) const {
    auto it = stages_.find(stage);
    return it == stages_.end() ? StageMetric{} : it->second;
  }

  double total() const {
    double t = 0;
    for (const auto& [_, m] : stages_) t += m.seconds;
    return t;
  }

  const std::map<std::string, StageMetric>& all() const { return stages_; }

  /// Accumulates another run's metrics (chunked archives sum their
  /// per-chunk codec metrics into one archive-level breakdown).
  void merge(const PipelineMetrics& other) {
    for (const auto& [name, m] : other.stages_) {
      StageMetric& mine = stages_[name];
      mine.seconds += m.seconds;
      mine.bytes_in += m.bytes_in;
      mine.bytes_out += m.bytes_out;
    }
  }

  void clear() { stages_.clear(); }

 private:
  std::map<std::string, StageMetric> stages_;
};

/// RAII helper that adds the scope's duration to a PipelineMetrics entry.
/// A null sink disables timing with no branch in the hot path besides
/// the destructor check.
class ScopedStageTimer {
 public:
  ScopedStageTimer(PipelineMetrics* sink, std::string stage)
      : sink_(sink), stage_(std::move(stage)) {}

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

  ~ScopedStageTimer() {
    if (sink_ != nullptr) sink_->add(stage_, timer_.elapsed_s());
  }

 private:
  PipelineMetrics* sink_;
  std::string stage_;
  WallTimer timer_;
};

}  // namespace szsec
