// In-memory spans for the traced run.
//
// A span records one call the benchmark made into a layer: its name,
// start and end (seconds since the tracer was created), its own id, its
// parent's id (0 for a root), the request it belongs to, and the bytes
// that went in and came out.  Spans come from the benchmark's own code,
// around the end-to-end calls and around out-of-line "ladder" calls that
// repeat the work of one layer on the same inputs.
//
// Stage spans are synthetic: the codec reports per-stage seconds summed
// over every worker (PipelineMetrics), not intervals, so a stage span
// carries only a busy time and sits inside its parent by construction.
//
// Self time: a span's busy time (duration x workers, so a parallel call
// counts as wall x workers) minus the time its children cover.  Stage
// children cover their busy time; real children cover the part of their
// interval that overlaps the parent's interval (overlaps counted once),
// so an out-of-line child that runs after its parent covers nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/timer.h"

namespace perfbench {

/// Monotonic seconds (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The codec's stage names as its PipelineMetrics report them, in chain
/// order.
inline constexpr const char* kEncodeStages[] = {"predict+quantize", "huffman",
                                                "encrypt", "lossless"};
inline constexpr const char* kDecodeStages[] = {"reconstruct", "huffman",
                                                "decrypt", "lossless"};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  double start_s = 0;
  double end_s = 0;
  unsigned workers = 1;
  bool stage = false;    ///< synthetic stage span: busy time only
  double stage_s = 0;    ///< busy seconds of a stage span
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  double busy_s() const {
    return stage ? stage_s : (end_s - start_s) * workers;
  }
};

/// Thread-safe span store.  Ids start at 1 and index spans in order.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the tracer was created (the span clock).
  double now() const { return now_s() - origin_s_; }
  /// A now_s() reading on the span clock.
  double at(double steady_s) const { return steady_s - origin_s_; }

  /// Records a finished call that ran over [start_s, end_s].
  uint64_t record(std::string name, uint64_t parent, uint64_t request,
                  double start_s, double end_s, unsigned workers = 1,
                  uint64_t bytes_in = 0, uint64_t bytes_out = 0);

  /// Records a synthetic stage child of `parent`.
  uint64_t record_stage(std::string name, uint64_t parent, double seconds,
                        uint64_t bytes_in = 0, uint64_t bytes_out = 0);

  /// One stage child "stage.<name>" of `parent` per name in `stages`,
  /// with that stage's seconds and bytes from `metrics`.
  void record_stages(uint64_t parent, const szsec::PipelineMetrics& metrics,
                     std::span<const char* const> stages);

  Span span(uint64_t id) const;

  /// Sum of the busy time of `id`'s stage children.
  double stage_sum(uint64_t id) const;

  /// Busy time of `id` minus the time its children cover.
  double self_time(uint64_t id) const;

  /// Writes every span as JSON to `path`; throws on I/O failure.
  void write_json(const std::string& path, const std::string& header) const;

 private:
  uint64_t add(Span s);

  const double origin_s_ = now_s();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::vector<uint64_t>> children_;  ///< by id - 1
};

/// Slack of the glue check, in seconds.  The codec times its stages on
/// the same steady clock as the spans, each stage interval lies inside
/// its call, and one thread's stage intervals do not overlap, so without
/// rounding the stage time of a call is at most its busy time exactly.
/// What is left is the rounding of clock readings to double seconds,
/// about 1e-11 s per reading: 1 us covers it many times over.
inline constexpr double kGlueSlackS = 1e-6;

/// The named glue of a traced call: its self time, busy time minus what
/// its children cover.  Stage time + glue = busy time then holds by that
/// definition; what is checked is that the glue is not negative beyond
/// kGlueSlackS, which would mean stage work ran on more threads than the
/// call's busy time counts.  Throws std::runtime_error naming the span.
double checked_glue(const Tracer& tracer, uint64_t span);

}  // namespace perfbench
