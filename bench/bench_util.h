// Shared infrastructure for the paper-experiment harnesses.
//
// Environment knobs:
//   SZSEC_SCALE = tiny | bench | full   dataset size preset (default bench)
//   SZSEC_RUNS  = N                     timing repetitions    (default 3)
//
// Every harness prints the same rows/series as the corresponding paper
// table or figure; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <string>
#include <vector>

#include "core/secure_compressor.h"
#include "data/datasets.h"

namespace szsec::bench {

/// The paper's error-bound sweep (Tables II-V, Figures 5-6).
const std::vector<double>& error_bounds();

/// Table II-V dataset order: CLOUDf48, Nyx, Q2, Height, QI, T.
const std::vector<std::string>& table_datasets();

/// Dataset size preset from SZSEC_SCALE (default kBench).
data::Scale bench_scale();

/// Timing repetitions from SZSEC_RUNS (default 3).
int bench_runs();

/// Cached dataset access (generated once per process at bench_scale()).
const data::Dataset& dataset(const std::string& name);

/// The fixed AES-128 key all benches use (reproducibility).
BytesView bench_key();

/// Builds a compressor for `scheme` with deterministic IVs.
core::SecureCompressor make_compressor(
    core::Scheme scheme, double eb,
    crypto::Mode mode = crypto::Mode::kCbc,
    uint32_t quant_bins = 65536,
    zlite::Level level = zlite::Level::kDefault);

/// One measured configuration: average compression/decompression wall
/// time over bench_runs() repetitions, plus the stats of the last run.
struct Measurement {
  double compress_seconds = 0;
  double decompress_seconds = 0;
  core::CompressStats stats;
  PipelineMetrics compress_times;    // stage breakdown of the last run
  PipelineMetrics decompress_times;
  size_t raw_bytes = 0;

  double compress_mbps() const {
    return static_cast<double>(raw_bytes) / 1e6 / compress_seconds;
  }
  double decompress_mbps() const {
    return static_cast<double>(raw_bytes) / 1e6 / decompress_seconds;
  }
};

/// Runs compress (+ decompress when `measure_decompress`) and reports the
/// median of bench_runs() repetitions after one untimed warmup.
Measurement measure(const data::Dataset& d, core::Scheme scheme, double eb,
                    bool measure_decompress = false,
                    crypto::Mode mode = crypto::Mode::kCbc);

/// Time overhead of `scheme` relative to plain SZ, in percent, measured
/// with interleaved A/B repetitions (scheme, baseline, scheme, ...) and
/// medians so slow drift on a shared machine cancels out.  This is the
/// Table III-V statistic; both sides run stage 4 at `level`.
double overhead_percent(const data::Dataset& d, core::Scheme scheme,
                        double eb,
                        zlite::Level level = zlite::Level::kDefault);

/// One dataset x scheme entry of the machine-readable stage-metrics
/// dump: the full per-stage PipelineMetrics (seconds + bytes-in/out) for
/// both directions, plus the end-to-end sizes.
struct StageMetricsRecord {
  std::string dataset;
  std::string scheme;
  double error_bound = 0;
  uint64_t raw_bytes = 0;
  uint64_t container_bytes = 0;
  PipelineMetrics compress;
  PipelineMetrics decompress;
};

/// Writes `records` to `path` as JSON:
///   [{"dataset": ..., "scheme": ..., "error_bound": ...,
///     "raw_bytes": ..., "container_bytes": ...,
///     "compress":   {"<stage>": {"seconds":s,"bytes_in":i,"bytes_out":o}},
///     "decompress": {...}}, ...]
/// The consumer side (plot scripts, regression tracking) parses this
/// instead of scraping the human-readable tables.
void write_stage_metrics_json(const std::string& path,
                              const std::vector<StageMetricsRecord>& records);

/// Peak resident set size (VmHWM from /proc/self/status) in KiB, or 0
/// where the probe is unavailable (non-Linux).  The streaming-memory
/// bench uses it to prove bounded-memory claims.
uint64_t vm_hwm_kb();

/// Current resident set size (VmRSS) in KiB, or 0 when unavailable.
uint64_t vm_rss_kb();

/// Resets the kernel's peak-RSS watermark (`echo 5 >
/// /proc/self/clear_refs`) so vm_hwm_kb() measures the phase that
/// follows instead of the process lifetime.  Returns false when the
/// kernel refuses (then callers must fall back to lifetime deltas).
bool reset_vm_hwm();

/// Fixed-width table cell helpers.
std::string fmt(double v, int width = 10, int precision = 3);
void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns,
                        int first_col_width = 10, int col_width = 10);
void print_row(const std::string& label, const std::vector<double>& values,
               int first_col_width = 10, int col_width = 10,
               int precision = 3);

}  // namespace szsec::bench
