#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/timer.h"

namespace szsec::bench {

const std::vector<double>& error_bounds() {
  static const std::vector<double> ebs = {1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
  return ebs;
}

const std::vector<std::string>& table_datasets() {
  static const std::vector<std::string> names = {"CLOUDf48", "Nyx", "Q2",
                                                 "Height",   "QI",  "T"};
  return names;
}

data::Scale bench_scale() {
  const char* env = std::getenv("SZSEC_SCALE");
  if (env != nullptr) {
    const std::string s = env;
    if (s == "tiny") return data::Scale::kTiny;
    if (s == "full") return data::Scale::kFull;
  }
  return data::Scale::kBench;
}

int bench_runs() {
  const char* env = std::getenv("SZSEC_RUNS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 3;
}

const data::Dataset& dataset(const std::string& name) {
  static std::map<std::string, data::Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, data::make_dataset(name, bench_scale())).first;
  }
  return it->second;
}

BytesView bench_key() {
  static const Bytes key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  return BytesView(key);
}

namespace {
crypto::CtrDrbg& bench_drbg() {
  static crypto::CtrDrbg drbg(0x5EC0DE);
  return drbg;
}
}  // namespace

core::SecureCompressor make_compressor(core::Scheme scheme, double eb,
                                       crypto::Mode mode,
                                       uint32_t quant_bins,
                                       zlite::Level level) {
  sz::Params params;
  params.abs_error_bound = eb;
  params.quant_bins = quant_bins;
  params.lossless_level = level;
  return core::SecureCompressor(
      params, scheme,
      scheme == core::Scheme::kNone ? BytesView{} : bench_key(), mode,
      &bench_drbg());
}

namespace {
double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}
}  // namespace

Measurement measure(const data::Dataset& d, core::Scheme scheme, double eb,
                    bool measure_decompress, crypto::Mode mode) {
  const core::SecureCompressor c = make_compressor(scheme, eb, mode);
  Measurement m;
  m.raw_bytes = d.bytes();
  const int runs = bench_runs();
  core::CompressResult last;
  last = c.compress(std::span<const float>(d.values), d.dims);  // warmup
  std::vector<double> comp_times;
  for (int r = 0; r < runs; ++r) {
    CpuTimer t;
    last = c.compress(std::span<const float>(d.values), d.dims);
    comp_times.push_back(t.elapsed_s());
  }
  m.compress_seconds = median(std::move(comp_times));
  m.stats = last.stats;
  m.compress_times = last.times;
  if (measure_decompress) {
    core::DecompressResult out;
    std::vector<double> decomp_times;
    for (int r = 0; r < runs; ++r) {
      CpuTimer t;
      out = c.decompress(BytesView(last.container));
      decomp_times.push_back(t.elapsed_s());
    }
    m.decompress_seconds = median(std::move(decomp_times));
    m.decompress_times = out.times;
  }
  return m;
}

double overhead_percent(const data::Dataset& d, core::Scheme scheme,
                        double eb, zlite::Level level) {
  const core::SecureCompressor base = make_compressor(
      core::Scheme::kNone, eb, crypto::Mode::kCbc, 65536, level);
  const core::SecureCompressor enc =
      make_compressor(scheme, eb, crypto::Mode::kCbc, 65536, level);
  const std::span<const float> data(d.values);
  // Warmup both paths (page in the dataset, size the allocator pools).
  (void)base.compress(data, d.dims);
  (void)enc.compress(data, d.dims);
  std::vector<double> base_times, enc_times;
  for (int r = 0; r < bench_runs(); ++r) {
    {
      CpuTimer t;
      (void)enc.compress(data, d.dims);
      enc_times.push_back(t.elapsed_s());
    }
    {
      CpuTimer t;
      (void)base.compress(data, d.dims);
      base_times.push_back(t.elapsed_s());
    }
  }
  return 100.0 * median(std::move(enc_times)) /
         median(std::move(base_times));
}

namespace {

void write_metrics_object(std::FILE* f, const PipelineMetrics& m) {
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [stage, metric] : m.all()) {
    std::fprintf(f,
                 "%s\n        \"%s\": {\"seconds\": %.9f, \"bytes_in\": "
                 "%llu, \"bytes_out\": %llu}",
                 first ? "" : ",", stage.c_str(), metric.seconds,
                 static_cast<unsigned long long>(metric.bytes_in),
                 static_cast<unsigned long long>(metric.bytes_out));
    first = false;
  }
  std::fprintf(f, "\n      }");
}

}  // namespace

void write_stage_metrics_json(
    const std::string& path,
    const std::vector<StageMetricsRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  SZSEC_REQUIRE(f != nullptr, "cannot open stage metrics output file");
  std::fprintf(f, "[");
  for (size_t i = 0; i < records.size(); ++i) {
    const StageMetricsRecord& r = records[i];
    std::fprintf(f,
                 "%s\n  {\n"
                 "    \"dataset\": \"%s\",\n"
                 "    \"scheme\": \"%s\",\n"
                 "    \"error_bound\": %g,\n"
                 "    \"raw_bytes\": %llu,\n"
                 "    \"container_bytes\": %llu,\n"
                 "    \"compress\": ",
                 i == 0 ? "" : ",", r.dataset.c_str(), r.scheme.c_str(),
                 r.error_bound,
                 static_cast<unsigned long long>(r.raw_bytes),
                 static_cast<unsigned long long>(r.container_bytes));
    write_metrics_object(f, r.compress);
    std::fprintf(f, ",\n    \"decompress\": ");
    write_metrics_object(f, r.decompress);
    std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
}

std::string fmt(double v, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

void print_table_header(const std::string& title,
                        const std::vector<std::string>& columns,
                        int first_col_width, int col_width) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-*s", first_col_width, "");
  for (const auto& c : columns) std::printf(" %*s", col_width, c.c_str());
  std::printf("\n");
  const int total =
      first_col_width + static_cast<int>(columns.size()) * (col_width + 1);
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void print_row(const std::string& label, const std::vector<double>& values,
               int first_col_width, int col_width, int precision) {
  std::printf("%-*s", first_col_width, label.c_str());
  for (double v : values) {
    std::printf(" %s", fmt(v, col_width, precision).c_str());
  }
  std::printf("\n");
}

namespace {

// Pulls one "VmXYZ:   1234 kB" field out of /proc/self/status.
uint64_t proc_status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  uint64_t kb = 0;
  char line[256];
  const size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0 &&
        line[field_len] == ':') {
      kb = std::strtoull(line + field_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

uint64_t vm_hwm_kb() { return proc_status_kb("VmHWM"); }

uint64_t vm_rss_kb() { return proc_status_kb("VmRSS"); }

bool reset_vm_hwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5\n", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace szsec::bench
