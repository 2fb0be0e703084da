#include "schema.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end: what a user of the library, archive or service sees.
      {"compress_mbps", "MB/s", "higher", Kind::kEndToEnd},
      {"decompress_mbps", "MB/s", "higher", Kind::kEndToEnd},
      {"ratio", "x", "higher", Kind::kEndToEnd},
      {"req_p50_ms", "ms", "lower", Kind::kEndToEnd},
      {"req_per_s", "1/s", "higher", Kind::kEndToEnd},
      {"ok_frac", "frac", "higher", Kind::kEndToEnd},
      {"setup_s", "s", "lower", Kind::kEndToEnd},
      {"peak_rss_mb", "MiB", "lower", Kind::kEndToEnd},
      // Per layer, from the traced run.
      {"sz.predict_quantize_s", "s", "lower", Kind::kPerLayer},
      {"sz.reconstruct_s", "s", "lower", Kind::kPerLayer},
      {"sz.predictable_frac", "frac", "higher", Kind::kPerLayer},
      {"huffman.encode_s", "s", "lower", Kind::kPerLayer},
      {"huffman.decode_s", "s", "lower", Kind::kPerLayer},
      {"zlite.deflate_s", "s", "lower", Kind::kPerLayer},
      {"zlite.inflate_s", "s", "lower", Kind::kPerLayer},
      {"zlite.gain", "x", "higher", Kind::kPerLayer},
      {"crypto.encrypt_s", "s", "lower", Kind::kPerLayer},
      {"crypto.decrypt_s", "s", "lower", Kind::kPerLayer},
      {"crypto.bytes", "B", "lower", Kind::kPerLayer},
      {"core.encode_ms", "ms", "lower", Kind::kPerLayer},
      {"core.decode_ms", "ms", "lower", Kind::kPerLayer},
      {"core.stage_cover", "frac", "higher", Kind::kPerLayer},
      {"parallel.busy_frac_c", "frac", "higher", Kind::kPerLayer},
      {"parallel.busy_frac_d", "frac", "higher", Kind::kPerLayer},
      {"archive.glue_c_s", "s", "lower", Kind::kPerLayer},
      {"archive.glue_d_s", "s", "lower", Kind::kPerLayer},
      {"archive.roi_chunks", "count", "lower", Kind::kPerLayer},
      {"archive.roi_amplification", "x", "lower", Kind::kPerLayer},
      {"archive.roi_bytes_read", "B", "lower", Kind::kPerLayer},
      {"archive.open_ms", "ms", "lower", Kind::kPerLayer},
      {"io.wchar_per_archive_byte", "x", "lower", Kind::kPerLayer},
      {"io.syscw", "count", "lower", Kind::kPerLayer},
      {"io.syscr", "count", "lower", Kind::kPerLayer},
      {"sansio.glue_ms", "ms", "lower", Kind::kPerLayer},
      {"capi.glue_ms", "ms", "lower", Kind::kPerLayer},
      {"service.ping_ms", "ms", "lower", Kind::kPerLayer},
      {"service.codec_ms", "ms", "lower", Kind::kPerLayer},
      {"service.queue_ms", "ms", "lower", Kind::kPerLayer},
      {"service.rejected", "count", "lower", Kind::kPerLayer},
      {"trace.overhead_frac", "frac", "lower", Kind::kPerLayer},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"archive-hard",
                                                 "archive-easy",
                                                 "small-fields"};
  return names;
}

std::string json_number(double v) {
  if (std::isnan(v)) throw std::logic_error("NaN metric value");
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

std::string schema_json() {
  std::string out = "{\"workloads\": [";
  for (size_t i = 0; i < workload_names().size(); ++i) {
    out += (i ? ", " : "") + json_string(workload_names()[i]);
  }
  for (const Kind kind : {Kind::kEndToEnd, Kind::kPerLayer}) {
    out += kind == Kind::kEndToEnd ? "], \"end_to_end\": ["
                                   : "], \"per_layer\": [";
    bool first = true;
    for (const MetricDef& m : metric_defs()) {
      if (m.kind != kind) continue;
      out += std::string(first ? "" : ", ") + "{\"name\": " +
             json_string(m.name) + ", \"unit\": " + json_string(m.unit) +
             ", \"better\": " + json_string(m.better) + "}";
      first = false;
    }
  }
  return out + "]}";
}

void Report::set(const std::string& name, double value) {
  for (const MetricDef& m : metric_defs()) {
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

void Report::meta(const std::string& key, const std::string& json) {
  meta_.emplace_back(key, json);
}

std::string Report::meta_json() const {
  std::string out = "{";
  for (size_t i = 0; i < meta_.size(); ++i) {
    out += (i ? ", " : "") + json_string(meta_[i].first) + ": " +
           meta_[i].second;
  }
  return out + "}";
}

std::string Report::result_json(Kind kind, bool correct, uint64_t attempted,
                                uint64_t failed) const {
  std::string metrics;
  for (const MetricDef& m : metric_defs()) {
    if (m.kind != kind) continue;
    const auto it = values_.find(m.name);
    if (it == values_.end()) {
      throw std::logic_error(std::string("metric not measured: ") + m.name);
    }
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(it->second) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

}  // namespace perfbench
