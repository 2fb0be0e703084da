// The benchmark's output schema: every metric with its unit and
// direction, and the JSON lines a run prints.
//
// BENCHMARK.json at the repository root declares the same table;
// `perfbench --schema` prints this one so the self-test can hold the two
// equal.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  Kind kind;
};

/// Every metric, end-to-end first.
const std::vector<MetricDef>& metric_defs();

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// `perfbench --schema`: {"workloads": [...], "end_to_end": [...],
/// "per_layer": [...]}.
std::string schema_json();

/// A number as JSON with all its digits; +inf (a percentile over failed
/// operations) prints as Infinity.  Throws on NaN.
std::string json_number(double v);

/// Escapes `s` as a JSON string literal (quotes included).
std::string json_string(const std::string& s);

/// [a, b, ...], each number with all its digits.
std::string json_list(const std::vector<double>& v);

/// Collects one run's metric values and metadata.
class Report {
 public:
  /// Sets a declared metric; throws std::logic_error for an unknown name.
  void set(const std::string& name, double value);

  /// Adds a metadata entry; `json` is already-encoded JSON.
  void meta(const std::string& key, const std::string& json);
  void meta(const std::string& key, double v) { meta(key, json_number(v)); }

  /// {"key": value, ...} of every metadata entry.
  std::string meta_json() const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every metric of `kind`.  Throws std::logic_error when one is unset.
  std::string result_json(Kind kind, bool correct, uint64_t attempted,
                          uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace perfbench
