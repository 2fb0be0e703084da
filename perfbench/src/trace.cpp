#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

uint64_t Tracer::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  s.id = spans_.size() + 1;
  if (s.parent != 0) {
    if (s.parent > spans_.size()) throw std::logic_error("unknown parent span");
    children_[s.parent - 1].push_back(s.id);
  }
  spans_.push_back(std::move(s));
  children_.emplace_back();
  return spans_.back().id;
}

uint64_t Tracer::record(std::string name, uint64_t parent, uint64_t request,
                        double start_s, double end_s, unsigned workers,
                        uint64_t bytes_in, uint64_t bytes_out) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  s.start_s = start_s;
  s.end_s = end_s;
  s.workers = workers;
  s.bytes_in = bytes_in;
  s.bytes_out = bytes_out;
  return add(std::move(s));
}

uint64_t Tracer::record_stage(std::string name, uint64_t parent,
                              double seconds, uint64_t bytes_in,
                              uint64_t bytes_out) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Span& p = spans_.at(parent - 1);
    s.request = p.request;
    s.start_s = p.start_s;
    s.end_s = p.end_s;
  }
  s.stage = true;
  s.stage_s = seconds;
  s.bytes_in = bytes_in;
  s.bytes_out = bytes_out;
  return add(std::move(s));
}

void Tracer::record_stages(uint64_t parent,
                           const szsec::PipelineMetrics& metrics,
                           std::span<const char* const> stages) {
  for (const char* name : stages) {
    const szsec::StageMetric m = metrics.metric(name);
    record_stage(std::string("stage.") + name, parent, m.seconds, m.bytes_in,
                 m.bytes_out);
  }
}

Span Tracer::span(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.at(id - 1);
}

double Tracer::stage_sum(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (uint64_t c : children_.at(id - 1)) {
    if (spans_[c - 1].stage) total += spans_[c - 1].stage_s;
  }
  return total;
}

double Tracer::self_time(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& p = spans_.at(id - 1);
  double covered = 0;
  std::vector<std::pair<double, double>> intervals;
  for (uint64_t c : children_[id - 1]) {
    const Span& s = spans_[c - 1];
    if (s.stage) {
      covered += s.stage_s;
      continue;
    }
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return p.busy_s() - covered;
}

double checked_glue(const Tracer& tracer, uint64_t id) {
  const double glue = tracer.self_time(id);
  if (glue < -kGlueSlackS) {
    throw std::runtime_error(tracer.span(id).name +
                             ": stage time exceeds busy time");
  }
  return glue;
}

void Tracer::write_json(const std::string& path,
                        const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"workers\": %u, \"stage\": %s, \"busy_us\": %.3f, "
                 "\"bytes_in\": %llu, \"bytes_out\": %llu}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 s.start_s * 1e6, s.end_s * 1e6, s.workers,
                 s.stage ? "true" : "false", s.busy_s() * 1e6,
                 static_cast<unsigned long long>(s.bytes_in),
                 static_cast<unsigned long long>(s.bytes_out),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
