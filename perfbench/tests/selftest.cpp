// Self-tests of the benchmark's own arithmetic and output schema.  No
// test here asserts anything about how fast anything runs.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "bench.h"
#include "fields.h"
#include "procio.h"
#include "schema.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

// --- percentiles and the sample-count rule ------------------------------

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 90), 90);
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(10), 90), 9);
  EXPECT_EQ(percentile(one_to(1), 90), 1);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median(one_to(4)), 2.5);
  EXPECT_EQ(median(one_to(5)), 3);
  EXPECT_EQ(median({7}), 7);
}

TEST(Percentile, TenSamplesBeyondP90NeedsOneHundred) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(20, 50), 10u);
  EXPECT_EQ(min_samples(90), 100u);
  EXPECT_EQ(min_samples(50), 20u);
}

TEST(Percentile, FailuresCountAsInfinitelySlow) {
  std::vector<double> v = one_to(100);
  for (size_t i = 0; i < 10; ++i) v[i] = kInf;  // ten failures
  EXPECT_TRUE(std::isfinite(percentile(v, 90)));
  v[10] = kInf;  // an eleventh reaches the p90
  EXPECT_TRUE(std::isinf(percentile(v, 90)));
  EXPECT_TRUE(std::isfinite(percentile(v, 50)));
}

TEST(Percentile, BlocksKeepOneEpisodeFromMovingTheTail) {
  std::vector<double> v;
  for (int block = 0; block < 4; ++block) {
    const std::vector<double> b = one_to(100);
    v.insert(v.end(), b.begin(), b.end());
  }
  EXPECT_EQ(block_percentile(v, 90), 90);
  for (size_t i = 100; i < 200; ++i) v[i] *= 10;  // a slow episode
  EXPECT_EQ(block_percentile(v, 90), 90);
  EXPECT_GT(percentile(v, 90), 90);  // ... which the pooled p90 shows
  // Under two blocks' worth of samples there is one block.
  EXPECT_EQ(block_percentile(one_to(150), 90), percentile(one_to(150), 90));
}

// --- span self time -------------------------------------------------------

TEST(Spans, NestedChildrenCoverTheirUnionOnce) {
  Tracer t;
  const uint64_t p = t.record("parent", 0, 1, 0, 10);
  t.record("a", p, 1, 1, 3);
  const uint64_t b = t.record("b", p, 1, 2, 5);  // overlaps a
  t.record("grandchild", b, 1, 2, 4);           // never covers p directly
  EXPECT_DOUBLE_EQ(t.self_time(p), 10 - 4);
  EXPECT_DOUBLE_EQ(t.self_time(b), 3 - 2);
}

TEST(Spans, ParallelCallCountsWallTimesWorkers) {
  Tracer t;
  const uint64_t p = t.record("parallel", 0, 1, 0, 10, /*workers=*/2);
  t.record_stage("stage.x", p, 6);
  t.record_stage("stage.y", p, 8);
  EXPECT_DOUBLE_EQ(t.span(p).busy_s(), 20);
  EXPECT_DOUBLE_EQ(t.stage_sum(p), 14);
  EXPECT_DOUBLE_EQ(t.self_time(p), 6);
  EXPECT_DOUBLE_EQ(checked_glue(t, p), 6);
}

TEST(Spans, OutOfLineChildrenCoverOnlyTheirOverlap) {
  Tracer t;
  const uint64_t p = t.record("call", 0, 1, 0, 10);
  t.record("ladder", p, 1, 12, 15);  // runs after its parent
  EXPECT_DOUBLE_EQ(t.self_time(p), 10);
  t.record("straddle", p, 1, 8, 12);  // two of its seconds overlap
  EXPECT_DOUBLE_EQ(t.self_time(p), 8);
}

TEST(Spans, StageTimeBeyondBusyTimeFailsTheGlueCheck) {
  Tracer t;
  const uint64_t p = t.record("call", 0, 1, 0, 1, /*workers=*/2);
  t.record_stage("stage.x", p, 2.5);
  EXPECT_THROW(checked_glue(t, p), std::runtime_error);
}

TEST(Spans, GlueCheckAllowsOnlyClockRoundingSlack) {
  Tracer t;
  const uint64_t exact = t.record("exact", 0, 1, 0, 1);
  t.record_stage("stage.x", exact, 1 + kGlueSlackS / 2);
  EXPECT_NEAR(checked_glue(t, exact), -kGlueSlackS / 2, 1e-12);
  const uint64_t over = t.record("over", 0, 1, 0, 1);
  t.record_stage("stage.x", over, 1 + 2 * kGlueSlackS);
  EXPECT_THROW(checked_glue(t, over), std::runtime_error);
}

TEST(Spans, StagesInheritTheRequestAndFollowTheMetrics) {
  Tracer t;
  const uint64_t p = t.record("call", 0, 42, 0, 1);
  szsec::PipelineMetrics m;
  m.add("huffman", 0.25);
  m.add_bytes("huffman", 100, 40);
  t.record_stages(p, m, kDecodeStages);  // absent stages record 0 s
  const Span s = t.span(p + 2);
  EXPECT_TRUE(s.stage);
  EXPECT_EQ(s.name, "stage.huffman");
  EXPECT_EQ(s.request, 42u);
  EXPECT_EQ(s.bytes_in, 100u);
  EXPECT_DOUBLE_EQ(t.stage_sum(p), 0.25);
  EXPECT_DOUBLE_EQ(t.self_time(p), 0.75);
}

// --- /proc/self/io --------------------------------------------------------

TEST(ProcIo, ParsesEveryCounter) {
  const auto c = parse_proc_io(
      "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\nread_bytes: 4096\n"
      "write_bytes: 8192\ncancelled_write_bytes: 0\n");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->rchar, 10u);
  EXPECT_EQ(c->wchar, 20u);
  EXPECT_EQ(c->syscr, 3u);
  EXPECT_EQ(c->syscw, 4u);
  EXPECT_EQ(c->read_bytes, 4096u);
  EXPECT_EQ(c->write_bytes, 8192u);
}

TEST(ProcIo, RejectsMissingOrMalformedCounters) {
  EXPECT_FALSE(parse_proc_io("rchar: 10\nwchar: 20\n").has_value());
  EXPECT_FALSE(parse_proc_io("rchar: 1x\nwchar: 2\nsyscr: 3\nsyscw: 4\n"
                             "read_bytes: 5\nwrite_bytes: 6\n")
                   .has_value());
}

TEST(ProcIo, DeltaIsPerCounter) {
  IoCounters a, b;
  a.wchar = 100;
  a.syscr = 7;
  b.wchar = 40;
  b.syscr = 5;
  const IoCounters d = delta(a, b);
  EXPECT_EQ(d.wchar, 60u);
  EXPECT_EQ(d.syscr, 2u);
}

TEST(ProcIo, ASnapshotCostsExactlyOneReadAndNoWrite) {
  const IoCounters first = read_proc_io();
  const IoCounters second = read_proc_io();
  const IoCounters d = delta(second, first);
  EXPECT_EQ(d.syscr, 1u);  // the first snapshot's own read
  EXPECT_GT(d.rchar, 0u);  // ... and the text it returned
  EXPECT_EQ(d.syscw, 0u);
  EXPECT_EQ(d.wchar, 0u);
}

TEST(ProcStat, StealIsTheEighthColumnAndTotalTheFirstEight) {
  const auto t = parse_cpu_ticks(
      "cpu  232306 0 11870 1353675 510 0 5902 13306 7 9\n"
      "cpu0 1 2 3 4 5 6 7 8 9 10\n");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->steal, 13306u);
  // guest and guest_nice (7, 9) are already inside user and nice.
  EXPECT_EQ(t->total, 232306u + 11870 + 1353675 + 510 + 5902 + 13306);
  EXPECT_FALSE(parse_cpu_ticks("cpu  1 2 3\n").has_value());
  EXPECT_FALSE(parse_cpu_ticks("intr 1 2 3 4 5 6 7 8 9\n").has_value());
}

TEST(ProcStat, StealShareIsARate) {
  EXPECT_DOUBLE_EQ(steal_share({30, 1100}, {10, 100}), 0.02);
  EXPECT_EQ(steal_share({10, 100}, {10, 100}), 0);  // no tick passed
}

TEST(ProcStat, QuietRoundsAreThoseAtOrBelowTheMedianStealShare) {
  EXPECT_EQ(quiet_rounds({0, 0.05, 0, 0.09, 0.01}),
            (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(quiet_rounds({0, 0, 0}), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(quiet_rounds({}).empty());
}

TEST(ProcStat, ALongerRoundWithTheSameStealRateIsKept) {
  // Round 1 lasts four times as long as round 0 at the same steal rate:
  // it has four times the steal ticks, but the same share.
  const CpuTicks start{0, 0};
  const std::vector<double> share = {
      steal_share({1, 100}, start), steal_share({4, 400}, start),
      steal_share({10, 100}, start), steal_share({0, 100}, start)};
  EXPECT_EQ(quiet_rounds(share), (std::vector<size_t>{0, 1, 3}));
}

// --- output schema ------------------------------------------------------

bool valid_name(const std::string& s) {
  if (s.empty() || s.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool valid_unit(const std::string& s) {
  if (s.empty() || s.size() > 16) return false;
  for (const char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) &&
        std::string("_/%.-").find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

TEST(Schema, EveryMetricHasANameAUnitAndADirection) {
  std::set<std::string> names;
  size_t end_to_end = 0;
  for (const MetricDef& m : metric_defs()) {
    EXPECT_TRUE(valid_name(m.name)) << m.name;
    EXPECT_TRUE(valid_unit(m.unit)) << m.name << " " << m.unit;
    EXPECT_TRUE(std::string(m.better) == "higher" ||
                std::string(m.better) == "lower")
        << m.name;
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    end_to_end += m.kind == Kind::kEndToEnd;
  }
  EXPECT_GE(end_to_end, 1u);
  EXPECT_LE(end_to_end, 16u);
  EXPECT_LE(metric_defs().size() - end_to_end, 128u);
}

TEST(Schema, SetupTimeIsAnEndToEndMetricInSecondsLowerIsBetter) {
  bool found = false;
  for (const MetricDef& m : metric_defs()) {
    if (std::string(m.name) != "setup_s") continue;
    found = true;
    EXPECT_EQ(m.kind, Kind::kEndToEnd);
    EXPECT_STREQ(m.unit, "s");
    EXPECT_STREQ(m.better, "lower");
  }
  EXPECT_TRUE(found);
}

TEST(Schema, ResultLineNeedsEveryMetricOfItsKind) {
  Report r;
  for (const MetricDef& m : metric_defs()) {
    if (m.kind == Kind::kEndToEnd && std::string(m.name) != "ratio") {
      r.set(m.name, 1.5);
    }
  }
  EXPECT_THROW(r.result_json(Kind::kEndToEnd, true, 1, 0), std::logic_error);
  r.set("ratio", 4.25);
  const std::string line = r.result_json(Kind::kEndToEnd, true, 3, 0);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(line.find("\"ratio\": {\"value\": 4.25, \"unit\": \"x\"}"),
            std::string::npos);
  EXPECT_EQ(line.find("sz."), std::string::npos);  // per-layer stays out
  EXPECT_THROW(r.set("not_a_metric", 1), std::logic_error);
}

TEST(Schema, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(kInf), "Infinity");
  EXPECT_THROW(json_number(std::nan("")), std::logic_error);
  EXPECT_EQ(json_string("a\"b"), "\"a\\\"b\"");
}

// --- inputs ---------------------------------------------------------------

TEST(Fields, SameSeedSameFieldOtherSeedOtherField) {
  const szsec::Dims d{6, 8, 8};
  EXPECT_EQ(nyx_like(d, 7), nyx_like(d, 7));
  EXPECT_NE(nyx_like(d, 7), nyx_like(d, 8));
  EXPECT_EQ(cloud_like(d, 7), cloud_like(d, 7));
  EXPECT_NE(mix_seed(1, 1), mix_seed(1, 2));
  EXPECT_NE(mix_seed(1, 1), mix_seed(2, 1));
}

}  // namespace
}  // namespace perfbench
