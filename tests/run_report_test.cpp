// Tests for the metrics registry (obs/metrics.h), the JSON document model
// (io/json.h) and structured run reports (io/run_report.h). The golden-file
// test pins the current schema version byte-for-byte (regenerate with
// SATTN_REGEN_GOLDEN=1 after an intentional schema change, and bump
// kRunReportVersion).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "io/json.h"
#include "io/run_report.h"
#include "obs/metrics.h"
#include "obs/summary.h"
#include "obs/trace.h"

namespace sattn {
namespace {

using obs::percentile_nearest_rank;

class MetricsTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    obs::set_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

// --- percentile_nearest_rank -----------------------------------------------

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_EQ(percentile_nearest_rank({}, 0.50), 0.0);
  EXPECT_EQ(percentile_nearest_rank({}, 0.99), 0.0);
}

TEST(PercentileTest, SingleSampleIsEveryQuantile) {
  const std::vector<double> one{42.0};
  EXPECT_EQ(percentile_nearest_rank(one, 0.0), 42.0);
  EXPECT_EQ(percentile_nearest_rank(one, 0.50), 42.0);
  EXPECT_EQ(percentile_nearest_rank(one, 0.99), 42.0);
  EXPECT_EQ(percentile_nearest_rank(one, 1.0), 42.0);
}

TEST(PercentileTest, TwoSamplesSplitAtMedian) {
  const std::vector<double> two{10.0, 20.0};
  // rank ceil(0.5 * 2) = 1 -> lower sample; ceil(0.99 * 2) = 2 -> upper.
  EXPECT_EQ(percentile_nearest_rank(two, 0.50), 10.0);
  EXPECT_EQ(percentile_nearest_rank(two, 0.51), 20.0);
  EXPECT_EQ(percentile_nearest_rank(two, 0.99), 20.0);
}

TEST(PercentileTest, ReturnsObservedSamplesOnly) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile_nearest_rank(v, 0.50), 50.0);
  EXPECT_EQ(percentile_nearest_rank(v, 0.90), 90.0);
  EXPECT_EQ(percentile_nearest_rank(v, 0.999), 100.0);
}

// --- summarize_spans / render_summary edge cases ---------------------------

TEST(SummaryTest, RenderSummaryStableForEmptyCollector) {
  EXPECT_EQ(obs::render_summary({}, {}), "(no spans or counters recorded)\n");
}

class SpanPercentileTest : public MetricsTestBase {};

TEST_F(SpanPercentileTest, OneAndTwoSampleSpansAreExact) {
  {
    obs::ScopedSpan s("solo");
  }
  auto stats = obs::summarize_spans(obs::Collector::global().spans());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[0].p50_us, stats[0].p99_us);  // one sample: all quantiles equal

  {
    obs::ScopedSpan s("solo");
  }
  stats = obs::summarize_spans(obs::Collector::global().spans());
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, 2u);
  EXPECT_LE(stats[0].p50_us, stats[0].p99_us);  // two samples: faster / slower
}

// --- MetricsRegistry -------------------------------------------------------

class MetricsRegistryTest : public MetricsTestBase {};

TEST_F(MetricsRegistryTest, GaugeIsLastWriteWins) {
  SATTN_GAUGE_SET("test.gauge", 1.0);
  SATTN_GAUGE_SET("test.gauge", 2.5);
  EXPECT_EQ(obs::MetricsRegistry::global().gauge("test.gauge").value(), 2.5);
}

TEST_F(MetricsRegistryTest, HistogramTracksExactCountSumMinMax) {
  auto& h = obs::MetricsRegistry::global().histogram("test.hist");
  for (double v : {3.0, 1.0, 2.0}) h.observe(v);
  const obs::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST_F(MetricsRegistryTest, HistogramSingleObservationIsExact) {
  auto& h = obs::MetricsRegistry::global().histogram("test.single");
  h.observe(0.125);
  const obs::HistogramStats s = h.stats();
  // Clamping to the observed [min, max] makes one-sample quantiles exact.
  EXPECT_DOUBLE_EQ(s.p50, 0.125);
  EXPECT_DOUBLE_EQ(s.p90, 0.125);
  EXPECT_DOUBLE_EQ(s.p99, 0.125);
}

TEST_F(MetricsRegistryTest, HistogramPercentilesWithinBucketResolution) {
  auto& h = obs::MetricsRegistry::global().histogram("test.latency");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const obs::HistogramStats s = h.stats();
  // Log buckets give ~9% relative resolution (2^(1/8) growth).
  EXPECT_NEAR(s.p50, 500.0, 0.10 * 500.0);
  EXPECT_NEAR(s.p90, 900.0, 0.10 * 900.0);
  EXPECT_NEAR(s.p99, 990.0, 0.10 * 990.0);
  EXPECT_EQ(s.count, 1000u);
}

TEST_F(MetricsRegistryTest, HistogramIgnoresNaN) {
  auto& h = obs::MetricsRegistry::global().histogram("test.nan");
  h.observe(std::nan(""));
  h.observe(1.0);
  EXPECT_EQ(h.stats().count, 1u);
}

TEST_F(MetricsRegistryTest, SeriesDecimatesToBoundedUniformSketch) {
  auto& s = obs::MetricsRegistry::global().series("test.series");
  const int n = 10000;
  for (int i = 0; i < n; ++i) s.append(static_cast<double>(i), static_cast<double>(i));
  const auto samples = s.samples();
  EXPECT_LE(samples.size(), obs::Series::kDefaultCapacity);
  EXPECT_GE(samples.size(), obs::Series::kDefaultCapacity / 4);  // not just the head
  // Decimation preserves coverage of the whole run, early and late.
  EXPECT_LT(samples.front().first, n / 100);
  EXPECT_GT(samples.back().first, n * 0.9);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].first, samples[i].first);  // still ordered
  }
}

TEST_F(MetricsRegistryTest, SnapshotIsSortedAndResetClears) {
  SATTN_GAUGE_SET("z.gauge", 1.0);
  SATTN_GAUGE_SET("a.gauge", 2.0);
  SATTN_HISTOGRAM("m.hist", 1.0);
  SATTN_SERIES("m.series", 0.0, 1.0);
  // reset() zeroes values but registered names persist for the process
  // lifetime, so assert on order and presence rather than exact counts.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_TRUE(std::is_sorted(snap.gauges.begin(), snap.gauges.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
  const auto gauge_value = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.gauges) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "gauge " << name << " not in snapshot";
    return -1.0;
  };
  EXPECT_EQ(gauge_value("a.gauge"), 2.0);
  EXPECT_EQ(gauge_value("z.gauge"), 1.0);
  ASSERT_GE(snap.histograms.size(), 1u);
  ASSERT_GE(snap.series.size(), 1u);

  obs::MetricsRegistry::global().reset();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : after.gauges) EXPECT_EQ(v, 0.0);
  for (const auto& [name, h] : after.histograms) EXPECT_EQ(h.count, 0u);
  for (const auto& [name, pts] : after.series) EXPECT_TRUE(pts.empty());
}

TEST_F(MetricsRegistryTest, RecordHeadQualitySetsConventionGauges) {
  obs::record_head_quality(4, 3, 0.21, 0.97);
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_DOUBLE_EQ(reg.gauge("quality.L4H3.retained_kv_frac").value(), 0.21);
  EXPECT_DOUBLE_EQ(reg.gauge("quality.L4H3.cra").value(), 0.97);
}

TEST(MetricsDisabledTest, MacrosAreNoOpsWhenDisabled) {
  const bool was = obs::enabled();
  obs::set_enabled(false);
  obs::MetricsRegistry::global().reset();
  SATTN_GAUGE_SET("disabled.gauge", 9.0);
  SATTN_HISTOGRAM("disabled.hist", 9.0);
  obs::record_head_quality(1, 1, 0.5, 0.5);
  obs::set_enabled(was);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : snap.gauges) EXPECT_EQ(v, 0.0) << name;
  for (const auto& [name, h] : snap.histograms) EXPECT_EQ(h.count, 0u) << name;
  obs::MetricsRegistry::global().reset();
}

// --- JSON document model ---------------------------------------------------

TEST(JsonTest, ParsesScalarsAndNesting) {
  const auto doc = parse_json(R"({"a": [1, 2.5, true, null, "sA"], "b": {"c": -3}})");
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const JsonValue& v = doc.value();
  EXPECT_EQ(v.get("a").size(), 5u);
  EXPECT_EQ(v.get("a").at(0).as_number(), 1.0);
  EXPECT_EQ(v.get("a").at(1).as_number(), 2.5);
  EXPECT_TRUE(v.get("a").at(2).as_bool());
  EXPECT_TRUE(v.get("a").at(3).is_null());
  EXPECT_EQ(v.get("a").at(4).as_string(), "sA");
  EXPECT_EQ(v.get("b").get("c").as_number(), -3.0);
  EXPECT_TRUE(v.get("missing").is_null());
}

const std::string kGoldenV2Path = std::string(SATTN_TEST_DATA_DIR) + "/golden/run_report_v2.json";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(parse_json("{").ok());
  EXPECT_FALSE(parse_json("[1,]").ok());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").ok());
  EXPECT_FALSE(parse_json("nul").ok());

  // Nesting is capped, so hostile input returns a Status instead of
  // overflowing the stack.
  const auto deep = parse_json(std::string(1000000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse_json(nested(kJsonMaxDepth)).ok());
  EXPECT_FALSE(parse_json(nested(kJsonMaxDepth + 1)).ok());

  // Every truncation of a real document fails cleanly; only the prefixes
  // that already hold the whole value (minus trailing whitespace) parse.
  const std::string doc = read_file(kGoldenV2Path);
  ASSERT_FALSE(doc.empty()) << "missing golden file " << kGoldenV2Path;
  const std::size_t complete = doc.find_last_not_of(" \t\r\n") + 1;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_EQ(parse_json(doc.substr(0, n)).ok(), n >= complete) << "prefix of " << n << " bytes";
  }
}

TEST(JsonTest, StringEscapesRoundTrip) {
  JsonValue o = JsonValue::object();
  o.set("s", std::string("tab\t quote\" backslash\\ newline\n"));
  const std::string text = o.to_string(-1);
  const auto back = parse_json(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().get("s").as_string(), "tab\t quote\" backslash\\ newline\n");
}

TEST(JsonTest, NumbersSerializeShortestRoundTrip) {
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-0.0), "0");
}

// --- run report ------------------------------------------------------------

RunReport fixture_report() {
  RunReport r;
  r.meta = {{"build_type", "Release"}, {"compiler", "test-cc 1.0"},
            {"created_by", "fixture"}, {"cxx_flags", "-O2"},
            {"git_rev", "deadbee"},    {"threads", "8"}};
  BenchReport b;
  b.name = "bench_fixture";
  obs::SpanStat span;
  span.path = "sattn/plan";
  span.name = "sattn/plan";
  span.depth = 0;
  span.count = 3;
  span.total_us = 300.0;
  span.mean_us = 100.0;
  span.p50_us = 90.0;
  span.p99_us = 130.0;
  b.latency.push_back(span);
  b.counters = {{"attn.score_evals", 1024.0},
                {"sched.requests_completed", 3.0},
                {"sched.requests_degraded", 1.0},
                {"sched.requests_enqueued", 4.0},
                {"sched.requests_shed", 1.0}};
  b.gauges = {{"breakdown.S1024.measured_overhead_share", 0.2},
              {"breakdown.S1024.stage1_us", 50.0},
              {"quality.L1H2.cra", 0.97},
              {"quality.L1H2.retained_kv_frac", 0.21}};
  obs::HistogramStats ttft;
  ttft.count = 2;
  ttft.sum = 3.0;
  ttft.min = 1.0;
  ttft.max = 2.0;
  ttft.p50 = 1.0;
  ttft.p90 = 2.0;
  ttft.p99 = 2.0;
  b.histograms = {{"sched.ttft_seconds", ttft}};
  b.series = {{"sched.queue_depth", {{0.0, 1.0}, {1.0, 3.0}}}};
  r.benches.push_back(std::move(b));
  return r;
}

TEST(RunReportTest, DerivedSectionsFollowNamingConventions) {
  const std::string text = run_report_json(fixture_report());
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue& b = doc.value().get("benches").at(0);
  // quality: per-head records from quality.L<l>H<h>.* gauges.
  ASSERT_EQ(b.get("quality").get("per_head").size(), 1u);
  const JsonValue& head = b.get("quality").get("per_head").at(0);
  EXPECT_EQ(head.get("layer").as_number(), 1.0);
  EXPECT_EQ(head.get("head").as_number(), 2.0);
  EXPECT_EQ(head.get("cra").as_number(), 0.97);
  EXPECT_EQ(head.get("retained_kv_frac").as_number(), 0.21);
  // breakdown: per-length records from breakdown.S<len>.* gauges.
  ASSERT_EQ(b.get("breakdown").size(), 1u);
  EXPECT_EQ(b.get("breakdown").at(0).get("seq_len").as_number(), 1024.0);
  // serving: present because sched.requests_enqueued > 0.
  EXPECT_EQ(b.get("serving").get("completed").as_number(), 3.0);
  EXPECT_EQ(b.get("serving").get("shed").as_number(), 1.0);
  EXPECT_EQ(b.get("serving").get("ttft").get("count").as_number(), 2.0);
}

TEST(RunReportTest, KvViewGroupsKvGauges) {
  RunReport r = fixture_report();
  r.benches[0].gauges["kv.prefix_hit_rate"] = 0.96;
  r.benches[0].gauges["kv.prefix_ttft_reduction"] = 0.68;
  r.benches[0].gauges["kv.residency_page_ratio"] = 0.90;
  const std::string text = run_report_json(r);
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.ok());
  const JsonValue& b = doc.value().get("benches").at(0);
  EXPECT_EQ(b.get("kv").get("prefix_hit_rate").as_number(), 0.96);
  EXPECT_EQ(b.get("kv").get("prefix_ttft_reduction").as_number(), 0.68);
  EXPECT_EQ(b.get("kv").get("residency_page_ratio").as_number(), 0.90);
}

TEST(RunReportTest, EmptyDerivedSectionsAreOmitted) {
  RunReport r = fixture_report();
  r.benches[0].gauges.clear();
  r.benches[0].counters.clear();
  r.benches[0].histograms.clear();
  const auto doc = parse_json(run_report_json(r));
  ASSERT_TRUE(doc.ok());
  const JsonValue& b = doc.value().get("benches").at(0);
  EXPECT_TRUE(b.get("quality").is_null());
  EXPECT_TRUE(b.get("breakdown").is_null());
  EXPECT_TRUE(b.get("serving").is_null());
}

// v2 additions on top of the v1 fixture: a tagged TTFT histogram (exemplar
// ids) and per-request attribution gauges, which surface as the
// `per_request` derived view.
RunReport fixture_report_v2() {
  RunReport r = fixture_report();
  BenchReport& b = r.benches[0];
  obs::HistogramStats& ttft = b.histograms.at("sched.ttft_seconds");
  ttft.max_exemplar = "sa_fcfs/req-007";
  ttft.p99_exemplar = "sa_fcfs/req-007";
  b.gauges["request.sa_fcfs/req-007.queue_s"] = 1.0;
  b.gauges["request.sa_fcfs/req-007.compute_s"] = 0.8;
  b.gauges["request.sa_fcfs/req-007.guard_s"] = 0.2;
  b.gauges["request.sa_fcfs/req-007.ttft_s"] = 2.0;
  b.gauges["acct.flash.flops"] = 1.0e9;
  b.gauges["perf.model_error.max_rel"] = 0.003;
  return r;
}

TEST(RunReportTest, GoldenFilePinsSchemaV2) {
  const std::string text = run_report_json(fixture_report_v2());
  if (std::getenv("SATTN_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenV2Path, std::ios::binary);
    out << text;
    GTEST_SKIP() << "regenerated " << kGoldenV2Path;
  }
  const std::string golden = read_file(kGoldenV2Path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << kGoldenV2Path;
  // Byte-for-byte: any schema change must be intentional (bump
  // kRunReportVersion and regenerate with SATTN_REGEN_GOLDEN=1).
  EXPECT_EQ(golden, text);
}

TEST(RunReportTest, HistogramExemplarsRoundTripAndOmitWhenEmpty) {
  const auto doc = parse_json(run_report_json(fixture_report_v2()));
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  const JsonValue& ttft =
      doc.value().get("benches").at(0).get("histograms").get("sched.ttft_seconds");
  EXPECT_EQ(ttft.get("max_exemplar").as_string(), "sa_fcfs/req-007");
  EXPECT_EQ(ttft.get("p99_exemplar").as_string(), "sa_fcfs/req-007");

  // An untagged histogram (the v1 fixture) serializes without the exemplar
  // keys at all.
  const std::string v1_text = run_report_json(fixture_report());
  EXPECT_EQ(v1_text.find("max_exemplar"), std::string::npos);
  EXPECT_EQ(v1_text.find("p99_exemplar"), std::string::npos);
}

TEST(RunReportTest, PerRequestViewGroupsRequestGauges) {
  const auto doc = parse_json(run_report_json(fixture_report_v2()));
  ASSERT_TRUE(doc.ok());
  const JsonValue& b = doc.value().get("benches").at(0);
  ASSERT_EQ(b.get("per_request").size(), 1u);
  const JsonValue& rec = b.get("per_request").at(0);
  // The id keeps the run-label segment; the field is after the LAST dot.
  EXPECT_EQ(rec.get("id").as_string(), "sa_fcfs/req-007");
  EXPECT_EQ(rec.get("queue_s").as_number(), 1.0);
  EXPECT_EQ(rec.get("compute_s").as_number(), 0.8);
  EXPECT_EQ(rec.get("guard_s").as_number(), 0.2);
  EXPECT_EQ(rec.get("ttft_s").as_number(), 2.0);
  // acct.* / perf.* gauges are not per-request records.
  EXPECT_TRUE(b.get("per_request").at(0).get("flops").is_null());

  // The v1 fixture has no request.* gauges, so the view is omitted.
  const auto v1_doc = parse_json(run_report_json(fixture_report()));
  ASSERT_TRUE(v1_doc.ok());
  EXPECT_TRUE(v1_doc.value().get("benches").at(0).get("per_request").is_null());
}

TEST(RunReportTest, CollectSnapshotsRegistryAndCollector) {
  const bool was = obs::enabled();
  obs::set_enabled(true);
  obs::Collector::global().reset();
  obs::MetricsRegistry::global().reset();
  {
    obs::ScopedSpan span("collect/span");
  }
  SATTN_COUNTER_ADD("collect.counter", 2.0);
  SATTN_GAUGE_SET("collect.gauge", 1.5);
  SATTN_HISTOGRAM("collect.hist", 0.5);
  const RunReport r = collect_run_report("bench_collect");
  obs::Collector::global().reset();
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was);

  ASSERT_EQ(r.benches.size(), 1u);
  EXPECT_EQ(r.benches[0].name, "bench_collect");
  EXPECT_EQ(r.meta.at("created_by"), "bench_collect");
  EXPECT_FALSE(r.meta.at("git_rev").empty());
  ASSERT_EQ(r.benches[0].latency.size(), 1u);
  EXPECT_EQ(r.benches[0].latency[0].name, "collect/span");
  EXPECT_DOUBLE_EQ(r.benches[0].counters.at("collect.counter"), 2.0);
  EXPECT_DOUBLE_EQ(r.benches[0].gauges.at("collect.gauge"), 1.5);
  EXPECT_EQ(r.benches[0].histograms.at("collect.hist").count, 1u);
}

}  // namespace
}  // namespace sattn
