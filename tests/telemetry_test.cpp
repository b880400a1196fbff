// Tests for the live telemetry plane (obs/telemetry.h): ring semantics, hub
// fan-in, rolling aggregators, quality-drift alerts, the publisher's NDJSON
// schema, and the engine integration — including the enabled-vs-disabled
// overhead bound the docs promise. The multi-thread tests double as the
// TSan targets wired into scripts/check_sanitizers.sh.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "runtime/engine.h"

namespace sattn {
namespace {

using obs::TelemetryEvent;
using obs::TelemetryEventKind;

TelemetryEvent make_event(TelemetryEventKind kind, double t, float value = 0.0f,
                          std::uint32_t aux = 0, std::string_view id = "r0") {
  TelemetryEvent ev;
  ev.kind = kind;
  ev.t = t;
  ev.value = value;
  ev.aux = aux;
  ev.set_id(id);
  return ev;
}

// ---------------------------------------------------------------------------
// TelemetryRing
// ---------------------------------------------------------------------------

TEST(TelemetryRingTest, CapacityRoundsUpToPowerOfTwoWithMinimumEight) {
  EXPECT_EQ(obs::TelemetryRing(0).capacity(), 8u);
  EXPECT_EQ(obs::TelemetryRing(5).capacity(), 8u);
  EXPECT_EQ(obs::TelemetryRing(9).capacity(), 16u);
  EXPECT_EQ(obs::TelemetryRing(4096).capacity(), 4096u);
}

TEST(TelemetryRingTest, DrainPreservesPushOrderAcrossWraparound) {
  obs::TelemetryRing ring(8);
  std::vector<TelemetryEvent> out;
  // Two fill/drain rounds so indexes wrap past the capacity.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(ring.try_push(
          make_event(TelemetryEventKind::kSubmit, round * 10.0 + i)));
    }
    out.clear();
    EXPECT_EQ(ring.drain(out), 6u);
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(out[i].t, round * 10.0 + i);
  }
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TelemetryRingTest, FullRingDropsNewestAndCountsInsteadOfBlocking) {
  obs::TelemetryRing ring(8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_push(make_event(TelemetryEventKind::kSubmit, i)));
  }
  EXPECT_FALSE(ring.try_push(make_event(TelemetryEventKind::kSubmit, 99.0)));
  EXPECT_FALSE(ring.try_push(make_event(TelemetryEventKind::kSubmit, 100.0)));
  EXPECT_EQ(ring.dropped(), 2u);

  // The 8 oldest events survive untouched; the overflow was dropped-newest.
  std::vector<TelemetryEvent> out;
  EXPECT_EQ(ring.drain(out), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].t, i);
  // Space freed: pushes succeed again.
  EXPECT_TRUE(ring.try_push(make_event(TelemetryEventKind::kSubmit, 7.0)));
}

TEST(TelemetryRingTest, EventIdRoundTripsAndTruncatesToSlotSize) {
  TelemetryEvent ev;
  ev.set_id("req-42");
  EXPECT_EQ(ev.id_view(), "req-42");
  const std::string long_id(64, 'x');
  ev.set_id(long_id);
  EXPECT_EQ(ev.id_view().size(), sizeof(ev.id) - 1);
  EXPECT_EQ(ev.id_view(), std::string(sizeof(ev.id) - 1, 'x'));
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

TEST(TelemetryHubTest, ConcurrentProducersAllEventsDrainedSortedByTime) {
  obs::TelemetryHub hub(/*ring_capacity=*/1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&hub, p] {
      for (int i = 0; i < kPerThread; ++i) {
        hub.push(make_event(TelemetryEventKind::kDecodeStep, p * 1000.0 + i, 0.0f,
                            static_cast<std::uint32_t>(p)));
      }
    });
  }
  for (auto& t : producers) t.join();

  std::vector<TelemetryEvent> out;
  EXPECT_EQ(hub.drain(out), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(hub.dropped(), 0u);
  EXPECT_EQ(hub.ring_count(), static_cast<std::size_t>(kThreads));
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_LE(out[i - 1].t, out[i].t);

  // Per-producer event counts all arrived.
  std::vector<int> per_producer(kThreads, 0);
  for (const TelemetryEvent& ev : out) ++per_producer[ev.aux];
  for (int p = 0; p < kThreads; ++p) EXPECT_EQ(per_producer[p], kPerThread);
}

TEST(TelemetryHubTest, TwoHubsOnOneThreadDoNotCrossTalk) {
  obs::TelemetryHub a, b;
  a.push(make_event(TelemetryEventKind::kSubmit, 1.0));
  b.push(make_event(TelemetryEventKind::kSubmit, 2.0));
  b.push(make_event(TelemetryEventKind::kSubmit, 3.0));
  std::vector<TelemetryEvent> out_a, out_b;
  EXPECT_EQ(a.drain(out_a), 1u);
  EXPECT_EQ(b.drain(out_b), 2u);
  EXPECT_DOUBLE_EQ(out_a[0].t, 1.0);
  EXPECT_DOUBLE_EQ(out_b[0].t, 2.0);
}

TEST(TelemetryHubTest, RepeatPushesFromOneThreadReuseOneRing) {
  obs::TelemetryHub hub;
  for (int i = 0; i < 100; ++i) hub.push(make_event(TelemetryEventKind::kSubmit, i));
  EXPECT_EQ(hub.ring_count(), 1u);
}

// ---------------------------------------------------------------------------
// Rolling aggregators
// ---------------------------------------------------------------------------

TEST(RollingHistogramTest, EmptyWindowReportsAllZeros) {
  obs::RollingHistogram h(5.0);
  const obs::RollingStats s = h.stats(100.0);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(RollingHistogramTest, SingleSampleEveryPercentileIsTheSample) {
  obs::RollingHistogram h(5.0);
  h.observe(1.0, 0.25);
  const obs::RollingStats s = h.stats(1.0);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.p50, 0.25);
  EXPECT_DOUBLE_EQ(s.p95, 0.25);
  EXPECT_DOUBLE_EQ(s.p99, 0.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.25);
}

TEST(RollingHistogramTest, NearestRankPercentilesOverUniformSamples) {
  obs::RollingHistogram h(100.0);
  for (int i = 1; i <= 100; ++i) h.observe(0.0, i);
  const obs::RollingStats s = h.stats(0.0);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
}

TEST(RollingHistogramTest, WindowEvictsOldSamplesOnObserveAndStats) {
  obs::RollingHistogram h(5.0);
  h.observe(0.0, 1.0);
  h.observe(1.0, 2.0);
  h.observe(4.0, 3.0);
  EXPECT_EQ(h.stats(4.0).count, 3u);   // all inside [−1, 4]
  EXPECT_EQ(h.stats(5.5).count, 2u);   // t=0 aged out
  EXPECT_EQ(h.stats(6.5).count, 1u);   // t=1 aged out too
  EXPECT_EQ(h.stats(20.0).count, 0u);  // everything aged out
}

TEST(RollingHistogramTest, MaxSamplesBoundEvictsOldestFirst) {
  obs::RollingHistogram h(1e9, /*max_samples=*/4);
  for (int i = 0; i < 10; ++i) h.observe(i, i);
  const obs::RollingStats s = h.stats(9.0);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 6.0);  // only the 4 newest survive
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(EwmaRateTest, SteadyStreamConvergesToTrueRate) {
  obs::EwmaRate rate(/*tau_seconds=*/1.0);
  // 10 events/second for 6 tau. The discrete-event estimator converges to
  // dt/(1-exp(-dt))/tau * decay ≈ 9.5 at one inter-event gap past the last
  // event — within ~6% of the true rate.
  for (int i = 0; i < 60; ++i) rate.add(i * 0.1);
  EXPECT_NEAR(rate.rate(6.0), 10.0, 0.6);
}

TEST(EwmaRateTest, RateDecaysTowardZeroWhenIdle) {
  obs::EwmaRate rate(1.0);
  for (int i = 0; i < 20; ++i) rate.add(i * 0.1);
  const double busy = rate.rate(2.0);
  EXPECT_GT(busy, 1.0);
  EXPECT_LT(rate.rate(10.0), busy * 0.01);  // 8 tau later: effectively zero
}

// ---------------------------------------------------------------------------
// DriftMonitor (counter assertions need the obs registries clean + enabled)
// ---------------------------------------------------------------------------

class TelemetryObs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
  }

  static double counter_value(const std::string& name) {
    for (const obs::CounterValue& cv : obs::Collector::global().counters())
      if (cv.name == name) return cv.value;
    return 0.0;
  }

  static double gauge_value(const std::string& name) {
    for (const auto& [n, v] : obs::MetricsRegistry::global().snapshot().gauges)
      if (n == name) return v;
    return 0.0;
  }
};

obs::DriftThresholds fallback_thresholds() {
  obs::DriftThresholds th;
  th.window_seconds = 10.0;
  th.min_samples = 4;
  th.max_dense_fallback_rate = 0.5;
  return th;
}

TEST_F(TelemetryObs, DriftMonitorStaysQuietBelowMinSamples) {
  obs::DriftMonitor mon(fallback_thresholds());
  for (int i = 0; i < 3; ++i) mon.observe_plan(i * 0.1, 1.0, false, true);
  mon.evaluate(0.3);
  for (const obs::AlertState& a : mon.alerts()) EXPECT_FALSE(a.active) << a.name;
  EXPECT_FALSE(mon.quality_alert_active());
  EXPECT_EQ(counter_value("alert.dense_fallback_rate_high"), 0.0);
}

TEST_F(TelemetryObs, DenseFallbackAlertFiresOnRisingEdgeOnlyOnce) {
  obs::DriftMonitor mon(fallback_thresholds());
  for (int i = 0; i < 6; ++i) mon.observe_plan(i * 0.1, 1.0, false, true);
  mon.evaluate(0.6);
  mon.evaluate(0.7);  // still active: no second counter bump
  bool found = false;
  for (const obs::AlertState& a : mon.alerts()) {
    if (a.name == "dense_fallback_rate_high") {
      found = true;
      EXPECT_TRUE(a.active);
      EXPECT_DOUBLE_EQ(a.value, 1.0);
      EXPECT_DOUBLE_EQ(a.threshold, 0.5);
      EXPECT_DOUBLE_EQ(a.since_s, 0.6);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(mon.quality_alert_active());
  EXPECT_EQ(counter_value("alert.dense_fallback_rate_high"), 1.0);
}

TEST_F(TelemetryObs, AlertClearsWhenTheWindowRecoversAndRefiresOnRelapse) {
  obs::DriftThresholds th = fallback_thresholds();
  th.window_seconds = 1.0;
  obs::DriftMonitor mon(th);
  for (int i = 0; i < 6; ++i) mon.observe_plan(i * 0.01, 1.0, false, true);
  mon.evaluate(0.06);
  EXPECT_TRUE(mon.quality_alert_active());
  // 2 windows later everything aged out — the alert drops.
  mon.evaluate(3.0);
  EXPECT_FALSE(mon.quality_alert_active());
  // Relapse: a second rising edge, a second counter bump.
  for (int i = 0; i < 6; ++i) mon.observe_plan(4.0 + i * 0.01, 1.0, false, true);
  mon.evaluate(4.1);
  EXPECT_TRUE(mon.quality_alert_active());
  EXPECT_EQ(counter_value("alert.dense_fallback_rate_high"), 2.0);
}

TEST_F(TelemetryObs, UnconfiguredThresholdsNeverFireEvenOnPathologicalStreams) {
  obs::DriftThresholds th;  // everything at the -1 disabled default
  th.min_samples = 1;
  obs::DriftMonitor mon(th);
  for (int i = 0; i < 16; ++i) {
    mon.observe_plan(i * 0.1, 0.0, true, true);  // zero retention, all escalated+fallback
    mon.observe_ttft(i * 0.1, 100.0);
    mon.observe_tpot(i * 0.1, 100.0);
  }
  mon.evaluate(1.6);
  for (const obs::AlertState& a : mon.alerts()) EXPECT_FALSE(a.active) << a.name;
}

TEST_F(TelemetryObs, RetainedKvFractionAlertIsBelowThresholdSemantics) {
  obs::DriftThresholds th;
  th.min_samples = 4;
  th.min_retained_kv_frac = 0.3;
  obs::DriftMonitor mon(th);
  for (int i = 0; i < 4; ++i) mon.observe_plan(i * 0.1, 0.5, false, false);
  mon.evaluate(0.4);
  EXPECT_FALSE(mon.quality_alert_active());  // 0.5 >= 0.3: healthy
  for (int i = 0; i < 8; ++i) mon.observe_plan(0.5 + i * 0.1, 0.05, false, false);
  mon.evaluate(1.3);
  EXPECT_TRUE(mon.quality_alert_active());  // mean dropped below 0.3
  EXPECT_EQ(counter_value("alert.retained_kv_frac_low"), 1.0);
}

TEST_F(TelemetryObs, LatencyTailAlertsAreNotQualityAlerts) {
  obs::DriftThresholds th;
  th.min_samples = 2;
  th.max_ttft_p99_seconds = 0.010;
  obs::DriftMonitor mon(th);
  for (int i = 0; i < 4; ++i) mon.observe_ttft(i * 0.1, 0.5);
  mon.evaluate(0.4);
  bool ttft_active = false;
  for (const obs::AlertState& a : mon.alerts())
    if (a.name == "ttft_p99_high") ttft_active = a.active;
  EXPECT_TRUE(ttft_active);
  // Latency tails must not pre-trip the planning breaker.
  EXPECT_FALSE(mon.quality_alert_active());
  EXPECT_EQ(counter_value("alert.ttft_p99_high"), 1.0);
}

// ---------------------------------------------------------------------------
// TelemetryPublisher (driven deterministically through tick())
// ---------------------------------------------------------------------------

obs::EngineTelemetrySnapshot snapshot_at(double t) {
  obs::EngineTelemetrySnapshot s;
  s.t = t;
  s.live = 3;
  s.active = 2;
  s.kv_bytes = 1024.0;
  s.kv_budget_bytes = 4096.0;
  return s;
}

TEST_F(TelemetryObs, PublisherTickRendersParseableSchemaLine) {
  obs::TelemetryHub hub;
  hub.push(make_event(TelemetryEventKind::kSubmit, 0.1, 0.0f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kAdmit, 0.2, 0.0f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kPrefillDone, 0.3, 0.25f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kDecodeStep, 0.4, 0.002f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kComplete, 0.5, 0.002f, 4, "a"));
  hub.push(make_event(TelemetryEventKind::kPlan, 0.25, 0.4f, /*aux=*/1u, "a"));

  obs::TelemetryOptions topts;
  double now = 0.6;
  obs::TelemetryPublisher pub(topts, "unit", &hub, [&now] { return snapshot_at(now); });
  pub.tick();

  const auto parsed = parse_json(pub.last_line());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& o = parsed.value();
  EXPECT_EQ(o.get("schema").as_string(), "sattn.telemetry");
  EXPECT_EQ(o.get("version").as_number(), 1.0);
  EXPECT_EQ(o.get("label").as_string(), "unit");
  EXPECT_EQ(o.get("seq").as_number(), 0.0);
  EXPECT_EQ(o.get("engine").get("live").as_number(), 3.0);
  EXPECT_EQ(o.get("engine").get("kv_budget_bytes").as_number(), 4096.0);
  EXPECT_EQ(o.get("totals").get("submitted").as_number(), 1.0);
  EXPECT_EQ(o.get("totals").get("completed").as_number(), 1.0);
  EXPECT_EQ(o.get("totals").get("escalations").as_number(), 1.0);
  EXPECT_EQ(o.get("totals").get("dense_fallbacks").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(o.get("rolling").get("ttft_s").get("p99").as_number(), 0.25);
  EXPECT_EQ(o.get("rolling").get("ttft_s").get("count").as_number(), 1.0);
  EXPECT_NEAR(o.get("rolling").get("retained_kv_frac").get("mean").as_number(), 0.4, 1e-6);
  EXPECT_TRUE(o.get("alerts").is_array());
  EXPECT_EQ(o.get("alerts").size(), 0u);  // no thresholds configured
  EXPECT_EQ(o.get("events_dropped").as_number(), 0.0);

  // seq increments per tick; publisher-side counters advanced.
  pub.tick();
  const auto second = parse_json(pub.last_line());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get("seq").as_number(), 1.0);
  EXPECT_EQ(pub.ticks(), 2u);
  EXPECT_EQ(pub.events_seen(), 6u);
  EXPECT_EQ(pub.totals().submitted, 1u);

  // Publisher gauges landed in the metrics registry.
  EXPECT_DOUBLE_EQ(gauge_value("telemetry.live_requests"), 3.0);
  EXPECT_DOUBLE_EQ(gauge_value("telemetry.ttft_p99_s"), 0.25);
}

TEST_F(TelemetryObs, PublisherWritesNdjsonAndAtomicPrometheusFiles) {
  const std::string ndjson = "telemetry_pub_test.ndjson";
  const std::string prom = "telemetry_pub_test.prom";
  obs::TelemetryHub hub;
  hub.push(make_event(TelemetryEventKind::kPrefillDone, 0.1, 0.125f));
  obs::TelemetryOptions topts;
  topts.ndjson_path = ndjson;
  topts.prom_path = prom;
  {
    obs::TelemetryPublisher pub(topts, "files", &hub, [] { return snapshot_at(0.2); });
    pub.tick();
    pub.tick();
  }
  std::ifstream in(ndjson);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  std::string last;
  while (std::getline(in, line))
    if (!line.empty()) { ++lines, last = line; }
  // Two manual ticks plus the destructor's final flush tick; the file was
  // truncated at publisher construction.
  EXPECT_EQ(lines, 3u);
  ASSERT_TRUE(parse_json(last).ok());

  std::ifstream pin(prom);
  ASSERT_TRUE(pin.good());
  std::stringstream body;
  body << pin.rdbuf();
  EXPECT_NE(body.str().find("sattn_ttft_p99_seconds{label=\"files\"} 0.125"),
            std::string::npos);
  EXPECT_NE(body.str().find("# TYPE sattn_engine_live_requests gauge"), std::string::npos);
  std::remove(ndjson.c_str());
  std::remove(prom.c_str());
  std::remove((prom + ".tmp").c_str());
}

TEST_F(TelemetryObs, PrometheusLabelValuesAreEscapedPerExpositionFormat) {
  // Run labels are caller-supplied strings; a quote, backslash, or newline
  // in one must not corrupt the exposition file (regression for the
  // prom_escape satellite: previously emitted verbatim).
  const std::string prom = "telemetry_escape_test.prom";
  obs::TelemetryHub hub;
  obs::TelemetryOptions topts;
  topts.prom_path = prom;
  {
    obs::TelemetryPublisher pub(topts, "we\"ird\\lab\nel", &hub,
                                [] { return snapshot_at(0.1); });
    pub.tick();
  }
  std::ifstream in(prom);
  ASSERT_TRUE(in.good());
  std::stringstream body;
  body << in.rdbuf();
  // Escaped: `"` -> `\"`, `\` -> `\\`, newline -> the two characters \n.
  EXPECT_NE(body.str().find("{label=\"we\\\"ird\\\\lab\\nel\"}"), std::string::npos);
  // No raw newline survives inside any metric line's label value.
  std::string line;
  std::istringstream lines(body.str());
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.find("we\"ird"), std::string::npos) << line;
  }
  std::remove(prom.c_str());
  std::remove((prom + ".tmp").c_str());
}

TEST_F(TelemetryObs, BreakerPretripArmsOnQualityAlertAndConsumesOnce) {
  obs::TelemetryHub hub;
  for (int i = 0; i < 6; ++i) {
    hub.push(make_event(TelemetryEventKind::kPlan, i * 0.01, 1.0f, /*aux=*/2u));
  }
  obs::TelemetryOptions topts;
  topts.drift.min_samples = 4;
  topts.drift.max_dense_fallback_rate = 0.5;
  topts.drift.pretrip_breaker = true;
  obs::TelemetryPublisher pub(topts, "pretrip", &hub, [] { return snapshot_at(0.1); });
  EXPECT_FALSE(pub.consume_breaker_pretrip());  // nothing armed yet
  pub.tick();
  EXPECT_TRUE(pub.consume_breaker_pretrip());   // armed by the quality alert
  EXPECT_FALSE(pub.consume_breaker_pretrip());  // consumed: stays off...
  pub.tick();
  EXPECT_TRUE(pub.consume_breaker_pretrip());   // ...until the next tick re-arms
}

TEST_F(TelemetryObs, PretripStaysOffWithoutTheOptInEvenWhenAlertsFire) {
  obs::TelemetryHub hub;
  for (int i = 0; i < 6; ++i) {
    hub.push(make_event(TelemetryEventKind::kPlan, i * 0.01, 1.0f, /*aux=*/2u));
  }
  obs::TelemetryOptions topts;
  topts.drift.min_samples = 4;
  topts.drift.max_dense_fallback_rate = 0.5;  // alert fires...
  topts.drift.pretrip_breaker = false;        // ...but pretrip is not opted in
  obs::TelemetryPublisher pub(topts, "nopretrip", &hub, [] { return snapshot_at(0.1); });
  pub.tick();
  EXPECT_FALSE(pub.alerts().empty());
  bool any_active = false;
  for (const obs::AlertState& a : pub.alerts()) any_active |= a.active;
  EXPECT_TRUE(any_active);
  EXPECT_FALSE(pub.consume_breaker_pretrip());
}

TEST_F(TelemetryObs, PublisherThreadStartStopIsIdempotentAndFlushes) {
  obs::TelemetryHub hub;
  obs::TelemetryOptions topts;
  topts.interval_seconds = 0.001;
  obs::TelemetryPublisher pub(topts, "lifecycle", &hub, [] { return snapshot_at(1.0); });
  pub.start();
  hub.push(make_event(TelemetryEventKind::kSubmit, 0.5));
  pub.stop();
  pub.stop();  // idempotent
  // The final flush tick folded the event even if no timed tick saw it.
  EXPECT_EQ(pub.totals().submitted, 1u);
  EXPECT_GE(pub.ticks(), 1u);
  ASSERT_TRUE(parse_json(pub.last_line()).ok());
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

EngineOptions telemetry_engine() {
  EngineOptions opts;
  opts.mode = EngineMode::kDense;
  opts.head_dim = 32;
  opts.chunk_tokens = 64;
  opts.max_batch = 4;
  opts.decode_tokens = 2;
  opts.run_label = "tele";
  opts.telemetry.enabled = true;
  opts.telemetry.interval_seconds = 0.002;
  return opts;
}

TEST_F(TelemetryObs, EngineRunStreamsTelemetryWithTotalsMatchingTheResult) {
  const std::string path = "telemetry_engine_test.ndjson";
  EngineOptions opts = telemetry_engine();
  opts.telemetry.ndjson_path = path;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 6; ++i) trace.push_back({"r" + std::to_string(i), 128, 0.0});
  const EngineResult res = engine.run_trace(trace);
  ASSERT_EQ(res.completed.size(), 6u);

  // The publisher outlives finish() until engine destruction; its final
  // flush has run by the time run_trace returns.
  obs::TelemetryPublisher* pub = engine.telemetry_publisher();
  ASSERT_NE(pub, nullptr);
  const obs::TelemetryTotals totals = pub->totals();
  EXPECT_EQ(totals.submitted, 6u);
  EXPECT_EQ(totals.admitted, 6u);
  EXPECT_EQ(totals.completed, 6u);
  EXPECT_EQ(totals.shed, 0u);
  EXPECT_EQ(totals.decode_steps, 12u);  // 6 requests x 2 decode tokens
  EXPECT_GE(totals.prefill_chunks, 12u);  // 128 tokens / 64 chunk = 2 each
  EXPECT_GE(pub->ticks(), 1u);

  const auto parsed = parse_json(pub->last_line());
  ASSERT_TRUE(parsed.ok());
  const JsonValue& o = parsed.value();
  EXPECT_EQ(o.get("label").as_string(), "tele");
  EXPECT_EQ(o.get("totals").get("completed").as_number(), 6.0);
  EXPECT_EQ(o.get("engine").get("live").as_number(), 0.0);  // drained
  EXPECT_EQ(o.get("rolling").get("ttft_s").get("count").as_number(), 6.0);
  EXPECT_EQ(o.get("events_dropped").as_number(), 0.0);

  // Satellite: the watchdog heartbeat is a public gauge now.
  EXPECT_GE(gauge_value("engine.heartbeat_age_s"), 0.0);
  EXPECT_GE(engine.heartbeat_age_seconds(), 0.0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, pub->ticks());
  std::remove(path.c_str());
}

TEST_F(TelemetryObs, ConcurrentSubmittersWithLivePublisherLoseNoEvents) {
  // The TSan target: 4 submitter threads + engine loop + watchdog + the
  // publisher thread all running, rings fanning into one consumer.
  EngineOptions opts = telemetry_engine();
  opts.watchdog_stall_seconds = 5.0;
  ServingEngine engine(opts);
  engine.start();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> submitters;
  std::atomic<int> accepted{0};
  for (int p = 0; p < kThreads; ++p) {
    submitters.emplace_back([&engine, &accepted, p] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string id = "p" + std::to_string(p) + "_" + std::to_string(i);
        if (engine.submit({id, 64, 0.0}).ok()) accepted.fetch_add(1);
      }
    });
  }
  for (auto& t : submitters) t.join();
  const EngineResult res = engine.finish();
  ASSERT_EQ(accepted.load(), kThreads * kPerThread);
  EXPECT_EQ(res.outcomes().size(), static_cast<std::size_t>(kThreads * kPerThread));

  obs::TelemetryPublisher* pub = engine.telemetry_publisher();
  ASSERT_NE(pub, nullptr);
  const obs::TelemetryTotals totals = pub->totals();
  EXPECT_EQ(totals.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(totals.completed + totals.shed + totals.cancelled,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(TelemetryObs, QualityDriftPretripOpensThePlanningBreaker) {
  // Every plan corrupted -> dense-fallback alert -> publisher arms pretrip
  // -> the engine loop opens the breaker even though the consecutive-fault
  // breaker itself is disabled (threshold 0).
  EngineOptions opts = telemetry_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.chunk_tokens = 128;
  opts.decode_tokens = 8;
  auto injector = std::make_shared<FaultInjector>(
      FaultSpec{FaultClass::kPlanEmptyStripes, 1.0, 0x9ull, /*max_fires=*/-1});
  opts.guard.plan_hook = [injector](SamplePlan& plan) { injector->corrupt_plan(plan); };
  opts.breaker_fault_threshold = 0;  // the fault-streak breaker stays out of the way
  opts.breaker_cooldown_seconds = 1e-4;
  // Manual ticks below: park the publisher thread on a huge interval so the
  // test drives the pipeline deterministically from this thread.
  opts.telemetry.interval_seconds = 1e6;
  opts.telemetry.drift.min_samples = 2;
  opts.telemetry.drift.window_seconds = 60.0;
  opts.telemetry.drift.max_dense_fallback_rate = 0.5;
  opts.telemetry.drift.pretrip_breaker = true;

  ServingEngine engine(opts);
  engine.start();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.submit({"q" + std::to_string(i), 512, 0.0}).ok());
  }
  // Tick the publisher until the drift monitor has seen enough plans to
  // raise the alert, then give the loop time to consume the pretrip.
  obs::TelemetryPublisher* pub = engine.telemetry_publisher();
  ASSERT_NE(pub, nullptr);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter_value("engine.breaker_pretrips") < 1.0 &&
         std::chrono::steady_clock::now() < deadline) {
    pub->tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const EngineResult res = engine.finish();
  EXPECT_EQ(res.completed.size(), 6u);
  EXPECT_GE(counter_value("engine.breaker_pretrips"), 1.0);
  EXPECT_GE(counter_value("engine.breaker_trips"), 1.0);
  EXPECT_GE(res.breaker_trips, 1);
}

TEST_F(TelemetryObs, DisabledTelemetryCreatesNoHubNoPublisherNoStream) {
  EngineOptions opts = telemetry_engine();
  opts.telemetry.enabled = false;
  opts.telemetry.ndjson_path = "telemetry_disabled_test.ndjson";
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"d0", 64, 0.0}};
  const EngineResult res = engine.run_trace(trace);
  EXPECT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(engine.telemetry_publisher(), nullptr);
  std::ifstream in("telemetry_disabled_test.ndjson");
  EXPECT_FALSE(in.good());  // never created
}

// ---------------------------------------------------------------------------
// Overhead bound
// ---------------------------------------------------------------------------

bool built_with_sanitizers() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(TelemetryOverheadTest, EnabledVsDisabledEngineRunUnderTwoPercent) {
  if (built_with_sanitizers()) {
    GTEST_SKIP() << "wall-time comparison is not meaningful under sanitizers";
  }
  // The cost contract from docs/OBSERVABILITY.md: enabling the telemetry
  // plane (rings + publisher thread + NDJSON stream) must cost < 2% wall
  // time on an engine run, with a small absolute epsilon to absorb
  // thread-scheduling noise on short runs. obs collection is off in both
  // arms so the comparison isolates the telemetry plane itself.
  obs::set_enabled(false);
  const auto build_trace = [] {
    std::vector<ServingRequest> trace;
    for (int i = 0; i < 16; ++i) trace.push_back({"o" + std::to_string(i), 512, 0.0});
    return trace;
  };
  const auto run_once = [&](bool telemetry_on) {
    EngineOptions opts;
    opts.mode = EngineMode::kDense;
    opts.head_dim = 64;
    opts.chunk_tokens = 256;
    opts.max_batch = 8;
    opts.decode_tokens = 8;
    opts.run_label = telemetry_on ? "ov_on" : "ov_off";
    opts.telemetry.enabled = telemetry_on;
    if (telemetry_on) opts.telemetry.ndjson_path = "telemetry_overhead_test.ndjson";
    const std::vector<ServingRequest> trace = build_trace();
    const auto t0 = std::chrono::steady_clock::now();
    ServingEngine engine(opts);
    const EngineResult res = engine.run_trace(trace);
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_EQ(res.completed.size(), trace.size());
    return s;
  };

  run_once(false);  // warm both paths (thread pool spin-up, page faults)
  run_once(true);

  // Interleaved min-of-N with retry attempts, as in the accounting overhead
  // guard: the bound is on the hooks, one clean window suffices.
  constexpr int kReps = 4;
  constexpr int kAttempts = 3;
  constexpr double kAbsEpsilonSeconds = 0.010;
  bool pass = false;
  double best_on = 0.0, best_off = 0.0;
  for (int attempt = 0; attempt < kAttempts && !pass; ++attempt) {
    best_on = std::numeric_limits<double>::infinity();
    best_off = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      best_off = std::min(best_off, run_once(false));
      best_on = std::min(best_on, run_once(true));
    }
    ASSERT_GT(best_off, 0.0);
    pass = best_on <= best_off * 1.02 + kAbsEpsilonSeconds;
  }
  EXPECT_TRUE(pass) << "telemetry-enabled " << best_on << "s vs disabled " << best_off
                    << "s exceeds the 2% + " << kAbsEpsilonSeconds << "s bound";
  std::remove("telemetry_overhead_test.ndjson");
}

// ---------------------------------------------------------------------------
// JSON parser under adversarial input
// ---------------------------------------------------------------------------

TEST(JsonFuzz, SeededMutationsOfATelemetryLineNeverCrash) {
  // 20k seeded mutations of a real publisher NDJSON line: byte flips,
  // truncations, dropped or duplicated brackets and quotes, long digit
  // runs, and numbers replaced by 1e999 / -1e999. parse_json must return a
  // value or a kInvalidArgument error for each, never crash (the sanitizer
  // builds run this too).
  obs::TelemetryHub hub;
  hub.push(make_event(TelemetryEventKind::kSubmit, 0.1, 0.0f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kPrefillDone, 0.3, 0.25f, 0, "a"));
  hub.push(make_event(TelemetryEventKind::kComplete, 0.5, 0.002f, 4, "a"));
  hub.push(make_event(TelemetryEventKind::kPlan, 0.25, 0.4f, 1u, "a"));
  obs::TelemetryPublisher pub(obs::TelemetryOptions{}, "fuzz", &hub,
                              [] { return snapshot_at(0.6); });
  pub.tick();
  const std::string line = pub.last_line();
  ASSERT_TRUE(parse_json(line).ok());

  Rng rng(0xf022ull);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(static_cast<Index>(n)));
  };
  const std::string structural = "{}[]\"";
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = line;
    const int edits = 1 + static_cast<int>(rng.uniform_index(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = pick(text.size());
      switch (rng.uniform_index(6)) {
        case 0:  // byte flip
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_index(8)));
          break;
        case 1:  // truncation
          text.resize(at);
          break;
        case 2:  // drop or duplicate a bracket or quote
        case 3: {
          const std::size_t pos = text.find_first_of(structural, at);
          if (pos == std::string::npos) break;
          if (rng.uniform_index(2) == 0) {
            text.erase(pos, 1);
          } else {
            text.insert(pos, 1, text[pos]);
          }
          break;
        }
        case 4:  // long digit run
          text.insert(at, std::string(1 + pick(4096), static_cast<char>('0' + pick(10))));
          break;
        default: {  // a number replaced by an overflowing one
          const std::size_t pos = text.find_first_of("0123456789", at);
          if (pos == std::string::npos) break;
          const std::size_t len = text.find_first_not_of("0123456789.eE+-", pos) - pos;
          text.replace(pos, len, rng.uniform_index(2) == 0 ? "1e999" : "-1e999");
          break;
        }
      }
    }
    const StatusOr<JsonValue> got = parse_json(text);
    if (got.ok()) {
      ++parsed;
    } else {
      ++rejected;
      ASSERT_EQ(got.status().code(), StatusCode::kInvalidArgument) << "mutation " << i;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace sattn
