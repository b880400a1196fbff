// Tests for the online attention-quality auditor (obs/audit.h): parity with
// the offline CRA metric at full sampling, nested threshold-hash selection,
// the decode-side retained-mass helper, the engine integration (audit billed
// to guard, measured_cra_low drift alert on a degraded mask), and the
// enabled-vs-disabled overhead bound the docs promise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attention/masks.h"
#include "attention/score_utils.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "metrics/cra.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "runtime/decode.h"
#include "runtime/engine.h"
#include "sample_attention/guarded.h"

namespace sattn {
namespace {

using obs::AuditOptions;
using obs::AuditResult;
using obs::QualityAuditor;

// Audits a tensor-shaped chunk: query rows [q_lo, q_lo + in.sq()) of a
// request against keys [0, in.sk()).
AuditResult audit_tensor(QualityAuditor& aud, std::string_view id, const AttentionInput& in,
                         const StructuredMask& mask, Index q_lo, long long layer, long long head,
                         double predicted) {
  return aud.audit_chunk(id, in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), mask, q_lo,
                         layer, head, predicted);
}

AttentionInput random_input(Index sq, Index sk, Index d, std::uint64_t seed) {
  AttentionInput in;
  Rng rng(seed);
  in.q.resize(sq, d);
  in.k.resize(sk, d);
  in.v.resize(sk, d);
  for (Matrix* m : {&in.q, &in.k, &in.v}) {
    for (Index r = 0; r < m->rows(); ++r) {
      for (float& x : m->row(r)) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    }
  }
  return in;
}

StructuredMask sparse_mask(Index sq, Index sk) {
  StructuredMask mask(sq, sk);
  mask.set_window(8);
  mask.set_stripe_columns({0, 3, 17, 29});
  return mask;
}

AuditOptions full_audit() {
  AuditOptions opts;
  opts.enabled = true;
  opts.sample_rate = 1.0;
  opts.row_budget = 0;  // no cap: audit every row
  return opts;
}

// ---------------------------------------------------------------------------
// Row selection: deterministic threshold hashing with nested sets
// ---------------------------------------------------------------------------

TEST(AuditSelectionTest, RateZeroSelectsNothingRateOneSelectsEverything) {
  AuditOptions off = full_audit();
  off.sample_rate = 0.0;
  const QualityAuditor none(off);
  const QualityAuditor all(full_audit());
  for (Index row = 0; row < 64; ++row) {
    EXPECT_FALSE(none.selects_row("req", row));
    EXPECT_TRUE(all.selects_row("req", row));
  }
}

TEST(AuditSelectionTest, SelectionIsDeterministicAndNestedAcrossRates) {
  AuditOptions lo_opts = full_audit();
  lo_opts.sample_rate = 0.1;
  AuditOptions hi_opts = full_audit();
  hi_opts.sample_rate = 0.5;
  const QualityAuditor lo(lo_opts), lo2(lo_opts), hi(hi_opts);
  int lo_picked = 0, hi_picked = 0;
  for (Index row = 0; row < 4096; ++row) {
    const bool in_lo = lo.selects_row("request-7", row);
    // Pure function of (seed, id, row): a second auditor agrees exactly.
    EXPECT_EQ(in_lo, lo2.selects_row("request-7", row));
    // Nested: every row audited at 0.1 is audited at 0.5.
    if (in_lo) EXPECT_TRUE(hi.selects_row("request-7", row));
    lo_picked += in_lo ? 1 : 0;
    hi_picked += hi.selects_row("request-7", row) ? 1 : 0;
  }
  // Unbiased-ish hit rates (loose: the hash is uniform, 4096 trials).
  EXPECT_NEAR(lo_picked / 4096.0, 0.1, 0.03);
  EXPECT_NEAR(hi_picked / 4096.0, 0.5, 0.05);
}

TEST(AuditSelectionTest, DifferentRequestsAuditDifferentRowSets) {
  AuditOptions opts = full_audit();
  opts.sample_rate = 0.2;
  const QualityAuditor aud(opts);
  int differ = 0;
  for (Index row = 0; row < 512; ++row) {
    if (aud.selects_row("req-a", row) != aud.selects_row("req-b", row)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

// ---------------------------------------------------------------------------
// Parity with the offline metric (metrics/cra.h)
// ---------------------------------------------------------------------------

TEST(AuditParityTest, FullRateAuditEqualsOfflineCraExactly) {
  const Index s = 48;
  const AttentionInput in = random_input(s, s, 16, 0xc0ffee);
  const StructuredMask mask = sparse_mask(s, s);
  QualityAuditor aud(full_audit());
  const AuditResult res = audit_tensor(aud, "parity", in, mask, /*q_lo=*/0, 0, 0, 0.95);
  ASSERT_EQ(res.rows, s);
  const std::vector<Index> rows = all_rows(s);
  // Same rows, same score path, same retained-mass accumulation: the online
  // estimate at rate 1.0 IS the offline Definition-2 value, bit for bit.
  EXPECT_DOUBLE_EQ(res.cra_min, cra(in, mask, rows));
  EXPECT_LT(res.cra_min, 1.0);  // the mask is genuinely sparse here
  EXPECT_GE(res.cra_mean, res.cra_min);
}

TEST(AuditParityTest, FullyDenseMaskAuditsToOne) {
  // Single-slot case is exact: softmax of one score is exactly 1.0.
  AttentionInput one = random_input(1, 1, 8, 1);
  StructuredMask full1(1, 1);
  full1.set_window(1);
  QualityAuditor aud(full_audit());
  const AuditResult r1 = audit_tensor(aud, "dense1", one, full1, 0, 0, 0, 1.0);
  ASSERT_EQ(r1.rows, 1);
  EXPECT_DOUBLE_EQ(r1.cra_min, 1.0);

  // General case: a window covering the whole causal prefix retains all
  // mass up to float-sum rounding.
  const Index s = 32;
  const AttentionInput in = random_input(s, s, 16, 2);
  StructuredMask full(s, s);
  full.set_window(s);
  QualityAuditor aud2(full_audit());
  const AuditResult r = audit_tensor(aud2, "dense", in, full, 0, 0, 0, 1.0);
  ASSERT_EQ(r.rows, s);
  EXPECT_NEAR(r.cra_min, 1.0, 1e-5);
}

TEST(AuditParityTest, MinEstimateIsMonotoneNonIncreasingInSampleRate) {
  const Index s = 64;
  const AttentionInput in = random_input(s, s, 16, 0xbeef);
  const StructuredMask mask = sparse_mask(s, s);
  const auto estimate = [&](double rate) {
    AuditOptions opts = full_audit();
    opts.sample_rate = rate;
    QualityAuditor aud(opts);
    return audit_tensor(aud, "mono", in, mask, 0, 0, 0, 0.95).cra_min;
  };
  const double e10 = estimate(0.1);
  const double e50 = estimate(0.5);
  const double e100 = estimate(1.0);
  // Nested sets -> the min over a superset can only go down: the estimate
  // converges to the exact CRA from above as the rate rises.
  EXPECT_GE(e10, e50);
  EXPECT_GE(e50, e100);
  EXPECT_DOUBLE_EQ(e100, cra(in, mask, all_rows(s)));
}

TEST(AuditParityTest, RowBudgetCapsWorkAndKeepsEstimateAboveExact) {
  const Index s = 48;
  const AttentionInput in = random_input(s, s, 16, 0xabc);
  const StructuredMask mask = sparse_mask(s, s);
  AuditOptions capped = full_audit();
  capped.row_budget = 4;
  QualityAuditor aud(capped), aud2(capped);
  const AuditResult res = audit_tensor(aud, "budget", in, mask, 0, 0, 0, 0.95);
  EXPECT_EQ(res.rows, 4);
  // Budgeted rows are the lowest-hash subset: deterministic, and a subset's
  // min is never below the full set's min.
  EXPECT_DOUBLE_EQ(res.cra_min, audit_tensor(aud2, "budget", in, mask, 0, 0, 0, 0.95).cra_min);
  QualityAuditor uncapped(full_audit());
  EXPECT_GE(res.cra_min, audit_tensor(uncapped, "budget", in, mask, 0, 0, 0, 0.95).cra_min);
}

// ---------------------------------------------------------------------------
// Scorecard accumulation
// ---------------------------------------------------------------------------

TEST(AuditScorecardTest, RecordDecodeFeedsHeadStatsAndTotals) {
  QualityAuditor aud(full_audit());
  aud.record_decode(0, 1, 0.98, 0.95, 0.001);
  aud.record_decode(0, 1, 0.90, 0.95, 0.001);
  aud.record_decode(2, 0, 0.80, 0.99, 0.002);
  const auto stats = aud.head_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].layer, 0);
  EXPECT_EQ(stats[0].head, 1);
  EXPECT_EQ(stats[0].rows, 2u);
  EXPECT_DOUBLE_EQ(stats[0].cra_min, 0.90);
  EXPECT_DOUBLE_EQ(stats[0].cra_mean, 0.94);
  EXPECT_DOUBLE_EQ(stats[0].predicted, 0.95);
  EXPECT_DOUBLE_EQ(stats[0].cra_gap, stats[0].predicted - stats[0].cra_p50);
  EXPECT_EQ(stats[1].layer, 2);
  // A positive gap flags overclaim: predicted 0.99 vs measured 0.80.
  EXPECT_NEAR(stats[1].cra_gap, 0.19, 1e-12);
  const auto totals = aud.totals();
  EXPECT_EQ(totals.rows, 3u);
  EXPECT_EQ(totals.chunks, 3u);
  EXPECT_DOUBLE_EQ(totals.cra_min, 0.80);
  EXPECT_NEAR(totals.overhead_seconds, 0.004, 1e-12);
}

// ---------------------------------------------------------------------------
// Decode-side retained mass (runtime/decode.h)
// ---------------------------------------------------------------------------

TEST(AuditDecodeTest, RetainedMassSumsWindowAndOutOfWindowStripes) {
  const std::vector<float> w = {0.1f, 0.2f, 0.3f, 0.4f};
  const std::vector<Index> stripe0 = {0};
  EXPECT_NEAR(audited_decode_retained_mass(w, stripe0, 2), 0.1 + 0.3 + 0.4, 1e-6);
  // A stripe inside the window is not double counted.
  const std::vector<Index> stripe3 = {3};
  EXPECT_NEAR(audited_decode_retained_mass(w, stripe3, 2), 0.3 + 0.4, 1e-6);
  // Duplicate stripe columns count once.
  const std::vector<Index> dup = {0, 0};
  EXPECT_NEAR(audited_decode_retained_mass(w, dup, 2), 0.1 + 0.3 + 0.4, 1e-6);
  // Window 0: stripes only.
  EXPECT_NEAR(audited_decode_retained_mass(w, stripe0, 0), 0.1, 1e-6);
  // Window covering everything: all mass.
  EXPECT_NEAR(audited_decode_retained_mass(w, {}, 8), 1.0, 1e-6);
}

TEST(AuditDecodeTest, EmptyWeightsAndClampEdgeCases) {
  EXPECT_DOUBLE_EQ(audited_decode_retained_mass({}, {}, 4), 1.0);
  // Float rounding can push a full sum past 1.0; the result is clamped.
  const std::vector<float> overfull = {0.7f, 0.7f};
  EXPECT_DOUBLE_EQ(audited_decode_retained_mass(overfull, {}, 2), 1.0);
}

// ---------------------------------------------------------------------------
// Engine integration (needs the obs registries clean + enabled)
// ---------------------------------------------------------------------------

class AuditObs : public ::testing::Test {
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

EngineOptions audited_engine() {
  EngineOptions opts;
  opts.mode = EngineMode::kSampleAttention;
  opts.head_dim = 32;
  opts.chunk_tokens = 128;
  opts.max_batch = 4;
  opts.decode_tokens = 4;
  opts.run_label = "audit";
  opts.audit.enabled = true;
  opts.audit.sample_rate = 1.0;
  opts.audit.row_budget = 8;
  return opts;
}

TEST_F(AuditObs, DenseModeIgnoresAuditEvenWhenEnabled) {
  EngineOptions opts = audited_engine();
  opts.mode = EngineMode::kDense;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"d0", 128, 0.0}};
  const EngineResult res = engine.run_trace(trace);
  EXPECT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(engine.auditor(), nullptr);
  EXPECT_EQ(gauge_value("audit.rows_audited"), 0.0);
}

TEST_F(AuditObs, HealthyRunAuditsRowsBillsGuardAndKeepsTtftIdentity) {
  ServingEngine engine(audited_engine());
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 6; ++i) trace.push_back({"h" + std::to_string(i), 512, 0.0});
  const EngineResult res = engine.run_trace(trace);
  ASSERT_EQ(res.completed.size(), 6u);

  ASSERT_NE(engine.auditor(), nullptr);
  const auto totals = engine.auditor()->totals();
  EXPECT_GT(totals.rows, 0u);
  EXPECT_GT(totals.overhead_seconds, 0.0);
  // Healthy planner at alpha 0.95: measured CRA stays near-lossless.
  EXPECT_GT(totals.cra_mean, 0.9);

  // finish() published the scorecard gauges.
  EXPECT_EQ(gauge_value("audit.rows_audited"), static_cast<double>(totals.rows));
  EXPECT_GT(gauge_value("audit.cra_mean"), 0.9);

  // Audit wall time bills to guard: the attribution identity survives with
  // every component non-negative (decode-side audits are deliberately NOT
  // billed — TTFT is already fixed at prefill completion by then).
  for (const EngineCompletion& c : res.completed) {
    EXPECT_NEAR(c.base.queue_seconds + c.base.compute_seconds + c.base.guard_seconds,
                c.base.ttft(), 1e-9)
        << c.base.request.id;
    EXPECT_GE(c.base.queue_seconds, -1e-9) << c.base.request.id;
    EXPECT_GE(c.base.guard_seconds, 0.0) << c.base.request.id;
  }
}

TEST_F(AuditObs, DegradedMaskRaisesMeasuredCraLowAlertFromGroundTruth) {
  // The planner's own bookkeeping cannot see this fault: shrinking the
  // deployed window to 1 after validation leaves predicted coverage and
  // retained-KV fraction intact, so only the shadow audit's measured CRA
  // (ground truth) catches the degradation.
  EngineOptions opts = audited_engine();
  opts.guard.plan_hook = [](SamplePlan& plan) { plan.mask.set_window(1); };
  opts.telemetry.enabled = true;
  opts.telemetry.interval_seconds = 1e6;  // final flush tick drives the monitor
  opts.telemetry.drift.min_samples = 2;
  opts.telemetry.drift.window_seconds = 60.0;
  opts.telemetry.drift.min_measured_cra = 0.90;

  ServingEngine engine(opts);
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 6; ++i) trace.push_back({"g" + std::to_string(i), 512, 0.0});
  const EngineResult res = engine.run_trace(trace);
  ASSERT_EQ(res.completed.size(), 6u);

  ASSERT_NE(engine.auditor(), nullptr);
  const auto totals = engine.auditor()->totals();
  EXPECT_GT(totals.rows, 0u);
  // The drift monitor watches per-chunk CRA *minima* — the worst-row rolling
  // mean, not the per-row mean (which stays higher because most rows keep
  // their mass in the local window). The worst rows are measurably degraded.
  EXPECT_LT(totals.cra_min, 0.90);
  EXPECT_LT(gauge_value("audit.cra_min"), 0.90);

  obs::TelemetryPublisher* pub = engine.telemetry_publisher();
  ASSERT_NE(pub, nullptr);
  EXPECT_GT(pub->totals().audited_chunks, 0u);
  bool alert_active = false;
  for (const obs::AlertState& a : pub->alerts())
    if (a.name == "measured_cra_low") alert_active = a.active;
  EXPECT_TRUE(alert_active);
  EXPECT_GE(counter_value("alert.measured_cra_low"), 1.0);
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

TEST(AuditOverheadTest, DefaultRateAuditVsDisabledEngineRunUnderTwoPercent) {
  if (built_with_sanitizers()) {
    GTEST_SKIP() << "wall-time comparison is not meaningful under sanitizers";
  }
  // The cost contract from docs/OBSERVABILITY.md: shadow auditing at the
  // DEFAULT sample rate must cost < 2% wall time on a sample-mode engine
  // run, with a small absolute epsilon for scheduling noise. obs collection
  // is off in both arms so the comparison isolates the auditor itself.
  obs::set_enabled(false);
  const auto build_trace = [] {
    std::vector<ServingRequest> trace;
    for (int i = 0; i < 16; ++i) trace.push_back({"o" + std::to_string(i), 512, 0.0});
    return trace;
  };
  const auto run_once = [&](bool audit_on) {
    EngineOptions opts;
    opts.mode = EngineMode::kSampleAttention;
    opts.head_dim = 64;
    opts.chunk_tokens = 256;
    opts.max_batch = 8;
    opts.decode_tokens = 8;
    opts.run_label = audit_on ? "aud_on" : "aud_off";
    opts.audit.enabled = audit_on;  // default sample_rate / row_budget
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

  // Interleaved min-of-N with retry attempts, as in the telemetry overhead
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
  EXPECT_TRUE(pass) << "audit-enabled " << best_on << "s vs disabled " << best_off
                    << "s exceeds the 2% + " << kAbsEpsilonSeconds << "s bound";
}

}  // namespace
}  // namespace sattn
