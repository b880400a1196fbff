// Tests for the robustness subsystem: input validation, deterministic fault
// injection, and the guarded SampleAttention escalation ladder
// (docs/ROBUSTNESS.md).
//
// The central property (satellite of the near-lossless claim): for EVERY
// injected fault class, the guarded pipeline either returns a clean checked
// error or produces an output within recovery-metric tolerance of dense
// attention on the same (possibly corrupted) input. No aborts, no NaN soup.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "attention/flash_attention.h"
#include "metrics/recovery.h"
#include "model/workload.h"
#include "robust/fault_injection.h"
#include "robust/validate.h"
#include "runtime/scheduler.h"
#include "sample_attention/guarded.h"

namespace sattn {
namespace {

AttentionInput structured_head(Index s = 256) {
  return generate_attention(chatglm2_6b(), plain_prompt(7, s), 8, 3);
}

TEST(Validate, AcceptsCleanInput) {
  const AttentionInput in = structured_head();
  EXPECT_TRUE(validate_attention_input(in).ok());
}

TEST(Validate, RejectsNaNAndInfWithLocation) {
  AttentionInput in = structured_head();
  in.k(3, 2) = std::numeric_limits<float>::quiet_NaN();
  const Status s = validate_attention_input(in);
  EXPECT_EQ(s.code(), StatusCode::kDataCorruption);
  EXPECT_NE(s.message().find("K"), std::string::npos);

  AttentionInput in2 = structured_head();
  in2.v(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_EQ(validate_attention_input(in2).code(), StatusCode::kDataCorruption);
}

TEST(Validate, RejectsShapeMismatch) {
  AttentionInput in = structured_head();
  in.v.resize(in.sk() - 1, in.head_dim());
  EXPECT_EQ(validate_attention_input(in).code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjector, DeterministicInSeed) {
  const AttentionInput base = structured_head(128);
  for (FaultClass kind : tensor_fault_classes()) {
    AttentionInput a = base, b = base;
    FaultInjector ia({kind, 1.0, 77, -1});
    FaultInjector ib({kind, 1.0, 77, -1});
    ia.corrupt_input(a);
    ib.corrupt_input(b);
    ASSERT_EQ(ia.fires(), 1) << fault_class_name(kind);
    for (const Matrix* ma : {&a.q, &a.k, &a.v}) {
      const Matrix* mb = ma == &a.q ? &b.q : ma == &a.k ? &b.k : &b.v;
      ASSERT_EQ(ma->rows(), mb->rows());
      for (Index i = 0; i < ma->rows(); ++i) {
        for (Index t = 0; t < ma->cols(); ++t) {
          const float x = (*ma)(i, t), y = (*mb)(i, t);
          EXPECT_TRUE(x == y || (std::isnan(x) && std::isnan(y)))
              << fault_class_name(kind) << " diverged at " << i << "," << t;
        }
      }
    }
  }
}

TEST(FaultInjector, RateZeroNeverFiresAndMaxFiresCaps) {
  FaultInjector off({FaultClass::kTensorNaN, 0.0, 5, -1});
  AttentionInput in = structured_head(64);
  for (int r = 0; r < 20; ++r) off.corrupt_input(in);
  EXPECT_EQ(off.fires(), 0);
  EXPECT_TRUE(validate_attention_input(in).ok());

  FaultInjector capped({FaultClass::kPlanEmptyStripes, 1.0, 5, 2});
  for (int r = 0; r < 10; ++r) capped.should_fire();
  EXPECT_EQ(capped.fires(), 2);
}

TEST(Guarded, CleanInputTakesPrimaryPlan) {
  const AttentionInput in = structured_head();
  Matrix out;
  GuardReport report;
  ASSERT_TRUE(guarded_sample_attention(in, {}, {}, out, &report).ok());
  EXPECT_EQ(report.outcome, GuardOutcome::kPrimary);
  EXPECT_EQ(report.plan_rejects, 0);
  EXPECT_GT(report.coverage, 0.8);
  EXPECT_LT(report.density, 1.0);
  Matrix exact;
  flash_attention(in, exact);
  EXPECT_LT(recovery_stats(out, exact).rel_l1, 0.15);
}

TEST(Guarded, CorruptedInputIsCleanErrorNotCrash) {
  AttentionInput in = structured_head();
  in.q(1, 1) = std::numeric_limits<float>::quiet_NaN();
  Matrix out;
  const Status s = guarded_sample_attention(in, {}, {}, out);
  EXPECT_EQ(s.code(), StatusCode::kDataCorruption);
}

TEST(Guarded, TransientPlanFaultRecoversViaLadder) {
  // One injected plan fault: the primary plan is rejected, the re-sampled
  // rung produces a clean plan and serves the request.
  const AttentionInput in = structured_head();
  FaultInjector inj({FaultClass::kPlanPoisonedStats, 1.0, 9, /*max_fires=*/1});
  GuardConfig guard;
  guard.plan_hook = [&inj](SamplePlan& plan) { inj.corrupt_plan(plan); };
  Matrix out;
  GuardReport report;
  ASSERT_TRUE(guarded_sample_attention(in, {}, guard, out, &report).ok());
  EXPECT_EQ(report.outcome, GuardOutcome::kResampled);
  EXPECT_EQ(report.plan_rejects, 1);
  EXPECT_EQ(report.resamples, 1);
  Matrix exact;
  flash_attention(in, exact);
  EXPECT_LT(recovery_stats(out, exact).rel_l1, 0.15);
}

TEST(Guarded, PersistentFaultFallsBackToExactDense) {
  // Every sparse plan is corrupted: the ladder exhausts and dense
  // FlashAttention serves the request exactly.
  const AttentionInput in = structured_head();
  FaultInjector inj({FaultClass::kPlanTruncatedMask, 1.0, 11, -1});
  GuardConfig guard;
  guard.plan_hook = [&inj](SamplePlan& plan) { inj.corrupt_plan(plan); };
  Matrix out;
  GuardReport report;
  ASSERT_TRUE(guarded_sample_attention(in, {}, guard, out, &report).ok());
  EXPECT_EQ(report.outcome, GuardOutcome::kDenseFallback);
  EXPECT_GT(report.plan_rejects, 0);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  Matrix exact;
  flash_attention(in, exact);
  EXPECT_EQ(recovery_stats(out, exact).max_abs_err, 0.0) << "dense fallback must be exact";
}

TEST(Guarded, FallbackDisabledIsUnavailableNotCrash) {
  const AttentionInput in = structured_head();
  FaultInjector inj({FaultClass::kPlanTruncatedMask, 1.0, 13, -1});
  GuardConfig guard;
  guard.allow_dense_fallback = false;
  guard.plan_hook = [&inj](SamplePlan& plan) { inj.corrupt_plan(plan); };
  Matrix out;
  GuardReport report;
  const Status s = guarded_sample_attention(in, {}, guard, out, &report);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(report.last_reject.empty());
}

TEST(GuardLadder, RungsClampAndReseed) {
  // One ladder serves guarded_sample_attention and the serving engine. From
  // row_ratio 0.6 and window_ratio 0.7 a factor of 2 overshoots on every
  // rung: each ratio clamps at 1.0, and each resample bumps the seed.
  SampleAttentionConfig cfg;
  cfg.row_ratio = 0.6;
  cfg.window_ratio = 0.7;
  cfg.seed = 10;
  GuardConfig guard;
  guard.max_resamples = 2;
  guard.max_widens = 2;
  const std::vector<GuardRung> ladder = escalation_ladder(cfg, guard);
  ASSERT_EQ(ladder.size(), 5u);
  const GuardOutcome outcome[] = {GuardOutcome::kPrimary, GuardOutcome::kResampled,
                                  GuardOutcome::kResampled, GuardOutcome::kWidened,
                                  GuardOutcome::kWidened};
  const double row_ratio[] = {0.6, 1.0, 1.0, 1.0, 1.0};
  const double window_ratio[] = {0.7, 0.7, 0.7, 1.0, 1.0};
  const std::uint64_t seed[] = {10, 11, 12, 12, 12};
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    EXPECT_EQ(ladder[r].outcome, outcome[r]) << "rung " << r;
    EXPECT_EQ(ladder[r].cfg.row_ratio, row_ratio[r]) << "rung " << r;
    EXPECT_EQ(ladder[r].cfg.window_ratio, window_ratio[r]) << "rung " << r;
    EXPECT_EQ(ladder[r].cfg.seed, seed[r]) << "rung " << r;
    EXPECT_EQ(ladder[r].cfg.alpha, cfg.alpha) << "rung " << r;
  }
}

// The satellite property test: every fault class, clean error OR recovery
// within tolerance of dense attention on the same input.
TEST(Guarded, PropertyEveryFaultClassErrorsCleanlyOrRecovers) {
  const AttentionInput clean = structured_head();
  for (FaultClass kind : tensor_fault_classes()) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      AttentionInput in = clean;
      FaultInjector inj({kind, 1.0, seed, -1});
      inj.corrupt_input(in);
      Matrix out;
      GuardReport report;
      const Status s = guarded_sample_attention(in, {}, {}, out, &report);
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kDataCorruption)
            << fault_class_name(kind) << " seed " << seed << ": " << s.to_string();
        continue;
      }
      Matrix dense;
      flash_attention(in, dense);  // reference on the SAME corrupted input
      EXPECT_LT(recovery_stats(out, dense).rel_l1, 0.35)
          << fault_class_name(kind) << " seed " << seed << " outcome "
          << guard_outcome_name(report.outcome);
    }
  }
  for (FaultClass kind : plan_fault_classes()) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      FaultInjector inj({kind, 1.0, seed, -1});
      GuardConfig guard;
      guard.plan_hook = [&inj](SamplePlan& plan) { inj.corrupt_plan(plan); };
      Matrix out;
      GuardReport report;
      const Status s = guarded_sample_attention(clean, {}, guard, out, &report);
      ASSERT_TRUE(s.ok()) << fault_class_name(kind)
                          << ": plan faults are always recoverable, got " << s.to_string();
      Matrix dense;
      flash_attention(clean, dense);
      EXPECT_LT(recovery_stats(out, dense).rel_l1, 0.35)
          << fault_class_name(kind) << " seed " << seed << " outcome "
          << guard_outcome_name(report.outcome);
    }
  }
}

TEST(GuardedMethod, AdapterZeroesOutputOnUnrecoverableInput) {
  GuardedSampleAttention method;
  AttentionInput in = structured_head(128);
  in.k(0, 0) = std::numeric_limits<float>::quiet_NaN();
  const AttentionResult r = method.run(in);
  EXPECT_FALSE(method.last_status().ok());
  EXPECT_DOUBLE_EQ(r.density, 0.0);
  for (float x : r.out.flat()) EXPECT_FLOAT_EQ(x, 0.0f);

  const AttentionInput good = structured_head(128);
  const AttentionResult ok = method.run(good);
  EXPECT_TRUE(method.last_status().ok());
  EXPECT_GT(ok.density, 0.0);
  EXPECT_LT(ok.density, 1.0);
}

TEST(TraceFaults, OversizedArrivalsAreShedAtAdmission) {
  auto trace = synthetic_trace(16, 8 * 1024, 32 * 1024, 1.0, 31).value();
  FaultInjector inj({FaultClass::kTraceOversizedArrival, 0.5, 17, -1});
  inj.corrupt_trace(trace, /*oversize_to=*/1 << 20);
  ASSERT_GT(inj.fires(), 0);
  Engine fa2;
  SloOptions opts;
  opts.max_prompt_tokens = 256 * 1024;
  const SloServingResult res = simulate_queue_slo(trace, fa2, opts).value();
  EXPECT_EQ(res.completed.size() + res.shed.size(), trace.size());
  EXPECT_EQ(res.shed.size(), static_cast<std::size_t>(inj.fires()));
  for (const ShedRequest& s : res.shed) EXPECT_EQ(s.reason, "oversized");
}

TEST(TraceFaults, BurstArrivalsStillConserveRequests) {
  auto trace = synthetic_trace(16, 8 * 1024, 32 * 1024, 4.0, 37).value();
  FaultInjector inj({FaultClass::kTraceBurstArrival, 1.0, 19, 1});
  inj.corrupt_trace(trace, 0);
  Engine fa2;
  const SloServingResult res = simulate_queue_slo(trace, fa2, {}).value();
  EXPECT_EQ(res.completed.size(), trace.size()) << "no guardrails enabled, nothing sheds";
}

}  // namespace
}  // namespace sattn
