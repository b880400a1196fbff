#include "sample_attention/guarded.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/validate.h"

namespace sattn {
namespace {

// Achieved coverage is re-derived from the plan's own contents instead of
// trusting FilterResult::coverage, so corruption that edits the mask but
// leaves the bookkeeping intact is still caught.
double achieved_coverage(const SamplePlan& plan) {
  const double total = plan.stage1.total_mass;
  if (!(total > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  double retained = plan.stage1.window_mass;
  const auto& w = plan.stage1.column_weight;
  for (Index j : plan.mask.stripe_columns()) {
    if (j >= 0 && j < static_cast<Index>(w.size())) retained += w[static_cast<std::size_t>(j)];
  }
  return retained / total;
}

}  // namespace

const char* guard_outcome_name(GuardOutcome outcome) {
  switch (outcome) {
    case GuardOutcome::kPrimary: return "primary";
    case GuardOutcome::kResampled: return "resampled";
    case GuardOutcome::kWidened: return "widened";
    case GuardOutcome::kDenseFallback: return "dense_fallback";
  }
  return "unknown";
}

Status validate_sample_plan(const SamplePlan& plan, Index sq, Index sk,
                            const SampleAttentionConfig& cfg, const GuardConfig& guard) {
  SATTN_CHECK(plan.mask.sq() == sq && plan.mask.sk() == sk, kInvalidArgument, "plan mask is ",
              plan.mask.sq(), "x", plan.mask.sk(), " but input is ", sq, "x", sk);
  SATTN_CHECK(std::isfinite(plan.stage1.total_mass) && plan.stage1.total_mass > 0.0,
              kDataCorruption, "Stage-1 total mass is ", plan.stage1.total_mass);
  SATTN_CHECK(plan.mask.window() >= 1, kFailedPrecondition,
              "plan mask lost its local window (window=", plan.mask.window(),
              "); diagonal coverage is not guaranteed");
  const double density = plan.mask.density();
  SATTN_CHECK(density > 0.0, kFailedPrecondition, "plan mask is empty (density 0)");
  SATTN_CHECK(density <= guard.max_density, kFailedPrecondition,
              "plan density ", density, " exceeds the guard budget ", guard.max_density);
  // Coverage check. NaN-poisoned statistics fail the comparison and land in
  // the second message branch.
  const double covered = achieved_coverage(plan);
  const double needed = cfg.alpha * guard.coverage_slack;
  SATTN_CHECK(covered >= needed, kFailedPrecondition,
              "plan coverage ", covered, " below required ", needed, " (alpha=", cfg.alpha,
              ", slack=", guard.coverage_slack, ")");
  return Status::Ok();
}

std::vector<GuardRung> escalation_ladder(const SampleAttentionConfig& cfg,
                                         const GuardConfig& guard) {
  // Each rung strictly raises the retained mass: more sampled rows sharpen
  // the statistic, a wider window raises the guaranteed diagonal coverage.
  std::vector<GuardRung> ladder;
  ladder.push_back({cfg, GuardOutcome::kPrimary});
  SampleAttentionConfig stepped = cfg;
  for (Index r = 0; r < guard.max_resamples; ++r) {
    stepped.row_ratio = std::min(1.0, stepped.row_ratio * guard.resample_factor);
    stepped.seed += 1;  // a fresh sample, not a replay, under kRandom
    ladder.push_back({stepped, GuardOutcome::kResampled});
  }
  for (Index w = 0; w < guard.max_widens; ++w) {
    stepped.window_ratio = std::min(1.0, stepped.window_ratio * guard.widen_factor);
    ladder.push_back({stepped, GuardOutcome::kWidened});
  }
  return ladder;
}

Status guarded_sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg,
                                const GuardConfig& guard, Matrix& out, GuardReport* report) {
  SATTN_SPAN("sattn/guarded");
  GuardReport rep;
  if (guard.validate_inputs) {
    const Status input_status = validate_attention_input(in);
    if (!input_status.ok()) {
      SATTN_COUNTER_ADD("guard.input_rejects", 1);
      if (report != nullptr) *report = std::move(rep);
      return input_status;
    }
  }

  for (const GuardRung& rung : escalation_ladder(cfg, guard)) {
    SamplePlan plan = plan_sample_attention(in, rung.cfg);
    if (guard.plan_hook) guard.plan_hook(plan);
    const Status verdict = validate_sample_plan(plan, in.sq(), in.sk(), rung.cfg, guard);
    if (!verdict.ok()) {
      ++rep.plan_rejects;
      rep.last_reject = verdict.to_string();
      rep.overhead += plan.overhead_fraction;  // wasted planning work
      SATTN_COUNTER_ADD("guard.plan_rejects", 1);
      switch (rung.outcome) {
        case GuardOutcome::kResampled: ++rep.resamples; break;
        case GuardOutcome::kWidened: ++rep.widens; break;
        default: break;
      }
      continue;
    }
    sparse_flash_attention(in, plan.mask, out);
    if (!all_finite(out.flat())) {
      // Finite inputs should yield finite output; treat anything else as a
      // kernel-level corruption and keep escalating.
      ++rep.plan_rejects;
      rep.last_reject = "non-finite output from sparse kernel";
      SATTN_COUNTER_ADD("guard.output_rejects", 1);
      continue;
    }
    rep.outcome = rung.outcome;
    switch (rung.outcome) {
      case GuardOutcome::kResampled:
        ++rep.resamples;
        SATTN_COUNTER_ADD("guard.resamples", 1);
        break;
      case GuardOutcome::kWidened:
        ++rep.widens;
        SATTN_COUNTER_ADD("guard.window_widens", 1);
        break;
      default:
        break;
    }
    if (rep.plan_rejects > 0) SATTN_COUNTER_ADD("guard.recovered", 1);
    rep.coverage = achieved_coverage(plan);
    rep.density = plan.density;
    rep.overhead += plan.overhead_fraction;
    // Ladder-depth and achieved-coverage distributions for the run report.
    SATTN_HISTOGRAM("guard.ladder_rungs", rep.plan_rejects);
    SATTN_HISTOGRAM("guard.coverage", rep.coverage);
    if (report != nullptr) *report = std::move(rep);
    return Status::Ok();
  }

  if (guard.allow_dense_fallback) {
    flash_attention(in, out);
    rep.outcome = GuardOutcome::kDenseFallback;
    rep.coverage = 1.0;
    rep.density = 1.0;
    SATTN_COUNTER_ADD("guard.dense_fallbacks", 1);
    SATTN_COUNTER_ADD("guard.recovered", 1);
    if (report != nullptr) *report = std::move(rep);
    return Status::Ok();
  }

  const std::string why = rep.last_reject;
  if (report != nullptr) *report = std::move(rep);
  return Status(StatusCode::kUnavailable,
                detail::status_msg("no valid sparse plan and dense fallback disabled; last "
                                   "rejection: ",
                                   why));
}

std::string GuardedSampleAttention::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "GuardedSampleAttention(a=%.2f)", cfg_.alpha);
  return buf;
}

AttentionResult GuardedSampleAttention::run_impl(const AttentionInput& in) const {
  AttentionResult r;
  r.out.resize(in.sq(), in.head_dim());
  last_status_ = guarded_sample_attention(in, cfg_, guard_, r.out, &last_report_);
  if (!last_status_.ok()) {
    // Unrecoverable input: surface a well-defined zero output rather than
    // NaN soup; callers that need the Status use guarded_sample_attention
    // directly or read last_status().
    r.out.fill(0.0f);
    r.density = 0.0;
    r.overhead_density = 0.0;
    SATTN_COUNTER_ADD("guard.unrecoverable", 1);
    return r;
  }
  r.density = last_report_.density;
  r.overhead_density = last_report_.overhead;
  return r;
}

}  // namespace sattn
