// Guarded SampleAttention: the near-lossless claim, defended at runtime.
//
// Adaptivity can go wrong — a degenerate head whose Stage-1 sample misses
// the stripes, a corrupted tensor, a plan whose mask no longer covers the
// CRA threshold. The guarded pipeline wraps plan_sample_attention with
//
//   1. input validation  — shape + NaN/Inf checks on Q/K/V (robust/validate.h);
//      corrupted inputs are NOT recoverable (dense attention would be NaN
//      too) and return kDataCorruption;
//   2. plan validation   — achieved coverage >= alpha * coverage_slack,
//      non-degenerate mask (window present, density in (0, max_density]),
//      finite Stage-1 statistics;
//   3. an escalation ladder on plan rejection:
//         re-sample at higher row_ratio  (x resample_factor, max_resamples)
//      -> widen the local window         (x widen_factor, max_widens)
//      -> dense FlashAttention fallback  (exact, always valid)
//      with every step counted via src/obs (guard.* counters).
//
// Theorem 1 is what makes the ladder sound: each rung strictly raises the
// retained attention mass, and the last rung is exact.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "attention/attention_method.h"
#include "core/status.h"
#include "sample_attention/sample_attention.h"

namespace sattn {

struct GuardConfig {
  bool validate_inputs = true;

  // A plan is accepted when its achieved coverage (window mass + retained
  // stripe mass, re-derived from the plan's own Stage-1 statistic) reaches
  // alpha * coverage_slack. Slack < 1 tolerates the sampling estimate's
  // noise; 1.0 demands the full CRA threshold.
  double coverage_slack = 0.9;

  // Plans denser than this are rejected (a near-dense "sparse" plan is
  // strictly worse than the dense kernel). 1.0 never trips.
  double max_density = 1.0;

  Index max_resamples = 1;        // ladder rung 1: re-sample Stage-1
  double resample_factor = 2.0;   // row_ratio multiplier per resample
  Index max_widens = 1;           // ladder rung 2: widen the window
  double widen_factor = 2.0;      // window_ratio multiplier per widen
  bool allow_dense_fallback = true;  // ladder rung 3: exact FlashAttention

  // Test hook: runs on every freshly produced plan before validation.
  // Fault injection (robust/fault_injection.h) uses it to corrupt plans on
  // the live path; leave empty in production.
  std::function<void(SamplePlan&)> plan_hook;
};

enum class GuardOutcome {
  kPrimary,       // first plan accepted
  kResampled,     // accepted after Stage-1 re-sampling
  kWidened,       // accepted after window widening
  kDenseFallback  // exact dense attention ran
};

const char* guard_outcome_name(GuardOutcome outcome);

struct GuardReport {
  GuardOutcome outcome = GuardOutcome::kPrimary;
  Index plan_rejects = 0;    // plans that failed validation
  Index resamples = 0;       // re-sample rungs taken
  Index widens = 0;          // widen rungs taken
  double coverage = 0.0;     // achieved coverage of the accepted plan (1 for dense)
  double density = 0.0;      // executed mask density (1 for dense)
  double overhead = 0.0;     // planning overhead incl. rejected attempts
  std::string last_reject;   // why the most recent plan was rejected
};

// Validates one plan, made for an sq x sk attention problem, against the
// guard policy. Exposed for tests and for callers that plan once and
// execute many times.
Status validate_sample_plan(const SamplePlan& plan, Index sq, Index sk,
                            const SampleAttentionConfig& cfg, const GuardConfig& guard);

// One sparse rung of the escalation ladder: the planner config to try, and
// the outcome reported when its plan is accepted.
struct GuardRung {
  SampleAttentionConfig cfg;
  GuardOutcome outcome;
};

// The sparse rungs for `cfg`, primary first: max_resamples rungs that each
// multiply row_ratio by resample_factor and bump seed (a fresh sample, not
// a replay, under kRandom), then max_widens rungs that each multiply
// window_ratio by widen_factor; both ratios clamp at 1.0. The dense rung is
// not listed: guarded_sample_attention and the serving engine both walk
// these rungs and end on it.
std::vector<GuardRung> escalation_ladder(const SampleAttentionConfig& cfg,
                                         const GuardConfig& guard);

// Guarded pipeline: validate -> plan -> escalate -> execute. On success
// `out` holds the attention output and `report` (if given) says which rung
// served it. Returns a non-OK Status only for unrecoverable conditions
// (corrupted/malformed input, or every rung exhausted with dense fallback
// disabled).
Status guarded_sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg,
                                const GuardConfig& guard, Matrix& out,
                                GuardReport* report = nullptr);

// AttentionMethod adapter so the guarded pipeline drops into model_runner
// and the bench lineups. Unrecoverable inputs zero the output and record
// the error (last_status); recoverable ones resolve per the ladder.
class GuardedSampleAttention final : public AttentionMethod {
 public:
  explicit GuardedSampleAttention(SampleAttentionConfig cfg = {}, GuardConfig guard = {})
      : cfg_(cfg), guard_(std::move(guard)) {}

  std::string name() const override;

  const SampleAttentionConfig& config() const { return cfg_; }
  const GuardConfig& guard() const { return guard_; }
  const GuardReport& last_report() const { return last_report_; }
  const Status& last_status() const { return last_status_; }

 protected:
  AttentionResult run_impl(const AttentionInput& in) const override;

 private:
  SampleAttentionConfig cfg_;
  GuardConfig guard_;
  mutable GuardReport last_report_;
  mutable Status last_status_;
};

}  // namespace sattn
