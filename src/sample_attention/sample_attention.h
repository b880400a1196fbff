// SampleAttention: adaptive structured sparse attention (Section 4).
//
// End-to-end pipeline per attention head, following the paper's Algorithm 1:
//
//   1. Stage-1  — stride-sample query rows (ratio r_row), compute exact
//                 softmax scores for them, accumulate along columns.
//   2. Stage-2  — sort the column statistic, pick the minimum top-k key set
//                 I_KV whose coverage reaches the CRA threshold alpha
//                 (bucketed searchsorted, per Algorithm 1).
//   3. Merge    — union I_KV's column stripes with the tuned local window
//                 (width = ceil(r_w% * Sk)) into a structured mask.
//   4. Kernel   — run the sparse flash-attention kernel over the mask.
//
// The method is tuning-free at run time: the three hyperparameters
// (alpha, r_row, r_w%) are fixed per model by offline profiling (tuner.h).
#pragma once

#include <string>

#include "attention/attention_method.h"
#include "attention/masks.h"
#include "sample_attention/filtering.h"
#include "sample_attention/sampling.h"

namespace sattn {

struct SampleAttentionConfig {
  double alpha = 0.95;        // CRA threshold (Table 1)
  double row_ratio = 0.05;    // r_row, Stage-1 sampling ratio
  double window_ratio = 0.08; // r_w%, local-window fraction of Sk
  SamplingPolicy sampling = SamplingPolicy::kStride;
  FilterMode filter = FilterMode::kBucketed;
  std::uint64_t seed = 0;     // only used by SamplingPolicy::kRandom

  // Extension (paper Appendix A.6 future work): detect secondary diagonal
  // structures from the Stage-1 distance histogram and add matching
  // diagonal bands to the merged mask. A distance bucket beyond the window
  // whose mass fraction exceeds diag_min_mass becomes a band.
  bool detect_diagonals = false;
  double diag_min_mass = 0.04;
};

// Everything the planner decided for one head, exposed for analysis benches
// (Fig 2(e), Table 6) and for the cost model.
struct SamplePlan {
  StructuredMask mask;                 // merged window + stripe mask
  FilterResult filter;                 // I_KV and its coverage
  SampleStats stage1;                  // sampled rows + column statistic
  double overhead_fraction = 0.0;      // Stage-1 work / full attention work
  double density = 0.0;                // mask density over the causal grid
};

// Runs Stage-1 + Stage-2 + merge, without executing the kernel.
//
// View form: q holds sq contiguous rows of kv.d floats and keys are [0, sk)
// of the (flat or paged) view, with row i's causal limit at i + sk - sq — a
// prefill chunk [q_lo, q_hi) of a longer prompt is planned in place, with
// no copy of its K/V prefix. The tensor overload forwards with
// mk::KvView::of(in).
SamplePlan plan_sample_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                                 const SampleAttentionConfig& cfg);
SamplePlan plan_sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg);

// Full pipeline: plan + sparse kernel.
void sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg, Matrix& out,
                      SamplePlan* plan_out = nullptr);

class SampleAttention final : public AttentionMethod {
 public:
  explicit SampleAttention(SampleAttentionConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override;

  const SampleAttentionConfig& config() const { return cfg_; }

 protected:
  AttentionResult run_impl(const AttentionInput& in) const override;

 private:
  SampleAttentionConfig cfg_;
};

}  // namespace sattn
