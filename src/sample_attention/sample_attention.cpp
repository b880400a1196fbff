#include "sample_attention/sample_attention.h"

#include <cmath>
#include <utility>

#include "attention/sparse_flash_attention.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sattn {

SamplePlan plan_sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg) {
  SATTN_SPAN("sattn/plan");
  const Index sq = in.sq(), sk = in.sk();

  const Index window = window_width_from_ratio(sk, cfg.window_ratio);

  // Stage-1: query-guided attention sampling. The window region is tallied
  // separately — it is guaranteed by the merged window mask.
  SampleStats stage1 = sample_column_weights(in, cfg.row_ratio, cfg.sampling, window, cfg.seed);

  // Stage-2: score-based key-value filtering over the residual statistic.
  FilterConfig fcfg;
  fcfg.alpha = cfg.alpha;
  fcfg.pre_covered = stage1.total_mass > 0.0 ? stage1.window_mass / stage1.total_mass : 0.0;
  fcfg.mode = cfg.filter;
  FilterResult filtered = filter_kv_indices(stage1.column_weight, fcfg);

  // Merge: I_KV stripes ∪ tuned local window (Figure 3, "M_Merged").
  StructuredMask mask(sq, sk);
  {
    SATTN_SPAN("sattn/merge");
    mask.set_window(window);
    mask.set_stripe_columns(filtered.kv_indices);

    // Optional diagonal extension: distance buckets past the window with
    // outsized mass become diagonal bands.
    if (cfg.detect_diagonals && stage1.total_mass > 0.0) {
      const Index bw = stage1.distance_bucket_width;
      for (std::size_t b = 0; b < stage1.distance_hist.size(); ++b) {
        const Index bucket_lo = static_cast<Index>(b) * bw;
        if (bucket_lo + bw <= window) continue;  // inside the window anyway
        if (stage1.distance_hist[b] / stage1.total_mass >= cfg.diag_min_mass) {
          mask.add_diagonal_band({bucket_lo, bw});
        }
      }
    }
  }

  SamplePlan plan{std::move(mask), std::move(filtered), std::move(stage1), 0.0, 0.0};
  plan.overhead_fraction = sampling_overhead_fraction(plan.stage1, sq, sk);
  {
    SATTN_SPAN("sattn/density");
    plan.density = plan.mask.density();
  }
  // Retained-KV fraction and achieved Stage-2 coverage distributions for
  // the run report (io/run_report.h): the paper's Table 1 / Fig 5 trade-off
  // quantities, recorded per planned head.
  SATTN_HISTOGRAM("sattn.plan.density", plan.density);
  SATTN_HISTOGRAM("sattn.plan.coverage", plan.filter.coverage);
  SATTN_HISTOGRAM("sattn.plan.overhead_frac", plan.overhead_fraction);
  return plan;
}

void sample_attention(const AttentionInput& in, const SampleAttentionConfig& cfg, Matrix& out,
                      SamplePlan* plan_out) {
  SamplePlan plan = plan_sample_attention(in, cfg);
  sparse_flash_attention(in, plan.mask, out);
  if (plan_out != nullptr) *plan_out = std::move(plan);
}

std::string SampleAttention::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "SampleAttention(a=%.2f)", cfg_.alpha);
  return buf;
}

AttentionResult SampleAttention::run_impl(const AttentionInput& in) const {
  AttentionResult r;
  SamplePlan plan;
  sample_attention(in, cfg_, r.out, &plan);
  r.density = plan.density;
  r.overhead_density = plan.overhead_fraction;
  return r;
}

}  // namespace sattn
