// Cross-module integration tests: the full SampleAttention story end to end
// on the model substrate — plan quality vs the SD oracle, near-lossless
// task accuracy vs baselines, tuner-driven configuration, and the
// density -> cost-model pipeline the benches use.
#include <gtest/gtest.h>

#include "attention/full_attention.h"
#include "attention/score_utils.h"
#include "baselines/bigbird.h"
#include "baselines/streaming_llm.h"
#include "metrics/cra.h"
#include "metrics/recovery.h"
#include "metrics/sparsity.h"
#include "perf/cost_model.h"
#include "sample_attention/sample_attention.h"
#include "sample_attention/tuner.h"
#include "tasks/longbench.h"
#include "tasks/needle.h"

namespace sattn {
namespace {

TEST(Integration, PlannedDensityTracksOracleSparsity) {
  // SampleAttention's kept density should be within a small factor of the
  // oracle kept fraction (it cannot beat the oracle by much — the oracle is
  // per-row optimal; and it should not be wildly above it either).
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(21, 1024), 8, 3);
  const auto rows = stride_rows(1024, 0.05);
  const SparsityStats oracle = sd_oracle(in, 0.95, rows);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  EXPECT_LT(plan.density, 5.0 * oracle.kept_fraction + 0.10);
}

TEST(Integration, NearLosslessAcrossHeadKinds) {
  // On every kind of head, the output must stay close to full attention.
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(22, 768);
  for (auto [layer, head] : {std::pair<Index, Index>{0, 0}, {8, 3}, {14, 9}, {27, 31}}) {
    const AttentionInput in = generate_attention(model, content, layer, head);
    Matrix exact, approx;
    full_attention(in, exact);
    sample_attention(in, SampleAttentionConfig{}, approx);
    const double err = recovery_stats(approx, exact).rel_l1;
    EXPECT_LT(err, 0.12) << "layer " << layer << " head " << head;
  }
}

TEST(Integration, SampleAttentionBeatsStreamingOnSynthetic) {
  const ModelConfig model = chatglm2_6b();
  LongBenchConfig cfg;
  cfg.lengths = {384};
  cfg.instances_per_family_per_length = 2;
  const auto synthetic = make_longbench_family("synthetic", cfg);
  EvalOptions opts;
  const double sample = evaluate_suite(model, SampleAttention{}, synthetic, opts);
  const double streaming = evaluate_suite(model, StreamingLLM{}, synthetic, opts);
  const double full = evaluate_suite(model, FullAttention{}, synthetic, opts);
  EXPECT_GE(sample, 0.99 * full);
  EXPECT_LT(streaming, 0.6 * std::max(full, 0.01));
}

TEST(Integration, TunedConfigIsNearLosslessOnHeldOutTask) {
  const ModelConfig model = chatglm2_6b();
  const auto requests = profiling_set(256, 512, 4);
  const auto inputs = profiling_inputs(model, requests, 8, 3);
  TunerOptions opts;
  opts.alphas = {0.80, 0.95};
  opts.row_ratios = {0.05};
  opts.window_ratios = {0.08};
  const TunerReport report = tune_hyperparameters(inputs, opts);

  const TaskInstance needle = make_needle_instance(384, 0.45, 77);
  const double full = evaluate_instance(model, FullAttention{}, needle);
  const double tuned = evaluate_instance(model, SampleAttention{report.best}, needle);
  EXPECT_GE(tuned, 0.99 * full);
}

TEST(Integration, DensityFeedsCostModelSpeedup) {
  // The whole Fig 5 pipeline: measure density on the substrate, feed the
  // cost model, expect a speedup over FlashAttention2 at long lengths.
  const ModelConfig model = chatglm2_6b();
  const Index s_measured = 2048;
  const AttentionInput in = generate_attention(model, plain_prompt(23, s_measured), 8, 3);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});

  const GpuSpec gpu = a100_single();
  const Index s_target = 96 * 1024;
  const double kept = extrapolate_kept_fraction(plan.density, s_measured, s_target);
  const double flash = flash_attention_seconds(model, s_target, gpu);
  const SampleAttentionCost c =
      sample_attention_seconds(model, s_target, gpu, kept, plan.overhead_fraction);
  const double speedup = flash / c.total_seconds;
  EXPECT_GT(speedup, 1.3) << "kept=" << kept;
  EXPECT_LT(speedup, 12.0);
}

TEST(Integration, CraImprovesWithAlphaOnRealPlans) {
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(24, 768), 12, 5);
  const auto rows = stride_rows(768, 0.08);
  double prev = -1.0;
  for (double alpha : {0.80, 0.95}) {
    SampleAttentionConfig cfg;
    cfg.alpha = alpha;
    const SamplePlan plan = plan_sample_attention(in, cfg);
    const double c = cra(in, plan.mask, rows);
    EXPECT_GE(c, prev - 0.02) << "alpha=" << alpha;
    prev = c;
  }
}

TEST(Integration, BigBirdDensityComparableButLessAccurate) {
  // At similar density, content-aware selection (SampleAttention) must be
  // more accurate than static selection (BigBird) on structured content.
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(25, 768), 8, 3);
  Matrix exact;
  full_attention(in, exact);

  const AttentionResult sample = SampleAttention{}.run(in);
  const AttentionResult bigbird = BigBird{}.run(in);
  const double err_sample = recovery_stats(sample.out, exact).rel_l1;
  const double err_bigbird = recovery_stats(bigbird.out, exact).rel_l1;
  EXPECT_LT(err_sample, err_bigbird);
}

TEST(Integration, BothModelPresetsWorkEndToEnd) {
  for (const ModelConfig& model : {chatglm2_6b(), internlm2_7b()}) {
    const AttentionInput in = generate_attention(model, plain_prompt(26, 512), 8, 3);
    Matrix exact, approx;
    full_attention(in, exact);
    SamplePlan plan;
    sample_attention(in, SampleAttentionConfig{}, approx, &plan);
    EXPECT_LT(recovery_stats(approx, exact).rel_l1, 0.1) << model.name;
    EXPECT_LT(plan.density, 0.8) << model.name;
  }
}

// Largest drop in Stage-2 coverage a change may cause on a pinned row.
constexpr double kMaxCoverageDrop = 0.005;

TEST(Integration, PlanCoverageStaysAboveFloors) {
  // The near-lossless contract at the paper artifacts' shapes: the four
  // Fig 9 heads, plus one row per other planner config an artifact bench
  // runs, at S <= 2048. Each floor is the coverage measured when the row
  // was pinned, minus kMaxCoverageDrop.
  struct Row {
    const char* artifact;
    Index layer;
    Index head;
    std::uint64_t prompt_seed;
    Index s;
    SampleAttentionConfig cfg;
    double floor;
  };
  const Row rows[] = {
      {"fig9", 0, 8, 130, 1024, {}, 0.984610 - kMaxCoverageDrop},
      {"fig9", 4, 3, 130, 1024, {}, 0.818181 - kMaxCoverageDrop},
      {"fig9", 12, 5, 130, 1024, {}, 0.909729 - kMaxCoverageDrop},
      {"fig9", 20, 11, 130, 1024, {}, 0.991725 - kMaxCoverageDrop},
      {"fig5/fig6/table3 alpha=0.80", 8, 3, 40, 2048, {.alpha = 0.80},
       0.932574 - kMaxCoverageDrop},
      {"table3 alpha=0.90", 8, 3, 40, 2048, {.alpha = 0.90}, 0.932574 - kMaxCoverageDrop},
      {"table3 alpha=0.98", 8, 3, 40, 2048, {.alpha = 0.98}, 0.964427 - kMaxCoverageDrop},
      {"table3 r_row=2%", 8, 3, 40, 2048, {.row_ratio = 0.02}, 0.948374 - kMaxCoverageDrop},
      {"table3 r_row=10%", 8, 3, 40, 2048, {.row_ratio = 0.10}, 0.929627 - kMaxCoverageDrop},
      {"table3 r_w=4%", 8, 3, 40, 2048, {.window_ratio = 0.04}, 0.920043 - kMaxCoverageDrop},
      {"table6 random sampling", 13, 0, 80, 2048, {.sampling = SamplingPolicy::kRandom},
       0.986280 - kMaxCoverageDrop},
      {"table6 tail-only sampling", 13, 0, 80, 2048, {.sampling = SamplingPolicy::kTailOnly},
       0.990377 - kMaxCoverageDrop},
      {"table6 exact filter", 13, 0, 80, 2048, {.filter = FilterMode::kExact},
       0.932051 - kMaxCoverageDrop},
      {"appendix diagonals", 8, 3, 120, 1024, {.detect_diagonals = true},
       0.882951 - kMaxCoverageDrop},
  };
  const ModelConfig model = chatglm2_6b();
  for (const Row& r : rows) {
    const AttentionInput in =
        generate_attention(model, plain_prompt(r.prompt_seed, r.s), r.layer, r.head);
    EXPECT_GE(plan_sample_attention(in, r.cfg).filter.coverage, r.floor)
        << r.artifact << " L" << r.layer << "H" << r.head << " S=" << r.s;
  }
}

}  // namespace
}  // namespace sattn
