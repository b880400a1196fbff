// Tests for Stage-1 query-guided attention sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "attention/attention_method.h"
#include "attention/microkernel.h"
#include "attention/score_utils.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "core/simd.h"
#include "model/synthetic_model.h"
#include "model/workload.h"
#include "obs/audit.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"
#include "sample_attention/sampling.h"

namespace sattn {
namespace {

AttentionInput random_input(Index s, Index d, std::uint64_t seed) {
  AttentionInput in;
  in.q.resize(s, d);
  in.k.resize(s, d);
  in.v.resize(s, d);
  Rng rng(seed);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  return in;
}

TEST(StrideRows, CoversRangeEvenly) {
  auto rows = stride_rows(100, 0.05);
  EXPECT_GE(rows.size(), 5u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_EQ(rows.back(), 99);  // last row always included
  for (Index r : rows) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 100);
  }
}

TEST(StrideRows, AtLeastOneRow) {
  auto rows = stride_rows(10, 0.0);
  EXPECT_FALSE(rows.empty());
}

TEST(StrideRows, FullRatioGivesAllRows) {
  auto rows = stride_rows(16, 1.0);
  EXPECT_EQ(rows.size(), 16u);
}

TEST(SampleColumnWeights, TotalMassEqualsRowCount) {
  AttentionInput in = random_input(64, 8, 1);
  const SampleStats st = sample_column_weights(in, 0.25);
  // Each causal-softmaxed row sums to 1.
  EXPECT_NEAR(st.total_mass, static_cast<double>(st.sampled_rows.size()), 1e-4);
  EXPECT_DOUBLE_EQ(st.window_mass, 0.0);  // no exclusion window
  EXPECT_NEAR(dsum(st.column_weight), st.total_mass, 1e-4);
}

TEST(SampleColumnWeights, WindowExclusionSplitsMass) {
  AttentionInput in = random_input(64, 8, 2);
  const SampleStats st = sample_column_weights(in, 0.25, SamplingPolicy::kStride, 8);
  EXPECT_GT(st.window_mass, 0.0);
  EXPECT_NEAR(dsum(st.column_weight) + st.window_mass, st.total_mass, 1e-4);
}

TEST(SampleColumnWeights, FullWindowExclusionLeavesNoColumnMass) {
  AttentionInput in = random_input(32, 8, 3);
  const SampleStats st = sample_column_weights(in, 0.5, SamplingPolicy::kStride, 32);
  EXPECT_NEAR(dsum(st.column_weight), 0.0, 1e-5);
  EXPECT_NEAR(st.window_mass, st.total_mass, 1e-4);
}

TEST(SampleColumnWeights, DetectsPlantedColumn) {
  // Make column 5 attractive for every query.
  AttentionInput in = random_input(64, 8, 4);
  for (Index t = 0; t < 8; ++t) in.k(5, t) = 0.0f;
  for (Index i = 0; i < 64; ++i) {
    for (Index t = 0; t < 8; ++t) in.k(5, t) += in.q(i, t) / 8.0f;
  }
  for (Index t = 0; t < 8; ++t) in.k(5, t) *= 10.0f;
  const SampleStats st = sample_column_weights(in, 0.2);
  const auto argmax = static_cast<Index>(
      std::max_element(st.column_weight.begin() + 1, st.column_weight.end()) -
      st.column_weight.begin());
  EXPECT_EQ(argmax, 5);
}

TEST(SampleColumnWeights, RandomPolicyIsSeededAndSorted) {
  AttentionInput in = random_input(64, 4, 5);
  const SampleStats a = sample_column_weights(in, 0.2, SamplingPolicy::kRandom, 0, 7);
  const SampleStats b = sample_column_weights(in, 0.2, SamplingPolicy::kRandom, 0, 7);
  const SampleStats c = sample_column_weights(in, 0.2, SamplingPolicy::kRandom, 0, 8);
  EXPECT_EQ(a.sampled_rows, b.sampled_rows);
  EXPECT_NE(a.sampled_rows, c.sampled_rows);
  EXPECT_TRUE(std::is_sorted(a.sampled_rows.begin(), a.sampled_rows.end()));
}

TEST(SampleColumnWeights, TailOnlyTakesLastRows) {
  AttentionInput in = random_input(40, 4, 6);
  const SampleStats st = sample_column_weights(in, 0.25, SamplingPolicy::kTailOnly);
  ASSERT_EQ(st.sampled_rows.size(), 10u);
  EXPECT_EQ(st.sampled_rows.front(), 30);
  EXPECT_EQ(st.sampled_rows.back(), 39);
}

TEST(SamplingOverhead, ProportionalToRatio) {
  AttentionInput in = random_input(128, 4, 7);
  const SampleStats small = sample_column_weights(in, 0.05);
  const SampleStats big = sample_column_weights(in, 0.20);
  const double f_small = sampling_overhead_fraction(small, 128, 128);
  const double f_big = sampling_overhead_fraction(big, 128, 128);
  EXPECT_GT(f_big, f_small);
  EXPECT_LT(f_small, 0.12);
  EXPECT_GT(f_small, 0.01);
}

TEST(SampleColumnWeights, BitIdenticalToSerialBlockedReference) {
  // Stage-1 scores its sampled rows on the thread pool in batches; every
  // statistic must still equal a serial pass over the same 4-row chunks
  // (mk::logits_rows + softmax_prefix_inplace, rows reduced in order), bit
  // for bit, so Stage-2's stripe choice cannot depend on the pool. 2048
  // tokens at 5% is 102 rows: more than one kScoreBatchRows batch.
  const Index s = 2048;
  const AttentionInput in = generate_attention(chatglm2_6b(), plain_prompt(3, s), 7, 7);
  const Index window = 164;
  const SampleStats st = sample_column_weights(in, 0.05, SamplingPolicy::kStride, window);
  ASSERT_GT(static_cast<Index>(st.sampled_rows.size()), kScoreBatchRows);

  std::vector<double> acc(static_cast<std::size_t>(s), 0.0);
  std::vector<double> hist(SampleStats::kDistanceBuckets, 0.0);
  const Index bucket = (s + SampleStats::kDistanceBuckets - 1) / SampleStats::kDistanceBuckets;
  double total = 0.0, in_window = 0.0;
  std::vector<float> buf(static_cast<std::size_t>(mk::kQRows * s));
  const auto n = static_cast<Index>(st.sampled_rows.size());
  for (Index c = 0; c < n; c += mk::kQRows) {
    const Index nr = std::min(mk::kQRows, n - c);
    Index rows[mk::kQRows] = {};
    float* out[mk::kQRows] = {};
    for (Index r = 0; r < nr; ++r) {
      rows[r] = st.sampled_rows[static_cast<std::size_t>(c + r)];
      out[r] = buf.data() + static_cast<std::size_t>(r * s);
    }
    mk::logits_rows(in.q.data(), s, mk::KvView::of(in), s, rows, nr, out);
    for (Index r = 0; r < nr; ++r) {
      const Index lim = causal_limit(rows[r], s, s);
      softmax_prefix_inplace(std::span<float>(out[r], static_cast<std::size_t>(s)), lim + 1);
      double row_total = 0.0, row_window = 0.0;
      for (Index j = 0; j <= lim; ++j) {
        const float p = out[r][j];
        row_total += p;
        hist[static_cast<std::size_t>(
            std::min<Index>(SampleStats::kDistanceBuckets - 1, (lim - j) / bucket))] += p;
        if (j <= lim - window) {
          acc[static_cast<std::size_t>(j)] += p;
        } else {
          row_window += p;
        }
      }
      total += row_total;
      in_window += row_window;
    }
  }
  ASSERT_EQ(st.column_weight.size(), acc.size());
  for (std::size_t j = 0; j < acc.size(); ++j) {
    ASSERT_EQ(st.column_weight[j], static_cast<float>(acc[j])) << "column " << j;
  }
  EXPECT_EQ(st.distance_hist, hist);
  EXPECT_EQ(st.total_mass, total);
  EXPECT_EQ(st.window_mass, in_window);
}

// Property: the sampled column statistic approximates the full-row statistic
// (correlation of top-columns). Run over several structured seeds.
class SamplingApproxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SamplingApproxProperty, SampledTopColumnsOverlapExactTopColumns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Index s = 96;
  AttentionInput in = random_input(s, 8, seed);
  // Plant 6 strong columns shared by all queries.
  Rng rng(seed ^ 0xabc);
  std::vector<Index> planted;
  for (int c = 0; c < 6; ++c) {
    const Index col = 1 + rng.uniform_index(s / 2);  // first half: visible to many rows
    planted.push_back(col);
    for (Index t = 0; t < 8; ++t) in.k(col, t) = 0.0f;
    for (Index i = 0; i < s; ++i)
      for (Index t = 0; t < 8; ++t) in.k(col, t) += in.q(i, t) / static_cast<float>(s);
    for (Index t = 0; t < 8; ++t) in.k(col, t) *= 40.0f;
  }
  const SampleStats sampled = sample_column_weights(in, 0.1);
  const auto exact_rows = all_rows(s);
  const auto exact = column_score_sum(in, exact_rows);

  // The sampled top-8 must sit inside the exact top-16: the statistic can
  // reshuffle near-ties but must not surface spurious columns.
  auto top_sampled = topk_indices(sampled.column_weight, 8);
  auto top_exact = topk_indices(exact, 16);
  std::set<Index> se(top_exact.begin(), top_exact.end());
  int overlap = 0;
  for (Index t : top_sampled) overlap += se.count(t) > 0 ? 1 : 0;
  EXPECT_GE(overlap, 6) << "sampled statistic diverged from exact statistic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingApproxProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Planning in place: the view-form planner and auditor read a prefill chunk
// where its Q/K/V live — a prompt's flat tensors or a KVCache's page table —
// and must match the tensor form on the materialized chunk in every field,
// bit for bit.

// Query rows [q_lo, q_hi) of `in` against keys [0, q_hi), copied out.
AttentionInput materialize_chunk(const AttentionInput& in, Index q_lo, Index q_hi) {
  const Index d = in.head_dim();
  AttentionInput chunk;
  chunk.q.resize(q_hi - q_lo, d);
  chunk.k.resize(q_hi, d);
  chunk.v.resize(q_hi, d);
  std::copy(in.q.row(q_lo).data(), in.q.row(q_lo).data() + (q_hi - q_lo) * d, chunk.q.data());
  std::copy(in.k.data(), in.k.data() + q_hi * d, chunk.k.data());
  std::copy(in.v.data(), in.v.data() + q_hi * d, chunk.v.data());
  return chunk;
}

void expect_same_plan(const SamplePlan& got, const SamplePlan& want, const std::string& what) {
  EXPECT_EQ(got.mask.sq(), want.mask.sq()) << what;
  EXPECT_EQ(got.mask.sk(), want.mask.sk()) << what;
  EXPECT_EQ(got.mask.window(), want.mask.window()) << what;
  EXPECT_EQ(got.mask.stripe_columns(), want.mask.stripe_columns()) << what;
  EXPECT_TRUE(got.mask.diagonal_bands() == want.mask.diagonal_bands()) << what;
  EXPECT_EQ(got.mask.density(), want.mask.density()) << what;
  EXPECT_EQ(got.density, want.density) << what;
  EXPECT_EQ(got.overhead_fraction, want.overhead_fraction) << what;
  EXPECT_EQ(got.filter.kv_indices, want.filter.kv_indices) << what;
  EXPECT_EQ(got.filter.coverage, want.filter.coverage) << what;
  EXPECT_EQ(got.stage1.sampled_rows, want.stage1.sampled_rows) << what;
  EXPECT_EQ(got.stage1.column_weight, want.stage1.column_weight) << what;
  EXPECT_EQ(got.stage1.total_mass, want.stage1.total_mass) << what;
  EXPECT_EQ(got.stage1.window_mass, want.stage1.window_mass) << what;
  EXPECT_EQ(got.stage1.score_evals, want.stage1.score_evals) << what;
  EXPECT_EQ(got.stage1.distance_hist, want.stage1.distance_hist) << what;
}

TEST(PlanInPlace, ChunkViewsPlanAndAuditBitIdenticalToMaterializedChunk) {
  const Index s = 1024, page_tokens = 64;
  const AttentionInput in = generate_attention(chatglm2_6b(), plain_prompt(5, s), 3, 5);
  const Index d = in.head_dim();
  KVCache cache(d, std::make_shared<KvPageArena>(d, page_tokens));
  ASSERT_TRUE(cache.append_prefill(in).ok());
  const mk::KvView flat = mk::KvView::of(in), paged = cache.view();
  ASSERT_TRUE(paged.paged());
  SampleAttentionConfig cfg;
  cfg.detect_diagonals = true;  // the distance histogram shapes the mask too
  obs::AuditOptions aopts;
  aopts.enabled = true;
  aopts.sample_rate = 1.0;
  aopts.row_budget = 0;

  for (const bool scalar : {false, true}) {
    std::optional<simd::ScopedForceScalar> force;
    if (scalar) force.emplace();
    // Prompt start, mid-prompt on a page boundary, mid-prompt off one.
    for (const Index q_lo : {Index{0}, Index{512}, Index{300}}) {
      for (const Index rows : {Index{1}, Index{3}, Index{256}}) {
        const Index q_hi = q_lo + rows;
        const AttentionInput chunk = materialize_chunk(in, q_lo, q_hi);
        const SamplePlan want = plan_sample_attention(chunk, cfg);
        obs::QualityAuditor want_aud(aopts);
        const obs::AuditResult want_audit =
            want_aud.audit_chunk("chunk", chunk.q.data(), rows, mk::KvView::of(chunk), q_hi,
                                 want.mask, q_lo, 0, 0, want.filter.coverage);
        ASSERT_EQ(want_audit.rows, rows);
        for (const auto& [layout, kv] : {std::pair{"flat", flat}, std::pair{"paged", paged}}) {
          const std::string what = std::string(scalar ? "scalar " : "dispatched ") + layout +
                                   " q_lo=" + std::to_string(q_lo) +
                                   " rows=" + std::to_string(rows);
          const float* q = in.q.row(q_lo).data();
          expect_same_plan(plan_sample_attention(q, rows, kv, q_hi, cfg), want, what);
          obs::QualityAuditor aud(aopts);
          const obs::AuditResult got = aud.audit_chunk("chunk", q, rows, kv, q_hi, want.mask,
                                                       q_lo, 0, 0, want.filter.coverage);
          EXPECT_EQ(got.rows, want_audit.rows) << what;
          EXPECT_EQ(got.cra_min, want_audit.cra_min) << what;
          EXPECT_EQ(got.cra_mean, want_audit.cra_mean) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sattn
