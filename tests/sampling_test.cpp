// Tests for Stage-1 query-guided attention sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "attention/attention_method.h"
#include "attention/microkernel.h"
#include "attention/score_utils.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "model/synthetic_model.h"
#include "model/workload.h"
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
    mk::logits_rows(in, rows, nr, out);
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

}  // namespace
}  // namespace sattn
