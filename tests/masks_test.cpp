// Tests for StructuredMask: membership, run compression, density math, and
// the convenience constructors.
#include <gtest/gtest.h>

#include "attention/masks.h"
#include "core/rng.h"
#include "random_mask.h"

namespace sattn {
namespace {

TEST(StructuredMask, WindowMembership) {
  StructuredMask m(8, 8);
  m.set_window(3);
  // Row 5: causal limit 5, window covers {3, 4, 5}.
  EXPECT_TRUE(m.contains(5, 5));
  EXPECT_TRUE(m.contains(5, 3));
  EXPECT_FALSE(m.contains(5, 2));
  EXPECT_FALSE(m.contains(5, 6));  // future
}

TEST(StructuredMask, CausalOverridesEverything) {
  StructuredMask m(4, 4);
  m.set_window(4);
  m.set_stripe_columns({3});
  EXPECT_FALSE(m.contains(0, 1));
  EXPECT_FALSE(m.contains(2, 3));
  EXPECT_TRUE(m.contains(3, 3));
}

TEST(StructuredMask, StripeColumnsSortedDeduped) {
  StructuredMask m(10, 10);
  m.set_stripe_columns({7, 2, 2, 5, -1, 100});
  const auto& cols = m.stripe_columns();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 2);
  EXPECT_EQ(cols[1], 5);
  EXPECT_EQ(cols[2], 7);
}

TEST(StructuredMask, RunCompression) {
  StructuredMask m(10, 10);
  m.set_stripe_columns({1, 2, 3, 7, 9});
  const auto& runs = m.stripe_runs();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (ColumnRun{1, 4}));
  EXPECT_EQ(runs[1], (ColumnRun{7, 8}));
  EXPECT_EQ(runs[2], (ColumnRun{9, 10}));
}

TEST(StructuredMask, OutOfRangeQueriesAreFalse) {
  StructuredMask m(4, 4);
  m.set_window(4);
  EXPECT_FALSE(m.contains(-1, 0));
  EXPECT_FALSE(m.contains(0, -1));
  EXPECT_FALSE(m.contains(4, 0));
  EXPECT_FALSE(m.contains(0, 4));
}

TEST(StructuredMask, BlocksAreClippedAndChecked) {
  StructuredMask m(8, 8);
  m.add_block({2, 4, 0, 2});
  EXPECT_TRUE(m.contains(2, 1));
  EXPECT_TRUE(m.contains(3, 0));
  EXPECT_FALSE(m.contains(4, 0));
  EXPECT_FALSE(m.contains(1, 0));
  // Degenerate block is dropped.
  m.add_block({5, 5, 0, 8});
  EXPECT_EQ(m.blocks().size(), 1u);
}

TEST(StructuredMask, DensityMatchesDenseCount) {
  StructuredMask m(16, 16);
  m.set_window(3);
  m.set_stripe_columns({0, 5, 6});
  m.add_block({8, 12, 2, 5});
  const Matrix dense = m.to_dense();
  double kept = 0.0;
  for (float v : dense.flat()) kept += v;
  EXPECT_NEAR(m.density(), kept / causal_pairs(16, 16), 1e-9);
}

// Number of causal cells to_dense() marks: the ground truth density() and
// the sparse kernel's work must reproduce exactly.
double dense_count(const StructuredMask& m) {
  const Matrix dense = m.to_dense();
  double kept = 0.0;
  for (float v : dense.flat()) kept += v;
  return kept;
}

TEST(StructuredMask, OverlappingBlocksCountOnceInDensity) {
  StructuredMask m(32, 32);
  m.set_window(2);
  m.add_block({8, 24, 2, 10});
  m.add_block({12, 28, 6, 14});  // overlaps the first on columns 6..9
  EXPECT_EQ(m.density(), dense_count(m) / causal_pairs(32, 32));
}

TEST(StructuredMask, RowRunsAreTheDenseRowsRunCompressed) {
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    const Index sk = 1 + rng.uniform_index(120);
    const Index sq = 1 + rng.uniform_index(sk);
    const StructuredMask m = test::random_structured_mask(rng, sq, sk);
    const Matrix dense = m.to_dense();
    std::vector<ColumnRun> runs;
    for (Index i = 0; i < sq; ++i) {
      m.row_runs(i, runs);
      std::vector<ColumnRun> expect;
      for (Index j = 0; j < sk; ++j) {
        if (dense(i, j) == 0.0f) continue;
        if (!expect.empty() && expect.back().hi == j) {
          ++expect.back().hi;
        } else {
          expect.push_back({j, j + 1});
        }
      }
      ASSERT_EQ(runs, expect) << "t=" << t << " row " << i;
    }
  }
}

TEST(StructuredMask, FullWindowDensityIsOne) {
  StructuredMask m(12, 12);
  m.set_window(12);
  EXPECT_NEAR(m.density(), 1.0, 1e-12);
}

TEST(StructuredMask, EmptyMaskDensityIsZero) {
  StructuredMask m(6, 6);
  EXPECT_DOUBLE_EQ(m.density(), 0.0);
}

TEST(StructuredMask, DensityWithCrossLengths) {
  StructuredMask m(4, 10);
  m.set_window(2);
  m.set_stripe_columns({0});
  const Matrix dense = m.to_dense();
  double kept = 0.0;
  for (float v : dense.flat()) kept += v;
  EXPECT_NEAR(m.density(), kept / causal_pairs(4, 10), 1e-9);
}

TEST(WindowWidthFromRatio, CeilAndClamp) {
  EXPECT_EQ(window_width_from_ratio(100, 0.08), 8);
  EXPECT_EQ(window_width_from_ratio(100, 0.081), 9);   // ceil
  EXPECT_EQ(window_width_from_ratio(100, 0.0), 1);     // at least 1
  EXPECT_EQ(window_width_from_ratio(100, 2.0), 100);   // at most Sk
}

TEST(MakeWindowMask, UsesRatio) {
  const StructuredMask m = make_window_mask(50, 50, 0.1);
  EXPECT_EQ(m.window(), 5);
  EXPECT_TRUE(m.stripe_columns().empty());
}

TEST(MakeStreamingMask, SinksPlusWindow) {
  const StructuredMask m = make_streaming_mask(100, 100, 4, 10);
  EXPECT_EQ(m.window(), 10);
  ASSERT_EQ(m.stripe_columns().size(), 4u);
  EXPECT_TRUE(m.contains(50, 0));   // sink visible from anywhere
  EXPECT_TRUE(m.contains(50, 45));  // window
  EXPECT_FALSE(m.contains(50, 20)); // middle dropped
}

TEST(CausalPairs, CountsLowerTriangle) {
  EXPECT_DOUBLE_EQ(causal_pairs(3, 3), 6.0);   // 1+2+3
  EXPECT_DOUBLE_EQ(causal_pairs(2, 4), 7.0);   // 3+4
  // Rows with a negative causal limit see no key and count nothing.
  EXPECT_DOUBLE_EQ(causal_pairs(5, 3), 6.0);   // 0+0+1+2+3
  EXPECT_DOUBLE_EQ(causal_pairs(4, 3), 6.0);   // 0+1+2+3
}

// Density must always lie in [0, 1] for random masks (property sweep).
class MaskDensityProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaskDensityProperty, DensityInUnitInterval) {
  const int seed = GetParam();
  const Index s = 20 + seed * 7;
  StructuredMask m(s, s);
  m.set_window(1 + seed % 5);
  std::vector<Index> cols;
  for (Index c = seed % 3; c < s; c += 3 + seed % 4) cols.push_back(c);
  m.set_stripe_columns(cols);
  m.add_block({seed % 5, seed % 5 + 4, 0, 3});
  EXPECT_GE(m.density(), 0.0);
  EXPECT_LE(m.density(), 1.0);
  const Matrix dense = m.to_dense();
  double kept = 0.0;
  for (float v : dense.flat()) kept += v;
  EXPECT_NEAR(m.density(), kept / causal_pairs(s, s), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskDensityProperty, ::testing::Range(0, 10));

// density() is an integer count over causal_pairs, so it must equal the
// to_dense() count exactly, whatever the overlap between components; and
// each row's row_runs must cover exactly that row's to_dense() cells. sq
// ranges up to 2 * sk, so the leading rows of a tall mask have a negative
// causal limit and keep nothing.
class RandomMaskDensity : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaskDensity, EqualsDenseCountExactly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const Index sk = 1 + rng.uniform_index(200);
  const Index sq = 1 + rng.uniform_index(2 * sk);
  const StructuredMask m = test::random_structured_mask(rng, sq, sk);
  const Matrix dense = m.to_dense();
  double kept = 0.0;
  for (float v : dense.flat()) kept += v;
  EXPECT_EQ(m.density(), kept / causal_pairs(sq, sk))
      << "sq=" << sq << " sk=" << sk << " blocks=" << m.blocks().size();
  EXPECT_GE(m.density(), 0.0);
  EXPECT_LE(m.density(), 1.0) << "sq=" << sq << " sk=" << sk;
  std::vector<ColumnRun> runs;
  for (Index i = 0; i < sq; ++i) {
    m.row_runs(i, runs);
    std::vector<float> row(static_cast<std::size_t>(sk), 0.0f);
    Index prev_hi = -1;
    for (const ColumnRun& r : runs) {
      ASSERT_LE(prev_hi, r.lo) << "row " << i << ": runs unsorted or overlapping";
      ASSERT_LT(r.lo, r.hi) << "row " << i << ": empty run";
      ASSERT_GE(r.lo, 0) << "row " << i;
      ASSERT_LE(r.hi, sk) << "row " << i;
      for (Index j = r.lo; j < r.hi; ++j) row[static_cast<std::size_t>(j)] = 1.0f;
      prev_hi = r.hi;
    }
    for (Index j = 0; j < sk; ++j) {
      ASSERT_EQ(row[static_cast<std::size_t>(j)], dense(i, j))
          << "sq=" << sq << " sk=" << sk << " row " << i << " col " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMaskDensity, ::testing::Range(0, 24));

}  // namespace
}  // namespace sattn
