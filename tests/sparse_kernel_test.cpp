// Tests for the sparse flash kernel: it must equal a masked reference
// softmax exactly (softmax over the kept keys), reduce to the dense kernel
// under a full mask, and handle window/stripe/band/block overlap without
// double counting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "core/simd.h"
#include "obs/accounting.h"
#include "obs/trace.h"
#include "random_mask.h"

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

// Reference masked attention: softmax over exactly the masked-in keys.
Matrix masked_reference(const AttentionInput& in, const StructuredMask& mask) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  Matrix out(sq, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (Index i = 0; i < sq; ++i) {
    std::vector<float> logits;
    std::vector<Index> cols;
    for (Index j = 0; j < sk; ++j) {
      if (mask.contains(i, j)) {
        cols.push_back(j);
        logits.push_back(scale * dot(in.q.row(i), in.k.row(j)));
      }
    }
    if (cols.empty()) continue;
    softmax_inplace(logits);
    auto oi = out.row(i);
    for (std::size_t t = 0; t < cols.size(); ++t) axpy(logits[t], in.v.row(cols[t]), oi);
  }
  return out;
}

TEST(SparseFlash, FullWindowEqualsDense) {
  AttentionInput in = random_input(48, 16, 1);
  StructuredMask mask(48, 48);
  mask.set_window(48);
  Matrix sparse, dense;
  sparse_flash_attention(in, mask, sparse);
  full_attention(in, dense);
  EXPECT_LT(max_abs_diff(sparse, dense), 2e-5f);
}

TEST(SparseFlash, MatchesMaskedReferenceWindowOnly) {
  AttentionInput in = random_input(40, 8, 2);
  StructuredMask mask(40, 40);
  mask.set_window(5);
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, MatchesMaskedReferenceWindowPlusStripes) {
  AttentionInput in = random_input(40, 8, 3);
  StructuredMask mask(40, 40);
  mask.set_window(4);
  mask.set_stripe_columns({0, 1, 7, 8, 9, 20, 33});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, StripesOverlappingWindowNotDoubleCounted) {
  AttentionInput in = random_input(24, 8, 4);
  StructuredMask mask(24, 24);
  mask.set_window(6);
  // Stripes deliberately inside many rows' windows.
  mask.set_stripe_columns({10, 11, 12, 13, 14, 15, 16, 17, 18});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, BlocksMatchReference) {
  AttentionInput in = random_input(32, 8, 5);
  StructuredMask mask(32, 32);
  mask.set_window(3);
  mask.set_stripe_columns({0, 16});
  mask.add_block({8, 16, 4, 12});
  mask.add_block({20, 28, 14, 20});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, BlockOverlappingStripeAndWindowNotDoubleCounted) {
  AttentionInput in = random_input(24, 8, 6);
  StructuredMask mask(24, 24);
  mask.set_window(4);
  mask.set_stripe_columns({5, 6});
  mask.add_block({10, 20, 3, 9});  // overlaps stripes 5,6 and nothing else
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, OverlappingBlocksCountOnce) {
  // Cells inside both blocks are kept once: the softmax must not weigh
  // them twice.
  AttentionInput in = random_input(32, 8, 9);
  StructuredMask mask(32, 32);
  mask.set_window(2);
  mask.add_block({8, 24, 2, 10});
  mask.add_block({12, 28, 6, 14});  // overlaps the first on columns 6..9
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, CrossLengthOffset) {
  AttentionInput in;
  in.q.resize(8, 8);
  in.k.resize(20, 8);
  in.v.resize(20, 8);
  Rng rng(7);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  StructuredMask mask(8, 20);
  mask.set_window(4);
  mask.set_stripe_columns({0, 3});
  Matrix out;
  sparse_flash_attention(in, mask, out);
  EXPECT_LT(max_abs_diff(out, masked_reference(in, mask)), 2e-5f);
}

TEST(SparseFlash, WorkMatchesDensityTimesCausalPairs) {
  StructuredMask mask(64, 64);
  mask.set_window(8);
  mask.set_stripe_columns({0, 1, 30});
  EXPECT_NEAR(sparse_flash_work(mask), mask.density() * causal_pairs(64, 64), 1e-6);
}

TEST(MaskedAttention, AdapterReportsDensity) {
  AttentionInput in = random_input(32, 8, 8);
  MaskedAttention method("window", [](const AttentionInput& input) {
    return make_window_mask(input.sq(), input.sk(), 0.25);
  });
  const AttentionResult res = method.run(in);
  EXPECT_EQ(method.name(), "window");
  EXPECT_GT(res.density, 0.0);
  EXPECT_LT(res.density, 1.0);
  EXPECT_EQ(res.out.rows(), 32);
}

// Property sweep: kernel == masked reference on random masks that mix
// window, scattered or fragmented stripes, diagonal bands and overlapping
// blocks, at sizes that cross the kernel's 4-row groups and 32-row tiles
// (sq <= sk), on both SIMD backends. The score evals the kernel charges must
// equal sparse_flash_work(mask).
class SparseKernelProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseKernelProperty, AgreesWithMaskedReference) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  constexpr Index kSizes[] = {1, 3, 5, 63, 65, 130, 257, 299};
  const Index sk = seed < 8 ? kSizes[seed] : 1 + rng.uniform_index(300);
  const Index sq = seed % 3 == 0 ? sk : 1 + rng.uniform_index(sk);
  const Index d = seed % 2 == 0 ? 8 : 12;
  AttentionInput in;
  in.q.resize(sq, d);
  in.k.resize(sk, d);
  in.v.resize(sk, d);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  const StructuredMask mask = test::random_structured_mask(rng, sq, sk);
  const Matrix ref = masked_reference(in, mask);

  ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  for (const bool scalar : {false, true}) {
    std::optional<simd::ScopedForceScalar> force;
    if (scalar) force.emplace();
    obs::ResourceAccountant::global().reset();
    Matrix out;
    sparse_flash_attention(in, mask, out);
    EXPECT_LT(max_abs_diff(out, ref), 3e-5f)
        << "seed=" << seed << " sq=" << sq << " sk=" << sk << " " << simd::active_level_name();
    const double evals =
        obs::ResourceAccountant::global().kernel_total("sparse_flash").flops / (4.0 * d);
    EXPECT_NEAR(evals, sparse_flash_work(mask), 1e-9 * std::max(1.0, evals)) << "seed=" << seed;
  }
  obs::set_enabled(false);
  obs::ResourceAccountant::global().reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseKernelProperty, ::testing::Range(0, 24));

}  // namespace
}  // namespace sattn
