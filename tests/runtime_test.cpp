// Tests for the runtime layer: KV cache, decode attention, eviction
// policies, chunked prefill, and the model-level prefill runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "model/workload.h"
#include "runtime/chunked_prefill.h"
#include "runtime/decode.h"
#include "runtime/eviction.h"
#include "runtime/kv_cache.h"
#include "runtime/kv_page.h"
#include "runtime/model_runner.h"
#include "sample_attention/sample_attention.h"

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

TEST(KvCache, AppendAndViews) {
  KVCache cache(4);
  std::vector<float> k = {1, 2, 3, 4}, v = {5, 6, 7, 8};
  ASSERT_TRUE(cache.append(0, k, v).ok());
  ASSERT_EQ(cache.size(), 1);
  EXPECT_FLOAT_EQ(cache.k(0)[2], 3.0f);
  EXPECT_FLOAT_EQ(cache.v(0)[0], 5.0f);
  EXPECT_EQ(cache.position(0), 0);
}

TEST(KvCache, AppendPrefillCopiesAllRows) {
  const AttentionInput in = random_input(16, 8, 1);
  KVCache cache(8);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  ASSERT_EQ(cache.size(), 16);
  for (Index j = 0; j < 16; ++j) {
    EXPECT_FLOAT_EQ(cache.k(j)[0], in.k(j, 0));
    EXPECT_FLOAT_EQ(cache.v(j)[7], in.v(j, 7));
    EXPECT_EQ(cache.position(j), j);
  }
}

TEST(KvCache, KeepSlotsCompacts) {
  const AttentionInput in = random_input(8, 4, 2);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<Index> keep = {0, 3, 7};
  ASSERT_TRUE(cache.keep_slots(keep).ok());
  ASSERT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.position(1), 3);
  EXPECT_FLOAT_EQ(cache.k(2)[0], in.k(7, 0));
  EXPECT_EQ(cache.slot_of(3), 1);
  EXPECT_EQ(cache.slot_of(4), -1);
}

// Satellite regression (docs/ROBUSTNESS.md): violations of the cache's
// append contract are checked errors, not asserts, so they surface in
// release builds too (SATTN_CHECK never compiles out — this test runs
// identically under -DNDEBUG).
TEST(KvCache, AppendViolationsAreCheckedErrors) {
  KVCache cache(4);
  std::vector<float> k = {1, 2, 3, 4}, v = {5, 6, 7, 8};
  ASSERT_TRUE(cache.append(5, k, v).ok());

  // Non-monotone position: rejected, cache untouched.
  const Status backwards = cache.append(5, k, v);
  EXPECT_EQ(backwards.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(backwards.message().find("monoton"), std::string::npos);
  EXPECT_EQ(cache.size(), 1);

  // Dimension mismatch: rejected, cache untouched.
  std::vector<float> short_row = {1, 2};
  const Status bad_k = cache.append(6, short_row, v);
  EXPECT_EQ(bad_k.code(), StatusCode::kInvalidArgument);
  const Status bad_v = cache.append(6, k, short_row);
  EXPECT_EQ(bad_v.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 1);

  // The cache still works after rejected appends.
  ASSERT_TRUE(cache.append(6, k, v).ok());
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.position(1), 6);
}

TEST(KvCache, KeepSlotsRejectsBadListsWithoutMutating) {
  const AttentionInput in = random_input(8, 4, 21);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  EXPECT_EQ(cache.keep_slots(std::vector<Index>{3, 1}).code(),
            StatusCode::kInvalidArgument);  // not ascending
  EXPECT_EQ(cache.keep_slots(std::vector<Index>{0, 99}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(cache.size(), 8);  // nothing was dropped by the failed calls
  for (Index j = 0; j < 8; ++j) EXPECT_FLOAT_EQ(cache.k(j)[0], in.k(j, 0));
}

TEST(KvCache, AppendPrefillRejectsMismatchedInput) {
  AttentionInput in = random_input(8, 4, 22);
  KVCache cache(8);  // head_dim 8 != input's 4
  EXPECT_EQ(cache.append_prefill(in).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.size(), 0);
}

TEST(Decode, MatchesFullAttentionLastRow) {
  // Decoding position S-1 against the cache of positions 0..S-1 must equal
  // the last row of one-shot causal prefill.
  const AttentionInput in = random_input(32, 8, 3);
  Matrix exact;
  full_attention(in, exact);

  KVCache cache(8);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(decode_attention(in.q.row(31), cache, out).ok());
  for (Index t = 0; t < 8; ++t) EXPECT_NEAR(out[static_cast<std::size_t>(t)], exact(31, t), 2e-5f);
}

TEST(Decode, WeightsSumToOne) {
  const AttentionInput in = random_input(16, 4, 4);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  std::vector<float> out(4), weights;
  ASSERT_TRUE(decode_attention(in.q.row(15), cache, out, &weights).ok());
  ASSERT_EQ(weights.size(), 16u);
  double s = 0.0;
  for (float w : weights) s += w;
  EXPECT_NEAR(s, 1.0, 1e-5);
}

// decode_attention scores each key with a single-row dotn over the query
// row widened once per step; its weights must be exactly the softmax of
// scale * dot(q_row, k) over the cache, at head dims with and without a
// vector tail.
TEST(Decode, WeightsAreSoftmaxOfScaledRowDotsBitExact) {
  for (const Index d : {1, 3, 64, 129}) {
    const AttentionInput in = random_input(40, d, 30 + static_cast<std::uint64_t>(d));
    KVCache cache(d);
    ASSERT_TRUE(cache.append_prefill(in).ok());
    std::vector<float> out(static_cast<std::size_t>(d)), weights;
    ASSERT_TRUE(decode_attention(in.q.row(39), cache, out, &weights).ok());
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    std::vector<float> want(static_cast<std::size_t>(cache.size()));
    for (Index j = 0; j < cache.size(); ++j) {
      want[static_cast<std::size_t>(j)] = scale * dot(in.q.row(39), cache.k(j));
    }
    softmax_inplace(want);
    ASSERT_EQ(weights.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(weights[j], want[j]) << "d=" << d << " key " << j;
    }
  }
}

TEST(Decode, EmptyCacheYieldsZeros) {
  KVCache cache(4);
  std::vector<float> q = {1, 2, 3, 4}, out(4, 9.0f);
  ASSERT_TRUE(decode_attention(q, cache, out).ok());
  for (float x : out) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(H2O, KeepsHeavyHittersAndRecent) {
  const AttentionInput in = random_input(32, 4, 5);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(/*budget=*/8, /*recent=*/4);
  // Observe weights that make positions 2 and 10 heavy.
  std::vector<float> w(32, 0.001f);
  w[2] = 0.5f;
  w[10] = 0.4f;
  policy.observe(cache, w);
  EXPECT_TRUE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 8);
  EXPECT_GE(cache.slot_of(2), 0);
  EXPECT_GE(cache.slot_of(10), 0);
  // The 4 most recent positions survive.
  for (Index pos : {28, 29, 30, 31}) EXPECT_GE(cache.slot_of(pos), 0);
}

TEST(H2O, NoEvictionUnderBudget) {
  const AttentionInput in = random_input(8, 4, 6);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(16, 4);
  EXPECT_FALSE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 8);
}

TEST(H2O, ScoresAccumulateAcrossSteps) {
  const AttentionInput in = random_input(8, 4, 7);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  H2OPolicy policy(6, 2);
  std::vector<float> w(8, 0.125f);
  policy.observe(cache, w);
  policy.observe(cache, w);
  EXPECT_NEAR(policy.accumulated_score(cache, 3), 0.25, 1e-6);
}

TEST(SinkRecent, KeepsExactlySinksAndTail) {
  const AttentionInput in = random_input(32, 4, 8);
  KVCache cache(4);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  SinkRecentPolicy policy(/*sinks=*/4, /*recent=*/8);
  EXPECT_TRUE(policy.enforce(cache));
  EXPECT_EQ(cache.size(), 12);
  EXPECT_GE(cache.slot_of(0), 0);
  EXPECT_GE(cache.slot_of(3), 0);
  EXPECT_EQ(cache.slot_of(10), -1);
  EXPECT_GE(cache.slot_of(31), 0);
}

TEST(ChunkedPrefill, ExactlyMatchesOneShot) {
  const AttentionInput in = random_input(50, 8, 9);
  Matrix one_shot;
  flash_attention(in, one_shot);
  for (Index chunk : {1, 7, 16, 50, 64}) {
    const ChunkedPrefillResult res = chunked_flash_prefill(in, chunk).value();
    EXPECT_LT(max_abs_diff(res.out, one_shot), 3e-5f) << "chunk=" << chunk;
  }
}

TEST(ChunkedPrefill, FillsCache) {
  const AttentionInput in = random_input(20, 4, 10);
  KVCache cache(4);
  ASSERT_TRUE(chunked_flash_prefill(in, 6, &cache).ok());
  ASSERT_EQ(cache.size(), 20);
  EXPECT_FLOAT_EQ(cache.k(13)[1], in.k(13, 1));
}

TEST(ChunkedPrefill, SampleVariantIsNearLossless) {
  const ModelConfig model = chatglm2_6b();
  const AttentionInput in = generate_attention(model, plain_prompt(11, 512), 8, 3);
  Matrix exact;
  full_attention(in, exact);
  const ChunkedPrefillResult res = chunked_sample_prefill(in, 128, SampleAttentionConfig{}).value();
  EXPECT_EQ(res.chunks, 4);
  EXPECT_LT(res.mean_density, 1.0);
  EXPECT_LT(mean_abs_diff(res.out, exact), 0.05f);
}

// The per-chunk materialized reference: chunk [q_lo, q_hi) copied into its
// own AttentionInput (queries q_lo..q_hi, keys/values 0..q_hi), run through
// the tensor-form kernel (flash, or SampleAttention with *cfg), and its rows
// copied back into `out` (empty: zero-initialized) — rows before `start`
// are kept as given.
Matrix materialized_chunks(const AttentionInput& in, Index chunk, Index start, Matrix out,
                           const SampleAttentionConfig* cfg) {
  const Index d = in.head_dim();
  if (out.size() == 0) out.resize(in.sq(), d);
  for (Index q_lo = start; q_lo < in.sq(); q_lo += chunk) {
    const Index q_hi = std::min(in.sq(), q_lo + chunk);
    AttentionInput c;
    c.q.resize(q_hi - q_lo, d);
    c.k.resize(q_hi, d);
    c.v.resize(q_hi, d);
    for (Index i = q_lo; i < q_hi; ++i) std::ranges::copy(in.q.row(i), c.q.row(i - q_lo).begin());
    for (Index j = 0; j < q_hi; ++j) {
      std::ranges::copy(in.k.row(j), c.k.row(j).begin());
      std::ranges::copy(in.v.row(j), c.v.row(j).begin());
    }
    Matrix o;
    if (cfg != nullptr) {
      sample_attention(c, *cfg, o);
    } else {
      flash_attention(c, o);
    }
    for (Index i = q_lo; i < q_hi; ++i) std::ranges::copy(o.row(i - q_lo), out.row(i).begin());
  }
  return out;
}

std::vector<std::uint32_t> bits(const Matrix& m) {
  std::vector<std::uint32_t> b(static_cast<std::size_t>(m.size()));
  std::memcpy(b.data(), m.data(), b.size() * sizeof(float));
  return b;
}

TEST(ChunkedPrefill, InPlaceChunksBitIdenticalToMaterializedChunks) {
  // Chunks run in place (queries and key prefix read through
  // mk::KvView::of(in), outputs written into the result rows); that must
  // change addressing only, never arithmetic — for both variants, at every
  // chunk size, and for a warm run whose leading pages come from the prefix
  // index.
  const AttentionInput in = generate_attention(chatglm2_6b(), plain_prompt(11, 200), 8, 3);
  const Index d = in.head_dim();
  const SampleAttentionConfig cfg;
  for (Index chunk : {1, 7, 50}) {
    EXPECT_EQ(bits(chunked_flash_prefill(in, chunk).value().out),
              bits(materialized_chunks(in, chunk, 0, Matrix{}, nullptr)))
        << "flash, chunk=" << chunk;
    EXPECT_EQ(bits(chunked_sample_prefill(in, chunk, cfg).value().out),
              bits(materialized_chunks(in, chunk, 0, Matrix{}, &cfg)))
        << "sample, chunk=" << chunk;
  }
  for (const SampleAttentionConfig* variant : {static_cast<const SampleAttentionConfig*>(nullptr),
                                               &cfg}) {
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(in.sq()));
    for (std::size_t r = 0; r < keys.size(); ++r) keys[r] = 0x6b6579ull + r;
    const auto run = [&](KVCache& cache) {
      return variant == nullptr ? chunked_flash_prefill(in, 50, &cache, keys).value()
                                : chunked_sample_prefill(in, 50, *variant, &cache, keys).value();
    };
    auto arena = std::make_shared<KvPageArena>(d, 64);
    KVCache cold_cache(d, arena), warm_cache(d, arena);
    const ChunkedPrefillResult cold = run(cold_cache);
    const ChunkedPrefillResult warm = run(warm_cache);
    ASSERT_EQ(warm.prefix_hit_tokens, 192) << "three full 64-token pages attach";
    EXPECT_EQ(warm.chunks, 1);
    EXPECT_EQ(bits(warm.out),
              bits(materialized_chunks(in, 50, warm.prefix_hit_tokens, cold.out, variant)))
        << (variant == nullptr ? "flash" : "sample") << " warm run";
  }
}

TEST(ChunkedPrefill, DecodeAfterChunkedPrefillIsExact) {
  const AttentionInput in = random_input(24, 8, 12);
  Matrix exact;
  full_attention(in, exact);
  KVCache cache(8);
  ASSERT_TRUE(chunked_flash_prefill(in, 8, &cache).ok());
  std::vector<float> out(8);
  ASSERT_TRUE(decode_attention(in.q.row(23), cache, out).ok());
  for (Index t = 0; t < 8; ++t) EXPECT_NEAR(out[static_cast<std::size_t>(t)], exact(23, t), 2e-5f);
}

TEST(ModelRunner, ReportsSaneAggregates) {
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(13, 256);
  PrefillOptions opts;
  opts.heads_per_layer = 1;
  opts.layer_stride = 7;
  const PrefillReport full = run_prefill(model, content, FullAttention{}, opts).value();
  const PrefillReport sample = run_prefill(model, content, SampleAttention{}, opts).value();
  EXPECT_EQ(full.method, "FullAttention");
  EXPECT_EQ(full.heads_run, sample.heads_run);
  EXPECT_EQ(full.layers.size(), full.per_layer_density.size());
  EXPECT_NEAR(full.mean_density, 1.0, 1e-9);
  EXPECT_LT(sample.mean_density, 0.8);
  EXPECT_GT(sample.mean_overhead, 0.0);
  EXPECT_GT(sample.seconds, 0.0);
}

TEST(ModelRunner, LayerZeroDensityHigherForSample) {
  // Layer 0's weak structure means SampleAttention must keep more there —
  // the per-layer density profile should show it.
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(14, 512);
  PrefillOptions opts;
  opts.heads_per_layer = 2;
  opts.layer_stride = 9;  // layers 0, 9, 18, 27
  const PrefillReport report = run_prefill(model, content, SampleAttention{}, opts).value();
  ASSERT_GE(report.per_layer_density.size(), 2u);
  EXPECT_GT(report.per_layer_density.front(), report.per_layer_density.back());
}

}  // namespace
}  // namespace sattn
