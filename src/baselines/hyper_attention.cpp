#include "baselines/hyper_attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "attention/flash_attention.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"

namespace sattn {
namespace {

// SimHash codes for each row of m under `bits` shared random hyperplanes.
// Register-blocked: four hyperplanes at a time, widened to double once per
// call, share one pass over the row (simd::dotn with the row as the common
// stream).
std::vector<std::uint32_t> simhash_codes(const Matrix& m, Index bits, Rng rng) {
  const Index d = m.cols();
  Matrix planes(bits, d);
  rng.fill_normal(planes);
  std::vector<double> wide(planes.flat().size());
  simd::widen(planes.data(), static_cast<Index>(wide.size()), wide.data());
  std::vector<std::uint32_t> codes(static_cast<std::size_t>(m.rows()), 0u);
  const simd::Ops& ops = simd::ops();
  for (Index r = 0; r < m.rows(); ++r) {
    std::uint32_t code = 0;
    for (Index b0 = 0; b0 < bits; b0 += simd::kMaxRows) {
      const Index nr = std::min<Index>(simd::kMaxRows, bits - b0);
      const double* rows[simd::kMaxRows];
      for (Index t = 0; t < nr; ++t) {
        rows[t] = wide.data() + static_cast<std::size_t>(b0 + t) * static_cast<std::size_t>(d);
      }
      float s[simd::kMaxRows];
      ops.dotn(rows, nr, m.row(r).data(), d, s);
      for (Index t = 0; t < nr; ++t) {
        if (s[t] > 0.0f) code |= (1u << (b0 + t));
      }
    }
    codes[static_cast<std::size_t>(r)] = code;
  }
  return codes;
}

}  // namespace

AttentionResult HyperAttention::run_impl(const AttentionInput& in) const {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  AttentionResult res;
  res.out.resize(sq, d);

  Index bucket_cap = cfg_.bucket_size;
  Index n_sampled = cfg_.sampled_columns;
  if (cfg_.scale_with_length) {
    const double frac_bucket =
        static_cast<double>(cfg_.bucket_size) / static_cast<double>(cfg_.reference_length);
    const double frac_cols =
        static_cast<double>(cfg_.sampled_columns) / static_cast<double>(cfg_.reference_length);
    bucket_cap = std::max<Index>(48, static_cast<Index>(frac_bucket * static_cast<double>(sk)));
    n_sampled = std::max<Index>(24, static_cast<Index>(frac_cols * static_cast<double>(sk)));
  }

  Rng rng(cfg_.seed);
  // Hash keys and queries with the SAME hyperplanes (same forked stream) so
  // collisions reflect angular proximity between q_i and k_j.
  const std::vector<std::uint32_t> k_codes = simhash_codes(in.k, cfg_.hash_bits, rng.fork(1));
  const std::vector<std::uint32_t> q_codes = simhash_codes(in.q, cfg_.hash_bits, rng.fork(1));

  // Bucket -> ascending key indices.
  const std::size_t n_buckets = std::size_t{1} << cfg_.hash_bits;
  std::vector<std::vector<Index>> buckets(n_buckets);
  for (Index j = 0; j < sk; ++j) buckets[k_codes[static_cast<std::size_t>(j)]].push_back(j);

  // Shared uniformly-sampled columns (residual estimator), ascending.
  Rng col_rng = rng.fork(2);
  std::vector<Index> sampled =
      col_rng.sample_without_replacement(sk, std::min(n_sampled, sk));
  std::sort(sampled.begin(), sampled.end());

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::atomic<long long> evals_total{0};
  parallel_for(sq, [&](Index i) {
    const Index lim = causal_limit(i, sq, sk);
    auto orow = res.out.row(i);
    if (lim < 0) {
      std::fill(orow.begin(), orow.end(), 0.0f);
      return;
    }
    // Gather the selected key set: same-bucket tail + sampled columns + diag.
    std::vector<Index> sel;
    const auto& bucket = buckets[q_codes[static_cast<std::size_t>(i)]];
    const auto bend = std::upper_bound(bucket.begin(), bucket.end(), lim);
    const Index avail = static_cast<Index>(bend - bucket.begin());
    const Index take = std::min(avail, bucket_cap);
    sel.assign(bend - take, bend);
    for (Index j : sampled) {
      if (j > lim) break;
      sel.push_back(j);
    }
    sel.push_back(lim);
    std::sort(sel.begin(), sel.end());
    sel.erase(std::unique(sel.begin(), sel.end()), sel.end());

    OnlineSoftmaxRow st(d);
    const auto qi = in.q.row(i);
    for (Index j : sel) st.absorb(scale * dot(qi, in.k.row(j)), in.v.row(j));
    st.finalize(orow);
    evals_total.fetch_add(static_cast<long long>(sel.size()), std::memory_order_relaxed);
  });

  // Selection metadata: one bucket id per q/k row plus the sampled-column
  // list each row consults.
  obs::charge_attention_kernel("hyper", sq, sk, d,
                               static_cast<double>(evals_total.load()),
                               /*score_bytes=*/0.0,
                               /*meta_bytes=*/4.0 * static_cast<double>(sq + sk) +
                                   8.0 * static_cast<double>(sampled.size()));
  res.density = static_cast<double>(evals_total.load()) / causal_pairs(sq, sk);
  // Hashing cost: one `hash_bits x d` projection pass over Q and K, vs the
  // ~2 * Sk * d flops of a full attention row — expressed as a fraction of
  // full attention work.
  res.overhead_density = static_cast<double>(cfg_.hash_bits) *
                         static_cast<double>(sq + sk) / (2.0 * causal_pairs(sq, sk));
  return res;
}

}  // namespace sattn
