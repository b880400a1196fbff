#include "baselines/hash_sparse.h"

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

// Dominant direction of the key matrix (one power-iteration pass on K^T K).
// Real q/k embeddings are strongly anisotropic — a shared component carries
// much of every inner product — and an untrained content hash is blind to
// the model's attention geometry. Projecting the dominant direction out
// before hashing reproduces that blindness: buckets reflect residual
// content, not attention mass (which is why Hash-Sparse is the weakest
// baseline in the paper's Table 2).
std::vector<float> dominant_direction(const Matrix& k, Rng& rng) {
  const Index d = k.cols();
  std::vector<float> v(static_cast<std::size_t>(d));
  for (float& x : v) x = static_cast<float>(rng.normal());
  std::vector<float> next(static_cast<std::size_t>(d));
  for (int iter = 0; iter < 8; ++iter) {
    std::fill(next.begin(), next.end(), 0.0f);
    for (Index r = 0; r < k.rows(); ++r) {
      const float proj = dot(k.row(r), v);
      axpy(proj, k.row(r), next);
    }
    double norm2 = 0.0;
    for (float x : next) norm2 += static_cast<double>(x) * x;
    const double inv = norm2 > 0.0 ? 1.0 / std::sqrt(norm2) : 0.0;
    for (std::size_t t = 0; t < next.size(); ++t) v[t] = static_cast<float>(next[t] * inv);
  }
  return v;
}

// Spherical-LSH bucket per row after removing the dominant-key component:
// argmax_j <row - (row.u)u, dir_j> over num_buckets random directions
// (shared between Q and K). The projection loop is register-blocked: four
// direction rows at a time, widened to double once per call, share one pass
// over the residual row (simd::dotn with the row as the common stream).
std::vector<Index> bucket_assignment(const Matrix& m, const Matrix& directions,
                                     std::span<const float> remove_dir) {
  std::vector<Index> out(static_cast<std::size_t>(m.rows()));
  std::vector<float> row(static_cast<std::size_t>(m.cols()));
  const Index d = m.cols(), nb = directions.rows();
  std::vector<double> wide(directions.flat().size());
  simd::widen(directions.data(), static_cast<Index>(wide.size()), wide.data());
  const simd::Ops& ops = simd::ops();
  for (Index r = 0; r < m.rows(); ++r) {
    auto src = m.row(r);
    const float proj = dot(src, remove_dir);
    for (std::size_t t = 0; t < row.size(); ++t) row[t] = src[t] - proj * remove_dir[t];
    Index best = 0;
    float best_v = -std::numeric_limits<float>::infinity();
    for (Index b0 = 0; b0 < nb; b0 += simd::kMaxRows) {
      const Index nr = std::min<Index>(simd::kMaxRows, nb - b0);
      const double* dirs[simd::kMaxRows];
      for (Index t = 0; t < nr; ++t) {
        dirs[t] = wide.data() + static_cast<std::size_t>(b0 + t) * static_cast<std::size_t>(d);
      }
      float v[simd::kMaxRows];
      ops.dotn(dirs, nr, row.data(), d, v);
      for (Index t = 0; t < nr; ++t) {
        if (v[t] > best_v) {
          best_v = v[t];
          best = b0 + t;
        }
      }
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

}  // namespace

AttentionResult HashSparse::run_impl(const AttentionInput& in) const {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  AttentionResult res;
  res.out.resize(sq, d);

  Rng rng(cfg_.seed);
  Matrix directions(cfg_.num_buckets, d);
  rng.fill_normal(directions);
  const std::vector<float> dom = dominant_direction(in.k, rng);
  const std::vector<Index> q_bucket = bucket_assignment(in.q, directions, dom);
  const std::vector<Index> k_bucket = bucket_assignment(in.k, directions, dom);

  std::vector<std::vector<Index>> buckets(static_cast<std::size_t>(cfg_.num_buckets));
  for (Index j = 0; j < sk; ++j) buckets[static_cast<std::size_t>(k_bucket[static_cast<std::size_t>(j)])].push_back(j);

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::atomic<long long> evals_total{0};
  parallel_for(sq, [&](Index i) {
    const Index lim = causal_limit(i, sq, sk);
    auto orow = res.out.row(i);
    if (lim < 0) {
      std::fill(orow.begin(), orow.end(), 0.0f);
      return;
    }
    OnlineSoftmaxRow st(d);
    const auto qi = in.q.row(i);
    long long evals = 0;
    const auto& bucket = buckets[static_cast<std::size_t>(q_bucket[static_cast<std::size_t>(i)])];
    bool saw_diag = false;
    for (Index j : bucket) {
      if (j > lim) break;
      st.absorb(scale * dot(qi, in.k.row(j)), in.v.row(j));
      saw_diag |= (j == lim);
      ++evals;
    }
    if (!saw_diag) {
      st.absorb(scale * dot(qi, in.k.row(lim)), in.v.row(lim));
      ++evals;
    }
    st.finalize(orow);
    evals_total.fetch_add(evals, std::memory_order_relaxed);
  });

  // Selection metadata: one bucket id per q/k row.
  obs::charge_attention_kernel("hash", sq, sk, d, static_cast<double>(evals_total.load()),
                               /*score_bytes=*/0.0,
                               /*meta_bytes=*/4.0 * static_cast<double>(sq + sk));
  res.density = static_cast<double>(evals_total.load()) / causal_pairs(sq, sk);
  res.overhead_density = static_cast<double>(cfg_.num_buckets) *
                         static_cast<double>(sq + sk) / (2.0 * causal_pairs(sq, sk));
  return res;
}

}  // namespace sattn
