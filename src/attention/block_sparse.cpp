#include "attention/block_sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "attention/flash_attention.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {

BlockSparseLayout BlockSparseLayout::from_mask(const StructuredMask& mask, Index block) {
  assert(block > 0);
  BlockSparseLayout layout;
  layout.sq_ = mask.sq();
  layout.sk_ = mask.sk();
  layout.block_ = block;
  layout.n_qblocks_ = (layout.sq_ + block - 1) / block;
  layout.n_kblocks_ = (layout.sk_ + block - 1) / block;
  std::vector<std::vector<bool>> active(
      static_cast<std::size_t>(layout.n_qblocks_),
      std::vector<bool>(static_cast<std::size_t>(layout.n_kblocks_), false));

  const auto mark_range = [&](Index qb, Index lo, Index hi) {
    for (Index kb = lo / block; kb * block < hi; ++kb) {
      active[static_cast<std::size_t>(qb)][static_cast<std::size_t>(kb)] = true;
    }
  };

  for (Index i = 0; i < layout.sq_; ++i) {
    const Index lim = causal_limit(i, layout.sq_, layout.sk_);
    if (lim < 0) continue;
    const Index qb = i / block;
    for (const ColumnRun& run : mask.band_runs_for_row(i)) mark_range(qb, run.lo, run.hi);
    for (const ColumnRun& run : mask.stripe_runs()) {
      const Index hi = std::min(run.hi, lim + 1);
      if (hi > run.lo) mark_range(qb, run.lo, hi);
    }
    for (const Block& b : mask.blocks()) {
      if (i < b.q_lo || i >= b.q_hi) continue;
      const Index hi = std::min(b.k_hi, lim + 1);
      if (hi > b.k_lo) mark_range(qb, b.k_lo, hi);
    }
  }

  layout.active_.resize(static_cast<std::size_t>(layout.n_qblocks_));
  for (Index qb = 0; qb < layout.n_qblocks_; ++qb) {
    for (Index kb = 0; kb < layout.n_kblocks_; ++kb) {
      if (active[static_cast<std::size_t>(qb)][static_cast<std::size_t>(kb)]) {
        layout.active_[static_cast<std::size_t>(qb)].push_back(kb);
      }
    }
  }
  return layout;
}

double BlockSparseLayout::density() const {
  const double denom = causal_pairs(sq_, sk_);
  if (denom <= 0.0) return 0.0;
  double kept = 0.0;
  for (Index qb = 0; qb < n_qblocks_; ++qb) {
    const Index q_lo = qb * block_;
    const Index q_hi = std::min(sq_, q_lo + block_);
    for (Index kb : active_[static_cast<std::size_t>(qb)]) {
      const Index k_lo = kb * block_;
      const Index k_hi = std::min(sk_, k_lo + block_);
      // Causal cells of this tile.
      for (Index i = q_lo; i < q_hi; ++i) {
        const Index lim = causal_limit(i, sq_, sk_);
        const Index hi = std::min(k_hi, lim + 1);
        if (hi > k_lo) kept += static_cast<double>(hi - k_lo);
      }
    }
  }
  return kept / denom;
}

double BlockSparseLayout::rounding_overhead(const StructuredMask& mask) const {
  return density() - mask.density();
}

Index BlockSparseLayout::active_tiles() const {
  Index total = 0;
  for (const auto& row : active_) total += static_cast<Index>(row.size());
  return total;
}

void block_sparse_attention(const AttentionInput& in, const BlockSparseLayout& layout,
                            Matrix& out) {
  block_sparse_attention(in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), layout, out);
}

void block_sparse_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                            const BlockSparseLayout& layout, Matrix& out) {
  const Index d = kv.d;
  assert(layout.sq() == sq && layout.sk() == sk);
  SATTN_SPAN("kernel/block_sparse");
  SATTN_COUNTER_ADD("attn.block_sparse_tiles", layout.active_tiles());
  out.resize(sq, d);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const Index block = layout.block();
  std::atomic<double> evals_total{0.0};

  parallel_for(layout.n_qblocks(), [&](Index qb) {
    const Index q_lo = qb * block;
    const Index q_hi = std::min(sq, q_lo + block);
    const Index rows = q_hi - q_lo;
    std::vector<OnlineSoftmaxRow> state;
    state.reserve(static_cast<std::size_t>(rows));
    for (Index r = 0; r < rows; ++r) state.emplace_back(d);
    std::vector<double> qd(static_cast<std::size_t>(rows) * static_cast<std::size_t>(d));
    simd::widen(q + static_cast<std::size_t>(q_lo) * static_cast<std::size_t>(d), rows * d,
                qd.data());
    std::vector<float> logits;
    double tile_evals = 0.0;

    for (Index kb : layout.active_kblocks(qb)) {
      const Index k_lo = kb * block;
      const Index k_hi = std::min(sk, k_lo + block);
      // Register-blocked: groups of mk::kQRows rows of this q-block share
      // each K/V row of the tile (attention/microkernel.h).
      for (Index r0 = 0; r0 < rows; r0 += mk::kQRows) {
        mk::QBlock b;
        b.d = d;
        Index his[mk::kQRows];
        const Index r1 = std::min(rows, r0 + mk::kQRows);
        for (Index r = r0; r < r1; ++r) {
          const Index i = q_lo + r;
          const Index lim = causal_limit(i, sq, sk);
          const Index hi = std::min(k_hi, lim + 1);
          if (hi <= k_lo) continue;
          OnlineSoftmaxRow& st = state[static_cast<std::size_t>(r)];
          b.q[b.rows] = qd.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(d);
          b.m[b.rows] = &st.m;
          b.l[b.rows] = &st.l;
          b.acc[b.rows] = st.acc.data();
          his[b.rows] = hi;
          ++b.rows;
          tile_evals += static_cast<double>(hi - k_lo);
        }
        if (b.rows > 0) mk::absorb_key_tile(b, kv, scale, k_lo, his, logits);
      }
    }
    for (Index r = 0; r < rows; ++r) {
      state[static_cast<std::size_t>(r)].finalize(out.row(q_lo + r));
    }
    evals_total.fetch_add(tile_evals, std::memory_order_relaxed);
  });
  // Metadata: 8 bytes per active (qb, kb) tile descriptor.
  obs::charge_attention_kernel("block_sparse", sq, sk, d, evals_total.load(),
                               /*score_bytes=*/0.0,
                               /*meta_bytes=*/8.0 * static_cast<double>(layout.active_tiles()));
}

}  // namespace sattn
