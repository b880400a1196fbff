#include "attention/full_attention.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "attention/microkernel.h"
#include "core/numerics.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {

void logits_row(const AttentionInput& in, Index i, std::span<float> row) {
  const Index sk = in.sk();
  assert(row.size() == static_cast<std::size_t>(sk));
  const float scale = 1.0f / std::sqrt(static_cast<float>(in.head_dim()));
  const Index lim = causal_limit(i, in.sq(), sk);
  const auto qi = in.q.row(i);
  for (Index j = 0; j <= lim; ++j) row[static_cast<std::size_t>(j)] = scale * dot(qi, in.k.row(j));
  for (Index j = lim + 1; j < sk; ++j)
    row[static_cast<std::size_t>(j)] = -std::numeric_limits<float>::infinity();
}

void full_attention(const AttentionInput& in, Matrix& out) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  assert(in.k.rows() == in.v.rows() && in.k.cols() == d && in.v.cols() == d);
  SATTN_SPAN("kernel/full");
  out.resize(sq, d);
  // Measured trip counts, tallied by the pool workers and charged once on
  // the calling thread (where the AcctScope/RequestContext attribution
  // thread-locals live).
  std::atomic<double> evals_total{0.0};
  // Register-blocked over groups of mk::kQRows query rows: the logits pass
  // shares each K row across the group (mk::logits_rows) and the PV pass
  // shares each V row (simd::axpyn). Row i's causal prefix is i + sk - sq,
  // so within a group the prefixes ascend with r.
  const Index n_groups = (sq + mk::kQRows - 1) / mk::kQRows;
  parallel_for(n_groups, [&](Index g) {
    const simd::Ops& ops = simd::ops();
    const Index i0 = g * mk::kQRows;
    const Index nr = std::min<Index>(mk::kQRows, sq - i0);
    std::vector<float> buf(static_cast<std::size_t>(nr * sk));
    Index q_rows[mk::kQRows];
    float* rows[mk::kQRows];
    double group_evals = 0.0;
    for (Index r = 0; r < nr; ++r) {
      q_rows[r] = i0 + r;
      rows[r] = buf.data() + static_cast<std::size_t>(r * sk);
    }
    mk::logits_rows(in.q.data(), sq, mk::KvView::of(in), sk, q_rows, nr, rows);
    for (Index r = 0; r < nr; ++r) {
      const Index lim = causal_limit(i0 + r, sq, sk);
      softmax_prefix_inplace(std::span<float>(rows[r], static_cast<std::size_t>(sk)), lim + 1);
      group_evals += static_cast<double>(lim + 1);
    }
    // PV: for key j, accumulate w[r] * v_j into every row whose causal
    // prefix reaches j (rows r0..nr-1 where r0 is the first row with
    // lim >= j; prefixes ascend with r, so that set is a suffix).
    float* orows[mk::kQRows];
    for (Index r = 0; r < nr; ++r) orows[r] = out.row(i0 + r).data();
    float w[mk::kQRows];
    Index j = 0;
    for (Index r0 = 0; r0 < nr; ++r0) {
      const Index lim = causal_limit(i0 + r0, sq, sk);
      const Index nact = nr - r0;
      for (; j <= lim; ++j) {
        bool any = false;
        for (Index t = 0; t < nact; ++t) {
          w[t] = rows[r0 + t][j];
          any |= (w[t] != 0.0f);
        }
        if (any) ops.axpyn(w, nact, in.v.row(j).data(), orows + r0, d);
      }
    }
    evals_total.fetch_add(group_evals, std::memory_order_relaxed);
  });
  // Score traffic: the logits pass materializes the whole [sq x sk] buffer
  // (one write pass) and the softmax/PV loop reads the causal prefix back.
  const double score_bytes =
      obs::kAcctBytesPerElement *
      (static_cast<double>(sq) * static_cast<double>(sk) + evals_total.load());
  obs::charge_attention_kernel("full", sq, sk, d, evals_total.load(), score_bytes);
}

Matrix full_attention_scores(const AttentionInput& in) {
  const Index sq = in.sq(), sk = in.sk();
  Matrix p(sq, sk);
  parallel_for(sq, [&](Index i) {
    auto row = p.row(i);
    logits_row(in, i, row);
    softmax_prefix_inplace(row, causal_limit(i, sq, sk) + 1);
  });
  return p;
}

AttentionResult FullAttention::run_impl(const AttentionInput& in) const {
  AttentionResult r;
  full_attention(in, r.out);
  r.density = 1.0;
  return r;
}

}  // namespace sattn
