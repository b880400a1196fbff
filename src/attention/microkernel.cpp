#include "attention/microkernel.h"

#include <algorithm>
#include <cmath>

#include "attention/attention_method.h"

namespace sattn {

void OnlineSoftmaxRow::absorb(float logit, std::span<const float> v_row) {
  assert(v_row.size() == acc.size());
  const simd::Ops& ops = simd::ops();
  const auto d = static_cast<Index>(acc.size());
  if (logit > m) {
    const float rescale = std::exp(m - logit);
    ops.scale_inplace(acc.data(), d, rescale);
    l *= rescale;
    m = logit;
  }
  const float w = std::exp(logit - m);
  l += w;
  ops.axpy(w, v_row.data(), acc.data(), d);
}

void OnlineSoftmaxRow::finalize(std::span<float> out_row) const {
  assert(out_row.size() == acc.size());
  mk::finalize_row(acc.data(), l, static_cast<Index>(acc.size()), out_row.data());
}

namespace mk {

void absorb_key_runs(const QBlock& b, const KvView& kv, float scale,
                     std::span<const ColumnRun> runs, std::vector<float>& logits) {
  assert(b.rows >= 1 && b.rows <= kQRows);
  const simd::Ops& ops = simd::ops();
  const Index rows = b.rows, d = b.d;
  Index n = 0;
  for (const ColumnRun& run : runs) n += run.width();
  if (n <= 0) return;
  if (logits.size() < static_cast<std::size_t>(n * rows)) {
    logits.resize(static_cast<std::size_t>(n * rows));
  }

  // Pass 1: score each contiguous key run against all rows (row r's logits
  // at logits[r*n + col]).
  float run_max[kQRows];
  for (Index r = 0; r < rows; ++r) run_max[r] = -std::numeric_limits<float>::infinity();
  Index col = 0;
  for (const ColumnRun& run : runs) {
    for (Index j = run.lo; j < run.hi;) {
      const Index re = kv.run_end(j, run.hi);
      ops.score_keys(b.q, rows, kv.k_row(j), re - j, d, scale, logits.data() + col, n, run_max);
      col += re - j;
      j = re;
    }
  }
  // One rescale per row for the whole run set, then the row's logits become
  // its weights in place and its normalizer takes them in key order.
  for (Index r = 0; r < rows; ++r) {
    if (run_max[r] > *b.m[r]) {
      const float rescale = std::exp(*b.m[r] - run_max[r]);
      ops.scale_inplace(b.acc[r], d, rescale);
      *b.l[r] *= rescale;
      *b.m[r] = run_max[r];
    }
    float* w = logits.data() + r * n;
    ops.exp_shift(w, n, *b.m[r]);
    double l = *b.l[r];
    for (Index c = 0; c < n; ++c) l += w[c];
    *b.l[r] = l;
  }
  // Pass 2: fold each contiguous value run into all rows.
  col = 0;
  for (const ColumnRun& run : runs) {
    for (Index j = run.lo; j < run.hi;) {
      const Index re = kv.run_end(j, run.hi);
      ops.accumulate_keys(logits.data() + col, n, rows, kv.v_row(j), re - j, d, b.acc);
      col += re - j;
      j = re;
    }
  }
}

void finalize_row(const float* acc, double l, Index d, float* out) {
  if (l <= 0.0) {
    std::fill(out, out + d, 0.0f);
    return;
  }
  const auto inv = static_cast<float>(1.0 / l);
  for (Index t = 0; t < d; ++t) out[t] = acc[t] * inv;
}

void absorb_key_run(const QBlock& b, Index r, const KvView& kv, float scale, Index lo, Index hi,
                    std::vector<float>& logits) {
  assert(r >= 0 && r < b.rows);
  const QBlock one{1, b.d, {b.q[r]}, {b.m[r]}, {b.l[r]}, {b.acc[r]}};
  const ColumnRun run{lo, hi};
  absorb_key_runs(one, kv, scale, {&run, 1}, logits);
}

void absorb_key_tile(const QBlock& b, const KvView& kv, float scale, Index lo,
                     const Index* hi, std::vector<float>& logits) {
  assert(b.rows >= 1 && b.rows <= kQRows);
  const Index rows = b.rows;

  Index hi_min = hi[0];
  for (Index r = 1; r < rows; ++r) hi_min = std::min(hi_min, hi[r]);

  // Shared prefix [lo, hi_min): every row sees every key, so K/V rows are
  // loaded once per block via dotn/axpyn.
  if (hi_min > lo) {
    const ColumnRun shared{lo, hi_min};
    absorb_key_runs(b, kv, scale, {&shared, 1}, logits);
  }

  // Ragged tails: rows whose causal limit extends past the shared prefix
  // finish through the single-row path (one extra rescale per tail run).
  const Index tail_lo = std::max(lo, hi_min);
  for (Index r = 0; r < rows; ++r) {
    if (hi[r] > tail_lo) absorb_key_run(b, r, kv, scale, tail_lo, hi[r], logits);
  }
}

void logits_rows(const float* q, Index sq, const KvView& kv, Index sk, const Index* q_rows,
                 Index rows, float* const* out) {
  assert(rows >= 1 && rows <= kQRows);
  const simd::Ops& ops = simd::ops();
  const Index d = kv.d;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));

  // Order rows by ascending causal limit so key j is scored against exactly
  // the suffix of rows whose limit reaches it: early keys are shared by the
  // whole block, late keys by fewer rows.
  Index ord[kQRows];
  for (Index r = 0; r < rows; ++r) ord[r] = r;
  for (Index r = 1; r < rows; ++r) {  // insertion sort over <= kQRows entries
    const Index o = ord[r];
    Index t = r;
    while (t > 0 && q_rows[ord[t - 1]] > q_rows[o]) {
      ord[t] = ord[t - 1];
      --t;
    }
    ord[t] = o;
  }

  // Each row widened to double once for the whole call, in `ord` order, so
  // the active rows of every group below are a suffix of qd.
  std::vector<double> qd(static_cast<std::size_t>(rows) * static_cast<std::size_t>(d));
  const double* qp[kQRows];
  for (Index t = 0; t < rows; ++t) {
    double* row = qd.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>(d);
    simd::widen(q + static_cast<std::size_t>(q_rows[ord[t]]) * static_cast<std::size_t>(d), d,
                row);
    qp[t] = row;
  }

  Index j = 0;
  for (Index g = 0; g < rows; ++g) {
    const Index lim = causal_limit(q_rows[ord[g]], sq, sk);
    const Index nact = rows - g;
    float s[kQRows];
    while (j <= lim) {
      const Index re = kv.run_end(j, lim + 1);
      const float* krow = kv.k_row(j);
      for (; j < re; ++j, krow += d) {
        ops.dotn(qp + g, nact, krow, d, s);
        for (Index t = 0; t < nact; ++t) {
          out[ord[g + t]][j] = scale * s[t];
        }
      }
    }
  }
  for (Index r = 0; r < rows; ++r) {
    const Index lim = causal_limit(q_rows[r], sq, sk);
    for (Index t = std::max<Index>(0, lim + 1); t < sk; ++t) {
      out[r][t] = -std::numeric_limits<float>::infinity();
    }
  }
}

}  // namespace mk
}  // namespace sattn
