#include "runtime/decode.h"

#include <algorithm>
#include <cmath>

#include "core/numerics.h"
#include "core/simd.h"
#include "obs/accounting.h"
#include "obs/trace.h"
#include "robust/validate.h"

namespace sattn {

Status decode_attention(std::span<const float> q_row, const KVCache& cache,
                        std::span<float> out_row, std::vector<float>* weights) {
  SATTN_SPAN("kernel/decode");
  const Index d = cache.head_dim();
  SATTN_CHECK(static_cast<Index>(q_row.size()) == d, kInvalidArgument, "decode q_row has ",
              q_row.size(), " entries, cache head_dim is ", d);
  SATTN_CHECK(static_cast<Index>(out_row.size()) == d, kInvalidArgument, "decode out_row has ",
              out_row.size(), " entries, cache head_dim is ", d);
  SATTN_CHECK(all_finite(q_row), kDataCorruption, "non-finite value in decode query row");
  SATTN_COUNTER_ADD("runtime.decode_tokens", 1);
  SATTN_COUNTER_ADD("kv_cache.rows_read", cache.size());
  std::fill(out_row.begin(), out_row.end(), 0.0f);
  const Index n = cache.size();
  if (n == 0) {
    if (weights != nullptr) weights->clear();
    return Status::Ok();
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  // The query row is widened to double once per step; each key then costs
  // one single-row dotn (the same value as dot(q_row, k)).
  std::vector<double> qd(static_cast<std::size_t>(d));
  simd::widen(q_row.data(), d, qd.data());
  const double* qp = qd.data();
  const simd::Ops& ops = simd::ops();
  std::vector<float> logits(static_cast<std::size_t>(n));
  for (Index s = 0; s < n; ++s) {
    float qk;
    ops.dotn(&qp, 1, cache.k(s).data(), d, &qk);
    logits[static_cast<std::size_t>(s)] = scale * qk;
  }
  softmax_inplace(logits);
  for (Index s = 0; s < n; ++s) {
    const float p = logits[static_cast<std::size_t>(s)];
    if (p != 0.0f) axpy(p, cache.v(s), out_row);
  }
  if (weights != nullptr) *weights = std::move(logits);
  // One decode step is a 1 x n attention row over the cache.
  obs::charge_attention_kernel("decode", /*sq=*/1, /*sk=*/n, d, static_cast<double>(n));
  return Status::Ok();
}

double audited_decode_retained_mass(std::span<const float> weights,
                                    std::span<const Index> stripe_columns, Index window_cols) {
  const Index n = static_cast<Index>(weights.size());
  if (n == 0) return 1.0;
  const Index win_lo = std::max<Index>(0, n - std::max<Index>(window_cols, 0));
  double mass = 0.0;
  for (Index c = win_lo; c < n; ++c) mass += static_cast<double>(weights[static_cast<std::size_t>(c)]);
  // Stripes inside the window are already counted; Index sets from
  // StructuredMask::stripe_columns() are deduped, but guard anyway so a
  // hand-built column list cannot overcount.
  Index prev = -1;
  for (const Index c : stripe_columns) {
    if (c >= 0 && c < win_lo && c != prev) {
      mass += static_cast<double>(weights[static_cast<std::size_t>(c)]);
    }
    prev = c;
  }
  obs::charge_attention_kernel("audit", /*sq=*/1, /*sk=*/n, /*head_dim=*/0,
                               static_cast<double>(n));
  return std::clamp(mass, 0.0, 1.0);
}

}  // namespace sattn
