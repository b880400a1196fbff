#include "attention/score_utils.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "attention/full_attention.h"
#include "attention/microkernel.h"
#include "core/numerics.h"
#include "core/thread_pool.h"

namespace sattn {

void for_each_score_row(const AttentionInput& in, std::span<const Index> rows,
                        const std::function<void(Index, std::span<const float>)>& visit) {
  for_each_score_row(in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), rows, visit);
}

void for_each_score_row(const float* q, Index sq, const mk::KvView& kv, Index sk,
                        std::span<const Index> rows,
                        const std::function<void(Index, std::span<const float>)>& visit) {
  // Blocked score path: chunks of up to mk::kQRows sampled rows share one
  // pass over K (mk::logits_rows). A batch of up to kScoreBatchRows rows is
  // scored and softmaxed chunk-parallel into scratch, then its rows are
  // visited serially in the caller's order. Chunk boundaries do not depend
  // on the batch, so each row's values do not either.
  static_assert(kScoreBatchRows % mk::kQRows == 0);
  const auto n = static_cast<Index>(rows.size());
  const Index batch_rows = std::min(n, kScoreBatchRows);
  std::vector<float> buf(static_cast<std::size_t>(batch_rows) * static_cast<std::size_t>(sk));
  const auto row_buf = [&](Index r) {
    return buf.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(sk);
  };
  for (Index b0 = 0; b0 < n; b0 += kScoreBatchRows) {
    const Index b1 = std::min(n, b0 + kScoreBatchRows);
    parallel_for((b1 - b0 + mk::kQRows - 1) / mk::kQRows, [&](Index c) {
      const Index c0 = b0 + c * mk::kQRows;
      const Index nr = std::min<Index>(mk::kQRows, b1 - c0);
      Index q_rows[mk::kQRows] = {};
      float* out[mk::kQRows] = {};
      for (Index r = 0; r < nr; ++r) {
        q_rows[r] = rows[static_cast<std::size_t>(c0 + r)];
        assert(q_rows[r] >= 0 && q_rows[r] < sq);
        out[r] = row_buf(c0 - b0 + r);
      }
      mk::logits_rows(q, sq, kv, sk, q_rows, nr, out);
      for (Index r = 0; r < nr; ++r) {
        softmax_prefix_inplace(std::span<float>(out[r], static_cast<std::size_t>(sk)),
                               causal_limit(q_rows[r], sq, sk) + 1);
      }
    });
    for (Index r = b0; r < b1; ++r) {
      visit(rows[static_cast<std::size_t>(r)],
            std::span<const float>(row_buf(r - b0), static_cast<std::size_t>(sk)));
    }
  }
}

std::vector<float> column_score_sum(const AttentionInput& in, std::span<const Index> rows) {
  std::vector<double> acc(static_cast<std::size_t>(in.sk()), 0.0);
  for_each_score_row(in, rows, [&acc](Index, std::span<const float> p) {
    for (std::size_t j = 0; j < p.size(); ++j) acc[j] += p[j];
  });
  std::vector<float> out(acc.size());
  std::transform(acc.begin(), acc.end(), out.begin(),
                 [](double v) { return static_cast<float>(v); });
  return out;
}

std::vector<Index> stride_rows(Index sq, double row_ratio) {
  assert(sq > 0);
  row_ratio = std::clamp(row_ratio, 0.0, 1.0);
  const Index l = std::max<Index>(1, static_cast<Index>(std::llround(row_ratio * static_cast<double>(sq))));
  std::vector<Index> rows;
  rows.reserve(static_cast<std::size_t>(l));
  // Place samples at the centers of l equal strides so both early and late
  // queries are represented; always include the last row, whose causal
  // horizon covers every key.
  for (Index t = 0; t < l; ++t) {
    const Index i = std::min<Index>(sq - 1, (2 * t + 1) * sq / (2 * l));
    if (rows.empty() || rows.back() != i) rows.push_back(i);
  }
  if (rows.back() != sq - 1) rows.push_back(sq - 1);
  return rows;
}

std::vector<Index> all_rows(Index sq) {
  std::vector<Index> rows(static_cast<std::size_t>(sq));
  std::iota(rows.begin(), rows.end(), Index{0});
  return rows;
}

}  // namespace sattn
