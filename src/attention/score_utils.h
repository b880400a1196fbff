// Analysis helpers over attention score matrices.
//
// These back the paper's empirical-foundation measurements (Section 3.2,
// Fig 2, Tables 5/6) and Stage-1 sampling. Score rows are computed in
// bounded batches (kScoreBatchRows rows of Sk floats) so sparsity
// statistics can be computed at sequence lengths where the full [Sq x Sk]
// matrix would not fit in memory.
#pragma once

#include <functional>
#include <vector>

#include "attention/microkernel.h"
#include "core/tensor.h"

namespace sattn {

// Rows for_each_score_row scores per batch: its scratch is this many rows
// of Sk floats whatever the number of rows requested (at Sk = 128K, 16 MiB).
// 32 rows are 8 four-row chunks per batch, enough to keep a 3-worker pool
// busy; at S = 4096, 64-row batches cost ~1 MiB more peak RSS.
inline constexpr Index kScoreBatchRows = 32;

// Calls visit(i, row) with the causal-softmaxed score row for each query i
// in `rows` (entries past the causal limit are zero), in the order given
// and on the calling thread. Rows are scored in chunks of mk::kQRows on the
// thread pool, a batch of kScoreBatchRows at a time; a row's values depend
// only on its chunk (rows[4c .. 4c+3]), never on the pool. The row buffers
// are reused between batches.
//
// View form: q holds sq contiguous rows of kv.d floats and keys come from
// [0, sk) of the (flat or paged) view, so a chunk of a longer prompt is
// scored where its K lives. The tensor overload forwards with
// mk::KvView::of(in).
void for_each_score_row(const float* q, Index sq, const mk::KvView& kv, Index sk,
                        std::span<const Index> rows,
                        const std::function<void(Index, std::span<const float>)>& visit);
void for_each_score_row(const AttentionInput& in, std::span<const Index> rows,
                        const std::function<void(Index, std::span<const float>)>& visit);

// Column-accumulated attention mass over the given query rows:
// colsum[j] = sum_{i in rows} P[i, j]. This is the statistic Stage-2 of
// SampleAttention filters on.
std::vector<float> column_score_sum(const AttentionInput& in, std::span<const Index> rows);

// Evenly spaced row indices: floor(k / ratio)-strided sampling with at least
// one row; mirrors the paper's stride sampling (r_row = l / Sq).
std::vector<Index> stride_rows(Index sq, double row_ratio);

// All rows 0..sq-1.
std::vector<Index> all_rows(Index sq);

}  // namespace sattn
