// Stage-1: Query-Guided Attention Sampling (Section 4.2, Figure 3 step 1).
//
// SampleAttention exploits the column-stripe structure of long-context score
// matrices: a high P[i,k] strongly predicts high P[j,k] for other rows j.
// It therefore computes *exact* softmax scores for only a strided subset of
// query rows (sampling ratio r_row = l / Sq) and accumulates them along the
// column axis. The column sums are the sufficient statistic Stage-2 filters
// on. The paper fuses the bmm + softmax + reduction into one kernel to avoid
// materializing the sampled score block; we mirror that by scoring the
// sampled rows in bounded batches (for_each_score_row: 4-row chunks in
// parallel, at most kScoreBatchRows rows of scratch) and reducing them in
// row order, and we count the work performed.
//
// Because the selected I_KV is later *merged with the local-window mask*
// (Figure 3), the statistic can exclude each sampled row's window region:
// that mass is guaranteed by the window mask regardless of which columns
// are picked, so Stage-2 only needs to cover the residual. Pass
// exclude_window = 0 to get the raw Algorithm-1 statistic.
#pragma once

#include <vector>

#include "attention/microkernel.h"
#include "core/tensor.h"

namespace sattn {

enum class SamplingPolicy {
  kStride,   // evenly spaced rows — the paper's scheme
  kRandom,   // uniform random rows — ablation alternative
  kTailOnly  // only the last l rows — ablation showing why spread matters
};

struct SampleStats {
  std::vector<float> column_weight;  // accumulated softmax mass per key column
  std::vector<Index> sampled_rows;
  double total_mass = 0.0;   // total sampled mass (= number of sampled rows)
  double window_mass = 0.0;  // portion that fell inside the excluded window
  double score_evals = 0.0;  // number of (q,k) logit evaluations performed

  // Mass histogram over relative distance (causal_limit - j), in
  // kDistanceBuckets equal buckets of the key range. Diagonal structures
  // concentrate in one bucket (at their offset) while column stripes smear
  // across buckets — which is what the optional diagonal detector keys on.
  static constexpr Index kDistanceBuckets = 32;
  std::vector<double> distance_hist;  // size kDistanceBuckets, sums to total_mass
  Index distance_bucket_width = 1;
};

// Computes the Stage-1 column statistic with the given policy and ratio.
// Entries within `exclude_window` keys of each sampled row's causal limit
// are tallied into window_mass instead of column_weight. `rng_seed` is only
// used by kRandom.
//
// View form: q holds sq contiguous rows of kv.d floats, keys are [0, sk) of
// the (flat or paged) view; row i's causal limit is i + sk - sq, so a
// prefill chunk is planned where its K/V lives. The tensor overload
// forwards with mk::KvView::of(in).
SampleStats sample_column_weights(const float* q, Index sq, const mk::KvView& kv, Index sk,
                                  double row_ratio,
                                  SamplingPolicy policy = SamplingPolicy::kStride,
                                  Index exclude_window = 0, std::uint64_t rng_seed = 0);
SampleStats sample_column_weights(const AttentionInput& in, double row_ratio,
                                  SamplingPolicy policy = SamplingPolicy::kStride,
                                  Index exclude_window = 0, std::uint64_t rng_seed = 0);

// Overhead of Stage-1 expressed as a fraction of full causal attention work
// (feeds Fig 5(b)'s sampling-share breakdown and AttentionResult).
double sampling_overhead_fraction(const SampleStats& stats, Index sq, Index sk);

}  // namespace sattn
