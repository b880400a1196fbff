#include "sample_attention/sampling.h"

#include <algorithm>
#include <cmath>

#include "attention/attention_method.h"
#include "attention/score_utils.h"
#include "core/rng.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {
namespace {

std::vector<Index> pick_rows(Index sq, double row_ratio, SamplingPolicy policy,
                             std::uint64_t rng_seed) {
  row_ratio = std::clamp(row_ratio, 0.0, 1.0);
  const Index l =
      std::max<Index>(1, static_cast<Index>(std::llround(row_ratio * static_cast<double>(sq))));
  switch (policy) {
    case SamplingPolicy::kStride:
      return stride_rows(sq, row_ratio);
    case SamplingPolicy::kRandom: {
      Rng rng(rng_seed ^ 0x53414d504c45ull);
      auto rows = rng.sample_without_replacement(sq, std::min(l, sq));
      std::sort(rows.begin(), rows.end());
      return rows;
    }
    case SamplingPolicy::kTailOnly: {
      std::vector<Index> rows;
      for (Index i = std::max<Index>(0, sq - l); i < sq; ++i) rows.push_back(i);
      return rows;
    }
  }
  return stride_rows(sq, row_ratio);
}

}  // namespace

SampleStats sample_column_weights(const AttentionInput& in, double row_ratio,
                                  SamplingPolicy policy, Index exclude_window,
                                  std::uint64_t rng_seed) {
  return sample_column_weights(in.q.data(), in.sq(), mk::KvView::of(in), in.sk(), row_ratio,
                               policy, exclude_window, rng_seed);
}

SampleStats sample_column_weights(const float* q, Index sq, const mk::KvView& kv, Index sk,
                                  double row_ratio, SamplingPolicy policy, Index exclude_window,
                                  std::uint64_t rng_seed) {
  SATTN_SPAN("sattn/stage1_sampling");
  const Index d = kv.d;
  SampleStats st;
  st.sampled_rows = pick_rows(sq, row_ratio, policy, rng_seed);
  SATTN_COUNTER_ADD("sattn.sampled_rows", st.sampled_rows.size());

  std::vector<double> acc(static_cast<std::size_t>(sk), 0.0);
  st.distance_bucket_width = std::max<Index>(1, (sk + SampleStats::kDistanceBuckets - 1) /
                                                    SampleStats::kDistanceBuckets);
  st.distance_hist.assign(SampleStats::kDistanceBuckets, 0.0);
  for_each_score_row(q, sq, kv, sk, st.sampled_rows, [&](Index i, std::span<const float> p) {
    const Index lim = causal_limit(i, sq, sk);
    const Index win_lo =
        exclude_window > 0 ? std::max<Index>(0, lim - exclude_window + 1) : lim + 1;
    // One fused pass over the sampled row: column accumulate (outside the
    // excluded window), distance histogram, and window mass together, so
    // the row is streamed once instead of three times. j ascends through
    // the row one distance bucket at a time (bucket min(B-1, (lim-j)/w)
    // ends at j = lim - b*w), so each destination sums in ascending j and
    // the sums are bit-identical to the three-pass form.
    double row_total = 0.0, row_window = 0.0;
    for (Index j = 0; j <= lim;) {
      const Index b =
          std::min<Index>(SampleStats::kDistanceBuckets - 1, (lim - j) / st.distance_bucket_width);
      const Index j_end = lim - b * st.distance_bucket_width;  // inclusive
      double h = st.distance_hist[static_cast<std::size_t>(b)];
      for (; j <= j_end; ++j) {
        const float pj = p[static_cast<std::size_t>(j)];
        row_total += pj;
        h += pj;
        if (j < win_lo) {
          acc[static_cast<std::size_t>(j)] += pj;
        } else {
          row_window += pj;
        }
      }
      st.distance_hist[static_cast<std::size_t>(b)] = h;
    }
    st.total_mass += row_total;
    st.window_mass += row_window;
    st.score_evals += static_cast<double>(lim + 1);
  });

  st.column_weight.resize(acc.size());
  std::transform(acc.begin(), acc.end(), st.column_weight.begin(),
                 [](double v) { return static_cast<float>(v); });
  // Stage-1 work: score rows only (2d flops per eval, no PV). Bytes: the
  // sampled Q rows, the K stream, and the column-weight accumulator.
  obs::charge_stage(
      "sampling", 2.0 * static_cast<double>(d) * st.score_evals,
      obs::kAcctBytesPerElement *
          (static_cast<double>(st.sampled_rows.size()) * static_cast<double>(d) +
           static_cast<double>(d) * st.score_evals + static_cast<double>(sk)));
  return st;
}

double sampling_overhead_fraction(const SampleStats& stats, Index sq, Index sk) {
  const double denom = causal_pairs(sq, sk);
  return denom > 0.0 ? stats.score_evals / denom : 0.0;
}

}  // namespace sattn
