// Structured sparse attention masks (Eq. 5 of the paper).
//
// The paper reformulates mask discovery over the raw {0,1}^{Sq x Sk} grid as
// the union of two hardware-efficient primitives:
//
//   M_hat := M_window(w)  ∪  M_stripe(I_KV)
//
// where w is a local-window width (a ratio of the sequence length) and I_KV
// is a per-head set of key columns ("column stripes"). StructuredMask stores
// exactly that decomposition plus an optional set of extra rectangular
// blocks, which is enough to also express the BigBird baseline (window +
// global columns + random blocks) and StreamingLLM (sink columns + window).
//
// Everything is implicitly intersected with the causal region.
#pragma once

#include <utility>
#include <vector>

#include "attention/attention_method.h"
#include "core/tensor.h"

namespace sattn {

// Half-open run of key columns [lo, hi).
struct ColumnRun {
  Index lo = 0;
  Index hi = 0;
  Index width() const { return hi - lo; }
  friend bool operator==(const ColumnRun&, const ColumnRun&) = default;
};

// Rectangular block of (query, key) pairs, half-open on both axes.
struct Block {
  Index q_lo = 0, q_hi = 0;
  Index k_lo = 0, k_hi = 0;
  friend bool operator==(const Block&, const Block&) = default;
};

// Band parallel to the diagonal: query i attends keys in
// (lim - offset - width, lim - offset], lim = causal_limit(i). offset = 0
// with width w is exactly the local window. Non-zero offsets express the
// "additional diagonal structures" the paper's Appendix A.6 observes in
// low-sparsity heads and leaves as future work.
struct DiagonalBand {
  Index offset = 0;
  Index width = 0;
  friend bool operator==(const DiagonalBand&, const DiagonalBand&) = default;
};

class StructuredMask {
 public:
  explicit StructuredMask(Index sq = 0, Index sk = 0) : sq_(sq), sk_(sk) {}

  Index sq() const { return sq_; }
  Index sk() const { return sk_; }

  // Local window: query i attends keys in (lim - window, lim] where
  // lim = causal_limit(i). window == 0 means no window component.
  void set_window(Index window) { window_ = std::max<Index>(0, window); }
  Index window() const { return window_; }

  // Column stripes. Indices are deduped and sorted; out-of-range ignored.
  void set_stripe_columns(std::vector<Index> cols);
  const std::vector<Index>& stripe_columns() const { return stripe_cols_; }

  // Stripes compressed into maximal contiguous runs (kernel-friendly).
  const std::vector<ColumnRun>& stripe_runs() const { return stripe_runs_; }

  // Extra rectangular blocks (BigBird's random blocks). Clipped to range;
  // blocks may overlap each other and the other components — every query
  // uses the union (see row_runs).
  void add_block(Block b);
  const std::vector<Block>& blocks() const { return blocks_; }

  // Extra diagonal bands (offset > 0; the offset-0 band is the window).
  // Bands are kept sorted by offset; overlapping bands are merged.
  void add_diagonal_band(DiagonalBand band);
  const std::vector<DiagonalBand>& diagonal_bands() const { return bands_; }

  // Key intervals covered by the window plus all diagonal bands for query
  // row i, clipped to [0, lim], sorted ascending and disjoint.
  std::vector<ColumnRun> band_runs_for_row(Index i) const;

  // Key intervals covered by the blocks that contain query row i, clipped
  // to [0, lim], sorted ascending and disjoint.
  std::vector<ColumnRun> block_runs_for_row(Index i) const;

  // Every key run query row i keeps — bands ∪ stripes ∪ blocks, clipped to
  // [0, lim], sorted ascending and disjoint — written into `out` (its
  // capacity is reused). Returns the number of mask descriptors read to
  // build them (stripe runs up to lim, window, bands, blocks), which the
  // sparse kernel charges as metadata traffic.
  Index row_runs(Index i, std::vector<ColumnRun>& out) const;

  // Membership test, including the causal constraint.
  bool contains(Index i, Index j) const;

  // Fraction of causal (i, j) pairs covered by the mask, computed exactly
  // from the structure in O((bands + blocks) * log(stripes)) per row.
  double density() const;

  // Dense 0/1 materialization for tests and visualization (quadratic!).
  Matrix to_dense() const;

 private:
  // Call f(ColumnRun) for each non-empty run, clipped to [0, lim], of the
  // window and bands, or of the blocks containing row i (unsorted, possibly
  // overlapping).
  template <class F>
  void for_each_band_run(Index lim, F&& f) const;
  template <class F>
  void for_each_block_run(Index i, Index lim, F&& f) const;

  Index sq_ = 0;
  Index sk_ = 0;
  Index window_ = 0;
  std::vector<Index> stripe_cols_;
  std::vector<ColumnRun> stripe_runs_;
  std::vector<Block> blocks_;
  std::vector<DiagonalBand> bands_;
};

// Convenience constructors used by SampleAttention and the baselines.

// Window-only mask with width = ceil(ratio * sk), clamped to [1, sk].
StructuredMask make_window_mask(Index sq, Index sk, double window_ratio);

// StreamingLLM: `sinks` initial columns + fixed window of `window` keys.
StructuredMask make_streaming_mask(Index sq, Index sk, Index sinks, Index window);

// Window width in keys for a ratio, matching the paper's ceil(r_w% * Sk).
Index window_width_from_ratio(Index sk, double window_ratio);

}  // namespace sattn
