#include "attention/masks.h"

#include <algorithm>
#include <cmath>

namespace sattn {
namespace {

// Sorts runs by lo and merges overlapping/adjacent ones, in place.
void normalize_runs(std::vector<ColumnRun>& runs) {
  std::sort(runs.begin(), runs.end(),
            [](const ColumnRun& a, const ColumnRun& b) { return a.lo < b.lo; });
  std::size_t n = 0;
  for (const ColumnRun& r : runs) {
    if (r.hi <= r.lo) continue;
    if (n > 0 && r.lo <= runs[n - 1].hi) {
      runs[n - 1].hi = std::max(runs[n - 1].hi, r.hi);
    } else {
      runs[n++] = r;
    }
  }
  runs.resize(n);
}

// Unions x into a sorted, disjoint, coalesced run list, keeping it so: the
// runs x overlaps or touches collapse into one.
void splice_run(std::vector<ColumnRun>& runs, ColumnRun x) {
  const auto a = std::lower_bound(runs.begin(), runs.end(), x.lo,
                                  [](const ColumnRun& r, Index v) { return r.hi < v; });
  const auto b = std::upper_bound(a, runs.end(), x.hi,
                                  [](Index v, const ColumnRun& r) { return v < r.lo; });
  if (a == b) {
    runs.insert(a, x);
    return;
  }
  *a = {std::min(x.lo, a->lo), std::max(x.hi, (b - 1)->hi)};
  runs.erase(a + 1, b);
}

bool runs_contain(const std::vector<ColumnRun>& runs, Index j) {
  // Few runs per row in practice; linear scan with early exit.
  for (const ColumnRun& r : runs) {
    if (j < r.lo) return false;
    if (j < r.hi) return true;
  }
  return false;
}

}  // namespace

void StructuredMask::set_stripe_columns(std::vector<Index> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  std::erase_if(cols, [this](Index c) { return c < 0 || c >= sk_; });
  stripe_cols_ = std::move(cols);
  stripe_runs_.clear();
  for (Index c : stripe_cols_) {
    if (!stripe_runs_.empty() && stripe_runs_.back().hi == c) {
      ++stripe_runs_.back().hi;
    } else {
      stripe_runs_.push_back({c, c + 1});
    }
  }
}

void StructuredMask::add_block(Block b) {
  b.q_lo = std::clamp<Index>(b.q_lo, 0, sq_);
  b.q_hi = std::clamp<Index>(b.q_hi, 0, sq_);
  b.k_lo = std::clamp<Index>(b.k_lo, 0, sk_);
  b.k_hi = std::clamp<Index>(b.k_hi, 0, sk_);
  if (b.q_lo < b.q_hi && b.k_lo < b.k_hi) blocks_.push_back(b);
}

void StructuredMask::add_diagonal_band(DiagonalBand band) {
  if (band.width <= 0 || band.offset < 0) return;
  bands_.push_back(band);
  // Merge bands whose offset ranges [offset, offset + width) overlap.
  std::sort(bands_.begin(), bands_.end(),
            [](const DiagonalBand& a, const DiagonalBand& b) { return a.offset < b.offset; });
  std::vector<DiagonalBand> merged;
  for (const DiagonalBand& b : bands_) {
    if (!merged.empty() && b.offset <= merged.back().offset + merged.back().width) {
      const Index hi = std::max(merged.back().offset + merged.back().width, b.offset + b.width);
      merged.back().width = hi - merged.back().offset;
    } else {
      merged.push_back(b);
    }
  }
  bands_ = std::move(merged);
}

template <class F>
void StructuredMask::for_each_band_run(Index lim, F&& f) const {
  if (window_ > 0) f(ColumnRun{std::max<Index>(0, lim - window_ + 1), lim + 1});
  for (const DiagonalBand& b : bands_) {
    const Index hi = std::min(lim + 1, lim - b.offset + 1);
    const Index lo = std::max<Index>(0, lim - b.offset - b.width + 1);
    if (hi > lo) f(ColumnRun{lo, hi});
  }
}

template <class F>
void StructuredMask::for_each_block_run(Index i, Index lim, F&& f) const {
  for (const Block& b : blocks_) {
    if (i < b.q_lo || i >= b.q_hi) continue;
    const Index hi = std::min(b.k_hi, lim + 1);
    if (hi > b.k_lo) f(ColumnRun{b.k_lo, hi});
  }
}

std::vector<ColumnRun> StructuredMask::band_runs_for_row(Index i) const {
  const Index lim = causal_limit(i, sq_, sk_);
  std::vector<ColumnRun> runs;
  if (lim < 0) return runs;
  for_each_band_run(lim, [&](ColumnRun r) { runs.push_back(r); });
  normalize_runs(runs);
  return runs;
}

std::vector<ColumnRun> StructuredMask::block_runs_for_row(Index i) const {
  const Index lim = causal_limit(i, sq_, sk_);
  std::vector<ColumnRun> runs;
  if (lim < 0) return runs;
  for_each_block_run(i, lim, [&](ColumnRun r) { runs.push_back(r); });
  normalize_runs(runs);
  return runs;
}

Index StructuredMask::row_runs(Index i, std::vector<ColumnRun>& out) const {
  out.clear();
  const Index lim = causal_limit(i, sq_, sk_);
  if (lim < 0) return 0;
  // The stripe runs up to lim (already sorted and coalesced), then each
  // band and block run spliced in.
  const auto end = std::upper_bound(stripe_runs_.begin(), stripe_runs_.end(), lim,
                                    [](Index v, const ColumnRun& r) { return v < r.lo; });
  out.assign(stripe_runs_.begin(), end);
  if (!out.empty()) out.back().hi = std::min(out.back().hi, lim + 1);
  const auto splice = [&out](ColumnRun x) { splice_run(out, x); };
  for_each_band_run(lim, splice);
  for_each_block_run(i, lim, splice);
  return static_cast<Index>(end - stripe_runs_.begin()) + (window_ > 0 ? 1 : 0) +
         static_cast<Index>(bands_.size() + blocks_.size());
}

bool StructuredMask::contains(Index i, Index j) const {
  if (i < 0 || i >= sq_ || j < 0 || j >= sk_) return false;
  const Index lim = causal_limit(i, sq_, sk_);
  if (j > lim) return false;
  if (runs_contain(band_runs_for_row(i), j)) return true;
  if (std::binary_search(stripe_cols_.begin(), stripe_cols_.end(), j)) return true;
  for (const Block& b : blocks_) {
    if (i >= b.q_lo && i < b.q_hi && j >= b.k_lo && j < b.k_hi) return true;
  }
  return false;
}

double StructuredMask::density() const {
  const double denom = causal_pairs(sq_, sk_);
  if (denom <= 0.0) return 0.0;
  // Stripe columns in [lo, hi).
  const auto stripes_in = [this](Index lo, Index hi) {
    const auto first = std::lower_bound(stripe_cols_.begin(), stripe_cols_.end(), lo);
    return static_cast<Index>(std::lower_bound(first, stripe_cols_.end(), hi) - first);
  };
  // Per row: the stripe columns up to the causal limit, plus the cells of
  // the bands-and-blocks union that no stripe already covers. Integer
  // counts, so the result is exact whatever the overlap.
  std::vector<ColumnRun> extra;
  double kept = 0.0;
  for (Index i = 0; i < sq_; ++i) {
    const Index lim = causal_limit(i, sq_, sk_);
    if (lim < 0) continue;
    extra.clear();
    const auto add = [&extra](ColumnRun r) { extra.push_back(r); };
    for_each_band_run(lim, add);
    for_each_block_run(i, lim, add);
    normalize_runs(extra);
    Index row = stripes_in(0, lim + 1);
    for (const ColumnRun& r : extra) row += r.width() - stripes_in(r.lo, r.hi);
    kept += static_cast<double>(row);
  }
  return kept / denom;
}

Matrix StructuredMask::to_dense() const {
  Matrix m(sq_, sk_);
  for (Index i = 0; i < sq_; ++i)
    for (Index j = 0; j < sk_; ++j) m(i, j) = contains(i, j) ? 1.0f : 0.0f;
  return m;
}

Index window_width_from_ratio(Index sk, double window_ratio) {
  const auto w = static_cast<Index>(std::ceil(window_ratio * static_cast<double>(sk)));
  return std::clamp<Index>(w, 1, sk);
}

StructuredMask make_window_mask(Index sq, Index sk, double window_ratio) {
  StructuredMask m(sq, sk);
  m.set_window(window_width_from_ratio(sk, window_ratio));
  return m;
}

StructuredMask make_streaming_mask(Index sq, Index sk, Index sinks, Index window) {
  StructuredMask m(sq, sk);
  m.set_window(std::clamp<Index>(window, 1, sk));
  std::vector<Index> cols;
  for (Index c = 0; c < std::min(sinks, sk); ++c) cols.push_back(c);
  m.set_stripe_columns(std::move(cols));
  return m;
}

}  // namespace sattn
