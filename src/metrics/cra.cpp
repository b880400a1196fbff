#include "metrics/cra.h"

#include <algorithm>
#include <limits>

#include "attention/score_utils.h"

namespace sattn {
namespace {

bool runs_contain(const std::vector<ColumnRun>& runs, Index j) {
  for (const ColumnRun& r : runs) {
    if (j < r.lo) return false;
    if (j < r.hi) return true;
  }
  return false;
}

}  // namespace

double row_retained_mass(std::span<const float> p_row, const StructuredMask& mask, Index i) {
  double kept = 0.0;
  const Index lim = causal_limit(i, mask.sq(), mask.sk());
  if (lim < 0) return 0.0;
  const std::vector<ColumnRun> bands = mask.band_runs_for_row(i);
  for (const ColumnRun& r : bands) {
    for (Index j = r.lo; j < r.hi; ++j) kept += p_row[static_cast<std::size_t>(j)];
  }
  // Stripes outside the bands.
  for (const ColumnRun& run : mask.stripe_runs()) {
    const Index hi = std::min(run.hi, lim + 1);
    for (Index j = run.lo; j < hi; ++j) {
      if (!runs_contain(bands, j)) kept += p_row[static_cast<std::size_t>(j)];
    }
  }
  // Blocks (their union, so overlapping blocks count once), skipping cells
  // already counted.
  for (const ColumnRun& run : mask.block_runs_for_row(i)) {
    for (Index j = run.lo; j < run.hi; ++j) {
      if (runs_contain(bands, j)) continue;
      if (std::binary_search(mask.stripe_columns().begin(), mask.stripe_columns().end(), j)) {
        continue;
      }
      kept += p_row[static_cast<std::size_t>(j)];
    }
  }
  return kept;
}

double cra(const AttentionInput& in, const StructuredMask& mask, std::span<const Index> rows) {
  double worst = std::numeric_limits<double>::infinity();
  for_each_score_row(in, rows, [&](Index i, std::span<const float> p) {
    worst = std::min(worst, row_retained_mass(p, mask, i));
  });
  return rows.empty() ? 1.0 : std::min(worst, 1.0);
}

double cra_columns_window(const AttentionInput& in, std::span<const Index> columns, Index window,
                          std::span<const Index> rows) {
  StructuredMask m(in.sq(), in.sk());
  m.set_window(window);
  m.set_stripe_columns(std::vector<Index>(columns.begin(), columns.end()));
  return cra(in, m, rows);
}

}  // namespace sattn
