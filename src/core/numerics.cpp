#include "core/numerics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/simd.h"

namespace sattn {

double softmax_inplace(std::span<float> x) { return softmax_prefix_inplace(x, static_cast<Index>(x.size())); }

double softmax_prefix_inplace(std::span<float> x, Index valid) {
  assert(valid >= 0 && static_cast<std::size_t>(valid) <= x.size());
  if (valid == 0) {
    std::fill(x.begin(), x.end(), 0.0f);
    return -std::numeric_limits<double>::infinity();
  }
  float mx = x[0];
  for (Index i = 1; i < valid; ++i) mx = std::max(mx, x[i]);
  simd::ops().exp_shift(x.data(), valid, mx);
  double denom = 0.0;
  for (Index i = 0; i < valid; ++i) denom += x[i];
  const auto inv = static_cast<float>(1.0 / denom);
  for (Index i = 0; i < valid; ++i) x[i] *= inv;
  for (std::size_t i = static_cast<std::size_t>(valid); i < x.size(); ++i) x[i] = 0.0f;
  return static_cast<double>(mx) + std::log(denom);
}

std::vector<Index> topk_indices(std::span<const float> x, Index k) {
  const auto n = static_cast<Index>(x.size());
  k = std::clamp<Index>(k, 0, n);
  std::vector<Index> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), Index{0});
  auto cmp = [&x](Index a, Index b) {
    if (x[static_cast<std::size_t>(a)] != x[static_cast<std::size_t>(b)])
      return x[static_cast<std::size_t>(a)] > x[static_cast<std::size_t>(b)];
    return a < b;
  };
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(), cmp);
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

std::vector<Index> argsort_desc(std::span<const float> x) {
  std::vector<Index> idx(x.size());
  std::iota(idx.begin(), idx.end(), Index{0});
  std::stable_sort(idx.begin(), idx.end(), [&x](Index a, Index b) {
    return x[static_cast<std::size_t>(a)] > x[static_cast<std::size_t>(b)];
  });
  return idx;
}

std::vector<double> prefix_sum(std::span<const float> x) {
  std::vector<double> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    out[i] = acc;
  }
  return out;
}

Index searchsorted(std::span<const double> sorted_ascending, double value) {
  const auto it = std::lower_bound(sorted_ascending.begin(), sorted_ascending.end(), value);
  return static_cast<Index>(it - sorted_ascending.begin());
}

double dsum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += v;
  return acc;
}

}  // namespace sattn
