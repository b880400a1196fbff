#include "core/tensor.h"

#include <algorithm>
#include <cmath>

#include "core/simd.h"

namespace sattn {

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  // Accumulates in double (both SIMD backends honor this contract): head
  // dims are small (<=256) but the reference paths compare against kernels
  // at 1e-5 tolerances.
  return simd::dot(a.data(), b.data(), static_cast<Index>(a.size()));
}

void axpy(float scale, std::span<const float> x, std::span<float> y) {
  assert(x.size() == y.size());
  simd::axpy(scale, x.data(), y.data(), static_cast<Index>(x.size()));
}

void matmul_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.cols());
  assert(c.rows() == a.rows() && c.cols() == b.rows());
  const Index m = a.rows(), n = b.rows(), d = a.cols();
  const simd::Ops& ops = simd::ops();
  // Register-blocked: groups of rows of A, widened to double once per
  // group, share each row of B.
  std::vector<double> wide(static_cast<std::size_t>(simd::kMaxRows) * static_cast<std::size_t>(d));
  const double* rows[simd::kMaxRows];
  for (Index r = 0; r < simd::kMaxRows; ++r) {
    rows[r] = wide.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(d);
  }
  for (Index i0 = 0; i0 < m; i0 += simd::kMaxRows) {
    const Index nr = std::min<Index>(simd::kMaxRows, m - i0);
    simd::widen(a.data() + static_cast<std::size_t>(i0) * static_cast<std::size_t>(d), nr * d,
                wide.data());
    float s[simd::kMaxRows];
    for (Index j = 0; j < n; ++j) {
      ops.dotn(rows, nr, b.row(j).data(), d, s);
      for (Index r = 0; r < nr; ++r) c(i0 + r, j) = s[r];
    }
  }
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  float m = 0.0f;
  auto fa = a.flat(), fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) m = std::max(m, std::fabs(fa[i] - fb[i]));
  return m;
}

float mean_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  if (a.size() == 0) return 0.0f;
  double s = 0.0;
  auto fa = a.flat(), fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i) s += std::fabs(fa[i] - fb[i]);
  return static_cast<float>(s / static_cast<double>(fa.size()));
}

}  // namespace sattn
