// AVX2/FMA backend for the SIMD primitive table (core/simd.h).
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/CMakeLists.txt), and its functions are only reachable through
// dispatched_ops() after a CPUID check, so the binary stays runnable on
// SSE-only hosts.
//
// Numerics: dots convert the float lanes to double (dotn's query rows arrive
// widened by the caller, so only its key lanes convert) and accumulate with
// 4-wide double FMAs (two independent accumulator chains per row), honoring
// the double-accumulation contract of the scalar backend — the summation
// *order* differs, so results agree to ~1e-13 relative rather than
// bit-for-bit. axpy/axpyn/scale stay in float, like the scalar loops.
// Remainder elements (n % 8) are handled by scalar tails; no vector load
// ever touches memory past `n` elements, which keeps ASan clean on exactly
// sized buffers.
#include "core/simd.h"

#if defined(SATTN_HAVE_AVX2)

#include <immintrin.h>

namespace sattn::simd {
namespace {

inline double hsum_pd(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swap = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swap));
}

float dot_avx2(const float* a, const float* b, Index n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_loadu_ps(a + i);
    const __m256 bv = _mm256_loadu_ps(b + i);
    acc0 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                           _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                           _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), acc1);
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

// R widened query rows against one shared key stream: the key lanes are
// loaded and widened once per 8 elements, then FMA'd into each row's
// accumulators. The rows are double already (simd::widen, once per block),
// so a row costs two plain loads per 8 lanes. Lane order and tail match
// dot_avx2, so each out[r] equals dot_avx2 over the row's float values.
template <int R>
void dotr_avx2(const double* const* q, const float* k, Index n, float* out) {
  __m256d acc0[R];
  __m256d acc1[R];
  for (int r = 0; r < R; ++r) {
    acc0[r] = _mm256_setzero_pd();
    acc1[r] = _mm256_setzero_pd();
  }
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 kv = _mm256_loadu_ps(k + i);
    const __m256d klo = _mm256_cvtps_pd(_mm256_castps256_ps128(kv));
    const __m256d khi = _mm256_cvtps_pd(_mm256_extractf128_ps(kv, 1));
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_fmadd_pd(_mm256_loadu_pd(q[r] + i), klo, acc0[r]);
      acc1[r] = _mm256_fmadd_pd(_mm256_loadu_pd(q[r] + i + 4), khi, acc1[r]);
    }
  }
  if constexpr (R == 4) {
    // The four hsum_pd reductions at once, in hsum_pd's order: lane pairs
    // (0, 2) and (1, 3) first, then their two sums. The tail products are
    // exact in double, so a fused tail step rounds like acc += q * k.
    __m256d v[4];
    for (int r = 0; r < 4; ++r) v[r] = _mm256_add_pd(acc0[r], acc1[r]);
    const __m256d ac = _mm256_add_pd(_mm256_permute2f128_pd(v[0], v[2], 0x20),
                                     _mm256_permute2f128_pd(v[0], v[2], 0x31));
    const __m256d bd = _mm256_add_pd(_mm256_permute2f128_pd(v[1], v[3], 0x20),
                                     _mm256_permute2f128_pd(v[1], v[3], 0x31));
    __m256d sum = _mm256_hadd_pd(ac, bd);  // rows 0, 1, 2, 3
    for (Index t = i; t < n; ++t) {
      sum = _mm256_fmadd_pd(_mm256_setr_pd(q[0][t], q[1][t], q[2][t], q[3][t]),
                            _mm256_set1_pd(static_cast<double>(k[t])), sum);
    }
    _mm_storeu_ps(out, _mm256_cvtpd_ps(sum));
  } else {
    for (int r = 0; r < R; ++r) {
      double acc = hsum_pd(_mm256_add_pd(acc0[r], acc1[r]));
      for (Index t = i; t < n; ++t) acc += q[r][t] * k[t];
      out[r] = static_cast<float>(acc);
    }
  }
}

void dotn_avx2(const double* const* q, Index rows, const float* k, Index n, float* out) {
  switch (rows) {
    case 1: dotr_avx2<1>(q, k, n, out); return;
    case 2: dotr_avx2<2>(q, k, n, out); return;
    case 3: dotr_avx2<3>(q, k, n, out); return;
    case 4: dotr_avx2<4>(q, k, n, out); return;
    default:
      for (Index r = 0; r < rows; ++r) dotr_avx2<1>(q + r, k, n, out + r);
      return;
  }
}

void axpy_avx2(float a, const float* x, float* y, Index n) {
  const __m256 av = _mm256_set1_ps(a);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yv = _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, yv);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// R accumulator rows fed from one shared value stream.
template <int R>
void axpyr_avx2(const float* w, const float* v, float* const* acc, Index n) {
  __m256 wv[R];
  for (int r = 0; r < R; ++r) wv[r] = _mm256_set1_ps(w[r]);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vv = _mm256_loadu_ps(v + i);
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(acc[r] + i, _mm256_fmadd_ps(wv[r], vv, _mm256_loadu_ps(acc[r] + i)));
    }
  }
  for (; i < n; ++i) {
    for (int r = 0; r < R; ++r) acc[r][i] += w[r] * v[i];
  }
}

void axpyn_avx2(const float* w, Index rows, const float* v, float* const* acc, Index n) {
  switch (rows) {
    case 1: axpyr_avx2<1>(w, v, acc, n); return;
    case 2: axpyr_avx2<2>(w, v, acc, n); return;
    case 3: axpyr_avx2<3>(w, v, acc, n); return;
    case 4: axpyr_avx2<4>(w, v, acc, n); return;
    default:
      for (Index r = 0; r < rows; ++r) axpy_avx2(w[r], v, acc[r], n);
      return;
  }
}

void scale_avx2(float* x, Index n, float s) {
  const __m256 sv = _mm256_set1_ps(s);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(sv, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= s;
}

}  // namespace

const Ops& avx2_ops() {
  static const Ops table = {"avx2", Level::kAvx2, dot_avx2,  dotn_avx2,
                            axpy_avx2, axpyn_avx2, scale_avx2};
  return table;
}

}  // namespace sattn::simd

#endif  // SATTN_HAVE_AVX2
