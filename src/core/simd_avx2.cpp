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
// The key-run primitives keep their per-key arithmetic: score_keys runs
// dotn's code per key, accumulate_keys gives every element one float FMA
// per key in key order (as axpyn does), and exp_shift ports glibc's expf
// bit for bit. Remainder elements are handled by scalar tails; no vector
// load ever touches memory past `n` elements, which keeps ASan clean on
// exactly sized buffers.
#include "core/simd.h"

#if defined(SATTN_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

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

// dotr_avx2 per key of the run, with the logit's scale and max folded in:
// no table lookup or row-count switch per key, and the arithmetic is
// dotn's.
template <int R>
void score_rows_avx2(const double* const* q, const float* k, Index keys, Index d, float scale,
                     float* out, Index stride, float* run_max) {
  const double* qr[R];
  float mx[R];
  for (int r = 0; r < R; ++r) {
    qr[r] = q[r];
    mx[r] = run_max[r];
  }
  float s[R];
  for (Index j = 0; j < keys; ++j, k += d) {
    dotr_avx2<R>(qr, k, d, s);
    for (int r = 0; r < R; ++r) {
      const float v = scale * s[r];
      out[r * stride + j] = v;
      mx[r] = std::max(mx[r], v);
    }
  }
  for (int r = 0; r < R; ++r) run_max[r] = mx[r];
}

void score_keys_avx2(const double* const* q, Index rows, const float* k, Index keys, Index d,
                     float scale, float* out, Index stride, float* run_max) {
  switch (rows) {
    case 1: score_rows_avx2<1>(q, k, keys, d, scale, out, stride, run_max); return;
    case 2: score_rows_avx2<2>(q, k, keys, d, scale, out, stride, run_max); return;
    case 3: score_rows_avx2<3>(q, k, keys, d, scale, out, stride, run_max); return;
    case 4: score_rows_avx2<4>(q, k, keys, d, scale, out, stride, run_max); return;
    default:
      for (Index r = 0; r < rows; ++r) {
        score_rows_avx2<1>(q + r, k, keys, d, scale, out + r * stride, stride, run_max + r);
      }
      return;
  }
}

// glibc's expf (sysdeps/ieee754/flt-32/e_expf.c, the FMA build its x86-64
// multiarch selects on AVX2+FMA hosts) on four lanes in double: x*32/ln2 =
// k + r, exp(x) = 2^(k/32) * 2^(r/32), 2^(k/32) from a 32-entry table of
// 2^(i/32) with k's integer part added to the exponent, 2^(r/32) a degree-3
// polynomial. kExp2fTab[i] = bits(2^(i/32)) - (i << 47), glibc's
// __exp2f_data.tab; the coefficients are its poly_scaled.
alignas(32) constexpr long long kExp2fTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

inline __m128 expf4(__m128 x) {
  const __m256d inv_ln2_n = _mm256_set1_pd(0x1.71547652b82fep+5);  // 32 / ln 2
  const __m256d shift = _mm256_set1_pd(0x1.8p+52);  // rounds to an integer
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d kd_shifted = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
  const __m256i idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
  const __m256i tab = _mm256_i64gather_epi64(kExp2fTab, idx, 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(0x1.c6af84b912394p-20), r,
                                    _mm256_set1_pd(0x1.ebfce50fac4f3p-13));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(0x1.62e42ff0c52d6p-6), r, _mm256_set1_pd(1.0));
  y = _mm256_mul_pd(_mm256_fmadd_pd(z, r2, y), s);
  // expf's underflow case: +0 below log(2^-150), -inf included. NaN passes
  // through the arithmetic. (Its overflow case, x > log(FLT_MAX), is left
  // out: exp_shift's arguments are at most 0.)
  const __m128 under = _mm_cmplt_ps(x, _mm_set1_ps(-0x1.9fe368p6f));
  return _mm_andnot_ps(under, _mm256_cvtpd_ps(y));
}

void exp_shift_avx2(float* x, Index n, float m) {
  const __m256 mv = _mm256_set1_ps(m);
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_sub_ps(_mm256_loadu_ps(x + i), mv);
    _mm_storeu_ps(x + i, expf4(_mm256_castps256_ps128(v)));
    _mm_storeu_ps(x + i + 4, expf4(_mm256_extractf128_ps(v, 1)));
  }
  if (i + 4 <= n) {
    _mm_storeu_ps(x + i, expf4(_mm_sub_ps(_mm_loadu_ps(x + i), _mm256_castps256_ps128(mv))));
    i += 4;
  }
  for (; i < n; ++i) x[i] = std::exp(x[i] - m);
}

// PV over a run of keys with each accumulator slice held in registers: the
// V-vector slice [i, i + 8V) of the R rows stays in registers while the
// run's keys stream through, so it is loaded and stored once per run
// instead of once per key. Each element still takes one fused multiply-add
// per key, in key order, as in axpyr_avx2.
template <int R, int V>
void accumulate_slice_avx2(const float* w, Index stride, const float* v, Index keys, Index d,
                           float* const* acc, Index i) {
  __m256 a[R][V];
  for (int r = 0; r < R; ++r) {
    for (int u = 0; u < V; ++u) a[r][u] = _mm256_loadu_ps(acc[r] + i + 8 * u);
  }
  const float* vp = v + i;
  for (Index j = 0; j < keys; ++j, vp += d) {
    __m256 vv[V];
    for (int u = 0; u < V; ++u) vv[u] = _mm256_loadu_ps(vp + 8 * u);
    for (int r = 0; r < R; ++r) {
      const __m256 wr = _mm256_broadcast_ss(w + r * stride + j);
      for (int u = 0; u < V; ++u) a[r][u] = _mm256_fmadd_ps(wr, vv[u], a[r][u]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int u = 0; u < V; ++u) _mm256_storeu_ps(acc[r] + i + 8 * u, a[r][u]);
  }
}

// 16-lane slices, then one 8-lane slice, then axpyr_avx2's scalar tail: the
// same vector/scalar split of every row as axpyn, so the same bits.
template <int R>
void accumulate_rows_avx2(const float* w, Index stride, const float* v, Index keys, Index d,
                          float* const* acc) {
  Index i = 0;
  for (; i + 16 <= d; i += 16) accumulate_slice_avx2<R, 2>(w, stride, v, keys, d, acc, i);
  if (i + 8 <= d) {
    accumulate_slice_avx2<R, 1>(w, stride, v, keys, d, acc, i);
    i += 8;
  }
  for (; i < d; ++i) {
    for (int r = 0; r < R; ++r) {
      for (Index j = 0; j < keys; ++j) acc[r][i] += w[r * stride + j] * v[j * d + i];
    }
  }
}

void accumulate_keys_avx2(const float* w, Index stride, Index rows, const float* v, Index keys,
                          Index d, float* const* acc) {
  switch (rows) {
    case 1: accumulate_rows_avx2<1>(w, stride, v, keys, d, acc); return;
    case 2: accumulate_rows_avx2<2>(w, stride, v, keys, d, acc); return;
    case 3: accumulate_rows_avx2<3>(w, stride, v, keys, d, acc); return;
    case 4: accumulate_rows_avx2<4>(w, stride, v, keys, d, acc); return;
    default:
      for (Index r = 0; r < rows; ++r) {
        accumulate_rows_avx2<1>(w + r * stride, stride, v, keys, d, acc + r);
      }
      return;
  }
}

}  // namespace

const Ops& avx2_ops() {
  static const Ops table = {"avx2",          Level::kAvx2,   dot_avx2,
                            dotn_avx2,       axpy_avx2,      axpyn_avx2,
                            scale_avx2,      score_keys_avx2, exp_shift_avx2,
                            accumulate_keys_avx2};
  return table;
}

}  // namespace sattn::simd

#endif  // SATTN_HAVE_AVX2
