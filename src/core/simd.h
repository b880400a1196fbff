// SIMD micro-kernel primitives with runtime CPU dispatch.
//
// Every hot inner loop in the library funnels through the small primitive
// set below: dot products (accumulated in double, matching the numeric
// contract of core/tensor.cpp), a multi-row dot whose rows arrive already
// widened to double and share one key stream, axpy accumulates, multi-row
// axpy that shares one value stream, an in-place rescale, and the three
// key-run primitives of the attention core (mk::absorb_key_runs): score a
// contiguous run of keys, exponentiate a row of logits against its max, and
// fold a run of value rows into up to kMaxRows accumulators. Each primitive
// has a portable scalar implementation and, on x86 hosts whose compiler and
// CPU both support it, an AVX2/FMA implementation (src/core/simd_avx2.cpp,
// compiled with -mavx2 -mfma and only ever called after a CPUID check).
//
// Dispatch contract:
//   * detected_level()  — what the CPU supports (CPUID), ignoring overrides.
//   * dispatched_ops()  — detected level filtered through the
//     SATTN_FORCE_SCALAR environment variable (any value other than "0"
//     forces the scalar table); resolved once per process.
//   * ops()             — the active table: dispatched_ops() unless a
//     ScopedForceScalar is alive. This is what kernels call.
//
// The scalar table reproduces the pre-SIMD loops bit-for-bit (double
// accumulation for dots, float fused multiply-add for axpy, std::exp for
// the softmax weights), so SATTN_FORCE_SCALAR=1 recovers the original
// kernel numerics exactly and the parity suite
// (tests/simd_kernel_test.cpp) can compare the two tables in one process.
// Within one table, the key-run primitives equal their per-key loops bit
// for bit: score_keys is dotn per key, accumulate_keys is axpyn per key,
// and exp_shift is std::exp (on glibc, where the AVX2 entry ports its expf).
#pragma once

#include <atomic>
#include <cstddef>

#include "core/tensor.h"

namespace sattn::simd {

enum class Level { kScalar = 0, kAvx2 = 1 };

// Number of query rows the multi-row primitives (dotn/axpyn) accept at once.
inline constexpr Index kMaxRows = 4;

// One backend's primitive table. All pointers are non-null in a valid table.
struct Ops {
  const char* name;  // "scalar" or "avx2"
  Level level;

  // out = sum_i a[i] * b[i], accumulated in double.
  float (*dot)(const float* a, const float* b, Index n);

  // out[r] = sum_i q[r][i] * k[i] for r in [0, rows); rows in [1, kMaxRows].
  // The rows are float values already widened to double (widen()), once per
  // block by the caller, so scoring a key converts only the key: the shared
  // k stream is loaded and widened once per vector of lanes for all rows —
  // the register-blocking primitive of the attention micro-kernels. Each
  // out[r] equals dot() over the row's float values, bit for bit, on the
  // same backend (same products, same summation order).
  void (*dotn)(const double* const* q, Index rows, const float* k, Index n, float* out);

  // y[i] += a * x[i].
  void (*axpy)(float a, const float* x, float* y, Index n);

  // acc[r][i] += w[r] * v[i] for r in [0, rows); the shared v stream is
  // loaded once for all rows.
  void (*axpyn)(const float* w, Index rows, const float* v, float* const* acc, Index n);

  // x[i] *= s (the online-softmax rescale step).
  void (*scale_inplace)(float* x, Index n, float s);

  // One contiguous run of `keys` key rows (key j at k + j*d) scored against
  // `rows` widened query rows: out[r*stride + j] = scale * dotn(q[r], key j)
  // and run_max[r] = max(run_max[r], that logit), for r in [0, rows).
  void (*score_keys)(const double* const* q, Index rows, const float* k, Index keys, Index d,
                     float scale, float* out, Index stride, float* run_max);

  // x[i] = std::exp(x[i] - m) in float: the softmax weights of a logit row
  // whose max is m (m >= every x[i]). +0 below log(2^-150) and for -inf,
  // like glibc's expf.
  void (*exp_shift)(float* x, Index n, float m);

  // One contiguous run of `keys` value rows (key j at v + j*d) folded into
  // `rows` accumulator rows: acc[r][t] += w[r*stride + j] * v[j*d + t] for
  // every key j, in key order, with axpyn's arithmetic per key.
  void (*accumulate_keys)(const float* w, Index stride, Index rows, const float* v, Index keys,
                          Index d, float* const* acc);
};

// The portable fallback; always available.
const Ops& scalar_ops();

// CPU capability, ignoring SATTN_FORCE_SCALAR and scoped overrides.
Level detected_level();

// detected_level() filtered through SATTN_FORCE_SCALAR; cached after the
// first call (set the environment variable before any SIMD use).
const Ops& dispatched_ops();

const char* level_name(Level level);

namespace detail {
std::atomic<const Ops*>& active_slot();
const Ops& init_active();
}  // namespace detail

// The active table. One relaxed atomic load; kernels that loop over many
// rows should hoist `const Ops& o = simd::ops();` out of the loop.
inline const Ops& ops() {
  const Ops* p = detail::active_slot().load(std::memory_order_relaxed);
  return p != nullptr ? *p : detail::init_active();
}

inline Level active_level() { return ops().level; }
inline const char* active_level_name() { return ops().name; }

// Forces the scalar table while alive (benchmark comparison mode and the
// parity tests). The override is process-global: pool workers dispatched
// while the scope is alive also see the scalar table. Not meant to be
// nested from concurrent threads.
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();

  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  const Ops* prev_;
};

// out[i] = x[i] in double: the query-row widening dotn expects.
inline void widen(const float* x, Index n, double* out) {
  for (Index i = 0; i < n; ++i) out[i] = static_cast<double>(x[i]);
}

// Convenience wrappers over the active table.
inline float dot(const float* a, const float* b, Index n) { return ops().dot(a, b, n); }
inline void dotn(const double* const* q, Index rows, const float* k, Index n, float* out) {
  ops().dotn(q, rows, k, n, out);
}
inline void axpy(float a, const float* x, float* y, Index n) { ops().axpy(a, x, y, n); }
inline void axpyn(const float* w, Index rows, const float* v, float* const* acc, Index n) {
  ops().axpyn(w, rows, v, acc, n);
}
inline void scale_inplace(float* x, Index n, float s) { ops().scale_inplace(x, n, s); }

}  // namespace sattn::simd
