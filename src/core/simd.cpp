#include "core/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace sattn::simd {
namespace {

// ---- Scalar backend --------------------------------------------------------
//
// These loops are the pre-SIMD kernels verbatim: dots accumulate in double
// (head dims are small but the reference paths compare at 1e-5 tolerances),
// axpy stays in float. The parity suite pins the dispatched backend against
// this table, and SATTN_FORCE_SCALAR=1 routes everything through it.

float dot_scalar(const float* a, const float* b, Index n) {
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) acc += static_cast<double>(a[i]) * b[i];
  return static_cast<float>(acc);
}

// The same products and order as dot_scalar: q[r][i] holds the widened
// float, so q[r][i] * k[i] is static_cast<double>(a[i]) * b[i].
void dotn_scalar(const double* const* q, Index rows, const float* k, Index n, float* out) {
  for (Index r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (Index i = 0; i < n; ++i) acc += q[r][i] * k[i];
    out[r] = static_cast<float>(acc);
  }
}

void axpy_scalar(float a, const float* x, float* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] += a * x[i];
}

void axpyn_scalar(const float* w, Index rows, const float* v, float* const* acc, Index n) {
  for (Index r = 0; r < rows; ++r) axpy_scalar(w[r], v, acc[r], n);
}

void scale_scalar(float* x, Index n, float s) {
  for (Index i = 0; i < n; ++i) x[i] *= s;
}

// The key-run primitives as the per-key loops they replace.
void score_keys_scalar(const double* const* q, Index rows, const float* k, Index keys, Index d,
                       float scale, float* out, Index stride, float* run_max) {
  float s[kMaxRows];
  for (Index j = 0; j < keys; ++j, k += d) {
    dotn_scalar(q, rows, k, d, s);
    for (Index r = 0; r < rows; ++r) {
      const float v = scale * s[r];
      out[r * stride + j] = v;
      run_max[r] = std::max(run_max[r], v);
    }
  }
}

void exp_shift_scalar(float* x, Index n, float m) {
  for (Index i = 0; i < n; ++i) x[i] = std::exp(x[i] - m);
}

void accumulate_keys_scalar(const float* w, Index stride, Index rows, const float* v, Index keys,
                            Index d, float* const* acc) {
  float wj[kMaxRows];
  for (Index j = 0; j < keys; ++j, v += d) {
    for (Index r = 0; r < rows; ++r) wj[r] = w[r * stride + j];
    axpyn_scalar(wj, rows, v, acc, d);
  }
}

bool force_scalar_from_env() {
  const char* env = std::getenv("SATTN_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

const Ops& scalar_ops() {
  static const Ops table = {"scalar",          Level::kScalar,   dot_scalar,
                            dotn_scalar,       axpy_scalar,      axpyn_scalar,
                            scale_scalar,      score_keys_scalar, exp_shift_scalar,
                            accumulate_keys_scalar};
  return table;
}

#if defined(SATTN_HAVE_AVX2)
// Defined in src/core/simd_avx2.cpp (compiled with -mavx2 -mfma); only
// dereferenced after detected_level() confirms hardware support.
const Ops& avx2_ops();
#endif

Level detected_level() {
#if defined(SATTN_HAVE_AVX2) && defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool has_avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has_avx2 ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

const Ops& dispatched_ops() {
  static const Ops* table = [] {
    if (force_scalar_from_env()) return &scalar_ops();
#if defined(SATTN_HAVE_AVX2)
    if (detected_level() == Level::kAvx2) return &avx2_ops();
#endif
    return &scalar_ops();
  }();
  return *table;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "unknown";
}

namespace detail {

std::atomic<const Ops*>& active_slot() {
  static std::atomic<const Ops*> slot{nullptr};
  return slot;
}

const Ops& init_active() {
  const Ops& d = dispatched_ops();
  const Ops* expected = nullptr;
  active_slot().compare_exchange_strong(expected, &d, std::memory_order_relaxed);
  return *active_slot().load(std::memory_order_relaxed);
}

}  // namespace detail

ScopedForceScalar::ScopedForceScalar()
    : prev_(detail::active_slot().exchange(&scalar_ops(), std::memory_order_relaxed)) {}

ScopedForceScalar::~ScopedForceScalar() {
  detail::active_slot().store(prev_, std::memory_order_relaxed);
}

}  // namespace sattn::simd
