// SIMD micro-kernel parity and dispatch tests (core/simd.h,
// attention/microkernel.h).
//
// The scalar table reproduces the pre-SIMD loops bit-for-bit; the AVX2 table
// accumulates dots in double like the scalar one, so the two backends agree
// to well under the 1e-5 the attention tests rely on. The suite compares
// them in one process via ScopedForceScalar: on hosts without AVX2 (or with
// SATTN_FORCE_SCALAR set) both sides resolve to the scalar table and every
// parity check degenerates to an exact self-comparison, which keeps the
// suite meaningful under sanitizers and on non-x86 builds.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/masks.h"
#include "attention/score_utils.h"
#include "attention/sparse_flash_attention.h"
#include "core/rng.h"
#include "core/simd.h"

namespace sattn {
namespace {

constexpr float kTol = 1e-5f;

// The ISSUE's size sweep: odd, sub-vector, exact multiples of the 8-lane
// vector width, the bench head dim, and a large size with a ragged tail.
const Index kSizes[] = {1, 3, 8, 64, 96, 128, 257};

AttentionInput random_input(Index sq, Index sk, Index d, std::uint64_t seed) {
  AttentionInput in;
  in.q.resize(sq, d);
  in.k.resize(sk, d);
  in.v.resize(sk, d);
  Rng rng(seed);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  return in;
}

std::vector<float> random_vec(Index n, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

void expect_matrices_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), tol) << "at (" << i << ", " << j << ")";
    }
  }
}

// ---- dispatch plumbing ------------------------------------------------------

TEST(SimdDispatch, ScalarTableIsAlwaysAvailable) {
  const simd::Ops& s = simd::scalar_ops();
  EXPECT_STREQ(s.name, "scalar");
  EXPECT_EQ(s.level, simd::Level::kScalar);
  EXPECT_NE(s.dot, nullptr);
  EXPECT_NE(s.dotn, nullptr);
  EXPECT_NE(s.axpy, nullptr);
  EXPECT_NE(s.axpyn, nullptr);
  EXPECT_NE(s.scale_inplace, nullptr);
}

TEST(SimdDispatch, ActiveLevelNameMatchesLevel) {
  EXPECT_STREQ(simd::active_level_name(), simd::level_name(simd::active_level()));
}

TEST(SimdDispatch, ScopedForceScalarSwapsAndRestores) {
  const char* before = simd::active_level_name();
  {
    simd::ScopedForceScalar guard;
    EXPECT_STREQ(simd::active_level_name(), "scalar");
    EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  }
  EXPECT_STREQ(simd::active_level_name(), before);
}

TEST(SimdDispatch, DispatchedOpsRespectsDetectedLevel) {
  // dispatched_ops() may be scalar even when AVX2 is detected (the
  // SATTN_FORCE_SCALAR override), but it must never exceed detection.
  EXPECT_LE(static_cast<int>(simd::dispatched_ops().level),
            static_cast<int>(simd::detected_level()));
}

// ---- primitive parity: scalar table vs dispatched table ---------------------

TEST(SimdPrimitives, DotMatchesScalarAcrossSizes) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    const auto a = random_vec(n, 100 + static_cast<std::uint64_t>(n));
    const auto b = random_vec(n, 200 + static_cast<std::uint64_t>(n));
    const float want = s.dot(a.data(), b.data(), n);
    const float got = v.dot(a.data(), b.data(), n);
    EXPECT_NEAR(got, want, kTol * std::max(1.0f, std::fabs(want))) << "n=" << n;
  }
}

// Float rows widened to double, as every dotn caller builds them.
std::vector<double> widened(const std::vector<float>& x) {
  std::vector<double> w(x.size());
  simd::widen(x.data(), static_cast<Index>(x.size()), w.data());
  return w;
}

TEST(SimdPrimitives, DotnMatchesPerRowDots) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    std::vector<std::vector<float>> qs;
    std::vector<std::vector<double>> wide;
    const double* qp[simd::kMaxRows];
    for (Index r = 0; r < simd::kMaxRows; ++r) {
      qs.push_back(random_vec(n, 300 + static_cast<std::uint64_t>(10 * n + r)));
      wide.push_back(widened(qs.back()));
    }
    for (Index r = 0; r < simd::kMaxRows; ++r) qp[r] = wide[static_cast<std::size_t>(r)].data();
    const auto k = random_vec(n, 400 + static_cast<std::uint64_t>(n));
    for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
      float got[simd::kMaxRows];
      v.dotn(qp, rows, k.data(), n, got);
      for (Index r = 0; r < rows; ++r) {
        const float want = s.dot(qs[static_cast<std::size_t>(r)].data(), k.data(), n);
        EXPECT_NEAR(got[r], want, kTol * std::max(1.0f, std::fabs(want)))
            << "n=" << n << " rows=" << rows << " r=" << r;
      }
    }
  }
}

// The kernels score every key through dotn on rows widened once per block,
// where the single-row reference paths (sattn::dot, the pre-widening dotn)
// take float rows. On each backend, dotn over widened rows must equal that
// backend's own dot over the float rows, bit for bit, for every head dim up
// to the largest in kSizes (every tail length past each 8-lane step) and
// every block height — the parity that keeps the kernels' outputs unchanged.
TEST(SimdPrimitives, DotnOnWidenedRowsEqualsOwnDotBitExact) {
  const Index max_n = kSizes[std::size(kSizes) - 1];
  for (const simd::Ops* o : {&simd::scalar_ops(), &simd::dispatched_ops()}) {
    for (Index n = 1; n <= max_n; ++n) {
      std::vector<std::vector<float>> qs;
      std::vector<std::vector<double>> wide;
      for (Index r = 0; r < simd::kMaxRows; ++r) {
        qs.push_back(random_vec(n, 700 + static_cast<std::uint64_t>(10 * n + r)));
        wide.push_back(widened(qs.back()));
      }
      const double* qp[simd::kMaxRows];
      for (Index r = 0; r < simd::kMaxRows; ++r) qp[r] = wide[static_cast<std::size_t>(r)].data();
      const auto k = random_vec(n, 800 + static_cast<std::uint64_t>(n));
      for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
        float got[simd::kMaxRows];
        o->dotn(qp, rows, k.data(), n, got);
        for (Index r = 0; r < rows; ++r) {
          EXPECT_EQ(got[r], o->dot(qs[static_cast<std::size_t>(r)].data(), k.data(), n))
              << o->name << " n=" << n << " rows=" << rows << " r=" << r;
        }
      }
    }
  }
}

TEST(SimdPrimitives, AxpyMatchesScalarAcrossSizes) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    const auto x = random_vec(n, 500 + static_cast<std::uint64_t>(n));
    auto want = random_vec(n, 600 + static_cast<std::uint64_t>(n));
    auto got = want;
    s.axpy(0.37f, x.data(), want.data(), n);
    v.axpy(0.37f, x.data(), got.data(), n);
    for (Index t = 0; t < n; ++t) {
      EXPECT_NEAR(got[static_cast<std::size_t>(t)], want[static_cast<std::size_t>(t)], kTol)
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(SimdPrimitives, AxpynMatchesPerRowAxpy) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    const auto x = random_vec(n, 700 + static_cast<std::uint64_t>(n));
    const float w[simd::kMaxRows] = {0.1f, -1.5f, 0.0f, 2.25f};
    for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
      std::vector<std::vector<float>> want, got;
      float* wp[simd::kMaxRows];
      float* gp[simd::kMaxRows];
      for (Index r = 0; r < rows; ++r) {
        want.push_back(random_vec(n, 800 + static_cast<std::uint64_t>(10 * n + r)));
        got.push_back(want.back());
      }
      for (Index r = 0; r < rows; ++r) {
        wp[r] = want[static_cast<std::size_t>(r)].data();
        gp[r] = got[static_cast<std::size_t>(r)].data();
      }
      for (Index r = 0; r < rows; ++r) s.axpy(w[r], x.data(), wp[r], n);
      v.axpyn(w, rows, x.data(), gp, n);
      for (Index r = 0; r < rows; ++r) {
        for (Index t = 0; t < n; ++t) {
          EXPECT_NEAR(gp[r][t], wp[r][t], kTol) << "n=" << n << " rows=" << rows << " r=" << r;
        }
      }
    }
  }
}

TEST(SimdPrimitives, ScaleInplaceMatchesScalar) {
  const simd::Ops& s = simd::scalar_ops();
  const simd::Ops& v = simd::dispatched_ops();
  for (Index n : kSizes) {
    auto want = random_vec(n, 900 + static_cast<std::uint64_t>(n));
    auto got = want;
    s.scale_inplace(want.data(), n, 0.8125f);
    v.scale_inplace(got.data(), n, 0.8125f);
    for (Index t = 0; t < n; ++t) {
      EXPECT_NEAR(got[static_cast<std::size_t>(t)], want[static_cast<std::size_t>(t)], kTol);
    }
  }
}

// ---- key-run primitives: each equals its per-key loop, bit for bit ----------
//
// Buffers are sized exactly (the row blocks to (rows - 1) * stride + keys,
// the key runs to keys * d), so a vector load past the end shows under ASan.

std::uint32_t float_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// The same bits, or both NaN.
bool same_float(float a, float b) {
  return float_bits(a) == float_bits(b) || (std::isnan(a) && std::isnan(b));
}

TEST(SimdKeyRuns, ExpShiftEqualsStdExpBitExact) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "the AVX2 exp_shift ports glibc's expf";
#else
  const float inf = std::numeric_limits<float>::infinity();
  const float cutoff = -0x1.9fe368p6f;  // log(2^-150): expf is +0 below it
  std::vector<float> xs = {0.0f, -0.0f, -inf, std::numeric_limits<float>::quiet_NaN(), -1e-30f,
                           -0x1p-149f};
  float below = cutoff, above = cutoff;
  for (int t = 0; t < 4; ++t) {
    xs.push_back(below);
    below = std::nextafter(below, -inf);
    above = std::nextafter(above, 0.0f);
    xs.push_back(above);
  }
  const std::size_t sweep_from = xs.size();
  for (int i = 0; i <= 104 * 4096; i += 7) xs.push_back(-static_cast<float>(i) / 4096.0f);
  // The same range stepped in float bit patterns: every binade down to -0.
  for (std::uint32_t b = float_bits(-104.0f); b > float_bits(-0.0f); b -= 40009) {
    xs.push_back(std::bit_cast<float>(b));
  }

  for (const simd::Ops* o : {&simd::scalar_ops(), &simd::dispatched_ops()}) {
    for (const float m : {0.0f, 2.5f}) {
      std::vector<float> got = xs;
      o->exp_shift(got.data(), static_cast<Index>(got.size()), m);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_TRUE(same_float(got[i], std::exp(xs[i] - m)))
            << o->name << " x=" << xs[i] << " m=" << m << " got " << got[i];
      }
    }
    // Every tail length, on exactly sized buffers.
    for (std::size_t n = 1; n <= 9; ++n) {
      std::vector<float> got(xs.begin() + sweep_from - n, xs.begin() + sweep_from);
      o->exp_shift(got.data(), static_cast<Index>(n), 0.5f);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(same_float(got[i], std::exp(xs[sweep_from - n + i] - 0.5f)))
            << o->name << " n=" << n << " i=" << i;
      }
    }
  }
#endif
}

// The shapes both run tests sweep: every block height, every head dim up
// to 257 (the 16-, 8-lane and scalar tails), 1..9 keys, and a row stride
// larger than the key count.
template <typename Fn>
void for_each_key_run_shape(const Fn& fn) {
  for (Index d = 1; d <= 257; ++d) {
    for (Index rows = 1; rows <= simd::kMaxRows; ++rows) {
      for (Index keys = 1; keys <= 9; ++keys) fn(d, rows, keys, keys + 3);
    }
  }
}

TEST(SimdKeyRuns, ScoreKeysEqualsPerKeyDotn) {
  for (const simd::Ops* o : {&simd::scalar_ops(), &simd::dispatched_ops()}) {
    for_each_key_run_shape([&](Index d, Index rows, Index keys, Index stride) {
      const std::uint64_t seed = static_cast<std::uint64_t>(1000 * d + 10 * rows + keys);
      std::vector<std::vector<double>> wide;
      const double* qp[simd::kMaxRows];
      for (Index r = 0; r < rows; ++r) wide.push_back(widened(random_vec(d, seed + 7 * r)));
      for (Index r = 0; r < rows; ++r) qp[r] = wide[static_cast<std::size_t>(r)].data();
      const auto k = random_vec(keys * d, seed + 5);
      const float scale = 0.125f;
      const std::size_t span = static_cast<std::size_t>((rows - 1) * stride + keys);
      std::vector<float> got(span, -1.0f), want(span, -1.0f);
      // Row 0 enters with a max above every logit of small runs, the others
      // with -inf.
      float got_max[simd::kMaxRows], want_max[simd::kMaxRows];
      for (Index r = 0; r < rows; ++r) {
        got_max[r] = want_max[r] = r == 0 ? 0.5f : -std::numeric_limits<float>::infinity();
      }
      o->score_keys(qp, rows, k.data(), keys, d, scale, got.data(), stride, got_max);
      for (Index j = 0; j < keys; ++j) {
        float s[simd::kMaxRows];
        o->dotn(qp, rows, k.data() + j * d, d, s);
        for (Index r = 0; r < rows; ++r) {
          const float v = scale * s[r];
          want[static_cast<std::size_t>(r * stride + j)] = v;
          want_max[r] = std::max(want_max[r], v);
        }
      }
      for (std::size_t i = 0; i < span; ++i) {
        ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
            << o->name << " d=" << d << " rows=" << rows << " keys=" << keys << " at " << i;
      }
      for (Index r = 0; r < rows; ++r) {
        ASSERT_EQ(float_bits(got_max[r]), float_bits(want_max[r]))
            << o->name << " d=" << d << " rows=" << rows << " keys=" << keys << " r=" << r;
      }
    });
  }
}

TEST(SimdKeyRuns, AccumulateKeysEqualsPerKeyAxpyn) {
  for (const simd::Ops* o : {&simd::scalar_ops(), &simd::dispatched_ops()}) {
    for_each_key_run_shape([&](Index d, Index rows, Index keys, Index stride) {
      const std::uint64_t seed = static_cast<std::uint64_t>(2000 * d + 10 * rows + keys);
      const auto w = random_vec((rows - 1) * stride + keys, seed);
      const auto v = random_vec(keys * d, seed + 1);
      std::vector<std::vector<float>> got, want;
      float* gp[simd::kMaxRows];
      float* wp[simd::kMaxRows];
      for (Index r = 0; r < rows; ++r) {
        got.push_back(random_vec(d, seed + 2 + static_cast<std::uint64_t>(r)));
        want.push_back(got.back());
      }
      for (Index r = 0; r < rows; ++r) {
        gp[r] = got[static_cast<std::size_t>(r)].data();
        wp[r] = want[static_cast<std::size_t>(r)].data();
      }
      o->accumulate_keys(w.data(), stride, rows, v.data(), keys, d, gp);
      for (Index j = 0; j < keys; ++j) {
        float wj[simd::kMaxRows];
        for (Index r = 0; r < rows; ++r) wj[r] = w[static_cast<std::size_t>(r * stride + j)];
        o->axpyn(wj, rows, v.data() + j * d, wp, d);
      }
      for (Index r = 0; r < rows; ++r) {
        for (Index t = 0; t < d; ++t) {
          ASSERT_EQ(float_bits(gp[r][t]), float_bits(wp[r][t]))
              << o->name << " d=" << d << " rows=" << rows << " keys=" << keys << " r=" << r
              << " t=" << t;
        }
      }
    });
  }
}

// ---- kernel parity: dispatched backend vs forced-scalar backend -------------

template <typename Fn>
Matrix run_forced_scalar(const Fn& fn) {
  simd::ScopedForceScalar guard;
  Matrix out;
  fn(out);
  return out;
}

TEST(SimdKernelParity, FlashAttentionAcrossHeadDims) {
  for (Index d : kSizes) {
    const AttentionInput in = random_input(37, 37, d, 1000 + static_cast<std::uint64_t>(d));
    Matrix simd_out;
    flash_attention(in, simd_out);
    const Matrix scalar_out = run_forced_scalar([&](Matrix& o) { flash_attention(in, o); });
    expect_matrices_near(simd_out, scalar_out, kTol);
  }
}

TEST(SimdKernelParity, FullAttentionAcrossHeadDims) {
  for (Index d : kSizes) {
    const AttentionInput in = random_input(33, 49, d, 2000 + static_cast<std::uint64_t>(d));
    Matrix simd_out;
    full_attention(in, simd_out);
    const Matrix scalar_out = run_forced_scalar([&](Matrix& o) { full_attention(in, o); });
    expect_matrices_near(simd_out, scalar_out, kTol);
  }
}

TEST(SimdKernelParity, FlashAgreesWithFullAtRaggedSizes) {
  // Row counts that leave 1..3-row remainders for the 4-row register block.
  for (Index sq : {1, 2, 3, 5, 6, 7, 30, 31}) {
    const AttentionInput in =
        random_input(sq, sq + 11, 24, 3000 + static_cast<std::uint64_t>(sq));
    Matrix flash_out, full_out;
    flash_attention(in, flash_out);
    full_attention(in, full_out);
    expect_matrices_near(flash_out, full_out, 3e-5f);
  }
}

TEST(SimdKernelParity, SparseFlashWindowPlusStripes) {
  const AttentionInput in = random_input(61, 61, 32, 4000);
  StructuredMask mask(61, 61);
  mask.set_window(7);
  mask.set_stripe_columns({0, 1, 2, 17, 18, 40});
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, BlockSparseRaggedTiles) {
  const AttentionInput in = random_input(50, 50, 40, 5000);
  StructuredMask mask(50, 50);
  mask.set_window(9);
  mask.set_stripe_columns({0, 13, 14, 15, 33});
  // Block size 16 over 50 rows leaves a ragged 2-row tile at the bottom.
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(mask, 16);
  Matrix simd_out;
  block_sparse_attention(in, layout, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { block_sparse_attention(in, layout, o); });
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, ScoreRowsMatchScalarInCallerOrder) {
  const AttentionInput in = random_input(29, 41, 16, 6000);
  const std::vector<Index> rows = {28, 0, 7, 7, 13, 1, 20};  // unsorted, duplicate
  auto collect = [&]() {
    std::vector<std::vector<float>> got;
    std::vector<Index> order;
    for_each_score_row(in, rows, [&](Index i, std::span<const float> p) {
      order.push_back(i);
      got.emplace_back(p.begin(), p.end());
    });
    EXPECT_EQ(order, rows);  // visit order is the caller's row order
    return got;
  };
  const auto simd_rows = collect();
  std::vector<std::vector<float>> scalar_rows;
  {
    simd::ScopedForceScalar guard;
    scalar_rows = collect();
  }
  ASSERT_EQ(simd_rows.size(), scalar_rows.size());
  for (std::size_t r = 0; r < simd_rows.size(); ++r) {
    ASSERT_EQ(simd_rows[r].size(), scalar_rows[r].size());
    for (std::size_t j = 0; j < simd_rows[r].size(); ++j) {
      ASSERT_NEAR(simd_rows[r][j], scalar_rows[r][j], kTol) << "row " << r << " col " << j;
    }
  }
}

// ---- masked-region robustness ----------------------------------------------

TEST(SimdKernelParity, NaNPoisonedMaskedKVNeverRead) {
  // Stripe-only mask: keys outside the stripes are dead columns the kernel
  // must never touch. Poison them with NaN and require finite outputs that
  // still match the forced-scalar run.
  const Index s = 45, d = 32;
  AttentionInput in = random_input(s, s, d, 7000);
  StructuredMask mask(s, s);
  mask.set_stripe_columns({3, 4, 5, 21, 22});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Index j = 0; j < s; ++j) {
    if (j == 3 || j == 4 || j == 5 || j == 21 || j == 22) continue;
    for (Index t = 0; t < d; ++t) {
      in.k(j, t) = nan;
      in.v(j, t) = nan;
    }
  }
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  for (Index i = 0; i < s; ++i) {
    for (Index t = 0; t < d; ++t) {
      ASSERT_TRUE(std::isfinite(simd_out(i, t))) << "NaN leaked at (" << i << ", " << t << ")";
    }
  }
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, FullyMaskedRowsProduceZeroNotNaN) {
  // Rows below the first stripe column have every logit masked to -inf; the
  // online softmax must finalize them to exact zeros in both backends.
  const Index s = 20, d = 16;
  const AttentionInput in = random_input(s, s, d, 8000);
  StructuredMask mask(s, s);
  mask.set_stripe_columns({10});
  Matrix simd_out;
  sparse_flash_attention(in, mask, simd_out);
  const Matrix scalar_out =
      run_forced_scalar([&](Matrix& o) { sparse_flash_attention(in, mask, o); });
  for (Index i = 0; i < 10; ++i) {
    for (Index t = 0; t < d; ++t) {
      ASSERT_EQ(simd_out(i, t), 0.0f) << "row " << i;
      ASSERT_EQ(scalar_out(i, t), 0.0f) << "row " << i;
    }
  }
  expect_matrices_near(simd_out, scalar_out, kTol);
}

TEST(SimdKernelParity, NegativeCausalLimitRowsAreZero) {
  // sq > sk: leading queries have causal limit < 0 (no visible keys) and
  // must come back as zero rows from both the tiled and dense kernels.
  const AttentionInput in = random_input(6, 2, 8, 9000);
  Matrix flash_out, full_out;
  flash_attention(in, flash_out);
  full_attention(in, full_out);
  for (Index i = 0; i < 4; ++i) {
    for (Index t = 0; t < 8; ++t) {
      ASSERT_EQ(flash_out(i, t), 0.0f);
      ASSERT_EQ(full_out(i, t), 0.0f);
    }
  }
  expect_matrices_near(flash_out, full_out, kTol);
}

// ---- long-row accumulation drift (satellite: unified double normalizer) -----

TEST(SimdNumerics, LongRowAccumulationDriftAtS16K) {
  // S = 16384 keys funneled through the online-softmax chain (float max,
  // double normalizer, float accumulator). Compare against an all-double
  // two-pass softmax·V reference; drift must stay well under the 1e-5-scale
  // tolerances the rest of the suite runs at. This pins the double-l
  // contract of OnlineSoftmaxRow: with a float normalizer the error at this
  // length is an order of magnitude larger.
  const Index sq = 4, sk = 16384, d = 8;
  const AttentionInput in = random_input(sq, sk, d, 123);
  Matrix out;
  flash_attention(in, out);

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  for (Index i = 0; i < sq; ++i) {
    const Index lim = causal_limit(i, sq, sk);
    double max_logit = -std::numeric_limits<double>::infinity();
    std::vector<double> logits(static_cast<std::size_t>(lim + 1));
    for (Index j = 0; j <= lim; ++j) {
      double s = 0.0;
      for (Index t = 0; t < d; ++t) {
        s += static_cast<double>(in.q(i, t)) * static_cast<double>(in.k(j, t));
      }
      s *= static_cast<double>(scale);
      logits[static_cast<std::size_t>(j)] = s;
      max_logit = std::max(max_logit, s);
    }
    double denom = 0.0;
    std::vector<double> ref(static_cast<std::size_t>(d), 0.0);
    for (Index j = 0; j <= lim; ++j) {
      const double w = std::exp(logits[static_cast<std::size_t>(j)] - max_logit);
      denom += w;
      for (Index t = 0; t < d; ++t) ref[static_cast<std::size_t>(t)] += w * in.v(j, t);
    }
    for (Index t = 0; t < d; ++t) {
      const double want = ref[static_cast<std::size_t>(t)] / denom;
      EXPECT_NEAR(static_cast<double>(out(i, t)), want, 1e-4) << "row " << i << " dim " << t;
    }
  }
}

}  // namespace
}  // namespace sattn
