// Tests for the resource accountant (obs/accounting.h) and the cost-model
// cross-validation (perf/model_validation.h): closed-form FLOP/byte counts
// for the dense and sparse kernels at hand-computable shapes, the
// sparse-bytes-scale-with-density property, (layer, head) / request
// attribution, the `acct.*` / `perf.model_error.*` gauge publication, the
// dense-flash-vs-attention_flops 1% acceptance bound at S in {1K, 4K, 16K},
// and the disabled-mode overhead smoke test for the flash hot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/numerics.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perf/cost_model.h"
#include "perf/model_validation.h"

namespace sattn {
namespace {

using obs::AcctScope;
using obs::RequestContext;
using obs::ResourceAccountant;
using obs::ResourceUsage;
using obs::kAcctBytesPerElement;

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

// Exact causal score-eval count: sum over rows of (causal_limit + 1).
double exact_evals(Index sq, Index sk) { return causal_pairs(sq, sk); }

// The accounting conventions of obs/accounting.h, spelled out by hand so a
// convention drift in the implementation is caught, not mirrored.
double expect_flops(Index d, double evals) { return 4.0 * static_cast<double>(d) * evals; }
double expect_stream_bytes(Index sq, Index d, double evals) {
  // Q read + O write (2 * sq * d elements) + K/V streams (2 * d per eval).
  return kAcctBytesPerElement *
         (2.0 * static_cast<double>(sq) * static_cast<double>(d) +
          2.0 * static_cast<double>(d) * evals);
}
double expect_full_score_bytes(Index sq, Index sk, double evals) {
  // full_attention materializes the whole [sq x sk] logits buffer (one
  // write pass) and reads the causal prefix back.
  return kAcctBytesPerElement * (static_cast<double>(sq) * static_cast<double>(sk) + evals);
}

// Every test starts from a clean, enabled collector/registry/accountant and
// leaves collection off.
class AccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    ResourceAccountant::global().reset();
    ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    ResourceAccountant::global().reset();
  }
};

// ---------------------------------------------------------------------------
// Closed-form counts at small shapes.

TEST_F(AccountingTest, FullAttentionClosedFormCounts) {
  const Index s = 8, d = 4;
  AttentionInput in = random_input(s, s, d, 1);
  Matrix out;
  full_attention(in, out);

  const double evals = exact_evals(s, s);  // 1+2+...+8 = 36
  ASSERT_EQ(evals, 36.0);
  const ResourceUsage u = ResourceAccountant::global().kernel_total("full");
  EXPECT_DOUBLE_EQ(u.flops, expect_flops(d, evals));  // 4*4*36 = 576
  EXPECT_DOUBLE_EQ(u.bytes,
                   expect_stream_bytes(s, d, evals) + expect_full_score_bytes(s, s, evals));
  EXPECT_DOUBLE_EQ(u.calls, 1.0);
}

TEST_F(AccountingTest, FlashClosedFormCountsAreTileInvariant) {
  const Index s = 8, d = 4;
  AttentionInput in = random_input(s, s, d, 2);
  const double evals = exact_evals(s, s);

  // Default tiles, then deliberately awkward ones: the measured eval count
  // is a property of the causal shape, not of the tiling.
  for (const FlashConfig cfg : {FlashConfig{}, FlashConfig{3, 5}}) {
    ResourceAccountant::global().reset();
    Matrix out;
    flash_attention(in, out, cfg);
    const ResourceUsage u = ResourceAccountant::global().kernel_total("flash");
    EXPECT_DOUBLE_EQ(u.flops, expect_flops(d, evals));
    // No score traffic: flash never materializes the logits matrix.
    EXPECT_DOUBLE_EQ(u.bytes, expect_stream_bytes(s, d, evals));
    EXPECT_DOUBLE_EQ(u.calls, 1.0);
  }
}

TEST_F(AccountingTest, RectangularShapesCountThePrefixOffset) {
  // sq=5, sk=9: row i attends keys 0..i+4, so evals = 5+6+7+8+9 = 35.
  const Index sq = 5, sk = 9, d = 2;
  AttentionInput in = random_input(sq, sk, d, 3);
  Matrix out;
  full_attention(in, out);
  flash_attention(in, out);
  EXPECT_DOUBLE_EQ(ResourceAccountant::global().kernel_total("full").flops,
                   expect_flops(d, 35.0));
  EXPECT_DOUBLE_EQ(ResourceAccountant::global().kernel_total("flash").flops,
                   expect_flops(d, 35.0));
}

TEST_F(AccountingTest, SparseFullWindowMatchesFlashWork) {
  // A full-window mask retains every causal pair, so the sparse kernel must
  // account exactly the dense flash FLOPs; bytes add only mask metadata.
  const Index s = 32, d = 8;
  AttentionInput in = random_input(s, s, d, 4);
  StructuredMask mask(s, s);
  mask.set_window(s);
  Matrix out;
  sparse_flash_attention(in, mask, out);

  const double evals = exact_evals(s, s);
  const ResourceUsage u = ResourceAccountant::global().kernel_total("sparse_flash");
  EXPECT_DOUBLE_EQ(u.flops, expect_flops(d, evals));
  EXPECT_GE(u.bytes, expect_stream_bytes(s, d, evals));  // + metadata traffic
}

TEST_F(AccountingTest, SparseBytesScaleWithRetainedKvFraction) {
  // Property: accounted sparse bytes ~= dense flash bytes x retained-KV
  // fraction. The residual is the non-KV traffic (Q/O streams, mask
  // metadata), which is O(s*d) against the O(s^2*d) KV term, so 5% covers
  // it at s=256 for moderate densities.
  const Index s = 256, d = 32;
  AttentionInput in = random_input(s, s, d, 5);
  const double dense_bytes =
      expect_stream_bytes(s, d, exact_evals(s, s));

  struct Pattern {
    Index window;
    std::vector<Index> stripes;
  };
  const std::vector<Pattern> patterns = {
      {64, {}},
      {48, {0, 1, 2, 3, 17, 63, 128}},
      {96, {5, 31, 200, 201, 202}},
  };
  for (const Pattern& p : patterns) {
    StructuredMask mask(s, s);
    mask.set_window(p.window);
    std::vector<Index> cols = p.stripes;
    mask.set_stripe_columns(std::move(cols));
    const double fraction = mask.density();
    ASSERT_GT(fraction, 0.15);

    ResourceAccountant::global().reset();
    Matrix out;
    sparse_flash_attention(in, mask, out);
    const ResourceUsage u = ResourceAccountant::global().kernel_total("sparse_flash");
    EXPECT_NEAR(u.bytes / (dense_bytes * fraction), 1.0, 0.05)
        << "window=" << p.window << " stripes=" << p.stripes.size()
        << " density=" << fraction;
    // The FLOP side is exact: evals == density * causal_pairs by
    // construction of density().
    EXPECT_NEAR(u.flops, expect_flops(d, fraction * exact_evals(s, s)),
                1e-6 * u.flops);
  }
}

TEST_F(AccountingTest, StageChargesLandUnderTheirNameWithoutShape) {
  obs::charge_stage("sampling", 10.0, 20.0);
  obs::charge_stage("sampling", 5.0, 40.0);
  const ResourceUsage u = ResourceAccountant::global().kernel_total("sampling");
  EXPECT_DOUBLE_EQ(u.flops, 15.0);
  EXPECT_DOUBLE_EQ(u.bytes, 60.0);
  EXPECT_DOUBLE_EQ(u.calls, 2.0);
  // Stages carry no [sq x sk] shape, so they must not pollute the per-shape
  // view the cost-model validation sweeps.
  EXPECT_TRUE(ResourceAccountant::global().shapes().empty());
}

// ---------------------------------------------------------------------------
// Attribution.

TEST_F(AccountingTest, AcctScopeKeysChargesByLayerAndHead) {
  AttentionInput in = random_input(4, 4, 2, 6);
  Matrix out;
  {
    AcctScope scope(2, 7);
    EXPECT_EQ(AcctScope::current(), (std::pair<long long, long long>{2, 7}));
    full_attention(in, out);
    {
      AcctScope inner(3, 1);
      full_attention(in, out);
    }
    // Inner scope restored on destruction.
    EXPECT_EQ(AcctScope::current(), (std::pair<long long, long long>{2, 7}));
  }
  EXPECT_EQ(AcctScope::current(), (std::pair<long long, long long>{-1, -1}));

  const auto snap = ResourceAccountant::global().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first.kernel, "full");
  EXPECT_EQ(snap[0].first.layer, 2);
  EXPECT_EQ(snap[0].first.head, 7);
  EXPECT_EQ(snap[1].first.layer, 3);
  EXPECT_EQ(snap[1].first.head, 1);
  // The kernel runs its loops on pool workers but charges on the calling
  // thread, so both charges carry the scope despite the parallel_for.
  EXPECT_DOUBLE_EQ(snap[0].second.flops, snap[1].second.flops);
}

TEST_F(AccountingTest, RequestContextAccumulatesAndInnerShadowsOuter) {
  AttentionInput in = random_input(8, 8, 4, 7);
  Matrix out;
  const double one_call = expect_flops(4, exact_evals(8, 8));

  RequestContext outer("req-A");
  flash_attention(in, out);
  EXPECT_DOUBLE_EQ(outer.usage().flops, one_call);
  {
    RequestContext inner("req-B");
    EXPECT_EQ(RequestContext::current(), &inner);
    flash_attention(in, out);
    EXPECT_DOUBLE_EQ(inner.usage().flops, one_call);
  }
  // The inner request's work did not leak into the outer one.
  EXPECT_EQ(RequestContext::current(), &outer);
  EXPECT_DOUBLE_EQ(outer.usage().flops, one_call);
}

TEST_F(AccountingTest, DisabledModeDropsEverything) {
  obs::set_enabled(false);
  AttentionInput in = random_input(8, 8, 4, 8);
  Matrix out;
  flash_attention(in, out);
  obs::charge_stage("sampling", 10.0, 20.0);
  EXPECT_DOUBLE_EQ(ResourceAccountant::global().total().flops, 0.0);
  EXPECT_TRUE(ResourceAccountant::global().snapshot().empty());
  // publish_* are no-ops too: the registry stays empty.
  obs::publish_accounting();
  perf::publish_model_error();
  EXPECT_TRUE(obs::MetricsRegistry::global().snapshot().gauges.empty());
}

// ---------------------------------------------------------------------------
// Gauge publication.

double gauge_value(const std::string& name) {
  return obs::MetricsRegistry::global().gauge(name).value();
}

TEST_F(AccountingTest, PublishAccountingEmitsPerKernelGauges) {
  AttentionInput in = random_input(8, 8, 4, 9);
  Matrix out;
  flash_attention(in, out);
  full_attention(in, out);
  obs::publish_accounting();

  const ResourceUsage flash = ResourceAccountant::global().kernel_total("flash");
  const ResourceUsage full = ResourceAccountant::global().kernel_total("full");
  EXPECT_DOUBLE_EQ(gauge_value("acct.flash.flops"), flash.flops);
  EXPECT_DOUBLE_EQ(gauge_value("acct.flash.bytes"), flash.bytes);
  EXPECT_DOUBLE_EQ(gauge_value("acct.flash.calls"), 1.0);
  EXPECT_DOUBLE_EQ(gauge_value("acct.total.flops"), flash.flops + full.flops);
  EXPECT_DOUBLE_EQ(gauge_value("acct.total.bytes"), flash.bytes + full.bytes);
}

// Largest relative error allowed between a dense kernel's accounted
// FLOPs/bytes and the analytic cost model behind Table 4 / Fig 5-6.
constexpr double kMaxModelError = 0.05;

TEST_F(AccountingTest, ModelErrorGaugesAlwaysIncludeMaxRel) {
  // Nothing ran: max_rel is still published (0), so every report carries
  // the gauge.
  perf::publish_model_error();
  EXPECT_DOUBLE_EQ(gauge_value("perf.model_error.max_rel"), 0.0);

  AttentionInput in = random_input(64, 64, 8, 10);
  Matrix out;
  flash_attention(in, out);
  full_attention(in, out);
  perf::publish_model_error();
  // Small shapes carry the largest discretization error (~1/s), but the
  // model must still track the accounted counts closely.
  const double max_rel = gauge_value("perf.model_error.max_rel");
  EXPECT_GT(gauge_value("perf.model_error.flash.flops_rel"), 0.0);
  EXPECT_LT(gauge_value("perf.model_error.flash.flops_rel"), kMaxModelError);
  EXPECT_LT(gauge_value("perf.model_error.full.bytes_rel"), kMaxModelError);
  EXPECT_GE(max_rel, gauge_value("perf.model_error.flash.flops_rel"));
  EXPECT_LT(max_rel, kMaxModelError);
}

// ---------------------------------------------------------------------------
// Acceptance: dense flash vs. the analytic cost model at S in {1K, 4K, 16K}.

TEST_F(AccountingTest, DenseFlashMatchesAttentionFlopsWithinOnePercent) {
  ModelConfig one_head;
  one_head.n_layers = 1;
  one_head.n_heads = 1;
  one_head.head_dim = 16;

  for (const Index s : {Index{1024}, Index{4096}, Index{16384}}) {
    ResourceAccountant::global().reset();
    AttentionInput in = random_input(s, s, one_head.head_dim, 11);
    Matrix out;
    flash_attention(in, out);

    const double accounted = ResourceAccountant::global().kernel_total("flash").flops;
    const double model = attention_flops(one_head, s);
    ASSERT_GT(model, 0.0);
    EXPECT_LT(std::abs(accounted - model) / model, 0.01)
        << "S=" << s << " accounted=" << accounted << " model=" << model;

    // The per-shape validation view agrees and stays under the regression
    // gate's default threshold.
    const perf::ModelErrorReport report = perf::validate_cost_model();
    ASSERT_EQ(report.kernels.size(), 1u);
    EXPECT_EQ(report.kernels[0].kernel, "flash");
    EXPECT_LT(report.max_rel, 0.01) << "S=" << s;
  }
}

TEST_F(AccountingTest, ModelValidationSweepsOnlyDenseKernels) {
  AttentionInput in = random_input(32, 32, 8, 12);
  StructuredMask mask(32, 32);
  mask.set_window(4);
  Matrix out;
  sparse_flash_attention(in, mask, out);  // sparse: prediction needs density
  flash_attention(in, out);

  const perf::ModelErrorReport report = perf::validate_cost_model();
  ASSERT_EQ(report.kernels.size(), 1u);
  EXPECT_EQ(report.kernels[0].kernel, "flash");
}

// ---------------------------------------------------------------------------
// Disabled-mode overhead smoke test (observability-tax guard).

// Verbatim replica of the flash_attention tile loop with every accounting /
// span hook removed — the "no-hooks build" the instrumented kernel is
// measured against. Kept in sync by eye; the equality check below catches a
// divergence in results, and the closed-form tests above catch one in
// accounting.
void flash_attention_no_hooks(const AttentionInput& in, Matrix& out, const FlashConfig& cfg) {
  const Index sq = in.sq(), sk = in.sk(), d = in.head_dim();
  out.resize(sq, d);
  const Index n_qtiles = (sq + cfg.tile_q - 1) / cfg.tile_q;
  parallel_for(n_qtiles, [&](Index qt) {
    const Index q_lo = qt * cfg.tile_q;
    const Index q_hi = std::min(sq, q_lo + cfg.tile_q);
    const Index rows = q_hi - q_lo;
    std::vector<float> m(static_cast<std::size_t>(rows), -std::numeric_limits<float>::infinity());
    std::vector<double> l(static_cast<std::size_t>(rows), 0.0);
    Matrix acc(rows, d);
    std::vector<float> logits(static_cast<std::size_t>(cfg.tile_k));
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const Index tile_k_max = causal_limit(q_hi - 1, sq, sk);
    for (Index k_lo = 0; k_lo <= tile_k_max; k_lo += cfg.tile_k) {
      const Index k_hi = std::min(tile_k_max + 1, k_lo + cfg.tile_k);
      for (Index r = 0; r < rows; ++r) {
        const Index i = q_lo + r;
        const Index lim = causal_limit(i, sq, sk);
        if (k_lo > lim) continue;
        const Index jn = std::min(k_hi, lim + 1);
        const auto qi = in.q.row(i);
        float tile_max = -std::numeric_limits<float>::infinity();
        for (Index j = k_lo; j < jn; ++j) {
          const float s = scale * dot(qi, in.k.row(j));
          logits[static_cast<std::size_t>(j - k_lo)] = s;
          tile_max = std::max(tile_max, s);
        }
        const std::size_t rr = static_cast<std::size_t>(r);
        auto arow = acc.row(r);
        if (tile_max > m[rr]) {
          const float rescale = std::exp(m[rr] - tile_max);
          for (float& a : arow) a *= rescale;
          l[rr] *= rescale;
          m[rr] = tile_max;
        }
        for (Index j = k_lo; j < jn; ++j) {
          const float w = std::exp(logits[static_cast<std::size_t>(j - k_lo)] - m[rr]);
          l[rr] += w;
          axpy(w, in.v.row(j), arow);
        }
      }
    }
    for (Index r = 0; r < rows; ++r) {
      auto orow = out.row(q_lo + r);
      const double denom = l[static_cast<std::size_t>(r)];
      if (denom <= 0.0) {
        std::fill(orow.begin(), orow.end(), 0.0f);
        continue;
      }
      const auto inv = static_cast<float>(1.0 / denom);
      auto arow = acc.row(r);
      for (Index t = 0; t < d; ++t)
        orow[static_cast<std::size_t>(t)] = arow[static_cast<std::size_t>(t)] * inv;
    }
  });
}

bool built_with_sanitizers() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST_F(AccountingTest, DisabledModeOverheadUnderTwoPercentAtS4096) {
  if (built_with_sanitizers()) {
    GTEST_SKIP() << "wall-time comparison is not meaningful under sanitizers";
  }
  // The guard the issue asks for: with collection off, the accounting/span
  // hooks left in the flash hot loop (the per-row eval tally, one atomic
  // add per tile, a dropped charge and span) must cost < 2% wall time
  // against the hook-free replica above at S = 4096.
  obs::set_enabled(false);
  const Index s = 4096, d = 64;
  AttentionInput in = random_input(s, s, d, 13);
  Matrix out_hooks, out_plain;

  // Warm both paths (thread pool spin-up, page faults).
  flash_attention(in, out_hooks);
  flash_attention_no_hooks(in, out_plain, FlashConfig{});
  // The replica must still compute the same thing, or the comparison is
  // meaningless.
  ASSERT_LT(max_abs_diff(out_hooks, out_plain), 1e-6f);

  // Interleaved min-of-N, with up to three attempts: the bound is on the
  // hooks themselves, so one clean measurement window suffices — retries
  // absorb noisy-neighbor interference without loosening the 2% bar.
  using clock = std::chrono::steady_clock;
  constexpr int kReps = 5;
  constexpr int kAttempts = 3;
  double ratio = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < kAttempts && !(ratio < 1.02); ++attempt) {
    double best_hooks = std::numeric_limits<double>::infinity();
    double best_plain = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      // Interleave A/B so drift (thermal, noisy neighbors) hits both sides.
      auto t0 = clock::now();
      flash_attention(in, out_hooks);
      auto t1 = clock::now();
      flash_attention_no_hooks(in, out_plain, FlashConfig{});
      auto t2 = clock::now();
      best_hooks = std::min(best_hooks, std::chrono::duration<double>(t1 - t0).count());
      best_plain = std::min(best_plain, std::chrono::duration<double>(t2 - t1).count());
    }
    ASSERT_GT(best_plain, 0.0);
    ratio = best_hooks / best_plain;
  }
  EXPECT_LT(ratio, 1.02);
}

}  // namespace
}  // namespace sattn
