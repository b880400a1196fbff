// google-benchmark microbenchmarks of the attention kernels and the
// SampleAttention pipeline stages, plus the run-compression kernel ablation
// called out in DESIGN.md (contiguous stripe runs vs scattered columns at
// equal density), and this host's FMA ceiling that the attention kernels
// are rated against (fma_frac).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/full_attention.h"
#include "attention/sparse_flash_attention.h"
#include "baselines/bigbird.h"
#include "baselines/streaming_llm.h"
#include "model/workload.h"
#include "runtime/batch.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define SATTN_BENCH_FMA 1
#endif

namespace sattn {
namespace {

AttentionInput bench_input(Index s) {
  static const ModelConfig model = chatglm2_6b();
  return generate_attention(model, plain_prompt(7, s), 8, 3);
}

// ---------------------------------------------------------------------------
// FMA ceiling (docs/PERFORMANCE.md "Kernels against the FMA ceiling"). Under
// the numeric contract a score pair costs d/4 four-wide double FMAs (QK)
// and d/8 eight-wide float FMAs (PV): d/4 + d/8 ymm FMA instructions. The
// ceiling issues independent 4-wide double FMA chains — enough of them to
// cover the FMA latency on both ports — and rates ymm FMAs per wall second,
// on the calling thread and on every pool worker at once. The attention
// benches report fma_frac: pairs/s x (d/4 + d/8) over the pool ceiling,
// since their kernels run on the pool. Gated on the CPUID check; without
// AVX2/FMA the ceiling benches skip and fma_frac is not reported.

constexpr int kFmaChains = 12;
constexpr std::int64_t kFmaBurst = 1 << 20;  // chain steps per burst

#if defined(SATTN_BENCH_FMA)
// kFmaBurst x kFmaChains ymm FMAs. Each chain is x <- x * decay + b with
// 0 < decay < 1, so it settles near b / (1 - decay): no overflow, no
// denormals.
__attribute__((target("avx2,fma"))) double fma_burst(double decay) {
  const __m256d a = _mm256_set1_pd(decay);
  const __m256d b = _mm256_set1_pd(1e-6);
  __m256d x[kFmaChains];
  for (int c = 0; c < kFmaChains; ++c) x[c] = _mm256_set1_pd(static_cast<double>(c));
  for (std::int64_t i = 0; i < kFmaBurst; ++i) {
    for (int c = 0; c < kFmaChains; ++c) x[c] = _mm256_fmadd_pd(x[c], a, b);
  }
  __m256d sum = x[0];
  for (int c = 1; c < kFmaChains; ++c) sum = _mm256_add_pd(sum, x[c]);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}
#else
double fma_burst(double) { return 0.0; }
#endif

bool fma_available() {
#if defined(SATTN_BENCH_FMA)
  return simd::detected_level() == simd::Level::kAvx2;
#else
  return false;
#endif
}

// One burst on the calling thread (pool = false) or on every pool worker at
// once; returns the FMAs issued.
double run_fma_bursts(bool pool) {
  const Index n = pool ? std::max<Index>(1, ThreadPool::global().size()) : 1;
  std::vector<double> sink(static_cast<std::size_t>(n));
  // Read through a volatile, so the compiler cannot fold the chains away.
  // benchmark::DoNotOptimize on this double handed back a clobbered,
  // denormal value, which made every FMA a microcode assist.
  static volatile double decay_source = 0.999999;
  const double decay = decay_source;
  if (pool) {
    parallel_for(n, [&](Index i) { sink[static_cast<std::size_t>(i)] = fma_burst(decay); });
  } else {
    sink[0] = fma_burst(decay);
  }
  benchmark::DoNotOptimize(sink.data());
  return static_cast<double>(n) * static_cast<double>(kFmaBurst) * kFmaChains;
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The pool's ymm FMAs per wall second: best of ten bursts, measured once
// per process; 0 without AVX2/FMA.
double pool_fma_ceiling() {
  static const double ceiling = [] {
    double best = 0.0;
    for (int t = 0; fma_available() && t < 10; ++t) {
      const auto t0 = std::chrono::steady_clock::now();
      const double fmas = run_fma_bursts(true);
      best = std::max(best, fmas / wall_seconds_since(t0));
    }
    return best;
  }();
  return ceiling;
}

void BM_FmaCeiling(benchmark::State& state, bool pool) {
  if (!fma_available()) {
    state.SkipWithError("no AVX2/FMA on this CPU");
    return;
  }
  double fmas = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) fmas += run_fma_bursts(pool);
  const double rate = fmas / wall_seconds_since(t0);
  state.counters["gfma_s"] = rate / 1e9;
  state.counters["gflop_s"] = rate * 8.0 / 1e9;  // 4 lanes x (mul + add)
}
BENCHMARK_CAPTURE(BM_FmaCeiling, thread, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_FmaCeiling, pool, true)->UseRealTime();

// fma_frac of `pairs` score pairs at head dim d done in `seconds` of wall
// time, against the pool ceiling.
void report_fma_frac(benchmark::State& state, double pairs, Index d, double seconds) {
  const double ceiling = pool_fma_ceiling();
  if (ceiling <= 0.0 || seconds <= 0.0) return;
  const double fmas_per_pair = static_cast<double>(d) / 4.0 + static_cast<double>(d) / 8.0;
  state.counters["fma_frac"] = pairs * fmas_per_pair / seconds / ceiling;
}

void BM_FullAttention(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  Matrix out;
  for (auto _ : state) {
    full_attention(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}
BENCHMARK(BM_FullAttention)->Arg(512)->Arg(1024)->Arg(2048)->UseRealTime();

void BM_FlashAttention(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  pool_fma_ceiling();  // measured before the timed loop
  Matrix out;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    flash_attention(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  const double seconds = wall_seconds_since(t0);
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
  report_fma_frac(state, static_cast<double>(state.iterations()) * causal_pairs(in.sq(), in.sk()),
                  in.head_dim(), seconds);
}
BENCHMARK(BM_FlashAttention)->Arg(512)->Arg(1024)->Arg(2048)->UseRealTime();

void BM_SampleAttentionPlan(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  for (auto _ : state) {
    const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
    benchmark::DoNotOptimize(plan.density);
  }
}
BENCHMARK(BM_SampleAttentionPlan)->Arg(512)->Arg(1024)->Arg(2048)->UseRealTime();

void BM_SampleAttentionEndToEnd(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  Matrix out;
  for (auto _ : state) {
    sample_attention(in, SampleAttentionConfig{}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}
BENCHMARK(BM_SampleAttentionEndToEnd)->Arg(512)->Arg(1024)->Arg(2048)->UseRealTime();

// Sparse kernel throughput as a function of kept density (window-only
// masks of increasing width). Arg = window per-mille of S.
void BM_SparseKernelDensity(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  StructuredMask mask(s, s);
  mask.set_window(std::max<Index>(1, s * state.range(0) / 1000));
  pool_fma_ceiling();  // measured before the timed loop
  Matrix out;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
  const double seconds = wall_seconds_since(t0);
  state.counters["density"] = mask.density();
  report_fma_frac(state, static_cast<double>(state.iterations()) * sparse_flash_work(mask),
                  in.head_dim(), seconds);
}
BENCHMARK(BM_SparseKernelDensity)
    ->Arg(50)->Arg(125)->Arg(250)->Arg(500)->Arg(1000)->UseRealTime();

// The attention core alone (mk::absorb_key_runs), on the calling thread:
// one 32-row tile, widened once, absorbs 4096 keys in 128-key chunks, each
// chunk into its eight 4-row groups in turn — the sparse kernel's loop over
// a dense chunk list. Arg = head dim. ns_per_pair is wall time per
// (query, key) pair.
void BM_AbsorbKeyRuns(benchmark::State& state) {
  constexpr Index kRows = 32, kKeys = 4096, kChunk = 128;
  const Index d = state.range(0);
  AttentionInput in;
  in.q.resize(kRows, d);
  in.k.resize(kKeys, d);
  in.v.resize(kKeys, d);
  Rng rng(11);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  std::vector<double> qd(static_cast<std::size_t>(kRows * d));
  simd::widen(in.q.data(), kRows * d, qd.data());
  const mk::KvView kv = mk::KvView::of(in);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> m(kRows), logits;
  std::vector<double> l(kRows);
  Matrix acc(kRows, d);
  mk::QBlock blocks[kRows / mk::kQRows];
  for (Index g = 0; g < kRows / mk::kQRows; ++g) {
    mk::QBlock& b = blocks[g];
    b.rows = mk::kQRows;
    b.d = d;
    for (Index r = 0; r < mk::kQRows; ++r) {
      const Index row = g * mk::kQRows + r;
      b.q[r] = qd.data() + row * d;
      b.m[r] = &m[static_cast<std::size_t>(row)];
      b.l[r] = &l[static_cast<std::size_t>(row)];
      b.acc[r] = acc.row(row).data();
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::fill(m.begin(), m.end(), -std::numeric_limits<float>::infinity());
    std::fill(l.begin(), l.end(), 0.0);
    std::fill(acc.flat().begin(), acc.flat().end(), 0.0f);
    for (Index lo = 0; lo < kKeys; lo += kChunk) {
      const ColumnRun chunk{lo, lo + kChunk};
      for (const mk::QBlock& b : blocks) mk::absorb_key_runs(b, kv, scale, {&chunk, 1}, logits);
    }
    benchmark::DoNotOptimize(acc.data());
  }
  const double pairs = static_cast<double>(state.iterations()) * kRows * kKeys;
  state.counters["ns_per_pair"] = wall_seconds_since(t0) * 1e9 / pairs;
}
BENCHMARK(BM_AbsorbKeyRuns)->Arg(64)->Arg(128)->UseRealTime();

// Ablation: contiguous stripe runs vs scattered single columns at equal
// column count — run compression lets the kernel absorb whole runs with one
// rescale.
void BM_StripesContiguous(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  StructuredMask mask(s, s);
  mask.set_window(4);
  std::vector<Index> cols;
  for (Index c = 256; c < 256 + 256; ++c) cols.push_back(c);  // one 256-run
  mask.set_stripe_columns(cols);
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StripesContiguous);

void BM_StripesScattered(benchmark::State& state) {
  const Index s = 2048;
  const AttentionInput in = bench_input(s);
  StructuredMask mask(s, s);
  mask.set_window(4);
  std::vector<Index> cols;
  for (Index c = 0; c < 256; ++c) cols.push_back(c * 7 % s);  // 256 isolated columns
  mask.set_stripe_columns(cols);
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, mask, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_StripesScattered);

// Row-run kernel vs block-granular kernel on the same SampleAttention plan
// (the hardware-shaped execution ablation).
void BM_SamplePlanRowRunKernel(benchmark::State& state) {
  const AttentionInput in = bench_input(2048);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  Matrix out;
  for (auto _ : state) {
    sparse_flash_attention(in, plan.mask, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["density"] = plan.density;
}
BENCHMARK(BM_SamplePlanRowRunKernel);

void BM_SamplePlanBlockKernel(benchmark::State& state) {
  const AttentionInput in = bench_input(2048);
  const SamplePlan plan = plan_sample_attention(in, SampleAttentionConfig{});
  const BlockSparseLayout layout = BlockSparseLayout::from_mask(plan.mask, state.range(0));
  Matrix out;
  for (auto _ : state) {
    block_sparse_attention(in, layout, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["density"] = layout.density();
  state.counters["rounding"] = layout.rounding_overhead(plan.mask);
}
BENCHMARK(BM_SamplePlanBlockKernel)->Arg(16)->Arg(64)->Arg(128);

// ---- scalar-vs-simd comparison mode ----------------------------------------
// Paired benchmarks for the SIMD micro-kernel dispatch (core/simd.h): the
// *Dispatched variant runs whatever the CPU supports, the *Scalar variant
// pins the portable backend via ScopedForceScalar. Run with
//   bench_kernels --benchmark_filter=BM_SimdCompare
// and read the label column for the backend each side actually used (on a
// non-AVX2 host both sides report "scalar" and the pair is a null
// comparison). docs/PERFORMANCE.md records the reference numbers.
template <bool kForceScalar, typename Kernel>
void simd_compare_run(benchmark::State& state, const Kernel& kernel, Index s) {
  const AttentionInput in = bench_input(s);
  std::optional<simd::ScopedForceScalar> guard;
  if (kForceScalar) guard.emplace();
  state.SetLabel(simd::active_level_name());
  Matrix out;
  for (auto _ : state) {
    kernel(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * in.sq() * in.sk() / 2);
}

template <bool kForceScalar>
void BM_SimdCompareFlash(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state, [](const AttentionInput& in, Matrix& out) { flash_attention(in, out); },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareFlash, false)->Arg(1024)->Arg(2048)->UseRealTime();
BENCHMARK_TEMPLATE(BM_SimdCompareFlash, true)->Arg(1024)->Arg(2048)->UseRealTime();

template <bool kForceScalar>
void BM_SimdCompareFull(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state, [](const AttentionInput& in, Matrix& out) { full_attention(in, out); },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareFull, false)->Arg(1024)->Arg(2048)->UseRealTime();
BENCHMARK_TEMPLATE(BM_SimdCompareFull, true)->Arg(1024)->Arg(2048)->UseRealTime();

template <bool kForceScalar>
void BM_SimdCompareSparseFlash(benchmark::State& state) {
  const Index s = state.range(0);
  StructuredMask mask(s, s);
  mask.set_window(std::max<Index>(1, s / 8));
  simd_compare_run<kForceScalar>(
      state,
      [&mask](const AttentionInput& in, Matrix& out) { sparse_flash_attention(in, mask, out); },
      s);
}
BENCHMARK_TEMPLATE(BM_SimdCompareSparseFlash, false)->Arg(2048)->UseRealTime();
BENCHMARK_TEMPLATE(BM_SimdCompareSparseFlash, true)->Arg(2048)->UseRealTime();

template <bool kForceScalar>
void BM_SimdCompareSampleEndToEnd(benchmark::State& state) {
  simd_compare_run<kForceScalar>(
      state,
      [](const AttentionInput& in, Matrix& out) {
        sample_attention(in, SampleAttentionConfig{}, out);
      },
      state.range(0));
}
BENCHMARK_TEMPLATE(BM_SimdCompareSampleEndToEnd, false)->Arg(2048)->UseRealTime();
BENCHMARK_TEMPLATE(BM_SimdCompareSampleEndToEnd, true)->Arg(2048)->UseRealTime();

// ---------------------------------------------------------------------------
// Ragged-batch sweep vs a per-request kernel loop (docs/PERFORMANCE.md
// "Batched kernels"). Same total work — `batch` sequences of 1K tokens —
// but the per-request loop parallelizes inside one sequence at a time
// (q-tile granularity) while the ragged sweep spreads the row blocks of all
// sequences over the pool, which is how the serving engine amortizes a live
// batch. The work runs on pool workers while the calling thread waits, so
// every case here is timed and rated per wall second (UseRealTime).

void BM_PerRequestLoopDense(benchmark::State& state) {
  const Index batch = state.range(0);
  std::vector<AttentionInput> ins;
  for (Index i = 0; i < batch; ++i) ins.push_back(bench_input(1024));
  std::vector<Matrix> outs(static_cast<std::size_t>(batch));
  for (auto _ : state) {
    for (Index i = 0; i < batch; ++i)
      flash_attention(ins[static_cast<std::size_t>(i)], outs[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(outs.front().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 1024 * 1024 / 2);
}
BENCHMARK(BM_PerRequestLoopDense)->Arg(2)->Arg(8)->UseRealTime();

void BM_RaggedBatchDense(benchmark::State& state) {
  const Index batch = state.range(0);
  std::vector<AttentionInput> ins;
  for (Index i = 0; i < batch; ++i) ins.push_back(bench_input(1024));
  std::vector<Matrix> outs(static_cast<std::size_t>(batch));
  RaggedBatchView view;
  for (Index i = 0; i < batch; ++i) {
    AttentionInput& in = ins[static_cast<std::size_t>(i)];
    Matrix& out = outs[static_cast<std::size_t>(i)];
    out.resize(in.sq(), in.head_dim());
    RaggedSeq seq;
    seq.q = in.q.data();
    seq.rows = in.sq();
    seq.kv = mk::KvView::of(in);
    seq.k_hi = in.sk();
    seq.causal_off = in.sk() - in.sq();
    seq.out = out.data();
    view.seqs.push_back(seq);
  }
  for (auto _ : state) {
    const std::vector<SeqCost> costs = ragged_attention_sweep(view);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * 1024 * 1024 / 2);
}
BENCHMARK(BM_RaggedBatchDense)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

// A lone prefill chunk, the serving engine's common case (one sequence per
// sweep): rows [3840, 4096) of a 4K prompt against its whole key prefix,
// through the ragged sweep (split into row blocks across the pool) and
// through standalone flash_attention (parallel over its q-tiles) on the
// same shape. Items are causal (query, key) pairs, so the two rates compare
// directly (docs/PERFORMANCE.md).
constexpr Index kLoneKeys = 4096, kLoneRows = 256;

Index lone_chunk_pairs() {
  const Index off = kLoneKeys - kLoneRows;
  return kLoneRows * (off + 1) + kLoneRows * (kLoneRows - 1) / 2;
}

void BM_RaggedBatchLoneChunk(benchmark::State& state) {
  const AttentionInput in = bench_input(kLoneKeys);
  const Index off = kLoneKeys - kLoneRows;
  Matrix out(kLoneRows, in.head_dim());
  RaggedBatchView view;
  RaggedSeq seq;
  seq.q = in.q.row(off).data();
  seq.rows = kLoneRows;
  seq.kv = mk::KvView::of(in);
  seq.k_hi = kLoneKeys;
  seq.causal_off = off;
  seq.out = out.data();
  view.seqs.push_back(seq);
  for (auto _ : state) {
    const std::vector<SeqCost> costs = ragged_attention_sweep(view);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * lone_chunk_pairs());
}
BENCHMARK(BM_RaggedBatchLoneChunk)->UseRealTime();

void BM_FlashLoneChunk(benchmark::State& state) {
  const AttentionInput in = bench_input(kLoneKeys);
  Matrix out(kLoneRows, in.head_dim());
  for (auto _ : state) {
    flash_attention(in.q.row(kLoneKeys - kLoneRows).data(), kLoneRows, mk::KvView::of(in),
                    kLoneKeys, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * lone_chunk_pairs());
}
BENCHMARK(BM_FlashLoneChunk)->UseRealTime();

// Decode-heavy step: one fresh token against a 4K KV prefix per sequence —
// the regime where per-request dispatch overhead dominates and batching
// pays the most.
void BM_PerRequestLoopDecode(benchmark::State& state) {
  const Index batch = state.range(0), s = 4096;
  const AttentionInput in = bench_input(s);
  const mk::KvView kv = mk::KvView::of(in);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(batch),
                                       std::vector<float>(static_cast<std::size_t>(in.head_dim())));
  for (auto _ : state) {
    for (Index i = 0; i < batch; ++i)
      flash_rows(in.q.row(0).data(), 1, kv, s, s - 1, outs[static_cast<std::size_t>(i)].data(),
                 in.head_dim());
    benchmark::DoNotOptimize(outs.front().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * s);
}
BENCHMARK(BM_PerRequestLoopDecode)->Arg(8)->Arg(32)->UseRealTime();

void BM_RaggedBatchDecode(benchmark::State& state) {
  const Index batch = state.range(0), s = 4096;
  const AttentionInput in = bench_input(s);
  std::vector<std::vector<float>> outs(static_cast<std::size_t>(batch),
                                       std::vector<float>(static_cast<std::size_t>(in.head_dim())));
  RaggedBatchView view;
  for (Index i = 0; i < batch; ++i) {
    RaggedSeq seq;
    seq.q = in.q.row(0).data();
    seq.rows = 1;
    seq.kv = mk::KvView::of(in);
    seq.k_hi = s;
    seq.causal_off = s - 1;
    seq.out = outs[static_cast<std::size_t>(i)].data();
    view.seqs.push_back(seq);
  }
  for (auto _ : state) {
    const std::vector<SeqCost> costs = ragged_attention_sweep(view);
    benchmark::DoNotOptimize(costs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch * s);
}
BENCHMARK(BM_RaggedBatchDecode)->Arg(8)->Arg(32)->UseRealTime();

// ---------------------------------------------------------------------------
// Admission: the prefix chain hash against a memory-speed ceiling
// (docs/PERFORMANCE.md "Admission"). A serving request's prefix probe
// chains its prompt's row keys page by page (one XXH64 digest per page of
// keys, folded serially); a 4096-token prompt is 64 pages of 64 keys, 32 KiB.
// The ceiling runs memcmp over the same 32 KiB: a hash cannot read its
// input faster than memcmp compares it. Both are rated in key bytes per
// wall second, on the calling thread alone.

constexpr Index kChainTokens = 4096;

std::vector<std::uint64_t> chain_keys() {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(kChainTokens));
  Rng rng(0xc4a1ull);
  for (std::uint64_t& k : keys) k = rng.next_u64();
  return keys;
}

void BM_PrefixChain(benchmark::State& state) {
  const std::vector<std::uint64_t> keys = chain_keys();
  const std::size_t P = KvPageArena::kDefaultPageTokens;
  for (auto _ : state) {
    std::uint64_t h = kPrefixChainSeed;
    for (std::size_t lo = 0; lo < keys.size(); lo += P) {
      h = prefix_chain_fold(h, prefix_page_digest(std::span(keys).subspan(lo, P)));
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * kChainTokens *
                          static_cast<std::int64_t>(sizeof(std::uint64_t)));
}
BENCHMARK(BM_PrefixChain)->UseRealTime();

void BM_PrefixChainMemcmpCeiling(benchmark::State& state) {
  const std::vector<std::uint64_t> keys = chain_keys();
  const std::vector<std::uint64_t> copy = keys;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        std::memcmp(keys.data(), copy.data(), keys.size() * sizeof(std::uint64_t)));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * kChainTokens *
                          static_cast<std::int64_t>(sizeof(std::uint64_t)));
}
BENCHMARK(BM_PrefixChainMemcmpCeiling)->UseRealTime();

void BM_BigBird(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  const BigBird method;
  for (auto _ : state) {
    const AttentionResult res = method.run(in);
    benchmark::DoNotOptimize(res.density);
  }
}
BENCHMARK(BM_BigBird)->Arg(1024);

void BM_StreamingLLM(benchmark::State& state) {
  const AttentionInput in = bench_input(state.range(0));
  const StreamingLLM method;
  for (auto _ : state) {
    const AttentionResult res = method.run(in);
    benchmark::DoNotOptimize(res.density);
  }
}
BENCHMARK(BM_StreamingLLM)->Arg(1024);

}  // namespace
}  // namespace sattn

int main(int argc, char** argv) {
  // TraceSession strips --trace-out/--report-out before google-benchmark
  // parses flags.
  sattn::bench::TraceSession trace_session(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
