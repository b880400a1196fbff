// Tests for the continuous-batching serving engine (runtime/engine.h) and
// the ragged-sequence batched kernel API (runtime/batch.h).
//
// The parity suite pins the batch contract: ragged_attention_sweep is pure
// scheduling — for every sequence the batched output is bit-identical to
// its kernel run alone. The engine suite pins the serving
// contracts: thread-safe admission, deterministic batch formation, the
// measured TTFT attribution invariant across a live batch, and the
// degrade/retry guardrails firing on measured time.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "runtime/batch.h"
#include "runtime/engine.h"
#include "runtime/kv_cache.h"
#include "sample_attention/sample_attention.h"

namespace sattn {
namespace {

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

// Bit-identical comparison: the sweep must introduce no new arithmetic, so
// even the last ulp has to match the per-request kernel.
void expect_bit_identical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (Index r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)), 0)
        << what << " row " << r;
  }
}

// ---------------------------------------------------------------------------
// Ragged-batch kernel parity.

TEST(RaggedBatch, DenseRouteMatchesFlashAttentionBitExact) {
  const Index d = 32;
  const std::vector<Index> sizes = {64, 192, 256};
  std::vector<AttentionInput> ins;
  std::vector<Matrix> ref(sizes.size()), got(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i)
    ins.push_back(random_input(sizes[i], sizes[i], d, 100 + i));

  RaggedBatchView batch;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    flash_attention(ins[i], ref[i]);
    got[i].resize(sizes[i], d);
    RaggedSeq seq;
    seq.q = ins[i].q.data();
    seq.rows = sizes[i];
    seq.kv = mk::KvView::of(ins[i]);
    seq.k_hi = sizes[i];
    seq.causal_off = 0;
    seq.out = got[i].data();
    batch.seqs.push_back(seq);
  }
  ragged_attention_sweep(batch);
  for (std::size_t i = 0; i < sizes.size(); ++i)
    expect_bit_identical(ref[i], got[i], "dense seq");
}

TEST(RaggedBatch, ChunkedPrefillMatchesFullFlashBitExact) {
  // Chunk boundaries on tile_q multiples reproduce the full kernel's tile
  // walk exactly, so chunked prefill through the sweep is bit-identical to
  // one-shot prefill.
  const Index s = 256, d = 32, chunk = 128;
  AttentionInput in = random_input(s, s, d, 7);
  Matrix ref;
  flash_attention(in, ref);

  Matrix got(s, d);
  for (Index q_lo = 0; q_lo < s; q_lo += chunk) {
    const Index q_hi = std::min(s, q_lo + chunk);
    RaggedBatchView batch;
    RaggedSeq seq;
    seq.q = in.q.row(q_lo).data();
    seq.rows = q_hi - q_lo;
    seq.kv = mk::KvView::of(in);
    seq.k_hi = q_hi;
    seq.causal_off = q_lo;
    seq.out = got.row(q_lo).data();
    batch.seqs.push_back(seq);
    ragged_attention_sweep(batch);
  }
  expect_bit_identical(ref, got, "chunked prefill");
}

TEST(RaggedBatch, MaskedPagedChunkAndDenseSeqMatchDirectKernelsBitExact) {
  // One mixed batch: a SampleAttention chunk planned mid-prompt and read
  // through a KVCache's page table, plus a dense sequence. The sparse
  // kernel's internal parallel_for runs inline on the pool worker
  // (re-entrant parallel_for), and each output still matches its kernel
  // run alone on flat storage, bit for bit. The block-sparse kernel's view
  // parity is pinned in kv_page_test.
  const Index s = 320, d = 32, q_lo = 100, q_hi = 228;  // page-unaligned chunk
  const Index rows = q_hi - q_lo;
  AttentionInput in = random_input(s, s, d, 11);
  KVCache cache(d, std::make_shared<KvPageArena>(d, /*page_tokens=*/64));
  ASSERT_TRUE(cache.append_prefill(in).ok());
  const mk::KvView paged = cache.view();
  ASSERT_TRUE(paged.paged());
  const float* q = in.q.row(q_lo).data();
  const SamplePlan plan = plan_sample_attention(q, rows, paged, q_hi, SampleAttentionConfig{});

  // The direct kernel over the materialized chunk: rows [q_lo, q_hi)
  // against keys [0, q_hi).
  AttentionInput chunk;
  chunk.q.resize(rows, d);
  chunk.k.resize(q_hi, d);
  chunk.v.resize(q_hi, d);
  std::copy(q, q + rows * d, chunk.q.data());
  std::copy(in.k.data(), in.k.data() + q_hi * d, chunk.k.data());
  std::copy(in.v.data(), in.v.data() + q_hi * d, chunk.v.data());
  Matrix ref_sparse;
  sparse_flash_attention(chunk, plan.mask, ref_sparse);

  AttentionInput dense_in = random_input(128, 128, d, 12);
  Matrix ref_dense;
  flash_attention(dense_in, ref_dense);

  obs::AuditOptions aopts;
  aopts.enabled = true;
  aopts.sample_rate = 1.0;
  aopts.row_budget = 0;
  obs::QualityAuditor auditor(aopts);

  Matrix got_sparse(rows, d), got_dense(128, d);
  RaggedBatchView batch;
  {
    RaggedSeq seq;
    seq.request_id = "masked";
    seq.q = q;
    seq.rows = rows;
    seq.kv = paged;
    seq.k_hi = q_hi;
    seq.causal_off = q_lo;
    seq.out = got_sparse.data();
    seq.mask = &plan.mask;
    seq.auditor = &auditor;
    seq.audit_q_lo = q_lo;
    batch.seqs.push_back(seq);
  }
  {
    RaggedSeq seq;
    seq.q = dense_in.q.data();
    seq.rows = 128;
    seq.kv = mk::KvView::of(dense_in);
    seq.k_hi = 128;
    seq.causal_off = 0;
    seq.out = got_dense.data();
    seq.auditor = &auditor;  // unmasked: nothing to audit
    batch.seqs.push_back(seq);
  }
  const std::vector<SeqCost> costs = ragged_attention_sweep(batch);
  ASSERT_EQ(costs.size(), 2u);
  for (const SeqCost& c : costs) EXPECT_GE(c.seconds, 0.0);

  expect_bit_identical(ref_sparse, got_sparse, "masked paged chunk");
  expect_bit_identical(ref_dense, got_dense, "dense seq in mixed batch");
  // The sweep audits every masked sequence, whatever its K/V storage, and
  // nothing else.
  EXPECT_EQ(costs[0].audit.rows, rows);
  EXPECT_EQ(costs[1].audit.rows, 0);
}

TEST(RaggedBatch, DecodeStepAgainstKvCacheMatchesDirectFlashRows) {
  const Index s = 128, d = 32;
  AttentionInput in = random_input(s, s, d, 21);
  KVCache cache(d);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  Matrix q = random_input(1, 1, d, 22).q;

  std::vector<float> ref(d, 0.0f), got(d, 0.0f);
  const mk::KvView kv = cache.view();  // paged view over the cache's page table
  flash_rows(q.data(), 1, kv, cache.size(), cache.size() - 1, ref.data(), d);

  RaggedBatchView batch;
  RaggedSeq seq;
  seq.q = q.data();
  seq.rows = 1;
  seq.kv = kv;
  seq.k_hi = cache.size();
  seq.causal_off = cache.size() - 1;
  seq.out = got.data();
  batch.seqs.push_back(seq);
  ragged_attention_sweep(batch);
  ASSERT_EQ(std::memcmp(ref.data(), got.data(), d * sizeof(float)), 0);
}

TEST(RaggedBatch, LoneSequenceSplitIntoRowBlocksMatchesItsKernelBitExact) {
  // A lone sequence splits into kTileQ-row blocks that the pool's workers
  // (one per core; SATTN_THREADS overrides) claim concurrently. Ragged row
  // counts, a causal offset, flat and paged K/V and a masked mid-prompt
  // chunk must each still equal the sequence's kernel run alone, bit for
  // bit, and its measured window must lie within the sweep.
  const Index d = 32;
  const auto check = [&](RaggedSeq seq, const std::vector<float>& ref, const char* what) {
    std::vector<float> got(ref.size(), -1.0f);
    seq.request_id = what;
    seq.out = got.data();
    RaggedBatchView batch;
    batch.seqs.push_back(seq);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<SeqCost> costs = ragged_attention_sweep(batch);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]) << what << " float " << i;
    ASSERT_EQ(costs.size(), 1u);
    EXPECT_GT(costs[0].seconds, 0.0) << what;
    EXPECT_LE(costs[0].seconds, wall) << what;
  };
  for (const Index rows : {1, 3, 53, 256, 257}) {
    for (const Index off : {0, 77}) {
      const Index s = rows + off;
      const AttentionInput in = random_input(s, s, d, 300 + rows + off);
      KVCache cache(d, std::make_shared<KvPageArena>(d, /*page_tokens=*/64));
      ASSERT_TRUE(cache.append_prefill(in).ok());
      for (const mk::KvView kv : {mk::KvView::of(in), cache.view()}) {
        RaggedSeq seq;
        seq.q = in.q.row(off).data();
        seq.rows = rows;
        seq.kv = kv;
        seq.k_hi = s;
        seq.causal_off = off;
        std::vector<float> ref(static_cast<std::size_t>(rows * d));
        flash_rows(seq.q, rows, kv, s, off, ref.data(), d);
        check(seq, ref, kv.paged() ? "paged" : "flat");
      }
    }
  }

  // A SampleAttention chunk planned mid-prompt, read through a page table.
  const Index s = 600, q_lo = 300, q_hi = 557;
  const AttentionInput in = random_input(s, s, d, 399);
  KVCache cache(d, std::make_shared<KvPageArena>(d, /*page_tokens=*/64));
  ASSERT_TRUE(cache.append_prefill(in).ok());
  RaggedSeq seq;
  seq.q = in.q.row(q_lo).data();
  seq.rows = q_hi - q_lo;
  seq.kv = cache.view();
  seq.k_hi = q_hi;
  seq.causal_off = q_lo;
  const SamplePlan plan =
      plan_sample_attention(seq.q, seq.rows, seq.kv, seq.k_hi, SampleAttentionConfig{});
  seq.mask = &plan.mask;
  std::vector<float> ref(static_cast<std::size_t>(seq.rows * d));
  sparse_flash_attention(seq.q, seq.rows, seq.kv, seq.k_hi, plan.mask, ref.data());
  check(seq, ref, "masked");
}

// ---------------------------------------------------------------------------
// Deterministic batch formation.

TEST(FormStep, DeterministicAcrossSnapshotOrderings) {
  std::vector<SlotSnapshot> slots = {
      {"a", 0, false, 1000, 512},  // mid-prefill
      {"b", 1, true, 512, 512},    // decoding
      {"c", 2, false, 300, 0},     // fresh
      {"d", 3, false, 100, 100},   // prefilled, not yet decoding: skipped
      {"e", 4, false, 4096, 0},    // fresh, long
  };
  StepPlanConfig cfg;
  cfg.max_batch = 3;
  cfg.chunk_tokens = 256;
  const std::vector<StepItem> ref = form_step(slots, cfg);

  ASSERT_EQ(ref.size(), 3u);  // a, b, c — FCFS by admit_seq, capped at 3
  EXPECT_EQ(ref[0].id, "a");
  EXPECT_FALSE(ref[0].decode);
  EXPECT_EQ(ref[0].q_lo, 512);
  EXPECT_EQ(ref[0].q_hi, 768);
  EXPECT_EQ(ref[1].id, "b");
  EXPECT_TRUE(ref[1].decode);
  EXPECT_EQ(ref[2].id, "c");
  EXPECT_EQ(ref[2].q_lo, 0);
  EXPECT_EQ(ref[2].q_hi, 256);  // clipped below: 300-token prompt, next step

  // Any permutation of the snapshot yields the identical plan.
  std::sort(slots.begin(), slots.end(),
            [](const SlotSnapshot& a, const SlotSnapshot& b) { return a.id > b.id; });
  const std::vector<StepItem> rev = form_step(slots, cfg);
  ASSERT_EQ(rev.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(rev[i].id, ref[i].id);
    EXPECT_EQ(rev[i].decode, ref[i].decode);
    EXPECT_EQ(rev[i].q_lo, ref[i].q_lo);
    EXPECT_EQ(rev[i].q_hi, ref[i].q_hi);
  }

  // The final chunk is clipped to the prompt end.
  std::vector<SlotSnapshot> tail = {{"c", 2, false, 300, 256}};
  const std::vector<StepItem> last = form_step(tail, cfg);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].q_lo, 256);
  EXPECT_EQ(last[0].q_hi, 300);
}

// ---------------------------------------------------------------------------
// Segment-keyed prompt synthesis.

// The serial fill the engine ran before rows were filled in pool blocks:
// one pass over the segments, then the request-private tail, one row at a
// time from its own key.
std::uint64_t reference_mix_id(std::uint64_t seed, const std::string& id) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (const char ch : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001b3ull;
  }
  return h;
}

// The serial fill of a segmented prompt, row by row: Q, K and V of row r
// drawn from the row's key alone. Returns the keys.
std::vector<std::uint64_t> reference_fill_segmented(AttentionInput& in, const ServingRequest& req,
                                                    std::uint64_t seed) {
  const auto fill_row = [](std::span<float> row, std::uint64_t key) {
    Rng rng(key);
    for (float& x : row) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  };
  const Index s = in.sq();
  std::vector<std::uint64_t> keys;
  Index r = 0;
  const auto fill_rows = [&](std::uint64_t base, Index hi) {
    for (; r < hi; ++r) {
      std::uint64_t h = base ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(r) + 1));
      h *= 0x100000001b3ull;
      keys.push_back(h);
      fill_row(in.q.row(r), h ^ 0x51ull);
      fill_row(in.k.row(r), h ^ 0x4bull);
      fill_row(in.v.row(r), h ^ 0x56ull);
    }
  };
  for (const ContentSegment& seg : req.segments) {
    if (r >= s) break;
    fill_rows(reference_mix_id(seed, "seg/" + seg.key),
              std::min(s, r + std::max<Index>(0, seg.tokens)));
  }
  fill_rows(reference_mix_id(seed, "req/" + req.id), s);
  return keys;
}

AttentionInput sized_input(Index s, Index d) {
  AttentionInput in;
  in.q.resize(s, d);
  in.k.resize(s, d);
  in.v.resize(s, d);
  return in;
}

// Expects q (rows lo..) and the cache's K/V rows lo.. to equal `want`'s.
void expect_rows_from(const AttentionInput& want, Index lo, const Matrix& q, const KVCache& cache,
                      const std::string& what) {
  const Index s = want.sq(), d = want.head_dim();
  ASSERT_EQ(q.rows(), s - lo) << what;
  ASSERT_EQ(cache.size(), s) << what;
  for (Index r = lo; r < s; ++r) {
    for (Index c = 0; c < d; ++c) {
      ASSERT_EQ(q(r - lo, c), want.q(r, c)) << what << " q row " << r << " col " << c;
      ASSERT_EQ(cache.k(r)[c], want.k(r, c)) << what << " k row " << r << " col " << c;
      ASSERT_EQ(cache.v(r)[c], want.v(r, c)) << what << " v row " << r << " col " << c;
    }
  }
}

TEST(SegmentedFill, ParallelRowBlocksEqualTheSerialFill) {
  // synthesize_prompt fills page-sized row blocks on the pool, Q into a
  // matrix of the rows past the cache's prefix and K/V straight into the
  // cache's pages; every float must equal the serial fill's, and
  // prompt_row_keys must give each row its serial key. Each case runs from
  // an empty cache and past a prefix the cache already holds, on 16- and
  // 64-token pages. Cases: one-row prompts, 0-token and negative segments,
  // segments that run past the prompt, segment boundaries inside and
  // between blocks, and a private tail.
  struct Case {
    Index tokens;
    std::vector<ContentSegment> segs;
  };
  const std::vector<Case> cases = {
      {1, {{"sys", 64}}},
      {1, {{"empty", 0}, {"sys", 1}}},
      {1, {{"short", 0}}},
      {300, {{"sys", 100}, {"empty", 0}, {"neg", -5}, {"conv", 37}}},
      {300, {{"sys", 128}, {"conv", 64}}},
      {257, {{"sys", 200}, {"past", 500}, {"never", 10}}},
      {1000, {{"sys", 999}}},
      {130, {{"a", 1}, {"b", 1}, {"c", 1}, {"d", 63}, {"e", 64}}},
  };
  const Index d = 24;
  const std::uint64_t seed = 0x5eedull;
  for (const Case& c : cases) {
    const ServingRequest req("r/" + std::to_string(c.tokens), c.tokens, 0.0, c.segs);
    AttentionInput want = sized_input(c.tokens, d);
    const std::vector<std::uint64_t> want_keys = reference_fill_segmented(want, req, seed);
    const std::vector<std::uint64_t> keys = prompt_row_keys(req, seed);
    ASSERT_EQ(keys, want_keys) << req.id;
    Matrix dec_want(3, d);
    Rng dec_rng(reference_mix_id(seed, "dec/" + req.id));
    for (float& x : std::span(dec_want.data(), static_cast<std::size_t>(dec_want.size())))
      x = static_cast<float>(dec_rng.uniform() * 2.0 - 1.0);
    for (const Index P : {Index{16}, Index{64}}) {
      for (const Index lo : {Index{0}, c.tokens / 2, c.tokens / 2 / P * P}) {
        KVCache cache(d, std::make_shared<KvPageArena>(d, P));
        ASSERT_TRUE(cache.extend(lo).ok());
        Matrix q, dec_q(3, d);
        synthesize_prompt(req, seed, keys, cache, q, dec_q);
        const std::string what = req.id + " P " + std::to_string(P) + " lo " + std::to_string(lo);
        expect_rows_from(want, lo, q, cache, what);
        ASSERT_EQ(std::memcmp(dec_q.data(), dec_want.data(), dec_q.size() * sizeof(float)), 0)
            << what;
      }
    }
  }
}

TEST(SegmentedFill, SegmentlessPromptKeepsItsOneSequentialStream) {
  // A segment-less prompt is one Rng stream seeded by its id — all Q rows,
  // then K, then V, then the decode queries — as the pre-paging engine drew
  // it; past a prefix the rows below it are drawn and dropped. Its row keys
  // name (seed, id, length): equal for an equal request, different when
  // either the id or the length differs.
  const Index d = 8, s = 150;
  const std::uint64_t seed = 0x5eedull;
  const ServingRequest req("plain", s, 0.0);
  AttentionInput want = sized_input(s, d);
  Matrix dec_want(2, d);
  Rng rng(reference_mix_id(seed, req.id));
  for (Matrix* m : {&want.q, &want.k, &want.v, &dec_want}) {
    for (float& x : std::span(m->data(), static_cast<std::size_t>(m->size())))
      x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  const std::vector<std::uint64_t> keys = prompt_row_keys(req, seed);
  ASSERT_EQ(static_cast<Index>(keys.size()), s);
  for (const Index lo : {Index{0}, Index{64}, Index{149}}) {
    KVCache cache(d, std::make_shared<KvPageArena>(d, 64));
    ASSERT_TRUE(cache.extend(lo).ok());
    Matrix q, dec_q(2, d);
    synthesize_prompt(req, seed, keys, cache, q, dec_q);
    expect_rows_from(want, lo, q, cache, "lo " + std::to_string(lo));
    ASSERT_EQ(std::memcmp(dec_q.data(), dec_want.data(), dec_q.size() * sizeof(float)), 0);
  }
  EXPECT_EQ(prompt_row_keys(ServingRequest("plain", s, 1.0), seed), keys);
  const std::vector<std::uint64_t> longer =
      prompt_row_keys(ServingRequest("plain", s + 1, 0.0), seed);
  const std::vector<std::uint64_t> other = prompt_row_keys(ServingRequest("other", s, 0.0), seed);
  for (Index r = 0; r < s; ++r) {
    EXPECT_NE(longer[r], keys[r]) << "row " << r;
    EXPECT_NE(other[r], keys[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// Serving engine.

// Obs fixture: metrics collection on and registries clean, restored after,
// so counter/gauge assertions are hermetic.
class EngineObs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
  }
};

double counter_value(const std::string& name) {
  for (const obs::CounterValue& cv : obs::Collector::global().counters())
    if (cv.name == name) return cv.value;
  return 0.0;
}

EngineOptions small_engine() {
  EngineOptions opts;
  opts.mode = EngineMode::kDense;
  opts.head_dim = 32;
  opts.chunk_tokens = 64;
  opts.max_batch = 4;
  opts.decode_tokens = 2;
  opts.run_label = "t";
  return opts;
}

TEST(ServingEngineTest, ConcurrentAdmissionCompletesEveryRequest) {
  // Hammer submit() from several threads at once; every request must come
  // back exactly once (completed — no policies are armed). This is the
  // TSan target for the intake path (scripts/check_sanitizers.sh).
  ServingEngine engine(small_engine());
  engine.start();
  constexpr int kThreads = 4, kPerThread = 4;
  std::atomic<int> counter{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&engine, &counter] {
      for (int i = 0; i < kPerThread; ++i) {
        const int n = counter.fetch_add(1);
        ASSERT_TRUE(engine.submit({"r" + std::to_string(n), 64 + 32 * (n % 3), 0.0}).ok());
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const EngineResult res = engine.finish();

  ASSERT_EQ(res.completed.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_TRUE(res.shed.empty());
  std::vector<std::string> ids;
  for (const EngineCompletion& c : res.completed) ids.push_back(c.base.request.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end()) << "duplicate completion";
  EXPECT_GT(res.iterations, 0);
}

TEST_F(EngineObs, TtftAttributionHoldsAcrossLiveBatch) {
  // A burst of simultaneous arrivals forms a live batch; each request's
  // measured queue/compute/guard must partition its TTFT with a
  // non-negative queue residual (measured slices can never exceed the
  // request's wall time, because its slices are disjoint).
  EngineOptions opts = small_engine();
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 6; ++i) trace.push_back({"b" + std::to_string(i), 128 + 64 * (i % 2), 0.0});
  ServingEngine engine(opts);
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), trace.size());
  EXPECT_GT(res.peak_live_batch, 1);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto gauge = [&](const std::string& name) {
    for (const auto& [n, v] : snap.gauges)
      if (n == name) return v;
    ADD_FAILURE() << "gauge not found: " << name;
    return 0.0;
  };
  for (const EngineCompletion& c : res.completed) {
    const CompletedRequest& b = c.base;
    EXPECT_NEAR(b.queue_seconds + b.compute_seconds + b.guard_seconds, b.ttft(), 1e-9)
        << b.request.id;
    EXPECT_GE(b.queue_seconds, -1e-6) << b.request.id;
    EXPECT_GT(b.compute_seconds, 0.0) << b.request.id;
    EXPECT_DOUBLE_EQ(b.guard_seconds, 0.0) << b.request.id;  // no guardrails armed
    EXPECT_GE(b.start_seconds, b.request.arrival_seconds - 1e-9) << b.request.id;
    EXPECT_EQ(c.decoded_tokens, opts.decode_tokens) << b.request.id;
    EXPECT_GT(c.tpot_seconds, 0.0) << b.request.id;
    // The per-request gauges mirror the completion record.
    const std::string base = "request.t/" + b.request.id + ".";
    EXPECT_NEAR(gauge(base + "ttft_s"), b.ttft(), 1e-12) << b.request.id;
    EXPECT_NEAR(gauge(base + "compute_s"), b.compute_seconds, 1e-12) << b.request.id;
  }
}

TEST_F(EngineObs, EveryAdmittedRequestRecordsOneAdmitSpanInItsLane) {
  // Admission (allocation, synthesis, the first prefix probe) is billed to
  // queue; its engine/admit span, tagged with the request key, is what
  // shows it in the trace. A door shed is never admitted and has none.
  EngineOptions opts = small_engine();  // run_label "t"
  opts.max_prompt_tokens = 512;
  const std::vector<ContentSegment> sys = {{"sys", 128}};
  const std::vector<ServingRequest> trace = {
      {"a", 192, 0.0, sys}, {"b", 256, 0.0, sys}, {"c", 64, 0.0}, {"door", 1024, 0.0}};
  ServingEngine engine(opts);
  const EngineResult res = engine.run_trace(trace);
  ASSERT_EQ(res.completed.size(), 3u);
  ASSERT_EQ(res.shed.size(), 1u);

  std::map<std::string, int> admits;
  for (const obs::SpanRecord& sp : obs::Collector::global().spans()) {
    if (sp.name == "engine/admit") ++admits[sp.request_id];
  }
  const std::map<std::string, int> want = {{"t/a", 1}, {"t/b", 1}, {"t/c", 1}};
  EXPECT_EQ(admits, want);
}

TEST(ServingEngineTest, DegradeLadderSteersAgainstProjectedSlo) {
  // The projection says full quality blows the SLO at every rung, so first
  // service walks the ladder to the bottom and the completion records it.
  EngineOptions opts = small_engine();
  opts.slo_ttft_seconds = 0.5;
  opts.projected_prefill_seconds = [](Index prompt_tokens, double density_scale) {
    return density_scale * static_cast<double>(prompt_tokens);  // 64 tokens -> 64 s
  };
  std::vector<ServingRequest> trace = {{"g0", 64, 0.0}, {"g1", 128, 0.0}};
  ServingEngine engine(opts);
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 2u);
  EXPECT_EQ(res.degraded, 2);
  const int bottom = static_cast<int>(opts.degrade_density_scale.size()) - 1;
  for (const EngineCompletion& c : res.completed) EXPECT_EQ(c.base.degrade_level, bottom);
  ASSERT_EQ(res.served_per_level.size(), opts.degrade_density_scale.size());
  EXPECT_EQ(res.served_per_level[static_cast<std::size_t>(bottom)], 2);
}

TEST_F(EngineObs, FaultedChunksRetryWithBackoffBilledToGuard) {
  EngineOptions opts = small_engine();
  opts.decode_tokens = 0;
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/2};
  opts.max_retries = 3;
  opts.retry_backoff_seconds = 0.005;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"f0", 128, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.retries, 2);
  const CompletedRequest& c = res.completed[0].base;
  EXPECT_EQ(c.attempts, 3);
  // Two lost chunk attempts plus two backoff gates (5 ms + 10 ms).
  EXPECT_GE(c.guard_seconds, 0.015);
  EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9);
  EXPECT_GE(c.queue_seconds, -1e-6);
  EXPECT_GE(counter_value("sched.request_retries"), 2.0);
}

TEST(ServingEngineDeathTest, InvalidPolicyAbortsAtConstruction) {
  // A ladder that does not start at full quality would serve every request
  // degraded while counting it as level 0; the engine refuses it outright.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EngineOptions opts = small_engine();
  opts.degrade_density_scale = {0.5, 0.25};
  EXPECT_DEATH({ ServingEngine engine(opts); }, "degrade ladder must start at 1.0");
}

TEST(ServingEngineTest, RetryExhaustionShedsTheRequest) {
  EngineOptions opts = small_engine();
  opts.decode_tokens = 0;
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/-1};
  opts.max_retries = 1;
  opts.retry_backoff_seconds = 0.001;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"x0", 64, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  EXPECT_TRUE(res.completed.empty());
  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].reason, "retries_exhausted");
}

TEST(ServingEngineTest, AdmissionAndOversizedSheddingAtTheDoor) {
  EngineOptions opts = small_engine();
  opts.max_prompt_tokens = 256;
  opts.max_queue_depth = 2;
  ServingEngine engine(opts);
  engine.start();
  ASSERT_TRUE(engine.submit({"big", 4096, 0.0}).ok());  // oversized
  ASSERT_TRUE(engine.submit({"a", 64, 0.0}).ok());
  ASSERT_TRUE(engine.submit({"b", 64, 0.0}).ok());
  const EngineResult res = engine.finish();

  bool saw_oversized = false;
  for (const ShedRequest& s : res.shed) {
    if (s.request.id == "big") {
      saw_oversized = true;
      EXPECT_EQ(s.reason, "oversized");
    }
  }
  EXPECT_TRUE(saw_oversized);
  EXPECT_EQ(res.completed.size() + res.shed.size(), 3u);
}

TEST_F(EngineObs, EveryTimelineStartsSubmittedAndEndsInItsOneTerminalPhase) {
  // One request per terminal path: a completion, a door shed, a kv_budget
  // shed, an in-flight cancel (parked in its retry backoff) and a cancel
  // that races ahead of its submit. Every timeline opens with `submitted`
  // at the request's arrival and closes with exactly one terminal phase
  // matching its TerminalState; in between it carries one prefill_chunk per
  // served chunk and one decode_step per decoded token.
  EngineOptions opts = small_engine();  // run_label "t", 64-token chunks
  opts.max_prompt_tokens = 512;
  opts.kv_budget_bytes = 64.0 * 1024.0;  // 256 KV bytes per token at d = 32
  // Every request's first chunk faults once, then retries after 0.2 s.
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/1};
  opts.max_retries = 3;
  opts.retry_backoff_seconds = 0.2;
  ServingEngine engine(opts);
  engine.start();
  engine.cancel("early");
  ASSERT_TRUE(engine.submit({"early", 64, 0.0}).ok());
  ASSERT_TRUE(engine.submit({"door", 1024, 0.0}).ok());  // oversized
  ASSERT_TRUE(engine.submit({"huge", 300, 0.0}).ok());   // solo KV > budget
  ASSERT_TRUE(engine.submit({"done", 128, 0.0}).ok());
  ASSERT_TRUE(engine.submit({"slow", 64, 0.0}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.cancel("slow");
  const EngineResult res = engine.finish();

  ASSERT_EQ(res.completed.size(), 1u);
  ASSERT_EQ(res.shed.size(), 2u);
  ASSERT_EQ(res.cancelled.size(), 2u);
  struct Expected {
    double arrival;
    Index chunks;
    Index decoded;
  };
  std::map<std::string, Expected> expected;
  for (const EngineCompletion& c : res.completed) {
    const Index served = c.base.request.prompt_tokens - c.prefix_hit_tokens;
    expected[c.base.request.id] = {c.base.request.arrival_seconds,
                                   (served + opts.chunk_tokens - 1) / opts.chunk_tokens,
                                   c.decoded_tokens};
  }
  // No other request serves a chunk: sheds never start, and "slow"'s only
  // attempt faulted (or had not run) when its cancel landed.
  for (const ShedRequest& s : res.shed) {
    EXPECT_EQ(s.reason, s.request.id == "door" ? "oversized" : "kv_budget") << s.request.id;
    expected[s.request.id] = {s.request.arrival_seconds, 0, 0};
  }
  for (const CancelledRequest& c : res.cancelled) {
    expected[c.base.request.id] = {c.base.request.arrival_seconds, 0, c.decoded_tokens};
  }
  const auto code = [](obs::TelemetryEventKind k) { return static_cast<double>(k); };
  const std::map<TerminalState, obs::TelemetryEventKind> terminal_kind = {
      {TerminalState::kCompleted, obs::TelemetryEventKind::kComplete},
      {TerminalState::kShed, obs::TelemetryEventKind::kShed},
      {TerminalState::kCancelled, obs::TelemetryEventKind::kCancel}};
  const auto outcomes = res.outcomes();
  ASSERT_EQ(outcomes.size(), 5u);
  for (const auto& [id, state] : outcomes) {
    const auto tl = obs::MetricsRegistry::global().series("timeline.t/" + id).samples();
    ASSERT_GE(tl.size(), 2u) << id;
    EXPECT_EQ(tl.front().second, code(obs::TelemetryEventKind::kSubmit)) << id;
    EXPECT_EQ(tl.front().first, expected.at(id).arrival) << id;
    const obs::TelemetryEventKind last = terminal_kind.at(state);
    EXPECT_EQ(tl.back().second, code(last)) << id;
    const auto count = [&](obs::TelemetryEventKind k) {
      return std::count_if(tl.begin(), tl.end(), [&](const auto& p) { return p.second == code(k); });
    };
    EXPECT_EQ(count(obs::TelemetryEventKind::kComplete) + count(obs::TelemetryEventKind::kShed) +
                  count(obs::TelemetryEventKind::kCancel),
              1)
        << id;
    EXPECT_EQ(count(obs::TelemetryEventKind::kPrefillChunk), expected.at(id).chunks) << id;
    EXPECT_EQ(count(obs::TelemetryEventKind::kDecodeStep), expected.at(id).decoded) << id;
  }
  EXPECT_EQ(expected.at("done").chunks, 2);
  EXPECT_EQ(expected.at("done").decoded, opts.decode_tokens);
}

TEST_F(EngineObs, SampleModeEscalationLadderFallsBackToDenseOnPlanFaults) {
  // Every plan the engine produces loses its local window, so validation
  // rejects rung after rung — primary, two resamples, two widens — until
  // the dense rung serves the chunk. Rejected attempts bill to guard.
  EngineOptions opts = small_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.chunk_tokens = 256;
  opts.decode_tokens = 0;
  opts.guard.max_resamples = 2;
  opts.guard.max_widens = 2;
  opts.guard.plan_hook = [](SamplePlan& plan) { plan.mask.set_window(0); };
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"s0", 256, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  const CompletedRequest& c = res.completed[0].base;
  EXPECT_GT(c.guard_seconds, 0.0);  // rejected plan attempts
  EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9);
  // One chunk walks the whole escalation_ladder: 1 + 2 + 2 rungs.
  EXPECT_EQ(counter_value("engine.plan_rejects"), 5.0);
  EXPECT_EQ(counter_value("engine.dense_fallbacks"), 1.0);
}

TEST(ServingEngineTest, SubmitAfterCloseIsRejectedWithoutATerminalState) {
  ServingEngine engine(small_engine());
  engine.start();
  ASSERT_TRUE(engine.submit({"early", 64, 0.0}).ok());
  engine.close();
  const Status late = engine.submit({"late", 64, 0.0});
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  const EngineResult res = engine.finish();

  // The rejected request was never enqueued: it appears in NO terminal list.
  ASSERT_EQ(res.outcomes().size(), 1u);
  EXPECT_EQ(res.outcomes()[0].first, "early");
  EXPECT_EQ(res.outcomes()[0].second, TerminalState::kCompleted);
}

TEST(ServingEngineTest, FinishIsIdempotentAndHandlesZeroRequests) {
  ServingEngine engine(small_engine());
  engine.start();
  const EngineResult first = engine.finish();
  EXPECT_TRUE(first.completed.empty());
  EXPECT_TRUE(first.shed.empty());
  EXPECT_TRUE(first.cancelled.empty());
  // Every later finish() — bounded or not — returns the same (empty) result
  // without touching the already-joined loop.
  const EngineResult again = engine.finish(/*drain_deadline_seconds=*/0.0);
  EXPECT_TRUE(again.completed.empty() && again.shed.empty() && again.cancelled.empty());
}

TEST(ServingEngineTest, WarmPrefixAttachSkipsPrefillComputeAndCutsTtft) {
  // Two engines share one page arena. The cold run publishes its prefill
  // pages into the prefix index; the warm run — same content segments —
  // attaches them at admission and skips the covered chunks entirely, so
  // its measured compute is a fraction of the cold run's.
  EngineOptions opts = small_engine();
  opts.chunk_tokens = 128;
  opts.decode_tokens = 2;
  opts.kv_arena = std::make_shared<KvPageArena>(opts.head_dim, opts.kv_page_tokens);
  const std::vector<ContentSegment> sys = {{"sys", 1024}};

  ServingEngine cold(opts);
  const std::vector<ServingRequest> cold_trace = {{"cold", 1024, 0.0, sys}};
  const EngineResult cres = cold.run_trace(cold_trace);
  ASSERT_EQ(cres.completed.size(), 1u);
  EXPECT_EQ(cres.kv_prefix_hits, 0);
  EXPECT_GT(opts.kv_arena->prefix_entries(), 0);

  ServingEngine warm(opts);
  const std::vector<ServingRequest> warm_trace = {{"warm", 1024, 0.0, sys}};
  const EngineResult wres = warm.run_trace(warm_trace);
  ASSERT_EQ(wres.completed.size(), 1u);
  EXPECT_EQ(wres.kv_prefix_hits, 1);
  // Attach is capped at prompt-1 so one real chunk still runs: 15 of the
  // 16 pages (960 of 1024 tokens) come from the index.
  EXPECT_EQ(wres.kv_prefix_hit_tokens, 960);
  EXPECT_EQ(wres.completed[0].prefix_hit_tokens, 960);
  // The warm run computed 64 of 1024 prefill tokens — even with timer
  // noise its measured compute slice must come in under the cold run's.
  EXPECT_LT(wres.completed[0].base.compute_seconds,
            cres.completed[0].base.compute_seconds);
  // The decode outputs must match: attached pages hold the same K/V the
  // cold run computed, and decode content is id-independent of the prompt.
  // (Different request ids → different decode queries, so compare the
  // prefill outputs instead: both requests share all 1024 prompt rows.)
  // TTFT attribution still partitions exactly.
  const CompletedRequest& w = wres.completed[0].base;
  EXPECT_NEAR(w.queue_seconds + w.compute_seconds + w.guard_seconds, w.ttft(), 1e-9);

  // After both engines are gone, only the index holds pages — shared bytes
  // were never double-counted and nothing leaked.
  EXPECT_EQ(opts.kv_arena->pages_live(), opts.kv_arena->prefix_entries());
  EXPECT_EQ(opts.kv_arena->pages_allocated() - opts.kv_arena->pages_freed(),
            opts.kv_arena->pages_live());
}

// ---------------------------------------------------------------------------
// Engine prefix cache: row keys, synthesis past the hit, K/V only in pages.

// The whole prompt of `req` filled from its row keys, as one flat input.
AttentionInput filled_prompt(const ServingRequest& req, std::uint64_t seed, Index d) {
  KVCache cache(d, std::make_shared<KvPageArena>(d));
  Matrix q, dec_q;
  synthesize_prompt(req, seed, prompt_row_keys(req, seed), cache, q, dec_q);
  AttentionInput in = sized_input(req.prompt_tokens, d);
  in.q = q;
  for (Index r = 0; r < req.prompt_tokens; ++r) {
    std::ranges::copy(cache.k(r), in.k.row(r).begin());
    std::ranges::copy(cache.v(r), in.v.row(r).begin());
  }
  return in;
}

const EngineCompletion* completion_of(const EngineResult& res, const std::string& id) {
  for (const EngineCompletion& c : res.completed)
    if (c.base.request.id == id) return &c;
  return nullptr;
}

// Obs is on for the whole suite: some cases read spans and counters.
class EnginePrefix : public EngineObs {};

TEST_F(EnginePrefix, PublishedPagesHoldFlashOutputsOfTheFilledPrompt) {
  // A seeded dense trace: every request shares a system segment, most
  // share a conversation segment with one or two others, and each has a
  // private tail, so pages are published both by cold requests and past
  // attached prefixes. Every published page, read back through its row
  // keys, holds the K/V rows those keys fill and, bit for bit, the outputs
  // flash_attention gives over the whole filled prompt.
  EngineOptions opts = small_engine();
  opts.seed = 0x7e57ull;
  const Index P = 16, d = opts.head_dim;
  opts.kv_arena = std::make_shared<KvPageArena>(d, P);
  Rng rng(0x9a9eull);
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 12; ++i) {
    std::vector<ContentSegment> segs = {{"sys", 96}};
    if (i % 3 != 0) segs.push_back({"conv/" + std::to_string(i % 4), 40});
    trace.emplace_back("p" + std::to_string(i), 137 + rng.uniform_index(100), 0.002 * i, segs);
  }
  {
    ServingEngine engine(opts);
    const EngineResult res = engine.run_trace(trace);
    ASSERT_EQ(res.completed.size(), trace.size());
    EXPECT_GT(res.kv_prefix_hits, 0);
  }
  KvPageArena& arena = *opts.kv_arena;
  std::set<Index> read_back;
  std::vector<float> out_rows(static_cast<std::size_t>(P * d));
  for (const ServingRequest& req : trace) {
    const std::vector<std::uint64_t> keys = prompt_row_keys(req, opts.seed);
    const AttentionInput in = filled_prompt(req, opts.seed, d);
    Matrix ref;
    flash_attention(in, ref);
    std::uint64_t chain = kPrefixChainSeed;
    for (Index p = 0; p < req.prompt_tokens / P; ++p) {
      const auto page_keys = std::span(keys).subspan(static_cast<std::size_t>(p * P), P);
      chain = prefix_chain_fold(chain, prefix_page_digest(page_keys));
      const KvPageArena::PageRef page = arena.prefix_lookup(chain, page_keys, out_rows.data());
      if (page.id < 0) break;  // the rest of this prompt was never published
      read_back.insert(page.id);
      const std::size_t off = static_cast<std::size_t>(p * P * d);
      const std::size_t bytes = static_cast<std::size_t>(P * d) * sizeof(float);
      EXPECT_EQ(std::memcmp(page.k, in.k.data() + off, bytes), 0) << req.id << " page " << p;
      EXPECT_EQ(std::memcmp(page.v, in.v.data() + off, bytes), 0) << req.id << " page " << p;
      EXPECT_EQ(std::memcmp(out_rows.data(), ref.data() + off, bytes), 0)
          << req.id << " page " << p << " outputs";
      arena.release(page.id);
    }
  }
  EXPECT_EQ(static_cast<Index>(read_back.size()), arena.prefix_entries());
  EXPECT_EQ(arena.pages_live(), arena.prefix_entries()) << "leaked pages";
}

TEST_F(EnginePrefix, SharerAdmittedBeforeItsPublisherAttachesAtItsFirstChunk) {
  // Two requests with the same 1024-token prompt, submitted together: with
  // one batch slot, one prefills all its chunks first while the other, its
  // admission probe having missed (nothing was published), waits admitted.
  // Its first-chunk re-probe attaches the publisher's pages.
  EngineOptions opts = small_engine();
  opts.max_batch = 1;
  opts.decode_tokens = 0;
  const std::vector<ContentSegment> sys = {{"sys", 1024}};
  ServingEngine engine(opts);
  const EngineResult res =
      engine.run_trace(std::vector<ServingRequest>{{"a", 1024, 0.0, sys}, {"b", 1024, 0.0, sys}});
  ASSERT_EQ(res.completed.size(), 2u);
  ASSERT_EQ(res.kv_prefix_hits, 1);
  const bool a_hit = completion_of(res, "a")->prefix_hit_tokens > 0;
  const std::string publisher = a_hit ? "b" : "a", sharer = a_hit ? "a" : "b";
  EXPECT_EQ(completion_of(res, sharer)->prefix_hit_tokens, 960);
  EXPECT_EQ(completion_of(res, publisher)->prefix_hit_tokens, 0);

  // The sharer was admitted before the publisher's last chunk started, so
  // before anything was published: the hit came from the re-probe.
  double sharer_admit = -1.0, publisher_last_chunk = -1.0;
  for (const obs::SpanRecord& sp : obs::Collector::global().spans()) {
    if (sp.name == "engine/admit" && sp.request_id == "t/" + sharer) sharer_admit = sp.start_us;
    if (sp.name == "seq/prefill_chunk" && sp.request_id == "t/" + publisher)
      publisher_last_chunk = std::max(publisher_last_chunk, sp.start_us);
  }
  ASSERT_GE(sharer_admit, 0.0);
  EXPECT_LT(sharer_admit, publisher_last_chunk);
}

TEST_F(EnginePrefix, BudgetWaiterAttachesAfterItsRelease) {
  // The KV budget fits one unshared 1024-token prompt at a time: the second
  // request waits behind the first, and once released it attaches the
  // pages the first one published instead of computing them.
  EngineOptions opts = small_engine();
  opts.kv_budget_bytes = 300000.0;  // 1024 tokens x 256 B = 262144 B each
  opts.kv_eviction = EvictionKind::kNone;
  const std::vector<ContentSegment> sys = {{"sys", 1024}};
  ServingEngine engine(opts);
  const EngineResult res =
      engine.run_trace(std::vector<ServingRequest>{{"a", 1024, 0.0, sys}, {"b", 1024, 0.0, sys}});
  ASSERT_EQ(res.completed.size(), 2u);
  EXPECT_EQ(res.kv_pressure_waits, 1);
  EXPECT_EQ(res.kv_prefix_hits, 1);
  EXPECT_EQ(completion_of(res, "a")->prefix_hit_tokens + completion_of(res, "b")->prefix_hit_tokens,
            960);
}

TEST_F(EnginePrefix, ShedOrCancelledBeforeItsFirstChunkAllocatesNoPage) {
  // Admission computes row keys and attaches shared pages; it allocates
  // nothing. A blocker attaches 960 of its 1024 tokens, synthesizes one
  // private page at its first chunk, and then holds the KV budget through
  // a retry backoff. Behind it, a request too large for the whole budget
  // sheds and one that must wait is cancelled: the arena's allocation
  // count does not move.
  EngineOptions opts = small_engine();
  opts.kv_arena = std::make_shared<KvPageArena>(opts.head_dim, opts.kv_page_tokens);
  const std::vector<ContentSegment> sys = {{"sys", 1024}};
  {
    ServingEngine cold(opts);
    ASSERT_EQ(cold.run_trace(std::vector<ServingRequest>{{"cold", 1024, 0.0, sys}})
                  .completed.size(),
              1u);
  }
  opts.kv_budget_bytes = 300000.0;  // the blocker needs 262144 B
  opts.kv_eviction = EvictionKind::kNone;
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/1};
  opts.max_retries = 1;
  opts.retry_backoff_seconds = 0.5;
  const auto wait_for = [](const char* counter) {
    for (int i = 0; i < 500 && counter_value(counter) < 1.0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return counter_value(counter) >= 1.0;
  };
  ServingEngine engine(opts);
  engine.start();
  ASSERT_TRUE(engine.submit({"blocker", 1024, 0.0, sys}).ok());
  // Its first chunk faulted: it has synthesized and now waits out the backoff.
  ASSERT_TRUE(wait_for("sched.request_retries"));
  const long long allocated = opts.kv_arena->pages_allocated();
  ASSERT_TRUE(engine.submit({"huge", 2048, 0.0}).ok());  // 524288 B: over the whole budget
  ASSERT_TRUE(engine.submit({"waiter", 200, 0.0}).ok());  // 51200 B: waits on the blocker
  ASSERT_TRUE(wait_for("engine.kv_pressure_waits"));
  engine.cancel("waiter");
  const EngineResult res = engine.finish();

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.completed[0].prefix_hit_tokens, 960);
  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].request.id, "huge");
  EXPECT_EQ(res.shed[0].reason, "kv_budget");
  ASSERT_EQ(res.cancelled.size(), 1u);
  EXPECT_EQ(res.cancelled[0].base.request.id, "waiter");
  EXPECT_EQ(res.cancelled[0].reason, "cancel");
  EXPECT_EQ(opts.kv_arena->pages_allocated(), allocated);
  EXPECT_EQ(opts.kv_arena->pages_live(), opts.kv_arena->prefix_entries()) << "leaked pages";
}

TEST_F(EnginePrefix, FaultedFirstChunkReprobesAtItsRetry) {
  // One batch slot, every request's first chunk faults once. The second
  // request's first chunk runs (and faults) while the first backs off, so
  // it has synthesized its rows before anything is published; the first
  // then finishes and publishes. At its retry the second drops its rows,
  // probes again and attaches the first one's pages.
  EngineOptions opts = small_engine();
  opts.max_batch = 1;
  opts.decode_tokens = 0;
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/1};
  opts.max_retries = 1;
  opts.retry_backoff_seconds = 0.01;
  const std::vector<ContentSegment> sys = {{"sys", 1024}};
  ServingEngine engine(opts);
  const EngineResult res =
      engine.run_trace(std::vector<ServingRequest>{{"a", 1024, 0.0, sys}, {"b", 1024, 0.0, sys}});
  ASSERT_EQ(res.completed.size(), 2u);
  EXPECT_EQ(res.retries, 2);
  EXPECT_EQ(completion_of(res, "a")->prefix_hit_tokens, 0);
  EXPECT_EQ(completion_of(res, "b")->prefix_hit_tokens, 960);
}

TEST_F(EnginePrefix, PrefillingRequestBillsItsShareAndTheRowsPastItsHit) {
  // A prefilling request's KV demand is its attached pages' counted-once
  // share plus per-token bytes for the rows past its hit, before and after
  // those rows are synthesized into private pages. The blocker (960
  // attached tokens, 64 synthesized into one page) bills 245760 + 16384 B
  // while it backs off, so a 128-token request (32768 B) fits beside it
  // under a 300000 B budget.
  EngineOptions opts = small_engine();
  opts.kv_arena = std::make_shared<KvPageArena>(opts.head_dim, opts.kv_page_tokens);
  const std::vector<ContentSegment> sys = {{"sys", 1024}};
  {
    ServingEngine cold(opts);
    ASSERT_EQ(cold.run_trace(std::vector<ServingRequest>{{"cold", 1024, 0.0, sys}})
                  .completed.size(),
              1u);
  }
  opts.kv_budget_bytes = 300000.0;
  opts.kv_eviction = EvictionKind::kNone;
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x7ull, /*max_fires=*/1};
  opts.max_retries = 1;
  opts.retry_backoff_seconds = 0.2;
  ServingEngine engine(opts);
  engine.start();
  ASSERT_TRUE(engine.submit({"blocker", 1024, 0.0, sys}).ok());
  for (int i = 0; i < 500 && counter_value("sched.request_retries") < 1.0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(engine.submit({"fits", 128, 0.0}).ok());
  const EngineResult res = engine.finish();
  ASSERT_EQ(res.completed.size(), 2u);
  EXPECT_EQ(res.kv_pressure_waits, 0);
  EXPECT_DOUBLE_EQ(res.peak_kv_bytes, 262144.0 + 32768.0);
}

TEST(ServingEngineTest, SparseResidencyRetainsFewerPagesThanDense) {
  // Sample mode with kv_sparse_residency: after prefill the engine drops
  // whole pages no stripe or window slot touches, so the resident page
  // count lands below the dense full-page count and tracks the plan's
  // retained fraction.
  EngineOptions opts = small_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.chunk_tokens = 1024;
  opts.decode_tokens = 2;
  opts.kv_sparse_residency = true;
  opts.kv_prefix_cache = false;  // published pages would pin the index
  ServingEngine engine(opts);
  const std::vector<ServingRequest> trace = {{"sr0", 1024, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_GT(res.kv_pages_full, 0);
  EXPECT_LT(res.kv_pages_resident, res.kv_pages_full);
  EXPECT_GT(res.kv_residency_evictions, 0);
  const double page_ratio = static_cast<double>(res.kv_pages_resident) /
                            static_cast<double>(res.kv_pages_full);
  EXPECT_GT(page_ratio, 0.0);
  EXPECT_LT(page_ratio, 1.0);
}

TEST(ServingEngineTest, DenseFallbackOnLastChunkSkipsResidencyEviction) {
  // The first 256-token chunk's plan is accepted; every later chunk's plan
  // (mask.sk() > 256) loses its stripes, exhausts the ladder and runs on
  // the dense rung. The plan record follows the last chunk, so residency
  // eviction must not act on the first chunk's stripes, which span only
  // keys [0, 256).
  obs::Collector::global().reset();
  ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  EngineOptions opts = small_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.chunk_tokens = 256;
  opts.decode_tokens = 2;
  opts.kv_sparse_residency = true;
  opts.kv_prefix_cache = false;  // published pages would pin the index
  auto injector = std::make_shared<FaultInjector>(
      FaultSpec{FaultClass::kPlanEmptyStripes, 1.0, 0x9ull, /*max_fires=*/-1});
  opts.guard.plan_hook = [injector](SamplePlan& plan) {
    if (plan.mask.sk() > 256) injector->corrupt_plan(plan);
  };
  ServingEngine engine(opts);
  const std::vector<ServingRequest> trace = {{"r0", 1024, 0.0}};
  const EngineResult res = engine.run_trace(trace);
  const double fallbacks = counter_value("engine.dense_fallbacks");
  obs::set_enabled(false);
  obs::Collector::global().reset();

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_GE(fallbacks, 3.0);
  EXPECT_EQ(res.kv_residency_evictions, 0);
  EXPECT_GT(res.kv_pages_full, 0);
  EXPECT_EQ(res.kv_pages_resident, res.kv_pages_full);
}

TEST(ServingEngineTest, SampleModeServesCleanPlansWithoutEscalation) {
  EngineOptions opts = small_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.chunk_tokens = 256;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"c0", 256, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  const EngineCompletion& c = res.completed[0];
  EXPECT_GT(c.base.compute_seconds, 0.0);
  EXPECT_EQ(c.decoded_tokens, opts.decode_tokens);
}

}  // namespace
}  // namespace sattn
