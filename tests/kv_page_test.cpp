// Tests for the paged KV arena (runtime/kv_page.h) and the paged KVCache
// (runtime/kv_cache.h): refcount/freelist correctness, page-granular
// eviction, copy-on-write divergence after a shared prefix, counted-once
// byte accounting, the row-key prefix index and its chain hash, a
// seeded fuzz over page sizes and prefix splits, and — the load-bearing
// contract — bit-identical kernel reads through the page table for the
// dense, sparse and block-sparse kernels plus decode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "attention/block_sparse.h"
#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "runtime/chunked_prefill.h"
#include "runtime/eviction.h"
#include "runtime/kv_cache.h"
#include "runtime/kv_page.h"
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

// Row keys for random_input(n, n, d, seed)'s rows: one random key per row,
// so two prompts share a key exactly where a test copies rows across.
std::vector<std::uint64_t> keys_for(Index n, std::uint64_t seed) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  Rng rng(seed ^ 0x6b657973ull);
  for (std::uint64_t& k : keys) k = rng.next_u64();
  return keys;
}

// Copies rows [0, n) of a's Q, K, V and keys into b's.
void share_rows(const AttentionInput& a, const std::vector<std::uint64_t>& a_keys, Index n,
                AttentionInput& b, std::vector<std::uint64_t>& b_keys) {
  for (Index r = 0; r < n; ++r) {
    std::copy(a.q.row(r).begin(), a.q.row(r).end(), b.q.row(r).begin());
    std::copy(a.k.row(r).begin(), a.k.row(r).end(), b.k.row(r).begin());
    std::copy(a.v.row(r).begin(), a.v.row(r).end(), b.v.row(r).begin());
    b_keys[static_cast<std::size_t>(r)] = a_keys[static_cast<std::size_t>(r)];
  }
}

void expect_bit_identical(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (Index r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.row(r).data(), b.row(r).data(), a.row(r).size() * sizeof(float)), 0)
        << what << " row " << r;
  }
}

// ---------------------------------------------------------------------------
// Arena mechanics.

TEST(KvPageArena, AllocReleaseRefcountAndFreelistReuse) {
  KvPageArena arena(/*head_dim=*/16, /*page_tokens=*/64);
  EXPECT_EQ(arena.page_tokens(), 64);
  EXPECT_EQ(arena.page_mask(), 63);
  EXPECT_EQ(1 << arena.page_shift(), 64);

  const auto a = arena.alloc();
  const auto b = arena.alloc();
  ASSERT_GE(a.id, 0);
  ASSERT_GE(b.id, 0);
  ASSERT_NE(a.id, b.id);
  ASSERT_NE(a.k, nullptr);
  ASSERT_NE(a.v, nullptr);
  EXPECT_EQ(arena.pages_live(), 2);
  EXPECT_EQ(arena.pages_allocated(), 2);
  EXPECT_EQ(arena.refcount(a.id), 1);

  arena.retain(a.id);
  EXPECT_EQ(arena.refcount(a.id), 2);
  arena.release(a.id);
  EXPECT_EQ(arena.refcount(a.id), 1);
  EXPECT_EQ(arena.pages_live(), 2) << "still referenced";

  arena.release(a.id);
  EXPECT_EQ(arena.pages_live(), 1);
  EXPECT_EQ(arena.pages_freed(), 1);

  // The freed page comes back off the freelist, not a fresh allocation.
  const auto c = arena.alloc();
  EXPECT_EQ(c.id, a.id);
  EXPECT_EQ(arena.pages_live(), 2);
  arena.release(c.id);
  arena.release(b.id);
  EXPECT_EQ(arena.pages_live(), 0);
  EXPECT_EQ(arena.bytes_live(), 0.0);
  EXPECT_EQ(arena.pages_allocated() - arena.pages_freed(), 0);
}

TEST(KvPageArena, PageBytesMatchesAcctConvention) {
  KvPageArena arena(/*head_dim=*/32, /*page_tokens=*/64);
  // K + V, fp32: 2 * 64 * 32 * 4.
  EXPECT_DOUBLE_EQ(arena.page_bytes(), 2.0 * 64 * 32 * 4);
}

TEST(KvPageArena, ConcurrentAllocReleaseIsClean) {
  // Exercised under TSan by scripts/check_sanitizers.sh: concurrent
  // alloc/retain/release churn must not race or double-free.
  KvPageArena arena(/*head_dim=*/8, /*page_tokens=*/16);
  constexpr int kThreads = 4, kIters = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&arena] {
      std::vector<Index> mine;
      for (int i = 0; i < kIters; ++i) {
        const auto ref = arena.alloc();
        // Private page: writing the payload is allowed and must not race
        // with other threads' pages.
        ref.k[0] = 1.0f;
        ref.v[0] = 2.0f;
        mine.push_back(ref.id);
        if (mine.size() > 8) {
          arena.release(mine.front());
          mine.erase(mine.begin());
        }
      }
      for (const Index id : mine) arena.release(id);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(arena.pages_live(), 0);
  EXPECT_EQ(arena.pages_allocated() - arena.pages_freed(), 0);
}

// ---------------------------------------------------------------------------
// Paged cache: reads, page math, eviction at page granularity.

TEST(PagedKvCache, ReadsThroughPageTableMatchAppendedRows) {
  const Index d = 16;
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  const AttentionInput in = random_input(200, 200, d, 0xa1ull);
  KVCache cache(d, arena);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  ASSERT_EQ(cache.size(), 200);
  // 200 tokens over 64-token pages -> 4 pages, last one partial.
  EXPECT_EQ(cache.pages(), 4);
  EXPECT_EQ(arena->pages_live(), 4);
  for (Index j = 0; j < 200; ++j) {
    ASSERT_EQ(std::memcmp(cache.k(j).data(), in.k.row(j).data(), d * sizeof(float)), 0) << j;
    ASSERT_EQ(std::memcmp(cache.v(j).data(), in.v.row(j).data(), d * sizeof(float)), 0) << j;
  }
  const mk::KvView view = cache.view();
  ASSERT_TRUE(view.paged());
  for (Index j = 0; j < 200; ++j) {
    ASSERT_EQ(view.k_row(j), cache.k(j).data());
    ASSERT_EQ(view.v_row(j), cache.v(j).data());
  }
}

TEST(PagedKvCache, KeepSlotsRewritesSurvivorsAndFreesWholePages) {
  const Index d = 16;
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  const AttentionInput in = random_input(256, 256, d, 0xb2ull);
  KVCache cache(d, arena);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  ASSERT_EQ(cache.pages(), 4);

  // Keep the first 8 sinks and the last 56 recents: 64 survivors fit one
  // page, so three whole pages go back to the freelist.
  std::vector<Index> keep;
  for (Index s = 0; s < 8; ++s) keep.push_back(s);
  for (Index s = 200; s < 256; ++s) keep.push_back(s);
  ASSERT_TRUE(cache.keep_slots(keep).ok());
  ASSERT_EQ(cache.size(), 64);
  EXPECT_EQ(cache.pages(), 1);
  EXPECT_EQ(arena->pages_live(), 1);

  for (Index s = 0; s < 64; ++s) {
    const Index pos = cache.position(s);
    EXPECT_EQ(pos, keep[static_cast<std::size_t>(s)]);
    ASSERT_EQ(std::memcmp(cache.k(s).data(), in.k.row(pos).data(), d * sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(cache.v(s).data(), in.v.row(pos).data(), d * sizeof(float)), 0);
  }
}

TEST(PagedKvCache, MaskResidencyKeepsStripesAndWindow) {
  const Index d = 16;
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  const AttentionInput in = random_input(256, 256, d, 0xc3ull);
  KVCache cache(d, arena);
  ASSERT_TRUE(cache.append_prefill(in).ok());

  const std::vector<Index> stripes = {0, 1, 17, 130};
  const Index dropped = apply_mask_residency(cache, stripes, /*window=*/64);
  EXPECT_EQ(dropped, 256 - 64 - 4);
  ASSERT_EQ(cache.size(), 68);
  // Stripe tokens then the tail window, in position order.
  EXPECT_EQ(cache.position(0), 0);
  EXPECT_EQ(cache.position(2), 17);
  EXPECT_EQ(cache.position(3), 130);
  EXPECT_EQ(cache.position(4), 192);
  EXPECT_EQ(cache.position(67), 255);
  // 68 survivors -> 2 pages instead of 4: residency is page-granular.
  EXPECT_EQ(cache.pages(), 2);
  EXPECT_EQ(arena->pages_live(), 2);
  // A second pass with the same structure is a no-op (slots already kept).
  EXPECT_EQ(apply_mask_residency(cache, stripes, /*window=*/68), 0);
}

// ---------------------------------------------------------------------------
// Kernel parity: every kernel reads the page table bit-identically to flat
// storage.

TEST(PagedKvCache, AllSweepRoutesBitIdenticalThroughPageTable) {
  const Index s = 256, d = 32;
  const AttentionInput in = random_input(s, s, d, 0xd4ull);
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  KVCache cache(d, arena);
  ASSERT_TRUE(cache.append_prefill(in).ok());
  const mk::KvView paged = cache.view();
  ASSERT_TRUE(paged.paged());

  // Dense route: flash_rows over the paged view vs the flat tensor view.
  {
    Matrix ref(s, d), got(s, d);
    flash_rows(in.q.data(), s, mk::KvView::of(in), s, 0, ref.data(), d);
    flash_rows(in.q.data(), s, paged, s, 0, got.data(), d);
    expect_bit_identical(ref, got, "dense route");
  }

  // Sparse route: the view-form kernel over the page table vs the tensor
  // form over flat storage.
  SampleAttentionConfig cfg;
  const SamplePlan plan = plan_sample_attention(in, cfg);
  {
    Matrix ref, got(s, d);
    sparse_flash_attention(in, plan.mask, ref);
    sparse_flash_attention(in.q.data(), s, paged, s, plan.mask, got.data());
    expect_bit_identical(ref, got, "sparse route");
  }

  // Block-sparse route.
  {
    const BlockSparseLayout layout = BlockSparseLayout::from_mask(plan.mask, 64);
    Matrix ref, got;
    block_sparse_attention(in, layout, ref);
    block_sparse_attention(in.q.data(), s, paged, s, layout, got);
    expect_bit_identical(ref, got, "block-sparse route");
  }

  // Decode: a single query row against the full cache.
  {
    const Matrix q = random_input(1, 1, d, 0xd5ull).q;
    std::vector<float> ref(static_cast<std::size_t>(d)), got(ref.size());
    flash_rows(q.data(), 1, mk::KvView::of(in), s, s - 1, ref.data(), d);
    flash_rows(q.data(), 1, paged, s, s - 1, got.data(), d);
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0);
  }
}

// ---------------------------------------------------------------------------
// Prefix index: publish, attach, COW divergence, counted-once bytes.

TEST(PrefixCache, ChunkedPrefillWarmRunHitsAndIsBitIdentical) {
  const Index s = 256, d = 16, chunk = 64;
  const AttentionInput in = random_input(s, s, d, 0xe5ull);
  const std::vector<std::uint64_t> keys = keys_for(s, 0xe5ull);
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);

  // Without row keys nothing is shared: no probe, no publish.
  {
    KVCache anon(d, arena);
    ASSERT_TRUE(chunked_flash_prefill(in, chunk, &anon).ok());
    EXPECT_EQ(arena->prefix_entries(), 0);
  }

  // Cold run computes everything and publishes the prompt's pages.
  KVCache cold(d, arena);
  const auto cold_res = chunked_flash_prefill(in, chunk, &cold, keys);
  ASSERT_TRUE(cold_res.ok());
  EXPECT_EQ(cold_res->prefix_hit_tokens, 0);
  EXPECT_EQ(cold_res->chunks, 4);
  EXPECT_EQ(arena->prefix_entries(), 4);
  EXPECT_EQ(cold.shared_pages(), 4) << "publisher's pages become shared";

  // Warm run over the identical prompt: every page hits, zero chunks
  // compute, outputs are bit-identical, and the K/V pages are physically
  // shared (same arena page ids).
  KVCache warm(d, arena);
  const auto warm_res = chunked_flash_prefill(in, chunk, &warm, keys);
  ASSERT_TRUE(warm_res.ok());
  EXPECT_EQ(warm_res->prefix_hit_tokens, s);
  EXPECT_EQ(warm_res->chunks, 0);
  expect_bit_identical(cold_res->out, warm_res->out, "warm prefill output");
  ASSERT_EQ(warm.size(), s);
  EXPECT_EQ(warm.shared_pages(), 4);
  for (Index j = 0; j < s; ++j) {
    ASSERT_EQ(warm.k(j).data(), cold.k(j).data()) << "page not shared at slot " << j;
  }
  // No new payload pages were materialized for the warm run.
  EXPECT_EQ(arena->pages_live(), 4);

  // A prompt sharing only the first two pages attaches exactly those.
  AttentionInput half = random_input(s, s, d, 0xe6ull);
  std::vector<std::uint64_t> half_keys = keys_for(s, 0xe6ull);
  share_rows(in, keys, 128, half, half_keys);
  KVCache part(d, arena);
  const auto part_res = chunked_flash_prefill(half, chunk, &part, half_keys);
  ASSERT_TRUE(part_res.ok());
  EXPECT_EQ(part_res->prefix_hit_tokens, 128);
  EXPECT_EQ(part_res->chunks, 2);
  // And its shared rows are bit-identical to a from-scratch reference.
  Matrix ref;
  flash_attention(half, ref);
  expect_bit_identical(ref, part_res->out, "partial-hit output");
}

TEST(PrefixCache, CowDivergenceAfterSharedPrefixLeavesPublisherIntact) {
  const Index s = 128, d = 16;
  const AttentionInput in = random_input(s, s, d, 0xf7ull);
  const std::vector<std::uint64_t> keys = keys_for(s, 0xf7ull);
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);

  KVCache cold(d, arena);
  ASSERT_TRUE(chunked_flash_prefill(in, 64, &cold, keys).ok());
  KVCache warm(d, arena);
  ASSERT_TRUE(chunked_flash_prefill(in, 64, &warm, keys).ok());
  ASSERT_EQ(warm.shared_pages(), 2);
  const float cold_first = cold.k(0)[0];

  // Divergence: the warm cache compacts (the engine's eviction rung). The
  // rewrite lands in fresh private pages; the shared images the publisher
  // (and the index) hold are untouched.
  std::vector<Index> keep;
  for (Index j = 32; j < 96; ++j) keep.push_back(j);
  ASSERT_TRUE(warm.keep_slots(keep).ok());
  EXPECT_EQ(warm.shared_pages(), 0);
  ASSERT_EQ(warm.size(), 64);
  for (Index j = 0; j < 64; ++j) {
    ASSERT_EQ(std::memcmp(warm.k(j).data(), in.k.row(j + 32).data(), d * sizeof(float)), 0);
    ASSERT_NE(warm.k(j).data(), cold.k(j + 32).data()) << "must be a private copy";
  }
  EXPECT_EQ(cold.k(0)[0], cold_first);
  EXPECT_EQ(cold.shared_pages(), 2);

  // A third request still hits the intact published chain.
  KVCache again(d, arena);
  Matrix out(s, d);
  EXPECT_EQ(again.try_attach_prefix(keys, s, &out), s);
}

TEST(PrefixCache, BytesCountedOnceAcrossSharers) {
  const Index s = 128, d = 16;
  const AttentionInput in = random_input(s, s, d, 0x1a8ull);
  const std::vector<std::uint64_t> keys = keys_for(s, 0x1a8ull);
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  const double page_bytes = arena->page_bytes();

  KVCache a(d, arena);
  ASSERT_TRUE(chunked_flash_prefill(in, 64, &a, keys).ok());
  // Sole owner (the index's hold is excluded): full price for 2 pages.
  EXPECT_DOUBLE_EQ(a.bytes(), 2.0 * page_bytes);

  KVCache b(d, arena);
  ASSERT_TRUE(chunked_flash_prefill(in, 64, &b, keys).ok());
  // Two owners: each cache bills half, the sum counts every page once.
  EXPECT_DOUBLE_EQ(a.bytes(), page_bytes);
  EXPECT_DOUBLE_EQ(b.bytes(), page_bytes);
  EXPECT_DOUBLE_EQ(a.bytes() + b.bytes(), arena->bytes_live());

  // Partial last page still bills a whole page: accounting is page-granular.
  KVCache c(d, arena);
  const AttentionInput odd = random_input(65, 65, d, 0x1a9ull);
  ASSERT_TRUE(c.append_prefill(odd).ok());
  EXPECT_DOUBLE_EQ(c.bytes(), 2.0 * page_bytes);
}

TEST(PrefixCache, ReleaseOnDestructionLeavesOnlyIndexHeldPages) {
  const Index s = 192, d = 16;
  const AttentionInput in = random_input(s, s, d, 0x2b9ull);
  const std::vector<std::uint64_t> keys = keys_for(s, 0x2b9ull);
  auto arena = std::make_shared<KvPageArena>(d, /*page_tokens=*/64);
  {
    KVCache a(d, arena);
    ASSERT_TRUE(chunked_flash_prefill(in, 64, &a, keys).ok());
    KVCache b(d, arena);
    ASSERT_TRUE(chunked_flash_prefill(in, 64, &b, keys).ok());
    EXPECT_EQ(arena->pages_live(), 3);
  }
  // Caches died; the published images stay resident for future requests —
  // exactly one page per index entry, nothing else.
  EXPECT_EQ(arena->pages_live(), arena->prefix_entries());
  EXPECT_EQ(arena->prefix_entries(), 3);
  EXPECT_EQ(arena->pages_allocated() - arena->pages_freed(), arena->pages_live());
  EXPECT_GT(arena->prefix_index_bytes(), 0.0);

  // And they are still attachable.
  KVCache late(d, arena);
  Matrix out(s, d);
  EXPECT_EQ(late.try_attach_prefix(keys, s, &out), s);
}

TEST(PrefixCache, ChainContinuedPastAttachedPagesEqualsTheRehashedChain) {
  // A warm request that attached a prefix publishes only the pages past
  // it, each under the chain a from-scratch fold over its row keys gives.
  const Index s = 256, d = 16, P = 64;
  const AttentionInput warm_in = random_input(s, s, d, 0x4d1ull);
  const std::vector<std::uint64_t> warm_keys = keys_for(s, 0x4d1ull);
  AttentionInput cold_in = random_input(128, 128, d, 0x4d2ull);
  std::vector<std::uint64_t> cold_keys = keys_for(128, 0x4d2ull);
  share_rows(warm_in, warm_keys, 128, cold_in, cold_keys);  // cold shares two pages
  auto arena = std::make_shared<KvPageArena>(d, P);

  // A warm request probes before anything is published: a miss.
  KVCache warm(d, arena);
  Matrix warm_out(s, d);
  ASSERT_EQ(warm.try_attach_prefix(warm_keys, s, &warm_out), 0);

  // 1. A cold request publishes its two pages.
  KVCache cold(d, arena);
  ASSERT_TRUE(chunked_flash_prefill(cold_in, 64, &cold, cold_keys).ok());
  ASSERT_EQ(arena->prefix_entries(), 2);

  // 2. The warm request re-probes (as the engine does when it schedules a
  //    first chunk) and attaches them, computes the rest of its prompt, and
  //    publishes only its own two pages, from outputs that start past the
  //    attached rows.
  ASSERT_EQ(warm.try_attach_prefix(warm_keys, s, &warm_out), 128);
  EXPECT_EQ(warm.k(0).data(), cold.k(0).data());
  Matrix full;
  flash_attention(warm_in, full);
  std::copy(full.row(128).data(), full.data() + s * d, warm_out.row(128).data());
  Matrix suffix_out(s - 128, d);
  std::copy(full.row(128).data(), full.data() + s * d, suffix_out.data());
  ASSERT_TRUE(warm.append_prefill(warm_in).ok());
  EXPECT_EQ(warm.publish_prefix(warm_keys, suffix_out, 128), 2);
  EXPECT_EQ(arena->prefix_entries(), 4);
  EXPECT_EQ(warm.shared_pages(), 4);
  EXPECT_EQ(warm.publish_prefix(warm_keys, warm_out), 0) << "no page is published twice";
  EXPECT_EQ(cold.publish_prefix(cold_keys, Matrix(128, d)), 0);
  EXPECT_EQ(arena->prefix_entries(), 4);

  // The index holds the from-scratch chain of warm's prompt, each link
  // backed by a distinct page: cold's two, then warm's own two.
  std::uint64_t chain = kPrefixChainSeed;
  std::vector<Index> ids;
  std::vector<float> rows(static_cast<std::size_t>(P * d));
  for (Index pi = 0; pi < 4; ++pi) {
    const auto page_keys = std::span(warm_keys).subspan(static_cast<std::size_t>(pi * P), P);
    chain = prefix_chain_fold(chain, prefix_page_digest(page_keys));
    const KvPageArena::PageRef ref = arena->prefix_lookup(chain, page_keys, rows.data());
    ASSERT_GE(ref.id, 0) << "page " << pi;
    arena->release(ref.id);
    ids.push_back(ref.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  // 3. A third request attaches warm's whole, longer chain, bit-identical.
  KVCache third(d, arena);
  Matrix out(s, d);
  EXPECT_EQ(third.try_attach_prefix(warm_keys, s, &out), s);
  expect_bit_identical(warm_out, out, "third request's attached outputs");
  for (Index j = 0; j < s; ++j) ASSERT_EQ(third.k(j).data(), warm.k(j).data()) << "slot " << j;
}

TEST(PrefixCache, LookupRejectsHashCollisionWithDifferentPayload) {
  // A chain-hash hit whose stored row keys differ from the request's must
  // be rejected (exact key comparison), not silently attached: the keys,
  // not the 64-bit chain, decide which rows a page holds.
  const Index d = 8, P = 16;
  auto arena = std::make_shared<KvPageArena>(d, P);
  const AttentionInput in = random_input(P, P, d, 0x3c1ull);
  const std::vector<std::uint64_t> keys = keys_for(P, 0x3c1ull);
  KVCache pub(d, arena);
  ASSERT_TRUE(pub.append_prefill(in).ok());
  Matrix out(P, d);
  Rng rng(0x3c2ull);
  for (Index r = 0; r < P; ++r)
    for (float& x : out.row(r)) x = static_cast<float>(rng.uniform());
  ASSERT_EQ(pub.publish_prefix(keys, out), 1);

  // Forge the same chain hash with one different key via direct lookup.
  const std::uint64_t chain = prefix_chain_fold(kPrefixChainSeed, prefix_page_digest(keys));
  std::vector<float> out_rows(static_cast<std::size_t>(P * d));
  for (const Index r : {Index{0}, P / 2, P - 1}) {
    std::vector<std::uint64_t> wrong = keys;
    wrong[static_cast<std::size_t>(r)] ^= 1;
    EXPECT_LT(arena->prefix_lookup(chain, wrong, out_rows.data()).id, 0) << "row " << r;
  }
  // The publisher's own keys still hit, outputs and all.
  const KvPageArena::PageRef ref = arena->prefix_lookup(chain, keys, out_rows.data());
  ASSERT_GE(ref.id, 0);
  arena->release(ref.id);
  EXPECT_EQ(std::memcmp(out_rows.data(), out.data(), out_rows.size() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Chain hash: per-page digests of row keys folded in page order.

// Serial chain of a prompt's full pages.
std::vector<std::uint64_t> serial_chain(std::span<const std::uint64_t> keys, Index P) {
  std::vector<std::uint64_t> chain;
  std::uint64_t h = kPrefixChainSeed;
  for (std::size_t lo = 0; lo + static_cast<std::size_t>(P) <= keys.size(); lo += P) {
    h = prefix_chain_fold(h, prefix_page_digest(keys.subspan(lo, static_cast<std::size_t>(P))));
    chain.push_back(h);
  }
  return chain;
}

TEST(PrefixChain, OneBitFlipChangesItsPageAndEveryLaterChainOnly) {
  // A flipped bit in any row key of page 2 changes page 2's chain value and
  // every later one, and leaves pages 0-1 alone. Pages of 1 and 2 keys (8
  // and 16 bytes) go through the hash's tail path; 4, 16 and 64 keys fill
  // its 32-byte stripes.
  constexpr Index kPages = 5, kTarget = 2;
  for (const Index P : {Index{1}, Index{2}, Index{4}, Index{16}, Index{64}}) {
    const std::vector<std::uint64_t> keys = keys_for(kPages * P, 0x5e1ull + P);
    const std::vector<std::uint64_t> base = serial_chain(keys, P);
    ASSERT_EQ(static_cast<Index>(base.size()), kPages);
    for (const Index row : {kTarget * P, kTarget * P + P / 2, kTarget * P + P - 1}) {
      for (const int bit : {0, 31, 63}) {
        std::vector<std::uint64_t> flipped = keys;
        flipped[static_cast<std::size_t>(row)] ^= std::uint64_t{1} << bit;
        const std::vector<std::uint64_t> got = serial_chain(flipped, P);
        const auto where = ::testing::Message() << "P " << P << " row " << row << " bit " << bit;
        for (Index p = 0; p < kPages; ++p) {
          if (p < kTarget) {
            EXPECT_EQ(got[p], base[p]) << where << " page " << p;
          } else {
            EXPECT_NE(got[p], base[p]) << where << " page " << p;
          }
          // A digest reads only its own page.
          const auto page = [&](const std::vector<std::uint64_t>& k) {
            return prefix_page_digest(std::span(k).subspan(static_cast<std::size_t>(p * P), P));
          };
          EXPECT_EQ(page(flipped) == page(keys), p != kTarget) << where << " page " << p;
        }
      }
    }
  }
}

TEST(PrefixChain, AttachAndPublishWalkTheSerialFold) {
  // The index is keyed by the serial fold: a publish stores every full page
  // under it and a lookup by it finds each page, including prompts that end
  // in a partial page (never published).
  const Index d = 4, P = 64;
  for (const Index s : {Index{64}, Index{65}, Index{1000}, Index{4096 + 17}}) {
    const std::vector<std::uint64_t> keys = keys_for(s, 0x6a1ull + s);
    const std::vector<std::uint64_t> serial = serial_chain(keys, P);
    ASSERT_EQ(static_cast<Index>(serial.size()), s / P);
    auto arena = std::make_shared<KvPageArena>(d, P);
    KVCache pub(d, arena);
    ASSERT_TRUE(pub.extend(s).ok());
    EXPECT_EQ(pub.publish_prefix(keys, Matrix(s, d)), s / P) << "s " << s;
    for (Index p = 0; p < s / P; ++p) {
      const auto page_keys = std::span(keys).subspan(static_cast<std::size_t>(p * P), P);
      const KvPageArena::PageRef ref = arena->prefix_lookup(serial[p], page_keys, nullptr);
      ASSERT_GE(ref.id, 0) << "s " << s << " page " << p;
      arena->release(ref.id);
    }
    KVCache warm(d, arena);
    EXPECT_EQ(warm.try_attach_prefix(keys, s, nullptr), s / P * P) << "s " << s;
  }
}

// ---------------------------------------------------------------------------
// Seeded fuzz: random page sizes and prefix splits.

TEST(PrefixCacheFuzz, RandomPageSizesAndPrefixSplitsAttachBitIdentical) {
  // Each case draws a power-of-two page size P in [1, 128], a cold prompt A
  // and a warm prompt B whose first `split` rows are A's. A's chunked
  // prefill publishes its full pages; B's attaches exactly the full pages
  // inside the shared prefix. Attached outputs are A's outputs bit for
  // bit, B's computed rows equal one flash call over them, K/V read
  // through B's page table equal its flat rows, and once both caches die
  // only the index's pages stay live.
  Rng draw(0xf0221ull);
  for (int c = 0; c < 32; ++c) {
    const Index P = Index{1} << draw.uniform_index(8);
    const Index d = 8;
    const Index len_a = 1 + draw.uniform_index(600);
    const Index split = draw.uniform_index(len_a + 1);
    // One case in four is all shared prefix: B is a leading part of A.
    const Index tail = draw.uniform_index(4) == 0 ? 0 : draw.uniform_index(200);
    const Index len_b = std::max<Index>(1, split + tail);
    const Index chunk = 4 * (1 + draw.uniform_index(32));
    const auto where = ::testing::Message() << "case " << c << " P " << P << " A " << len_a
                                            << " split " << split << " B " << len_b
                                            << " chunk " << chunk;
    const AttentionInput a = random_input(len_a, len_a, d, 0xa000ull + c);
    const std::vector<std::uint64_t> a_keys = keys_for(len_a, 0xa000ull + c);
    AttentionInput b = random_input(len_b, len_b, d, 0xb000ull + c);
    std::vector<std::uint64_t> b_keys = keys_for(len_b, 0xb000ull + c);
    share_rows(a, a_keys, std::min(split, len_b), b, b_keys);
    auto arena = std::make_shared<KvPageArena>(d, P);
    {
      KVCache cold(d, arena);
      const auto ares = chunked_flash_prefill(a, chunk, &cold, a_keys);
      ASSERT_TRUE(ares.ok()) << where;
      EXPECT_EQ(ares->prefix_hit_tokens, 0) << where;
      EXPECT_EQ(arena->prefix_entries(), len_a / P) << where;

      KVCache warm(d, arena);
      const auto bres = chunked_flash_prefill(b, chunk, &warm, b_keys);
      ASSERT_TRUE(bres.ok()) << where;
      const Index hit = std::min(split, len_b) / P * P;
      ASSERT_EQ(bres->prefix_hit_tokens, hit) << where;
      EXPECT_EQ(warm.shared_pages(), len_b / P) << where << ": attached + published";
      for (Index r = 0; r < hit; ++r) {
        ASSERT_EQ(std::memcmp(bres->out.row(r).data(), ares->out.row(r).data(), d * sizeof(float)),
                  0)
            << where << " attached row " << r;
        ASSERT_EQ(warm.k(r).data(), cold.k(r).data()) << where << " slot " << r;
      }
      // Rows past the hit are one flash call over the rest of the prompt
      // (chunks are multiples of 4 rows, so each keeps its 4-row group),
      // and A's rows, which B attached, are one-shot flash from row 0.
      {
        Matrix ref_a;
        flash_attention(a, ref_a);
        expect_bit_identical(ref_a, ares->out, "cold prompt vs one-shot flash");
        Matrix ref_b(len_b, d), got_b(len_b, d);
        const std::size_t skip = static_cast<std::size_t>(hit * d);
        flash_attention(b.q.data() + skip, len_b - hit, mk::KvView::of(b), len_b,
                        ref_b.data() + skip);
        std::copy(bres->out.data() + skip, bres->out.data() + len_b * d, got_b.data() + skip);
        expect_bit_identical(ref_b, got_b, "warm prompt's computed rows vs one flash call");
      }

      // Flat-vs-paged parity over B's page table: every row's prefill and a
      // decode row against the whole cache.
      ASSERT_EQ(warm.size(), len_b) << where;
      Matrix flat(len_b, d), paged(len_b, d);
      flash_rows(b.q.data(), len_b, mk::KvView::of(b), len_b, 0, flat.data(), d);
      flash_rows(b.q.data(), len_b, warm.view(), len_b, 0, paged.data(), d);
      expect_bit_identical(flat, paged, "flat vs paged");

      // Live pages: A's, plus B's pages past the attached prefix.
      const Index pages_a = (len_a + P - 1) / P, pages_b = (len_b + P - 1) / P;
      EXPECT_EQ(arena->pages_live(), pages_a + pages_b - hit / P) << where;
    }
    EXPECT_EQ(arena->pages_live(), arena->prefix_entries()) << where << ": leaked pages";
    EXPECT_EQ(arena->pages_allocated() - arena->pages_freed(), arena->pages_live()) << where;
  }
}

}  // namespace
}  // namespace sattn
