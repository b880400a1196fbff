// Global KV page arena: fixed-size pages, refcounts, and the prefix index.
//
// vLLM-style paged KV storage (PagedAttention; ROADMAP item 1): instead of
// one contiguous K/V slab per request, every KVCache maps its logical slots
// onto fixed-size pages drawn from a shared arena. Pages are refcounted, so
// requests with a common prompt prefix share the same physical pages, and
// the content-hash prefix index turns that sharing into skipped prefill
// compute: a published page chain carries the cold run's attention outputs,
// so a warm request attaches the pages, copies the outputs, and starts
// prefill past the shared region.
//
// Sharing rules (docs/ARCHITECTURE.md, "Paged KV & prefix cache"):
//   * A page becomes IMMUTABLE when it is published to the prefix index;
//     published pages are always full. Caches never write shared pages —
//     appends only ever touch the private tail page, and compaction
//     (KVCache::keep_slots) rewrites surviving rows into fresh private
//     pages, releasing the shared ones. That rewrite IS the copy-on-write:
//     divergence after a shared prefix costs one page copy, never a lock on
//     the readers of the shared image.
//   * The chain hash for page p covers the Q, K and V row bytes of tokens
//     [p*P, (p+1)*P) chained with page p-1's hash, so a hit certifies the
//     whole prefix, not one block. K/V are additionally verified by memcmp
//     against the stored page on lookup; Q (which only influences the
//     stored outputs) is trusted to the 64-bit chain hash.
//
// Thread safety: all arena mutations (alloc/retain/release/publish/lookup)
// take the arena mutex. Page payload pointers are stable for the arena's
// lifetime (deque storage, pages never move), so readers hold raw row
// pointers across sweeps without touching the arena; an immutable page's
// payload is never written again, so those reads are race-free by
// construction.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"

namespace sattn {

class KvPageArena {
 public:
  static constexpr Index kDefaultPageTokens = 64;

  // page_tokens must be a power of two (slot -> page is a shift/mask on the
  // kernels' read path).
  explicit KvPageArena(Index head_dim, Index page_tokens = kDefaultPageTokens);

  Index head_dim() const { return d_; }
  Index page_tokens() const { return page_tokens_; }
  Index page_shift() const { return shift_; }
  Index page_mask() const { return page_tokens_ - 1; }

  // K + V payload bytes of one page (the fp32 substrate, matching the
  // acct.* byte convention).
  double page_bytes() const {
    return 2.0 * static_cast<double>(page_tokens_) * static_cast<double>(d_) * sizeof(float);
  }

  // A page handle plus its payload row bases (page_tokens x head_dim floats
  // each). The pointers stay valid until the arena dies; they must only be
  // written while the page is private (refcount 1, not published).
  struct PageRef {
    Index id = -1;
    float* k = nullptr;
    float* v = nullptr;
  };

  // Allocates a private page (refcount 1), reusing the freelist when
  // possible.
  PageRef alloc();

  void retain(Index page);
  // Drops one reference; a page reaching zero returns to the freelist.
  void release(Index page);

  int refcount(Index page) const;
  bool is_published(Index page) const;
  // References held by caches (total refcount minus the prefix index's
  // hold) — the denominator for counted-once byte accounting.
  int owner_count(Index page) const;

  Index pages_live() const;          // pages currently referenced
  long long pages_allocated() const; // cumulative allocations
  long long pages_freed() const;     // cumulative returns to the freelist
  double bytes_live() const;         // pages_live() * page_bytes()

  // ---- Prefix index ----------------------------------------------------

  // Publishes `page` as the immutable shared image for `chain_hash`,
  // storing a copy of the cold run's attention output rows (page_tokens x
  // head_dim floats). The index retains the page. First publisher wins:
  // returns false (and changes nothing) when the hash is already present.
  bool prefix_publish(std::uint64_t chain_hash, Index page, const float* out_rows);

  // Probes the index. On a hit the stored K/V payload is verified against
  // the expected rows (page_tokens x head_dim floats each; memcmp), the
  // page is retained FOR THE CALLER, the stored output rows are copied to
  // `out_rows`, and the page's payload ref is returned. Returns id -1 on a
  // miss or a verification failure.
  PageRef prefix_lookup(std::uint64_t chain_hash, const float* k_expect, const float* v_expect,
                        float* out_rows);

  Index prefix_entries() const;
  // Bytes held exclusively by the index: the stored output-row copies plus
  // the payload of published pages no cache currently owns. Together with
  // the counted-once KVCache::bytes() shares, this makes
  // sum(cache bytes) + prefix_index_bytes() == bytes_live() + output copies.
  double prefix_index_bytes() const;

 private:
  struct Page {
    std::unique_ptr<float[]> k;
    std::unique_ptr<float[]> v;
    int refs = 0;
    bool published = false;
  };
  struct PrefixEntry {
    Index page = -1;
    std::vector<float> out_rows;
  };

  Index d_ = 0;
  Index page_tokens_ = 0;
  Index shift_ = 0;

  mutable std::mutex mu_;
  std::deque<Page> pages_;  // deque: payload addresses stable under growth
  std::vector<Index> free_;
  Index live_ = 0;
  long long allocs_ = 0;
  long long frees_ = 0;
  std::unordered_map<std::uint64_t, PrefixEntry> prefix_;
};

// Prefix chain hash. A page's digest is a 64-bit XXH64 word hash over the
// Q, K and V row bytes of its tokens [lo, hi) and depends on nothing else,
// so the digests of a prompt's pages can be computed in parallel. The chain
// folds them in page order, seeded with kPrefixChainSeed:
//   chain(p) = prefix_chain_fold(chain(p - 1), prefix_page_digest(page p)),
// so a page's chain value commits to its whole prefix. The fold is a
// bijection in each argument followed by a full avalanche. Q is trusted to
// this hash (see "Sharing rules"), so both steps stay full-strength 64-bit
// mixes. Identical declared content yields identical chains, which is what
// makes cross-request prefix hits sound.
inline constexpr std::uint64_t kPrefixChainSeed = 0xcbf29ce484222325ull;
std::uint64_t prefix_page_digest(const AttentionInput& in, Index lo, Index hi);
std::uint64_t prefix_chain_fold(std::uint64_t prev, std::uint64_t digest);
// prefix_chain_fold(prev, prefix_page_digest(in, lo, hi)).
std::uint64_t prefix_chain_hash(std::uint64_t prev, const AttentionInput& in, Index lo, Index hi);

}  // namespace sattn
