// Global KV page arena: fixed-size pages, refcounts, and the prefix index.
//
// vLLM-style paged KV storage (PagedAttention; ROADMAP item 1): instead of
// one contiguous K/V slab per request, every KVCache maps its logical slots
// onto fixed-size pages drawn from a shared arena. Pages are refcounted, so
// requests with a common prompt prefix share the same physical pages, and
// the row-key prefix index turns that sharing into skipped prefill
// compute: a published page chain carries the cold run's attention outputs,
// so a warm request attaches the pages and starts prefill past the shared
// region.
//
// Sharing rules (docs/ARCHITECTURE.md, "Paged KV & prefix cache"):
//   * A page becomes IMMUTABLE when it is published to the prefix index;
//     published pages are always full. Caches never write shared pages —
//     appends only ever touch the private tail page, and compaction
//     (KVCache::keep_slots) rewrites surviving rows into fresh private
//     pages, releasing the shared ones. That rewrite IS the copy-on-write:
//     divergence after a shared prefix costs one page copy, never a lock on
//     the readers of the shared image.
//   * Every prompt row carries a 64-bit row key that determines its Q, K
//     and V rows (runtime/engine.h, prompt_row_keys). The chain hash for
//     page p is an XXH64 digest of the row keys of tokens [p*P, (p+1)*P)
//     chained with page p-1's hash, and an index entry stores its page's
//     keys: a lookup compares them exactly, so equal keys certify equal
//     K/V (and Q, which only influences the stored outputs). The fold is a
//     bijection in the previous chain value, so a hit on page p whose keys
//     match also pins the keys of every earlier page: a chain collision
//     can make a lookup miss, never attach a different prefix.
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
#include <span>
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
  // storing the page's row keys (page_tokens of them) and a copy of the
  // cold run's attention output rows (page_tokens x head_dim floats). The
  // index retains the page. First publisher wins: returns false (and
  // changes nothing) when the hash is already present.
  bool prefix_publish(std::uint64_t chain_hash, std::span<const std::uint64_t> row_keys,
                      Index page, const float* out_rows);

  // Probes the index. A hit needs the stored row keys to equal `row_keys`
  // (page_tokens of them) exactly; then the page is retained FOR THE
  // CALLER, the stored output rows are copied to `out_rows` unless it is
  // null, and the page's payload ref is returned. Returns id -1 on a miss.
  PageRef prefix_lookup(std::uint64_t chain_hash, std::span<const std::uint64_t> row_keys,
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
    std::vector<std::uint64_t> row_keys;
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

// Prefix chain hash. A page's digest is XXH64 over the row keys of its
// tokens, so it depends on nothing else. The chain folds the digests in
// page order, seeded with kPrefixChainSeed:
//   chain(p) = prefix_chain_fold(chain(p - 1), prefix_page_digest(keys of page p)),
// so a page's chain value commits to its whole prefix. The fold is a
// bijection in each argument followed by a full avalanche.
inline constexpr std::uint64_t kPrefixChainSeed = 0xcbf29ce484222325ull;
std::uint64_t prefix_page_digest(std::span<const std::uint64_t> page_keys);
std::uint64_t prefix_chain_fold(std::uint64_t prev, std::uint64_t digest);

}  // namespace sattn
