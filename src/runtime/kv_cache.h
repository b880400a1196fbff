// Per-head KV cache for the decode phase, backed by paged storage.
//
// The paper evaluates SampleAttention at the prefill stage "while
// maintaining an uncompressed KV cache in the decode phase", and notes the
// method is orthogonal to KV-eviction work (H2O, StreamingLLM, FastGen).
// This cache is the substrate for demonstrating that composition: prefill
// fills it, decode reads it, and an EvictionPolicy (eviction.h) may compact
// it under a memory budget.
//
// Storage is a page table over a KvPageArena (runtime/kv_page.h): logical
// slot j lives in page j >> page_shift at row j & page_mask. Pages at the
// front of the table may be SHARED prefix pages attached from the arena's
// row-key prefix index (immutable, refcounted); appends only ever write the
// private tail page, and keep_slots rewrites survivors into fresh private
// pages — releasing whole shared/old pages back to the arena is what makes
// eviction page-granular and divergence copy-on-write. Kernels read the
// table zero-copy through view() (a paged mk::KvView), bit-identical to
// flat storage.
//
// Mutations take data-dependent input (positions, row payloads, slot lists)
// and return a checked sattn::Status instead of asserting: a non-monotone
// append or a malformed slot list is rejected with the cache unchanged,
// in release builds too (docs/ROBUSTNESS.md). Slot accessors stay
// assert-guarded — they are hot-path reads with caller-proven indices.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "attention/microkernel.h"
#include "core/status.h"
#include "core/tensor.h"
#include "runtime/kv_page.h"

namespace sattn {

class KVCache {
 public:
  // With no arena the cache creates a private one — existing call sites
  // keep working and pay only page-granular bookkeeping. Caches that should
  // share prefix pages must be constructed over the same arena.
  explicit KVCache(Index head_dim, std::shared_ptr<KvPageArena> arena = nullptr);
  ~KVCache();

  KVCache(const KVCache&) = delete;
  KVCache& operator=(const KVCache&) = delete;
  KVCache(KVCache&&) noexcept = default;  // source is left empty (vectors moved out)
  KVCache& operator=(KVCache&& other) noexcept;

  Index size() const { return static_cast<Index>(positions_.size()); }
  Index head_dim() const { return d_; }
  bool empty() const { return positions_.empty(); }

  const std::shared_ptr<KvPageArena>& arena() const { return arena_; }

  // Payload bytes currently held, page-granular and counted once under
  // sharing: each of this cache's pages contributes page_bytes() divided by
  // the number of caches holding it (the prefix index's own hold is
  // excluded from that denominator). Summing bytes() across all caches of
  // an arena therefore counts every shared page exactly once — the quantity
  // the serving engine's KV budget meters and eviction reclaims. Position
  // metadata is excluded: the budget models device KV capacity, not host
  // bookkeeping.
  double bytes() const;
  // The leading shared pages' part of bytes(): what the cache holds of the
  // prefix index, without its private pages.
  double shared_bytes() const;

  // Pages currently mapped by this cache's page table.
  Index pages() const { return static_cast<Index>(pages_.size()); }
  // Leading pages attached from the prefix index (immutable, shared).
  Index shared_pages() const { return shared_pages_; }

  // Appends one key/value row for the token at original position `pos`.
  // Positions must be strictly increasing (kFailedPrecondition) and the rows
  // must have head_dim entries (kInvalidArgument); on error nothing is
  // appended.
  Status append(Index pos, std::span<const float> k_row, std::span<const float> v_row);

  // Bulk-appends positions [lo, in.sk()) from a prefill input, where lo is
  // the current size — so a cache holding an attached prefix appends only
  // the suffix it actually computed. The cache must currently hold exactly
  // positions [0, size()) (true for the attach/append lifecycle; after
  // eviction the append positions would collide and the call is rejected).
  Status append_prefill(const AttentionInput& in);

  // Appends n rows at positions [size(), size() + n) into private pages
  // without writing them: the caller fills each row through k_row/v_row
  // before any read. Same dense-prefix precondition as append_prefill.
  Status extend(Index n);

  // Writable K and V rows of a slot in a private page (extend's rows).
  std::span<float> k_row(Index slot) { return private_row(k_ptrs_, slot); }
  std::span<float> v_row(Index slot) { return private_row(v_ptrs_, slot); }

  std::span<const float> k(Index slot) const {
    assert(slot >= 0 && slot < size());
    return {k_ptrs_[static_cast<std::size_t>(slot >> shift_)] +
                static_cast<std::size_t>(slot & mask_) * d_,
            static_cast<std::size_t>(d_)};
  }
  std::span<const float> v(Index slot) const {
    assert(slot >= 0 && slot < size());
    return {v_ptrs_[static_cast<std::size_t>(slot >> shift_)] +
                static_cast<std::size_t>(slot & mask_) * d_,
            static_cast<std::size_t>(d_)};
  }

  // Zero-copy paged view over the table: slot j of the view is slot j of
  // the cache. This is what routes decode and the ragged-sweep kernels
  // through the page table (attention/microkernel.h). Valid until the next
  // mutation of this cache.
  mk::KvView view() const;

  // Original token position held in a slot (eviction makes slots sparse in
  // position space).
  Index position(Index slot) const {
    assert(slot >= 0 && slot < size());
    return positions_[static_cast<std::size_t>(slot)];
  }

  // Slot currently holding the given original position, or -1.
  Index slot_of(Index pos) const;

  // Compacts the cache to exactly the given slots. The list must be strictly
  // ascending and in-range (kInvalidArgument otherwise; cache unchanged).
  // Everything else is discarded. Survivors are rewritten into fresh
  // private pages and every old page — shared prefix pages included — is
  // released to the arena, so eviction frees whole pages (and divergence
  // from a shared prefix is a page copy, never a write to the shared
  // image).
  Status keep_slots(std::span<const Index> sorted_slots);

  // ---- Prefix sharing (runtime/kv_page.h) -------------------------------
  //
  // A prompt is named by its row keys, one per token (row_keys[r] stands
  // for the Q, K and V rows of position r); the chain over them is a few
  // microseconds per 4K tokens, so every call below recomputes it.

  // Probes the arena's prefix index with the chain hashes of the prompt's
  // leading full pages and attaches every hit: the shared pages join the
  // page table, and their stored attention outputs are copied into the
  // matching rows of `out` (when non-null; must have >= the attached rows
  // and head_dim columns). The cache must be empty. Attachment stops at
  // the first miss and never exceeds max_tokens (rounded down to a page
  // boundary). Returns the number of tokens attached — the prefill compute
  // the caller can skip.
  Index try_attach_prefix(std::span<const std::uint64_t> row_keys, Index max_tokens, Matrix* out);

  // Publishes the leading full pages of this cache (which must hold
  // positions [0, size()) of the prompt named by row_keys) to the arena's
  // prefix index, making them immutable and shareable; out.row(r - out_lo)
  // is position r's attention output, so out need only cover the rows past
  // the attached pages. Pages already published (e.g. attached ones) are
  // skipped. Returns the number of pages newly published.
  Index publish_prefix(std::span<const std::uint64_t> row_keys, const Matrix& out,
                       Index out_lo = 0);

 private:
  void push_page(const KvPageArena::PageRef& ref);
  void release_all_pages();
  std::span<float> private_row(const std::vector<float*>& ptrs, Index slot) {
    assert(slot >= 0 && slot < size() && (slot >> shift_) >= shared_pages_);
    return {ptrs[static_cast<std::size_t>(slot >> shift_)] +
                static_cast<std::size_t>(slot & mask_) * d_,
            static_cast<std::size_t>(d_)};
  }

  Index d_ = 0;
  Index shift_ = 0;
  Index mask_ = 0;
  std::shared_ptr<KvPageArena> arena_;
  std::vector<Index> pages_;   // arena page ids, in slot order
  std::vector<float*> k_ptrs_; // per-page row bases (arena-stable)
  std::vector<float*> v_ptrs_;
  Index shared_pages_ = 0;     // leading immutable pages from the index
  std::vector<Index> positions_;
};

}  // namespace sattn
