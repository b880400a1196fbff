// Block-granular sparse attention — the layout the paper's GPU kernel
// actually executes (Section 4.3: "an efficient adaptive structured sparse
// attention kernel by modifying FlashAttention").
//
// GPU kernels cannot skip individual cells; they skip whole Bq x Bk tiles.
// BlockSparseLayout rounds a StructuredMask UP to block granularity: a tile
// is active iff any of its cells is masked-in. The block kernel then visits
// only active tiles with the same online-softmax update as the dense flash
// kernel. Rounding up preserves (is a superset of) the mask's coverage, so
// CRA can only improve; the cost is the rounding overhead measured by
// `rounding_overhead()` — an explicit ablation between the cell-exact q-block
// kernel (sparse_flash_attention) and hardware-shaped block execution.
#pragma once

#include <vector>

#include "attention/attention_method.h"
#include "attention/masks.h"
#include "attention/microkernel.h"

namespace sattn {

class BlockSparseLayout {
 public:
  // Builds the active-tile set from a structured mask. block must be > 0.
  static BlockSparseLayout from_mask(const StructuredMask& mask, Index block = 64);

  Index sq() const { return sq_; }
  Index sk() const { return sk_; }
  Index block() const { return block_; }
  Index n_qblocks() const { return n_qblocks_; }
  Index n_kblocks() const { return n_kblocks_; }

  // Active key-block indices (ascending) for a query block.
  const std::vector<Index>& active_kblocks(Index qb) const {
    assert(qb >= 0 && qb < n_qblocks_);
    return active_[static_cast<std::size_t>(qb)];
  }

  // Fraction of causal cells covered by active tiles (>= mask density).
  double density() const;

  // Cells added by block rounding, as a fraction of causal cells:
  // density() - exact mask density.
  double rounding_overhead(const StructuredMask& mask) const;

  // Total number of active tiles.
  Index active_tiles() const;

 private:
  Index sq_ = 0, sk_ = 0, block_ = 64;
  Index n_qblocks_ = 0, n_kblocks_ = 0;
  std::vector<std::vector<Index>> active_;  // per query block
};

// Runs attention over exactly the active tiles (causally clipped). The
// softmax of each row covers every causal cell inside an active tile, i.e.
// the block-rounded superset of the original mask.
void block_sparse_attention(const AttentionInput& in, const BlockSparseLayout& layout,
                            Matrix& out);

// View form: q is sq contiguous rows of kv.d floats, keys/values come from
// the (flat or paged) view, so the block kernel can execute straight out of
// a KVCache's page table. The tensor overload forwards here with
// mk::KvView::of(in) — bit-identical by construction.
void block_sparse_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                            const BlockSparseLayout& layout, Matrix& out);

}  // namespace sattn
