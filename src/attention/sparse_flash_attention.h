// Adaptive structured sparse attention kernel (Section 4.3).
//
// This is the CPU analogue of the paper's modified-FlashAttention kernel:
// exactly the same online-softmax update as flash_attention.cpp, but each
// query row visits only the key runs admitted by a StructuredMask — the
// local window and diagonal bands, the run-compressed column stripes and any
// extra blocks (BigBird), as one disjoint union (StructuredMask::row_runs).
// Like the paper's kernel it loads each kept K/V row once per query block:
// 32-row tiles run in parallel as groups of mk::kQRows rows; the keys every
// row of a group keeps go through the register-blocked mk::absorb_key_runs,
// and only the few edge keys that some rows keep (ragged window and causal
// edges) through the single-row path. Work and memory traffic are therefore
// proportional to the mask density instead of Sk, which is where the
// paper's wall-clock speedup comes from.
#pragma once

#include <functional>
#include <string>

#include "attention/attention_method.h"
#include "attention/masks.h"
#include "attention/microkernel.h"
#include "core/tensor.h"

namespace sattn {

// out is resized to [Sq x d]. The mask's (sq, sk) must match the input.
// Softmax is computed over exactly the masked-in keys of each row, each
// kept cell once however the mask's components overlap; a row whose mask is
// empty (cannot happen with window >= 1) produces zeros. A row's output
// depends only on the mask and its position in its 4-row group and 32-row
// tile, never on the thread pool.
void sparse_flash_attention(const AttentionInput& in, const StructuredMask& mask, Matrix& out);

// View form: q is sq contiguous rows of kv.d floats, keys/values come from
// [0, sk) of the (flat or paged) view, and the sq normalized output rows
// land at out + r*kv.d (contiguous), as flash_rows writes them — this is
// how the ragged sweep runs a masked sequence in place (runtime/batch.h).
// The tensor overload above resizes out and forwards here with
// mk::KvView::of(in), so both are bit-identical by construction.
void sparse_flash_attention(const float* q, Index sq, const mk::KvView& kv, Index sk,
                            const StructuredMask& mask, float* out);

// Query rows per tile: the unit of the kernel's parallel loop, and the row
// block every sequence of the ragged sweep splits into (runtime/batch.h). A
// tile runs as groups of mk::kQRows rows; the pool's work claiming balances
// the causal skew across tiles. 32 rows let 8 groups share each key chunk
// while a tile's scratch (run lists, a 32 x d accumulator) stays small: at
// S = 4096, 64-row tiles cost ~0.7 MiB more peak RSS for no measurable speed.
inline constexpr Index kTileQ = 32;

// Measured work of a run of tiles: kept-key score evaluations and mask
// run-descriptor reads.
struct SparseTileWork {
  double evals = 0.0;
  double meta_reads = 0.0;
};

// Tile-range entry: runs tiles [t_lo, t_hi) — rows [t_lo*kTileQ,
// min(sq, t_hi*kTileQ)) — of the view form on the calling thread and
// returns their work without charging it. The view form runs every tile
// through here, one pool task each, and the ragged sweep runs a masked
// sequence's tiles as its row blocks, so both are bit-identical by
// construction. A caller that runs all tiles of a call records them once
// with sparse_flash_record.
SparseTileWork sparse_flash_tiles(const float* q, Index sq, const mk::KvView& kv, Index sk,
                                  const StructuredMask& mask, float* out, Index t_lo, Index t_hi);

// The counters, histogram and acct.* charge of one whole kernel call over
// `mask` (head dim d), given the work summed over its tiles.
void sparse_flash_record(const StructuredMask& mask, Index d, const SparseTileWork& work);

// Exact number of (query, key) score evaluations the kernel performs for
// this mask — used by tests (vs mask.density) and by the cost model.
double sparse_flash_work(const StructuredMask& mask);

// AttentionMethod adapter around a fixed mask builder. Used by the window /
// streaming / BigBird baselines; SampleAttention has its own method class
// because its mask is content-dependent.
class MaskedAttention final : public AttentionMethod {
 public:
  using MaskBuilder = std::function<StructuredMask(const AttentionInput&)>;
  MaskedAttention(std::string name, MaskBuilder builder)
      : name_(std::move(name)), builder_(std::move(builder)) {}

  std::string name() const override { return name_; }

 protected:
  AttentionResult run_impl(const AttentionInput& in) const override;

 private:
  std::string name_;
  MaskBuilder builder_;
};

}  // namespace sattn
