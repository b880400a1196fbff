// Register-blocked attention micro-kernels over the SIMD primitive layer.
//
// The tiled kernels (flash_attention, block_sparse) and the q-block sparse
// kernel (sparse_flash_attention) all reduce to the same two inner steps:
// score a set of keys against one or more query rows, then fold the set
// into each row's online-softmax state with a single rescale (Dao et al.,
// 2022, Alg. 1).
// This header owns that machinery:
//
//   * OnlineSoftmaxRow — the single-row accumulator (moved here from
//     flash_attention.h; that header re-exports it, so existing includes
//     keep working).
//   * mk::KvView — a raw, non-owning view of one K/V stream (base pointers
//     + head_dim). The absorb and score paths take this instead of an
//     AttentionInput, so the same sweep serves a request's prefill
//     matrices, a KV cache's page table, or one sequence of a ragged batch
//     (src/runtime/batch.h) without materializing per-call tensors.
//   * mk::QBlock / mk::absorb_key_runs — the register-blocked core: up to
//     mk::kQRows query rows advance through a set of key runs together,
//     one simd::Ops key-run primitive call per contiguous run: score_keys
//     (each K row loaded and widened once for all rows, dotn's
//     arithmetic), then one rescale and one exp_shift per row for the whole
//     set, then accumulate_keys (each 16-lane slice of the rows'
//     accumulators held in registers across the run). A block's query rows
//     are widened to double once, where the block is built (flash: per
//     q-tile; the sparse kernel: per 32-row tile; block_sparse: per
//     q-block), never per key.
//   * mk::absorb_key_run — a run absorbed into one row of a block (a
//     one-row absorb_key_runs), for the keys only that row keeps (ragged
//     causal tails, mask edges).
//   * mk::absorb_key_tile — one dense key tile for rows with ragged causal
//     limits: the shared prefix goes through absorb_key_runs and the tails
//     fall back to the single-row path, so masked (never-visited) K/V
//     entries are never read.
//   * mk::logits_rows — the blocked score path used by for_each_score_row
//     (Stage-1 sampling, the quality audit) and full_attention: up to kQRows
//     sampled rows, widened once per call, share one pass over K.
//
// All paths call simd::ops() — AVX2/FMA where the CPU supports it, the
// portable scalar table under SATTN_FORCE_SCALAR=1 or simd::ScopedForceScalar.
#pragma once

#include <cassert>
#include <limits>
#include <span>
#include <vector>

#include "attention/masks.h"
#include "core/simd.h"
#include "core/tensor.h"

namespace sattn {

// Online-softmax accumulator for one query row. Public so the sparse kernel
// and SampleAttention's fused Stage-1 share the exact same update rule. The
// normalizer `l` accumulates in double, matching the tiled kernels (see the
// long-row drift tests in tests/simd_kernel_test.cpp).
struct OnlineSoftmaxRow {
  std::vector<float> acc;  // unnormalized output accumulator, length d
  float m = -std::numeric_limits<float>::infinity();  // running max
  double l = 0.0;                                     // running normalizer

  explicit OnlineSoftmaxRow(Index d) : acc(static_cast<std::size_t>(d), 0.0f) {}

  // Absorb one (logit, value-row) pair.
  void absorb(float logit, std::span<const float> v_row);

  // Write normalized output; zero if nothing was absorbed.
  void finalize(std::span<float> out_row) const;
};

namespace mk {

// Non-owning view of one K/V stream. This is the seam that makes the
// micro-kernels request-agnostic — callers point it at an AttentionInput's
// matrices, at a paged KVCache's page table, or at any sequence of a ragged
// batch, and the same absorb sweep services all of them. Two layouts:
//
//   * flat  — row j of either stream starts at base + j*d (k/v set,
//     k_pages/v_pages null);
//   * paged — row j lives in page j >> page_shift at row j & page_mask
//     (runtime/kv_page.h): k_pages/v_pages are per-page row bases, so the
//     kernels read straight through a KVCache's page table with no copies
//     and — because every access goes through k_row/v_row — bit-identical
//     results to flat storage (pinned in tests/engine_test.cpp).
struct KvView {
  const float* k = nullptr;
  const float* v = nullptr;
  Index d = 0;
  const float* const* k_pages = nullptr;  // paged layout: per-page row bases
  const float* const* v_pages = nullptr;
  Index page_shift = 0;
  Index page_mask = 0;

  bool paged() const { return k_pages != nullptr; }

  const float* k_row(Index j) const {
    if (k_pages != nullptr) {
      return k_pages[j >> page_shift] + static_cast<std::size_t>(j & page_mask) * d;
    }
    return k + static_cast<std::size_t>(j * d);
  }
  const float* v_row(Index j) const {
    if (v_pages != nullptr) {
      return v_pages[j >> page_shift] + static_cast<std::size_t>(j & page_mask) * d;
    }
    return v + static_cast<std::size_t>(j * d);
  }

  // End of the contiguous row run containing j, clipped to hi: the whole
  // range for flat views, the end of j's page for paged ones. The hot
  // absorb loops iterate run-at-a-time — resolve k_row/v_row once per run,
  // then march the pointer by d — so the flat path keeps the seed's
  // branch-free per-key codegen and the paged path pays one layout branch
  // per page instead of per key.
  Index run_end(Index j, Index hi) const {
    if (k_pages == nullptr) return hi;
    const Index page_end = ((j >> page_shift) + 1) << page_shift;
    return page_end < hi ? page_end : hi;
  }

  static KvView of(const AttentionInput& in) { return {in.k.data(), in.v.data(), in.head_dim()}; }
};

}  // namespace mk

namespace mk {

// Query rows processed per register block. Matches simd::kMaxRows: the
// AVX2 dotn/axpyn keep one pair of double accumulators per row in ymm
// registers, and four rows is the deepest block that still fits.
inline constexpr Index kQRows = simd::kMaxRows;

// A view over up to kQRows query rows' online-softmax state. The pointers
// alias caller-owned storage (flash_attention's per-tile m/l/acc arrays, or
// individual OnlineSoftmaxRow structs in block_sparse), so the blocked core
// composes with either layout without copying state. The query rows are the
// float rows widened to double (simd::widen) by the block's builder, once
// per tile, so scoring a key converts only the key (simd::Ops::dotn).
struct QBlock {
  Index rows = 0;  // active rows, 1..kQRows
  Index d = 0;     // head dim
  const double* q[kQRows] = {};  // widened query rows, length d
  float* m[kQRows] = {};        // running max per row
  double* l[kQRows] = {};       // running normalizer per row
  float* acc[kQRows] = {};      // unnormalized accumulator rows, length d
};

// Absorbs the union of `runs` (sorted, disjoint) into every row of the
// block with one rescale per row for the whole set: pass 1 scores each
// contiguous K run against all rows (simd::Ops::score_keys), each row's
// logits then become its weights (exp_shift) and join its normalizer in key
// order, and pass 2 folds each contiguous V run into all rows
// (accumulate_keys). The arithmetic depends only on the key sequence, not
// on how the view pages it. Callers bound the set (flash: one key tile; the
// sparse kernel: a chunk of kept keys), which bounds `logits` (caller-owned
// scratch, grown to rows x keys).
void absorb_key_runs(const QBlock& b, const KvView& kv, float scale,
                     std::span<const ColumnRun> runs, std::vector<float>& logits);

// Writes the normalized row acc / l (d floats) to out, or zeros when nothing
// was absorbed (l <= 0). Every kernel finalizes its online-softmax rows here.
void finalize_row(const float* acc, double l, Index d, float* out);

// Absorbs the key run [lo, hi) into row r of the block only: absorb_key_runs
// on a one-row block, so a single rescale for the whole run. `scale` is
// 1/sqrt(d); `logits` is caller-owned scratch.
void absorb_key_run(const QBlock& b, Index r, const KvView& kv, float scale, Index lo, Index hi,
                    std::vector<float>& logits);

// Absorbs keys [lo, hi[r]) into each row r of the block. The shared prefix
// [lo, min_r hi[r]) is processed register-blocked — each K/V row is loaded
// once for all rows — with one rescale per row for the whole prefix; the
// ragged tails [min_r hi[r], hi[r]) run through the single-row path. Rows
// with hi[r] <= lo must not be placed in the block (their state would still
// be correct, but they would force an empty shared prefix).
// `logits` is caller-owned scratch, grown as needed.
void absorb_key_tile(const QBlock& b, const KvView& kv, float scale, Index lo,
                     const Index* hi, std::vector<float>& logits);

// Blocked score path: fills out[r][0..sk) with the causal logits row of
// query row q_rows[r] of q (sq contiguous rows of kv.d floats) against keys
// [0, sk) of kv — same semantics as logits_row in full_attention.h: the
// causal prefix holds scale * q·k, the masked tail is -inf. The rows are
// widened to double once per call; each K row is then shared across all
// block rows whose causal limit reaches it, and K is walked one contiguous
// run at a time (KvView::run_end). Rows need not be sorted; each out[r]
// must hold at least sk floats. rows is 1..kQRows.
void logits_rows(const float* q, Index sq, const KvView& kv, Index sk, const Index* q_rows,
                 Index rows, float* const* out);

}  // namespace mk
}  // namespace sattn
