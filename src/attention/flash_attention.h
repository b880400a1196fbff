// FlashAttention2-style exact attention with tiling and online softmax.
//
// This is the CPU analogue of the paper's FlashAttention2 baseline: the
// kernel walks KV tiles of TILE_K keys per query tile, maintaining a running
// row max m_i and normalizer l_i, and rescales the partial output when the
// max shifts (Dao et al., 2022, Alg. 1). The inner machinery — the
// OnlineSoftmaxRow state, the single-row run absorb, and the
// register-blocked multi-row tile absorb — lives in attention/microkernel.h
// (re-exported here) on top of the runtime-dispatched SIMD primitives of
// core/simd.h. The same machinery is reused by the sparse kernel in
// sparse_flash_attention.h, which visits only each query block's kept keys.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "attention/attention_method.h"
#include "attention/microkernel.h"
#include "core/tensor.h"

namespace sattn {

struct FlashConfig {
  Index tile_q = 64;  // query rows per tile (outer parallel loop)
  Index tile_k = 64;  // keys per inner tile
};

void flash_attention(const AttentionInput& in, Matrix& out, const FlashConfig& cfg = {});

// View form: q holds sq contiguous rows of kv.d floats, keys/values are
// [0, sk) of the (flat or paged) view with row i's causal limit at
// i + sk - sq, and the sq output rows land at out + i*kv.d (contiguous) — a
// prefill chunk [q_lo, q_hi) of a longer prompt runs in place, with no copy
// of its K/V prefix. Parallel over q-tiles; the tensor overload above
// resizes out and forwards with mk::KvView::of(in), so both are
// bit-identical by construction.
void flash_attention(const float* q, Index sq, const mk::KvView& kv, Index sk, float* out,
                     const FlashConfig& cfg = {});

// The tiled sweep itself, decoupled from AttentionInput: exact attention of
// `rows` query rows starting at `q` (contiguous, row stride kv.d) against
// keys/values [0, k_hi) of `kv`. Row r attends keys [0, min(k_hi,
// r + causal_off + 1)) — for a full square input causal_off is 0; for a
// prefill chunk whose queries start at global row q_lo it is q_lo plus the
// input's key/query offset. Normalized outputs land at out + r*out_stride.
// Single-threaded by design: flash_attention parallelizes over q-tiles, the
// ragged batch sweep (runtime/batch.h) over sequences. Returns the number
// of score evaluations (for acct.* charging by the caller).
double flash_rows(const float* q, Index rows, const mk::KvView& kv, Index k_hi, Index causal_off,
                  float* out, Index out_stride, const FlashConfig& cfg = {});

class FlashAttention final : public AttentionMethod {
 public:
  explicit FlashAttention(FlashConfig cfg = {}) : cfg_(cfg) {}
  std::string name() const override { return "FlashAttention2"; }

 protected:
  AttentionResult run_impl(const AttentionInput& in) const override;

 private:
  FlashConfig cfg_;
};

}  // namespace sattn
