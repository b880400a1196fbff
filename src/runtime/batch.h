// Ragged-sequence batched attention: the kernel API under continuous
// batching (docs/SERVING.md).
//
// A serving iteration holds a live batch of requests in different phases —
// one is prefilling rows [512, 768) of a 4K prompt, another is decoding its
// 37th token, a third just arrived. Their (Q, K, V) extents all differ, so
// the batch is *ragged*: RaggedBatchView is a list of per-request views
// (query span, mk::KvView over keys/values, causal limit), and
// ragged_attention_sweep services all of them in one parallel pass.
//
// The pass's work item is a row block of a sequence, not a whole sequence:
// every sequence splits into blocks of kTileQ (32) rows, and the pool's work
// claiming spreads all blocks of all sequences over every worker — so a lone
// 256-row prefill chunk runs on the whole pool. Single-block sequences
// (decode steps, short chunks) run first, as a pass of their own, so a
// memory-bound decode step never shares the machine with compute-heavy
// prefill blocks on every other worker. Each block goes through the same
// mk::absorb_key_tile / absorb_key_runs register blocks as the
// single-request kernels:
//   * no mask — exact attention via flash_rows over the block's rows (dense
//     prefill chunks and decode steps, straight out of a request's tensors
//     or a KVCache);
//   * a mask  — the block is one tile of sparse_flash_attention over a
//     planned StructuredMask (SampleAttention's Stage-2 under chunked
//     prefill), run through the kernel's tile-range entry
//     (sparse_flash_tiles), read in place the same way.
//
// Per-request attribution stays per sequence: after the blocks finish, each
// sequence charges its acct.* FLOP/byte tallies once under its own
// obs::RequestContext and records one span over its wall window, and the
// sweep returns that window so the engine (runtime/engine.h) can bill TTFT
// compute per batch element.
//
// Parity contract (pinned in tests/engine_test.cpp, RaggedBatch.*): for
// every sequence, the batched output is bit-identical to running its kernel
// alone. Blocks introduce no new arithmetic, only scheduling: a row's flash
// arithmetic depends only on its mk::kQRows group (absorb_key_tile shares
// the group's shortest causal limit), never on tile_q, and blocks start on
// kTileQ boundaries, which are group boundaries; a sparse row depends only
// on its 4-row group and 32-row tile, and a masked block is that tile. (A
// FlashConfig whose tile_q is not a multiple of kQRows would shift the
// groups, so such a sequence runs as one block.)
//
// form_step is the deterministic batch-formation policy the engine uses:
// a pure function from a snapshot of live requests to the step's work list,
// so tests can pin its behavior without threads.
#pragma once

#include <string>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/microkernel.h"
#include "attention/sparse_flash_attention.h"
#include "core/tensor.h"
#include "obs/audit.h"

namespace sattn {

// One sequence's attention work for this iteration. Non-owning throughout:
// every pointer aliases caller-owned storage that must outlive the sweep.
struct RaggedSeq {
  std::string request_id;  // obs attribution; empty skips the RequestContext
  // Optional per-sequence span label (a stable literal such as
  // "seq/prefill_chunk" or "seq/decode_step"). One span per sequence covers
  // its wall window (SeqCost::seconds), tagged with request_id, so the
  // Chrome exporter can give every request its own lane of chunk/step
  // spans. Null (or an empty request_id) skips the span.
  const char* span_name = nullptr;

  // Row r of `q` attends keys [0, min(k_hi, r + causal_off + 1)) of `kv`;
  // normalized outputs land at out + r*kv.d (contiguous).
  const float* q = nullptr;  // rows x kv.d, contiguous
  Index rows = 0;
  mk::KvView kv;
  Index k_hi = 0;
  Index causal_off = 0;
  float* out = nullptr;

  // Optional planned mask, (rows x k_hi) with causal_off == k_hi - rows:
  // when set the sequence runs sparse_flash_attention over it instead of
  // flash_rows.
  const StructuredMask* mask = nullptr;

  // Shadow quality audit (obs/audit.h). When non-null and the sequence has
  // a mask, the sweep scores that mask against ground-truth softmax rows
  // for the auditor's sampled subset of this chunk's rows, after every
  // kernel block has finished — audit wall time lands in SeqCost.audit.seconds,
  // never in SeqCost.seconds, so measured compute stays honest and the
  // engine can bill the audit to guard time.
  obs::QualityAuditor* auditor = nullptr;
  Index audit_q_lo = 0;          // absolute row of chunk-local row 0
  long long audit_layer = 0;     // scorecard attribution
  long long audit_head = 0;
  double audit_predicted = 1.0;  // planner's CRA claim (SamplePlan coverage)
};

struct RaggedBatchView {
  std::vector<RaggedSeq> seqs;
  FlashConfig flash;  // tiling for the unmasked sequences
};

// Measured per-sequence cost of one sweep. `seconds` is the sequence's wall
// window, from its first block's start to its last block's end: within one
// request it never double counts, so the engine sums it into the request's
// compute bucket. Windows of different sequences overlap (their blocks
// interleave on the pool), and each lies within the sweep's wall time.
struct SeqCost {
  double seconds = 0.0;
  double evals = 0.0;  // causal score evaluations summed over the blocks
                       // (unmasked sequences; masked ones report 0 and
                       // charge acct.* as sparse_flash)
  obs::AuditResult audit;  // shadow-audit outcome (rows = 0 when not audited)
};

// Runs every row block of every sequence of the batch, in parallel across
// the global pool. Returns costs indexed like batch.seqs.
std::vector<SeqCost> ragged_attention_sweep(const RaggedBatchView& batch);

// ---------------------------------------------------------------------------
// Deterministic batch formation.

// A request's scheduling state as the engine loop sees it at the top of an
// iteration.
struct SlotSnapshot {
  std::string id;
  Index admit_seq = 0;         // admission sequence number (engine-assigned)
  bool decoding = false;       // prefill complete, producing tokens
  Index prompt_tokens = 0;
  Index prefilled_tokens = 0;  // query rows already processed
};

struct StepItem {
  std::string id;
  bool decode = false;
  Index q_lo = 0, q_hi = 0;  // prefill rows this step; unused when decode
};

struct StepPlanConfig {
  Index max_batch = 8;       // live requests serviced per iteration
  Index chunk_tokens = 256;  // prefill rows per request per iteration
};

// Continuous-batching step formation: FCFS by admission order, up to
// max_batch slots per iteration; each decoding request contributes one
// token step, each prefilling request one chunk of at most chunk_tokens
// rows. Pure and deterministic — the result depends only on the snapshot
// contents, not on their order in `slots` (engine_test pins this).
std::vector<StepItem> form_step(std::vector<SlotSnapshot> slots, const StepPlanConfig& cfg);

}  // namespace sattn
