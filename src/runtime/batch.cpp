#include "runtime/batch.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {

namespace {

using Clock = std::chrono::steady_clock;

// One work item of the sweep: rows [lo, hi) of sequence `seq`.
struct RowBlock {
  std::size_t seq = 0;
  Index lo = 0, hi = 0;
};

// What running one block measured.
struct BlockRun {
  Clock::time_point t0, t1;
  SparseTileWork work;  // flash blocks fill evals only
};

// Rows per block of a sequence. Every block starts on a kTileQ boundary: a
// masked sequence's blocks are the sparse kernel's own tiles, and an
// unmasked block [lo, hi) keeps each row's mk::kQRows group — all a row's
// flash arithmetic depends on — as long as flash.tile_q is a multiple of
// kQRows. Otherwise the sequence stays one block.
Index block_rows(const RaggedSeq& s, const FlashConfig& flash) {
  if (s.mask != nullptr || flash.tile_q % mk::kQRows == 0) return kTileQ;
  return std::max<Index>(s.rows, 1);
}

BlockRun run_block(const RaggedSeq& s, Index lo, Index hi, const FlashConfig& flash) {
  BlockRun r;
  r.t0 = Clock::now();
  if (s.mask != nullptr) {
    r.work = sparse_flash_tiles(s.q, s.rows, s.kv, s.k_hi, *s.mask, s.out, lo / kTileQ,
                                (hi + kTileQ - 1) / kTileQ);
  } else {
    const auto row = static_cast<std::size_t>(lo) * static_cast<std::size_t>(s.kv.d);
    r.work.evals = flash_rows(s.q + row, hi - lo, s.kv, s.k_hi, s.causal_off + lo, s.out + row,
                              s.kv.d, flash);
  }
  r.t1 = Clock::now();
  return r;
}

// Runs fn inside the sequence's RequestContext (none for an empty id).
template <class Fn>
void in_request(const RaggedSeq& s, Fn&& fn) {
  if (s.request_id.empty()) {
    fn();
  } else {
    obs::RequestContext ctx(s.request_id);
    fn();
  }
}

}  // namespace

std::vector<SeqCost> ragged_attention_sweep(const RaggedBatchView& batch) {
  SATTN_SPAN("kernel/ragged_sweep");
  const std::size_t n_seqs = batch.seqs.size();
  std::vector<SeqCost> costs(n_seqs);
  // Single-block sequences (decode steps, short chunks) first, then the
  // blocks of the longer ones.
  std::vector<RowBlock> blocks;
  Index n_single = 0;
  for (const bool single : {true, false}) {
    for (std::size_t si = 0; si < n_seqs; ++si) {
      const RaggedSeq& s = batch.seqs[si];
      const Index step = block_rows(s, batch.flash);
      if ((s.rows <= step) != single) continue;
      assert(s.q && s.out && (s.kv.paged() || (s.kv.k && s.kv.v)));
      assert(s.mask == nullptr || s.causal_off == s.k_hi - s.rows);
      Index lo = 0;
      do {
        blocks.push_back({si, lo, std::min(s.rows, lo + step)});
        lo += step;
      } while (lo < s.rows);
    }
    if (single) n_single = static_cast<Index>(blocks.size());
  }

  // Every row block is a work item: a lone sequence runs on every worker,
  // and the kernels' own parallel_for never runs here (each block calls the
  // single-threaded flash_rows or one sparse tile). The single-block
  // sequences run as a pass of their own: a decode step is a 1-row sweep of
  // a whole KV cache, bound by memory traffic, and beside the
  // compute-heavy prefill blocks on every other worker its time per token
  // rose by a third at the tail on serve_prefix.
  std::vector<BlockRun> runs(blocks.size());
  const auto run_pass = [&](Index lo, Index hi) {
    parallel_for(hi - lo, [&](Index i) {
      const RowBlock& b = blocks[static_cast<std::size_t>(lo + i)];
      runs[static_cast<std::size_t>(lo + i)] =
          run_block(batch.seqs[b.seq], b.lo, b.hi, batch.flash);
    });
  };
  run_pass(0, n_single);
  run_pass(n_single, static_cast<Index>(blocks.size()));

  // Per sequence: its wall window from its first block's start to its last
  // block's end, its work summed over its blocks, one acct.* charge and one
  // span, all under its RequestContext.
  struct Window {
    Clock::time_point t0 = Clock::time_point::max(), t1 = Clock::time_point::min();
    SparseTileWork work;
  };
  std::vector<Window> windows(n_seqs);
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    Window& w = windows[blocks[bi].seq];
    w.t0 = std::min(w.t0, runs[bi].t0);
    w.t1 = std::max(w.t1, runs[bi].t1);
    w.work.evals += runs[bi].work.evals;
    w.work.meta_reads += runs[bi].work.meta_reads;
  }
  for (std::size_t si = 0; si < n_seqs; ++si) {
    const RaggedSeq& s = batch.seqs[si];
    const Window& w = windows[si];
    costs[si].seconds = std::chrono::duration<double>(w.t1 - w.t0).count();
    in_request(s, [&] {
      if (s.mask != nullptr) {
        sparse_flash_record(*s.mask, s.kv.d, w.work);
      } else {
        costs[si].evals = w.work.evals;
        obs::charge_attention_kernel("flash", s.rows, s.k_hi, s.kv.d, w.work.evals);
      }
      if (s.span_name != nullptr && !s.request_id.empty()) {
        obs::Collector::global().record_span(s.span_name, w.t0, w.t1);
      }
    });
  }

  // Shadow quality audits, after every kernel block and outside every
  // sequence's window, each in its request's context so its acct.* charges
  // attribute correctly.
  std::vector<std::size_t> audited;
  for (std::size_t si = 0; si < n_seqs; ++si) {
    if (batch.seqs[si].auditor != nullptr && batch.seqs[si].mask != nullptr) audited.push_back(si);
  }
  parallel_for(static_cast<Index>(audited.size()), [&](Index ai) {
    const std::size_t si = audited[static_cast<std::size_t>(ai)];
    const RaggedSeq& s = batch.seqs[si];
    in_request(s, [&] {
      costs[si].audit = s.auditor->audit_chunk(s.request_id, s.q, s.rows, s.kv, s.k_hi, *s.mask,
                                               s.audit_q_lo, s.audit_layer, s.audit_head,
                                               s.audit_predicted);
    });
  });
  return costs;
}

std::vector<StepItem> form_step(std::vector<SlotSnapshot> slots, const StepPlanConfig& cfg) {
  assert(cfg.max_batch > 0 && cfg.chunk_tokens > 0);
  // Admission order is a total order (the engine assigns admit_seq from a
  // counter), so this sort makes the plan independent of snapshot order.
  std::sort(slots.begin(), slots.end(),
            [](const SlotSnapshot& a, const SlotSnapshot& b) { return a.admit_seq < b.admit_seq; });
  std::vector<StepItem> plan;
  for (const SlotSnapshot& s : slots) {
    if (static_cast<Index>(plan.size()) >= cfg.max_batch) break;
    StepItem item;
    item.id = s.id;
    if (s.decoding) {
      item.decode = true;
    } else {
      if (s.prefilled_tokens >= s.prompt_tokens) continue;  // nothing left this phase
      item.q_lo = s.prefilled_tokens;
      item.q_hi = std::min(s.prompt_tokens, s.prefilled_tokens + cfg.chunk_tokens);
    }
    plan.push_back(std::move(item));
  }
  return plan;
}

}  // namespace sattn
