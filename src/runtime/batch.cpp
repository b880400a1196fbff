#include "runtime/batch.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/trace.h"

namespace sattn {

namespace {

double run_seq(const RaggedSeq& s, const FlashConfig& flash) {
  assert(s.q && s.out && (s.kv.paged() || (s.kv.k && s.kv.v)));
  if (s.mask != nullptr) {
    assert(s.causal_off == s.k_hi - s.rows);
    sparse_flash_attention(s.q, s.rows, s.kv, s.k_hi, *s.mask, s.out);
    return 0.0;
  }
  const double evals = flash_rows(s.q, s.rows, s.kv, s.k_hi, s.causal_off, s.out, s.kv.d, flash);
  obs::charge_attention_kernel("flash", s.rows, s.k_hi, s.kv.d, evals);
  return evals;
}

}  // namespace

std::vector<SeqCost> ragged_attention_sweep(const RaggedBatchView& batch) {
  SATTN_SPAN("kernel/ragged_sweep");
  std::vector<SeqCost> costs(batch.seqs.size());
  // One work item per sequence: per-sequence wall clocks stay disjoint, and
  // the structured kernels' internal parallel_for runs inline on the worker
  // (ThreadPool::parallel_for is re-entrant), so sequence-level parallelism
  // is the only parallelism and the measured seconds are honest compute.
  parallel_for(static_cast<Index>(batch.seqs.size()), [&](Index si) {
    const RaggedSeq& s = batch.seqs[static_cast<std::size_t>(si)];
    SeqCost& cost = costs[static_cast<std::size_t>(si)];
    const auto t0 = std::chrono::steady_clock::now();
    if (s.request_id.empty()) {
      cost.evals = run_seq(s, batch.flash);
    } else {
      obs::RequestContext ctx(s.request_id);
      if (s.span_name != nullptr) {
        obs::ScopedSpan span(s.span_name);
        cost.evals = run_seq(s, batch.flash);
      } else {
        cost.evals = run_seq(s, batch.flash);
      }
    }
    cost.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // Shadow quality audit, outside the kernel timing window: re-enters the
    // request context so the audit's acct.* charges attribute correctly.
    if (s.auditor != nullptr && s.mask != nullptr) {
      const auto run_audit = [&] {
        return s.auditor->audit_chunk(s.request_id, s.q, s.rows, s.kv, s.k_hi, *s.mask,
                                      s.audit_q_lo, s.audit_layer, s.audit_head,
                                      s.audit_predicted);
      };
      if (s.request_id.empty()) {
        cost.audit = run_audit();
      } else {
        obs::RequestContext ctx(s.request_id);
        cost.audit = run_audit();
      }
    }
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
