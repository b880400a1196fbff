// Online attention-quality auditor: shadow-sampled measured CRA.
//
// The paper's whole claim is *near-lossless*: Lemma 1 bounds output error by
// R * (1 - CRA), and the two-stage planner targets CRA >= alpha — but a
// planner target is a prediction, not a measurement. The QualityAuditor
// closes that loop in the serving engine: for a deterministic pseudo-random
// fraction of (request, query-row) work items it recomputes the ground-truth
// softmax row via the existing dense score path (attention/score_utils.h)
// and scores the *deployed* StructuredMask with row_retained_mass
// (metrics/cra.h), producing measured per-head CRA estimates and
// predicted-vs-measured deltas as `audit.*` gauges.
//
// Sampling design (docs/OBSERVABILITY.md, "Online quality audit"):
//
//   * Row selection is threshold hashing: a row is audited iff
//     hash(seed, request_id, absolute_row) maps below `sample_rate` in
//     [0, 1). Selection therefore depends only on (seed, id, row) — never on
//     batch interleaving or wall time — so audited sets are reproducible
//     across runs, and the sets are *nested*: every row audited at rate r1
//     is also audited at any rate r2 > r1. Because the CRA estimate is a
//     min over audited rows, nesting makes the estimate monotonically
//     non-increasing in the sample rate and exactly equal to the offline
//     cra() at rate 1.0 (pinned in tests/audit_test.cpp).
//   * `row_budget` caps audited rows per chunk so one pathological chunk
//     cannot blow the overhead budget; the cap keeps the lowest-hash rows
//     so budgeted selection stays deterministic too.
//   * Audit cost is charged to the ResourceAccountant under the "audit"
//     kernel and billed to *guard* time by the engine, preserving the
//     queue + compute + guard == ttft attribution identity.
//
// Thread safety: audit_chunk / record_decode are called from ragged-sweep
// pool workers; per-head accumulation takes a mutex (audit sites are
// sampled, never kernel-inner-loop hot). publish() snapshots under the same
// mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "attention/masks.h"
#include "attention/microkernel.h"
#include "core/tensor.h"

namespace sattn::obs {

struct AuditOptions {
  bool enabled = false;
  // Fraction of query rows shadow-audited, in [0, 1]. The default keeps the
  // measured overhead of an audited engine run within the 2% telemetry-style
  // bound (tests/audit_test.cpp, AuditOverheadTest).
  double sample_rate = 0.02;
  // Hard cap on audited rows per prefill chunk (0 disables the cap).
  Index row_budget = 4;
  // Seed for the threshold hash; two runs with the same seed audit the same
  // (request, row) set regardless of batching.
  std::uint64_t seed = 0xa0d17ull;
  // Scorecard slots: serving requests are single-head synthetic workloads,
  // so the engine attributes each request to a stable pseudo-head bucket
  // hash(id) % head_buckets at layer 0. Real multi-head integrations pass
  // their own (layer, head) instead.
  Index head_buckets = 4;
};

// Result of auditing one chunk (or one decode row).
struct AuditResult {
  Index rows = 0;         // rows actually audited (0: nothing selected)
  double cra_min = 1.0;   // worst retained mass over audited rows
  double cra_mean = 1.0;  // mean retained mass over audited rows
  double seconds = 0.0;   // wall time spent auditing (engine bills to guard)
};

// Per-head scorecard snapshot, as published to `audit.L<l>H<h>.*` gauges.
struct AuditHeadStats {
  long long layer = 0;
  long long head = 0;
  std::uint64_t rows = 0;
  double cra_p5 = 0.0;
  double cra_p50 = 0.0;
  double cra_min = 0.0;
  double cra_mean = 0.0;
  double predicted = 0.0;  // mean planner-predicted CRA over audited chunks
  double cra_gap = 0.0;    // predicted - measured p50 (positive: overclaim)
};

class QualityAuditor {
 public:
  explicit QualityAuditor(const AuditOptions& opts);

  const AuditOptions& options() const { return opts_; }

  // Deterministic threshold-hash selection for one absolute query row of one
  // request. Pure: depends only on (seed, request_id, abs_row, sample_rate).
  bool selects_row(std::string_view request_id, Index abs_row) const;

  // Audits the deployed mask of one prefill chunk. `q` holds the chunk's sq
  // query rows — rows [q_lo, q_lo + sq) of the request — and keys are
  // [0, sk) of the (flat or paged) view, exactly as handed to the sparse
  // kernel; `mask` is the plan actually executed; `predicted` is the
  // planner's own CRA claim for this chunk (SamplePlan.filter.coverage).
  // Recomputes ground-truth softmax rows for the selected subset and scores
  // row_retained_mass against the mask. Returns rows = 0 without touching
  // Q/K when nothing is selected.
  AuditResult audit_chunk(std::string_view request_id, const float* q, Index sq,
                          const mk::KvView& kv, Index sk, const StructuredMask& mask,
                          Index q_lo, long long layer, long long head, double predicted);

  // Records one already-scored decode row (the engine computes retained mass
  // from the exact decode weights via audited_decode_retained_mass in
  // runtime/decode.cpp, since decode ground truth is free there).
  void record_decode(long long layer, long long head, double retained, double predicted,
                     double seconds);

  // Scorecard snapshot, sorted by (layer, head).
  std::vector<AuditHeadStats> head_stats() const;

  struct Totals {
    std::uint64_t rows = 0;
    std::uint64_t chunks = 0;  // audited chunks + audited decode rows
    double cra_min = 1.0;
    double cra_mean = 1.0;
    double overhead_seconds = 0.0;
  };
  Totals totals() const;

  // Publishes the scorecard as gauges: per head
  // `audit.L<l>H<h>.{cra_p5,cra_p50,cra_min,cra_mean,predicted,cra_gap,rows}`
  // plus run totals `audit.{rows_audited,chunks_audited,cra_min,cra_mean,
  // overhead_seconds}`. No-op when obs collection is disabled.
  void publish() const;

  // Per-head raw-sample bound; on overflow the sample vector is decimated
  // by stride doubling (Series-style), keeping a representative spread.
  static constexpr std::size_t kMaxHeadSamples = 8192;

 private:
  struct HeadAgg {
    std::vector<double> samples;  // per-row retained mass
    double min = 1.0;
    double sum = 0.0;
    std::uint64_t n = 0;
    double predicted_sum = 0.0;
    std::uint64_t predicted_n = 0;
  };

  void accumulate_locked(long long layer, long long head, std::span<const double> row_mass,
                         double predicted, double seconds);

  AuditOptions opts_;
  mutable std::mutex mu_;
  std::map<std::pair<long long, long long>, HeadAgg> heads_;
  Totals totals_;
};

}  // namespace sattn::obs
