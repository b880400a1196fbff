// Deterministic resource accounting: every attention kernel and
// SampleAttention stage reports the FLOPs and logical bytes it actually
// executed (measured loop trip counts, not closed-form guesses) into a
// global ResourceAccountant, keyed by kernel and the (layer, head) /
// request the call was attributed to.
//
// This is the measurement half of the cost-model story: src/perf/cost_model
// predicts A100 seconds from analytic FLOP/byte formulas, and
// src/perf/model_validation.h compares those formulas against what the
// kernels accounted here, so the Table 4 / Fig 5 reproduction is
// continuously cross-validated instead of asserted.
//
// Conventions (substrate is fp32, kAcctBytesPerElement = 4):
//
//   * One "score eval" is one causal (query, key) pair the kernel actually
//     evaluated. flops = 4 * head_dim * evals (2d for the QK^T dot plus 2d
//     for the PV accumulate, matching perf::attention_flops).
//   * Logical bytes = Q read + O write (2 * sq * d elements) + the K/V
//     element streams (2 * d elements per eval) + score traffic (kernels
//     that materialize an [sq x sk] score buffer, i.e. full attention) +
//     mask/index metadata (8 bytes per run / stripe / block / tile for
//     sparse layouts). "Logical" means the traffic the algorithm requests;
//     caches may serve part of it, which is exactly the distinction the
//     roofline model cares about.
//
// Attribution: AcctScope (thread-local, RAII) tags charges with a
// (layer, head); RequestContext (thread-local, RAII) additionally
// accumulates per-request totals so serving paths can answer "where did
// this request's FLOPs go". Kernels tally trip counts inside parallel_for
// workers into call-local accumulators and charge once on the calling
// thread, where the scopes are visible.
//
// Enable contract: same as obs/trace.h — charges are dropped after one
// relaxed obs::enabled() load when collection is off, and the accountant
// itself holds a mutex only on the (per kernel call, not per element)
// charge path.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace sattn::obs {

// Bytes per logical element on this substrate (fp32).
inline constexpr double kAcctBytesPerElement = 4.0;

struct ResourceUsage {
  double flops = 0.0;
  double bytes = 0.0;
  double calls = 0.0;

  // Measured arithmetic intensity (FLOPs per logical byte); 0 when no bytes
  // were accounted.
  double intensity() const { return bytes > 0.0 ? flops / bytes : 0.0; }

  ResourceUsage& operator+=(const ResourceUsage& o) {
    flops += o.flops;
    bytes += o.bytes;
    calls += o.calls;
    return *this;
  }
};

// Attribution key: kernel (or stage) name plus the (layer, head) in effect
// when the charge was made; -1 means unattributed.
struct AcctKey {
  std::string kernel;
  long long layer = -1;
  long long head = -1;

  friend bool operator<(const AcctKey& a, const AcctKey& b) {
    if (a.kernel != b.kernel) return a.kernel < b.kernel;
    if (a.layer != b.layer) return a.layer < b.layer;
    return a.head < b.head;
  }
  friend bool operator==(const AcctKey& a, const AcctKey& b) {
    return a.kernel == b.kernel && a.layer == b.layer && a.head == b.head;
  }
};

// Shape key for the cost-model cross-validation: the accountant also
// aggregates per (kernel, sq, sk, head_dim) so perf/model_validation can
// re-derive the analytic prediction for every shape that actually ran.
struct AcctShape {
  std::string kernel;
  long long sq = 0;
  long long sk = 0;
  long long head_dim = 0;

  friend bool operator<(const AcctShape& a, const AcctShape& b) {
    if (a.kernel != b.kernel) return a.kernel < b.kernel;
    if (a.sq != b.sq) return a.sq < b.sq;
    if (a.sk != b.sk) return a.sk < b.sk;
    return a.head_dim < b.head_dim;
  }
  friend bool operator==(const AcctShape& a, const AcctShape& b) {
    return a.kernel == b.kernel && a.sq == b.sq && a.sk == b.sk && a.head_dim == b.head_dim;
  }
};

// Global accountant; heap-allocated and never destroyed (same lifetime
// contract as obs::Collector).
class ResourceAccountant {
 public:
  static ResourceAccountant& global();

  // Adds `u` under (kernel, current AcctScope layer/head) and, when the
  // shape is meaningful (sq > 0), under (kernel, sq, sk, head_dim). Also
  // feeds the current RequestContext, if any. No-op when obs::enabled() is
  // false.
  void charge(std::string_view kernel, long long sq, long long sk, long long head_dim,
              const ResourceUsage& u);

  // Per-(kernel, layer, head) entries, sorted by key.
  std::vector<std::pair<AcctKey, ResourceUsage>> snapshot() const;

  // Per-(kernel, shape) entries, sorted by key.
  std::vector<std::pair<AcctShape, ResourceUsage>> shapes() const;

  // Sum over every (layer, head) entry of one kernel / of everything.
  ResourceUsage kernel_total(std::string_view kernel) const;
  ResourceUsage total() const;

  void reset();

 private:
  ResourceAccountant() = default;

  mutable std::mutex mu_;
  std::map<AcctKey, ResourceUsage> entries_;
  std::map<AcctShape, ResourceUsage> shapes_;
};

// RAII (layer, head) attribution for the calling thread. Nests; the
// enclosing scope is restored on destruction.
class AcctScope {
 public:
  AcctScope(long long layer, long long head);
  ~AcctScope();

  AcctScope(const AcctScope&) = delete;
  AcctScope& operator=(const AcctScope&) = delete;

  // Scope in effect on this thread; {-1, -1} when none.
  static std::pair<long long, long long> current();

 private:
  long long prev_layer_;
  long long prev_head_;
};

// RAII per-request attribution for the calling thread: while alive, every
// accountant charge made on this thread is also accumulated into this
// request's ResourceUsage. Nests (inner context shadows the outer).
class RequestContext {
 public:
  explicit RequestContext(std::string request_id);
  ~RequestContext();

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  static RequestContext* current();

  const std::string& id() const { return id_; }
  const ResourceUsage& usage() const { return usage_; }
  void add(const ResourceUsage& u) { usage_ += u; }

 private:
  std::string id_;
  ResourceUsage usage_;
  RequestContext* prev_;
};

// Measured charge for one attention-kernel call: `evals` causal score
// evaluations over a [sq x sk] call with the given head_dim. Applies the
// flops/bytes conventions above and records the call in the accountant.
// `score_bytes` is the materialized-score traffic (full attention),
// `meta_bytes` the mask/index metadata traffic (sparse layouts).
void charge_attention_kernel(const char* kernel, long long sq, long long sk, long long head_dim,
                             double evals, double score_bytes = 0.0, double meta_bytes = 0.0);

// Generic charge for non-kernel stages (sampling, filtering, layer_plan).
void charge_stage(const char* stage, double flops, double bytes);

// Publishes accountant totals as metrics for the run report: gauges
// `acct.<kernel>.flops/.bytes/.calls/.intensity` per kernel plus
// `acct.total.flops/.bytes`. Benches call this once before collecting the
// report. No-op when collection is disabled or nothing was accounted.
void publish_accounting();

}  // namespace sattn::obs
