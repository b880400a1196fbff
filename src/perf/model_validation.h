// Cross-validation of the analytic A100 cost model against the resource
// accountant: for every dense-kernel shape a bench actually ran, re-derive
// the cost model's FLOP/byte prediction and compare it with what the kernel
// accounted (obs/accounting.h), publishing the relative error as
// `perf.model_error.*` gauges. tests/accounting_test.cpp holds
// `perf.model_error.max_rel` under 0.05, so a kernel drifting away from the
// model the Table 4 / Fig 5 reproduction is built on fails a test instead
// of silently invalidating the headline numbers.
//
// Only the dense kernels (`full`, `flash`) are validated: their analytic
// work is a pure function of shape (the continuum causal count sq*(sk-sq) +
// sq^2/2 that perf::attention_flops uses). Sparse kernels' predictions take
// the *measured* density as input, so a sparse accounted-vs-model check
// would be circular; sparse-vs-dense consistency is covered by the
// accounting property tests instead.
#pragma once

#include <string>
#include <vector>

namespace sattn::perf {

// Continuum causal-pair count for a [sq x sk] dense causal call — exactly
// attention_flops' per-(layer, head) pair count at sq == sk == s. Differs
// from the exact integer count by sq/2 pairs (~1/sk relative), which is why
// dense accounted FLOPs match within 1% for S >= 1K.
double model_causal_pairs(long long sq, long long sk);

// Analytic per-call counts under the accounting conventions of
// obs/accounting.h (fp32 substrate, 4*d flops per pair, Q/O + K/V element
// streams; `full` adds the materialized-score traffic).
double model_attention_flops(long long sq, long long sk, long long head_dim);
double model_attention_bytes(const std::string& kernel, long long sq, long long sk,
                             long long head_dim);

struct KernelModelError {
  std::string kernel;
  double accounted_flops = 0.0;
  double model_flops = 0.0;
  double accounted_bytes = 0.0;
  double model_bytes = 0.0;
  double flops_rel = 0.0;  // |accounted - model| / model
  double bytes_rel = 0.0;
};

struct ModelErrorReport {
  std::vector<KernelModelError> kernels;
  double max_rel = 0.0;  // max over every flops_rel/bytes_rel; 0 when empty
};

// Sweeps the accountant's per-shape entries for the dense kernels and
// aggregates accounted vs. model totals per kernel.
ModelErrorReport validate_cost_model();

// Runs validate_cost_model() and publishes the result as gauges:
// `perf.model_error.<kernel>.flops_rel` / `.bytes_rel` per validated
// kernel, and `perf.model_error.max_rel` ALWAYS (0 when nothing dense ran),
// so every bench report carries it.
// No-op when collection is disabled.
void publish_model_error();

}  // namespace sattn::perf
