#include "perf/model_validation.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/accounting.h"
#include "obs/metrics.h"

namespace sattn::perf {
namespace {

bool is_validated_kernel(const std::string& kernel) {
  return kernel == "full" || kernel == "flash";
}

double rel_error(double accounted, double model) {
  if (model <= 0.0) return accounted > 0.0 ? 1.0 : 0.0;
  return std::abs(accounted - model) / model;
}

}  // namespace

double model_causal_pairs(long long sq, long long sk) {
  const double q = static_cast<double>(sq), k = static_cast<double>(sk);
  if (q <= 0.0 || k <= 0.0) return 0.0;
  return q * (k - q) + 0.5 * q * q;
}

double model_attention_flops(long long sq, long long sk, long long head_dim) {
  return 4.0 * static_cast<double>(head_dim) * model_causal_pairs(sq, sk);
}

double model_attention_bytes(const std::string& kernel, long long sq, long long sk,
                             long long head_dim) {
  const double d = static_cast<double>(head_dim);
  const double pairs = model_causal_pairs(sq, sk);
  double bytes =
      obs::kAcctBytesPerElement * (2.0 * static_cast<double>(sq) * d + 2.0 * d * pairs);
  if (kernel == "full") {
    // Materialized score buffer: one [sq x sk] write pass plus the causal
    // prefix read back (matches the accounting in full_attention.cpp).
    bytes += obs::kAcctBytesPerElement *
             (static_cast<double>(sq) * static_cast<double>(sk) + pairs);
  }
  return bytes;
}

ModelErrorReport validate_cost_model() {
  std::map<std::string, KernelModelError> by_kernel;
  for (const auto& [shape, usage] : obs::ResourceAccountant::global().shapes()) {
    if (!is_validated_kernel(shape.kernel)) continue;
    KernelModelError& e = by_kernel[shape.kernel];
    e.kernel = shape.kernel;
    e.accounted_flops += usage.flops;
    e.accounted_bytes += usage.bytes;
    e.model_flops += usage.calls * model_attention_flops(shape.sq, shape.sk, shape.head_dim);
    e.model_bytes +=
        usage.calls * model_attention_bytes(shape.kernel, shape.sq, shape.sk, shape.head_dim);
  }
  ModelErrorReport report;
  for (auto& [kernel, e] : by_kernel) {
    e.flops_rel = rel_error(e.accounted_flops, e.model_flops);
    e.bytes_rel = rel_error(e.accounted_bytes, e.model_bytes);
    report.max_rel = std::max({report.max_rel, e.flops_rel, e.bytes_rel});
    report.kernels.push_back(std::move(e));
  }
  return report;
}

void publish_model_error() {
  if (!obs::enabled()) return;
  const ModelErrorReport report = validate_cost_model();
  auto& reg = obs::MetricsRegistry::global();
  for (const KernelModelError& e : report.kernels) {
    const std::string prefix = "perf.model_error." + e.kernel + ".";
    reg.gauge(prefix + "flops_rel").set(e.flops_rel);
    reg.gauge(prefix + "bytes_rel").set(e.bytes_rel);
  }
  // Always present, so every report has a value to read even when a bench
  // ran no dense kernel.
  reg.gauge("perf.model_error.max_rel").set(report.max_rel);
}

}  // namespace sattn::perf
