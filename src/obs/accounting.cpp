#include "obs/accounting.h"

#include <string>

#include "obs/metrics.h"

namespace sattn::obs {
namespace {

struct ScopeState {
  long long layer = -1;
  long long head = -1;
};

thread_local ScopeState t_scope;
thread_local RequestContext* t_request = nullptr;

}  // namespace

ResourceAccountant& ResourceAccountant::global() {
  static ResourceAccountant* instance = new ResourceAccountant();
  return *instance;
}

void ResourceAccountant::charge(std::string_view kernel, long long sq, long long sk,
                                long long head_dim, const ResourceUsage& u) {
  if (!enabled()) return;
  if (t_request != nullptr) t_request->add(u);
  AcctKey key{std::string(kernel), t_scope.layer, t_scope.head};
  std::lock_guard<std::mutex> lock(mu_);
  entries_[std::move(key)] += u;
  if (sq > 0) {
    shapes_[AcctShape{std::string(kernel), sq, sk, head_dim}] += u;
  }
}

std::vector<std::pair<AcctKey, ResourceUsage>> ResourceAccountant::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

std::vector<std::pair<AcctShape, ResourceUsage>> ResourceAccountant::shapes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {shapes_.begin(), shapes_.end()};
}

ResourceUsage ResourceAccountant::kernel_total(std::string_view kernel) const {
  ResourceUsage total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, usage] : entries_) {
    if (key.kernel == kernel) total += usage;
  }
  return total;
}

ResourceUsage ResourceAccountant::total() const {
  ResourceUsage total;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, usage] : entries_) total += usage;
  return total;
}

void ResourceAccountant::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  shapes_.clear();
}

AcctScope::AcctScope(long long layer, long long head)
    : prev_layer_(t_scope.layer), prev_head_(t_scope.head) {
  t_scope.layer = layer;
  t_scope.head = head;
}

AcctScope::~AcctScope() {
  t_scope.layer = prev_layer_;
  t_scope.head = prev_head_;
}

std::pair<long long, long long> AcctScope::current() { return {t_scope.layer, t_scope.head}; }

RequestContext::RequestContext(std::string request_id)
    : id_(std::move(request_id)), prev_(t_request) {
  t_request = this;
}

RequestContext::~RequestContext() { t_request = prev_; }

RequestContext* RequestContext::current() { return t_request; }

void charge_attention_kernel(const char* kernel, long long sq, long long sk, long long head_dim,
                             double evals, double score_bytes, double meta_bytes) {
  if (!enabled()) return;
  const double d = static_cast<double>(head_dim);
  ResourceUsage u;
  u.flops = 4.0 * d * evals;
  u.bytes = kAcctBytesPerElement * (2.0 * static_cast<double>(sq) * d + 2.0 * d * evals) +
            score_bytes + meta_bytes;
  u.calls = 1.0;
  ResourceAccountant::global().charge(kernel, sq, sk, head_dim, u);
}

void charge_stage(const char* stage, double flops, double bytes) {
  if (!enabled()) return;
  ResourceUsage u;
  u.flops = flops;
  u.bytes = bytes;
  u.calls = 1.0;
  ResourceAccountant::global().charge(stage, 0, 0, 0, u);
}

void publish_accounting() {
  if (!enabled()) return;
  std::map<std::string, ResourceUsage> per_kernel;
  ResourceUsage grand;
  for (const auto& [key, usage] : ResourceAccountant::global().snapshot()) {
    per_kernel[key.kernel] += usage;
    grand += usage;
  }
  if (per_kernel.empty()) return;
  auto& reg = MetricsRegistry::global();
  for (const auto& [kernel, usage] : per_kernel) {
    const std::string prefix = "acct." + kernel + ".";
    reg.gauge(prefix + "flops").set(usage.flops);
    reg.gauge(prefix + "bytes").set(usage.bytes);
    reg.gauge(prefix + "calls").set(usage.calls);
    reg.gauge(prefix + "intensity").set(usage.intensity());
  }
  reg.gauge("acct.total.flops").set(grand.flops);
  reg.gauge("acct.total.bytes").set(grand.bytes);
}

}  // namespace sattn::obs
