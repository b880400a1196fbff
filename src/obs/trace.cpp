#include "obs/trace.h"

#include "obs/accounting.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace sattn::obs {
namespace {

using clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now().time_since_epoch())
      .count();
}

struct TraceEnv {
  bool hard_off = false;
  bool start_enabled = false;
};

TraceEnv read_env() {
  TraceEnv env;
  const char* v = std::getenv("SATTN_TRACE");
  if (v == nullptr) return env;
  if (std::strcmp(v, "0") == 0) {
    env.hard_off = true;
  } else if (*v != '\0') {
    env.start_enabled = true;
  }
  return env;
}

const TraceEnv g_env = read_env();
std::atomic<bool> g_enabled{g_env.start_enabled};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool hard_disabled() { return g_env.hard_off; }

bool set_enabled(bool on) {
  if (on && g_env.hard_off) on = false;
  g_enabled.store(on, std::memory_order_relaxed);
  return on;
}

struct Collector::ThreadLog {
  std::uint32_t tid = 0;

  // The stack is touched only by the owning thread; `done` is shared with
  // snapshot readers and guarded by `mu`.
  struct OpenSpan {
    std::string name;
    std::string request_id;
    double start_us = 0.0;
  };
  std::vector<OpenSpan> stack;

  std::mutex mu;
  std::vector<SpanRecord> done;
};

Collector::Collector() : epoch_ns_(now_ns()) {}

Collector& Collector::global() {
  // Heap-allocated and never freed: worker threads (e.g. ThreadPool::global)
  // may still end spans while static destructors run.
  static Collector* g = new Collector();
  return *g;
}

double Collector::now_us() const {
  return static_cast<double>(now_ns() - epoch_ns_) * 1e-3;
}

Collector::ThreadLog& Collector::this_thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->tid = static_cast<std::uint32_t>(logs_.size());
  }
  return *log;
}

void Collector::begin_span(const char* name) { begin_span(std::string(name)); }

void Collector::begin_span(std::string name) {
  ThreadLog& log = this_thread_log();
  // Capture the request attribution at open time: the RequestContext is a
  // thread-local RAII scope, so it is still the right one even if the span
  // outlives an inner context.
  const RequestContext* ctx = RequestContext::current();
  log.stack.push_back({std::move(name), ctx != nullptr ? ctx->id() : std::string(), now_us()});
}

void Collector::end_span() {
  ThreadLog& log = this_thread_log();
  if (log.stack.empty()) return;  // defensive: unbalanced end
  ThreadLog::OpenSpan open = std::move(log.stack.back());
  log.stack.pop_back();
  SpanRecord rec;
  rec.name = std::move(open.name);
  rec.request_id = std::move(open.request_id);
  rec.tid = log.tid;
  rec.start_us = open.start_us;
  rec.dur_us = std::max(0.0, now_us() - open.start_us);
  std::lock_guard<std::mutex> lock(log.mu);
  log.done.push_back(std::move(rec));
}

void Collector::record_span(const char* name, clock::time_point start, clock::time_point end) {
  if (!enabled()) return;
  const auto us = [this](clock::time_point t) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch());
    return static_cast<double>(ns.count() - epoch_ns_) * 1e-3;
  };
  ThreadLog& log = this_thread_log();
  const RequestContext* ctx = RequestContext::current();
  SpanRecord rec;
  rec.name = name;
  rec.request_id = ctx != nullptr ? ctx->id() : std::string();
  rec.tid = log.tid;
  rec.start_us = us(start);
  rec.dur_us = std::max(0.0, us(end) - rec.start_us);
  std::lock_guard<std::mutex> lock(log.mu);
  log.done.push_back(std::move(rec));
}

std::vector<SpanRecord> Collector::spans() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> reg(registry_mu_);
  for (const auto& log : logs_) {
    std::lock_guard<std::mutex> lock(log->mu);
    out.insert(out.end(), log->done.begin(), log->done.end());
  }
  return out;
}

Counter& Collector::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return *c;
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return *counters_.back().second;
}

std::vector<CounterValue> Collector::counters() const {
  std::vector<CounterValue> out;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    out.reserve(counters_.size());
    for (const auto& [n, c] : counters_) out.push_back({n, c->value()});
  }
  std::sort(out.begin(), out.end(),
            [](const CounterValue& a, const CounterValue& b) { return a.name < b.name; });
  return out;
}

void Collector::reset() {
  {
    std::lock_guard<std::mutex> reg(registry_mu_);
    for (const auto& log : logs_) {
      std::lock_guard<std::mutex> lock(log->mu);
      log->done.clear();
    }
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  for (auto& [n, c] : counters_) c->reset();
}

}  // namespace sattn::obs
