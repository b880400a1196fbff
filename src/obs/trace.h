// Lightweight, thread-safe tracing and counters for the whole library.
//
// The paper's central quantitative claim (Table 4, Fig 1) is a *time
// breakdown*: Stage-1 sampling + Stage-2 filtering overhead must stay small
// relative to the attention they save. This subsystem makes that breakdown
// measurable on the CPU substrate instead of only predicted by the analytic
// cost model:
//
//   * RAII scoped spans (SATTN_SPAN) with per-thread nesting, collected into
//     a global, never-destroyed Collector;
//   * named monotonic counters (SATTN_COUNTER_ADD / SATTN_COUNTER_MAX) for
//     quantities like score evaluations, bytes touched, retained KV columns,
//     sampled rows and scheduler queue depth;
//   * exporters: a hierarchical human-readable summary (obs/summary.h) and
//     Chrome `chrome://tracing` JSON (io/trace_export.h).
//
// Cost contract: collection is off by default. Every instrumentation site
// first does one relaxed atomic load (obs::enabled()); when disabled that is
// the entire cost — no allocation, no locking, no clock reads. Defining
// SATTN_TRACE_DISABLED at compile time removes the sites entirely.
//
// Enable/disable contract (see docs/OBSERVABILITY.md):
//   SATTN_TRACE=1   collect from process start
//   SATTN_TRACE=0   hard off: set_enabled(true) is ignored
//   unset           off until code calls obs::set_enabled(true)
//                   (the bench binaries do this when --trace-out= is given)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sattn::obs {

// True when spans/counters are being recorded. One relaxed load; safe to
// call from any thread at any time.
bool enabled();

// Turns collection on/off at runtime. A request to enable is ignored when
// the SATTN_TRACE=0 environment hard-off is in effect; returns the resulting
// state.
bool set_enabled(bool on);

// True when SATTN_TRACE=0 was set in the environment.
bool hard_disabled();

// Monotonic named counter. add() accumulates; record_max() keeps a running
// maximum (still monotone non-decreasing). Both are lock-free.
class Counter {
 public:
  void add(double v) { v_.fetch_add(v, std::memory_order_relaxed); }
  void record_max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// One completed span. Timestamps are microseconds since the Collector's
// epoch (process start, effectively), matching Chrome trace-event units.
// request_id is the obs::RequestContext in effect when the span opened
// ("" when none): the Chrome exporter groups request-tagged spans into one
// lane per request, so serving runs get a per-request timeline for free.
struct SpanRecord {
  std::string name;
  std::string request_id;
  std::uint32_t tid = 0;  // dense thread id assigned by the collector
  double start_us = 0.0;
  double dur_us = 0.0;
};

struct CounterValue {
  std::string name;
  double value = 0.0;
};

// Global collector: per-thread span logs (each guarded by its own mutex, so
// writers never contend with each other) plus the counter registry. The
// singleton is heap-allocated and intentionally never destroyed, so worker
// threads may record during process teardown.
class Collector {
 public:
  static Collector& global();

  // Named counter handle; valid for the process lifetime.
  Counter& counter(const std::string& name);

  // Snapshot of all completed spans across threads (open spans are not
  // included until their ScopedSpan destructs).
  std::vector<SpanRecord> spans() const;

  // Snapshot of all counters, sorted by name.
  std::vector<CounterValue> counters() const;

  // Clears completed spans and zeroes counters. Spans currently open keep
  // recording and will appear in later snapshots.
  void reset();

  // Microseconds since the collector epoch.
  double now_us() const;

  // Records a completed span with explicit bounds on the calling thread's
  // log, tagged with the RequestContext in effect — for work whose window
  // covers pieces run on several threads (the ragged sweep's per-sequence
  // spans, runtime/batch.h). No-op when collection is disabled.
  void record_span(const char* name, std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end);

  // --- used by ScopedSpan; not part of the public API ---
  void begin_span(const char* name);
  void begin_span(std::string name);
  void end_span();

 private:
  Collector();

  struct ThreadLog;
  ThreadLog& this_thread_log();

  std::int64_t epoch_ns_ = 0;
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
  mutable std::mutex counters_mu_;
  // Deque-like stable storage: handles returned by counter() stay valid.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
};

// RAII span. When collection is disabled at construction time this is a
// single relaxed load; otherwise it pushes onto the calling thread's span
// stack and records a SpanRecord on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : active_(enabled()) {
    if (active_) Collector::global().begin_span(name);
  }
  explicit ScopedSpan(std::string name) : active_(enabled()) {
    if (active_) Collector::global().begin_span(std::move(name));
  }
  ~ScopedSpan() {
    if (active_) Collector::global().end_span();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace sattn::obs

// Instrumentation macros. `name` should be a stable literal like
// "kernel/sparse_flash"; see docs/OBSERVABILITY.md for the glossary of
// span and counter names used across the library.
#if defined(SATTN_TRACE_DISABLED)

#define SATTN_SPAN(name) \
  do {                   \
  } while (0)
#define SATTN_COUNTER_ADD(name, v) \
  do {                             \
    (void)sizeof(name);            \
    (void)sizeof(v);               \
  } while (0)
#define SATTN_COUNTER_MAX(name, v) \
  do {                             \
    (void)sizeof(name);            \
    (void)sizeof(v);               \
  } while (0)

#else

#define SATTN_OBS_CONCAT_INNER(a, b) a##b
#define SATTN_OBS_CONCAT(a, b) SATTN_OBS_CONCAT_INNER(a, b)

// Opens a span covering the rest of the enclosing scope.
#define SATTN_SPAN(name) \
  ::sattn::obs::ScopedSpan SATTN_OBS_CONCAT(sattn_span_, __LINE__)(name)

// Adds `v` to the named counter. `v` is evaluated only when collection is
// enabled, so it may be moderately expensive to compute.
#define SATTN_COUNTER_ADD(name, v)                            \
  do {                                                        \
    if (::sattn::obs::enabled()) {                            \
      ::sattn::obs::Collector::global().counter(name).add(    \
          static_cast<double>(v));                            \
    }                                                         \
  } while (0)

// Raises the named counter to at least `v` (running maximum).
#define SATTN_COUNTER_MAX(name, v)                                  \
  do {                                                              \
    if (::sattn::obs::enabled()) {                                  \
      ::sattn::obs::Collector::global().counter(name).record_max(   \
          static_cast<double>(v));                                  \
    }                                                               \
  } while (0)

#endif  // SATTN_TRACE_DISABLED
