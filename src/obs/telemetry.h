// Live telemetry plane for the serving engine (docs/OBSERVABILITY.md,
// "Live telemetry & alerts").
//
// The run report answers questions post-mortem; this subsystem answers them
// *while the engine runs*. Three pieces:
//
//   * Lock-free per-thread event rings (TelemetryRing / TelemetryHub):
//     producer threads — the engine loop, submitters — push fixed-size
//     TelemetryEvents with one release store each; a single consumer (the
//     publisher thread) drains all rings and merges by timestamp. A full
//     ring drops the newest event and counts it (`events_dropped` in the
//     stream) instead of ever blocking a producer.
//
//   * Rolling time-windowed aggregators: RollingHistogram keeps the raw
//     samples of the last `window_seconds` and answers nearest-rank
//     p50/p95/p99 over *now*, not the whole run; EwmaRate is an
//     exponentially-decayed event rate (tokens/s, completions/s).
//
//   * TelemetryPublisher: a thread that periodically drains the hub,
//     folds events into the rolling windows, evaluates the quality-drift
//     monitors, and emits one NDJSON line per tick (plus an optional
//     Prometheus-style text exposition file, rewritten atomically). The
//     publisher never touches engine request state — it sees only the
//     event stream and a snapshot callback that reads engine atomics, so
//     the whole plane is TSan-clean by construction.
//
// Quality-drift monitors (DriftMonitor): rolling windows over retained-KV
// fraction, dense-fallback rate, escalation rate, and TTFT/TPOT tails.
// Crossing a configured threshold raises an `alert.<name>` counter on the
// rising edge (surfaced in the run report's lifecycle view) and, when
// `pretrip_breaker` is set, asks the engine to pre-trip the PR 7 planning
// circuit breaker before the fault streak alone would.
//
// Cost contract: when TelemetryOptions.enabled is false the engine creates
// no hub and no publisher — every emission site is one pointer test. The
// enabled-vs-disabled overhead on bench_serving --engine is pinned < 2%
// (telemetry_test, check_sanitizers.sh).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace sattn::obs {

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class TelemetryEventKind : std::uint8_t {
  kSubmit = 0,        // submitter thread; t = arrival instant
  kAdmit,             // request admitted to the live set
  kPrefillChunk,      // value = measured chunk seconds, aux = chunk tokens
  kPrefillDone,       // value = measured TTFT seconds
  kDecodeStep,        // value = measured step seconds
  kComplete,          // value = mean TPOT seconds, aux = decoded tokens
  kShed,              // aux = shed-reason hash (informational)
  kCancel,
  kPlan,              // value = retained-KV fraction; aux bit0 = escalated,
                      // bit1 = dense fallback
  kAudit,             // value = measured chunk CRA (worst audited row),
                      // aux = audited row count (obs/audit.h)
};

// The first eight kinds (codes 0-7) are the request lifecycle phases: the
// `timeline.<request>` series values use the same coding, and the run
// report's timeline view names them with this ("submitted" ... "cancelled";
// "unknown" for any other code).
const char* request_phase_name(TelemetryEventKind kind);

// Fixed-size POD so ring slots need no allocation and drains are memcpys.
struct TelemetryEvent {
  double t = 0.0;       // engine seconds
  float value = 0.0f;   // kind-specific payload (seconds, fraction)
  std::uint32_t aux = 0;
  TelemetryEventKind kind = TelemetryEventKind::kSubmit;
  char id[31] = {};  // NUL-terminated request id, truncated to fit

  void set_id(std::string_view s) {
    const std::size_t n = s.size() < sizeof(id) - 1 ? s.size() : sizeof(id) - 1;
    std::memcpy(id, s.data(), n);
    id[n] = '\0';
  }
  std::string_view id_view() const { return std::string_view(id); }
};
static_assert(sizeof(TelemetryEvent) == 48, "keep ring slots compact");

// ---------------------------------------------------------------------------
// Lock-free SPSC ring
// ---------------------------------------------------------------------------

// Single-producer single-consumer bounded ring. The producer is the thread
// the ring was registered for; the consumer is the publisher. A push into a
// full ring drops the event (newest-dropped) and bumps dropped() — telemetry
// must never apply backpressure to the engine.
class TelemetryRing {
 public:
  // Capacity is rounded up to a power of two, minimum 8.
  explicit TelemetryRing(std::size_t capacity);

  // Producer thread only.
  bool try_push(const TelemetryEvent& ev);

  // Consumer thread only: appends every pending event to `out` in push
  // order; returns how many were drained.
  std::size_t drain(std::vector<TelemetryEvent>& out);

  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<TelemetryEvent> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};  // next write index (producer-owned)
  std::atomic<std::uint64_t> tail_{0};  // next read index (consumer-owned)
  std::atomic<std::uint64_t> dropped_{0};
};

// Per-thread ring registry: push() finds (or lazily registers) the calling
// thread's ring through a thread-local cache, so after the first push a
// thread never takes the registry mutex again. Hub ids are globally unique
// and never reused, so a stale cache entry from a destroyed hub can never
// alias a new one (the cached shared_ptr keeps the orphan ring alive and
// writes to it are simply never drained).
class TelemetryHub {
 public:
  explicit TelemetryHub(std::size_t ring_capacity = 4096);

  // Any thread. Lock-free after the calling thread's first push.
  void push(const TelemetryEvent& ev);

  // Single consumer: drains every ring and appends the union to `out`
  // sorted by event time. Returns how many events were drained.
  std::size_t drain(std::vector<TelemetryEvent>& out);

  // Total events dropped across all rings (monotonic).
  std::uint64_t dropped() const;

  std::uint64_t id() const { return id_; }
  std::size_t ring_count() const;

 private:
  std::shared_ptr<TelemetryRing> ring_for_this_thread();

  const std::uint64_t id_;
  const std::size_t ring_capacity_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<TelemetryRing>> rings_;
};

// ---------------------------------------------------------------------------
// Rolling aggregators
// ---------------------------------------------------------------------------

struct RollingStats {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Sliding-window sample buffer: keeps (t, v) for the last window_seconds
// (bounded by max_samples, oldest evicted first) and computes nearest-rank
// percentiles over exactly that window. Owned by one thread (the publisher);
// not internally synchronized.
class RollingHistogram {
 public:
  explicit RollingHistogram(double window_seconds = 10.0, std::size_t max_samples = 4096);

  void observe(double t, double v);
  RollingStats stats(double now);
  std::size_t size() const { return samples_.size(); }
  double window_seconds() const { return window_s_; }

 private:
  void evict(double now);

  double window_s_;
  std::size_t max_samples_;
  std::deque<std::pair<double, double>> samples_;
};

// Exponentially-decayed event rate: add(t, n) decays the accumulator with
// time constant tau and adds n; rate(now) returns events/second. For a
// steady stream of r events/s the estimate converges to r within ~2 tau.
class EwmaRate {
 public:
  explicit EwmaRate(double tau_seconds = 2.0);

  void add(double t, double n = 1.0);
  double rate(double now) const;

 private:
  double tau_;
  double acc_ = 0.0;
  double last_t_ = 0.0;
};

// ---------------------------------------------------------------------------
// Quality-drift monitors
// ---------------------------------------------------------------------------

// Thresholds; a negative value disables that monitor. Rates are fractions
// of planning episodes inside the rolling window (0..1). A monitor only
// fires once its window holds at least min_samples observations, so a
// single early dense fallback cannot trip an alert.
struct DriftThresholds {
  double window_seconds = 5.0;
  std::size_t min_samples = 8;
  double min_retained_kv_frac = -1.0;   // alert when rolling mean falls below
  double max_dense_fallback_rate = -1.0;
  double max_escalation_rate = -1.0;
  double max_ttft_p99_seconds = -1.0;
  double max_tpot_p99_seconds = -1.0;
  // Alert when the rolling mean of *measured* chunk CRA (shadow-sampled by
  // the quality auditor, obs/audit.h) falls below this floor. Unlike the
  // proxies above, this monitor fires on the paper's own quality metric.
  double min_measured_cra = -1.0;
  // Ask the engine to pre-trip its planning circuit breaker while a
  // quality alert (retained-KV / dense-fallback / escalation / measured
  // CRA) is active.
  bool pretrip_breaker = false;
};

struct AlertState {
  std::string name;        // e.g. "dense_fallback_rate_high"
  double value = 0.0;      // monitored value at evaluation time
  double threshold = 0.0;
  bool active = false;
  double since_s = 0.0;    // engine time the alert last became active
};

// Rolling-window drift evaluation. evaluate() recomputes every configured
// monitor and bumps `alert.<name>` counters on rising edges (through the
// obs counter registry, so the lifecycle view picks them up). Owned by the
// publisher thread; not internally synchronized.
class DriftMonitor {
 public:
  explicit DriftMonitor(DriftThresholds th);

  void observe_plan(double t, double retained_frac, bool escalated, bool dense_fallback);
  void observe_ttft(double t, double seconds);
  void observe_tpot(double t, double seconds);
  void observe_audit(double t, double measured_cra);

  const std::vector<AlertState>& evaluate(double now);
  const std::vector<AlertState>& alerts() const { return alerts_; }

  // True when a *quality* alert (retained-KV fraction, dense-fallback rate,
  // escalation rate) is active — the pretrip_breaker trigger set.
  bool quality_alert_active() const;

 private:
  struct PlanSample {
    double t;
    float retained;
    bool escalated;
    bool dense_fallback;
  };

  DriftThresholds th_;
  std::deque<PlanSample> plans_;
  RollingHistogram ttft_;
  RollingHistogram tpot_;
  RollingHistogram audit_;
  std::vector<AlertState> alerts_;
};

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

struct TelemetryOptions {
  bool enabled = false;
  double interval_seconds = 0.05;  // publisher tick period
  std::string ndjson_path;         // "" = no NDJSON stream file
  std::string prom_path;           // "" = no Prometheus exposition file
  double window_seconds = 10.0;    // rolling percentile window
  double rate_tau_seconds = 2.0;   // EWMA rate time constant
  std::size_t ring_capacity = 4096;
  DriftThresholds drift;
};

// What the engine exposes to the publisher each tick: atomics only, read by
// the snapshot callback on the publisher thread.
struct EngineTelemetrySnapshot {
  double t = 0.0;  // engine seconds now
  std::size_t live = 0;    // requests in flight (any state)
  std::size_t active = 0;  // requests past the KV-budget gate
  double kv_bytes = 0.0;
  double kv_budget_bytes = 0.0;
  int breaker_state = 0;  // 0 closed / 1 open / 2 half-open
  double heartbeat_age_s = 0.0;
  long long watchdog_stalls = 0;
};

// Cumulative event totals folded by the publisher from the drained stream.
struct TelemetryTotals {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t prefill_chunks = 0;
  std::uint64_t decode_steps = 0;
  std::uint64_t plans = 0;
  std::uint64_t escalations = 0;
  std::uint64_t dense_fallbacks = 0;
  std::uint64_t audited_chunks = 0;
  std::uint64_t audited_rows = 0;
};

// The publisher thread: drains the hub every interval, folds events into
// the rolling windows and the drift monitor, and emits one NDJSON line per
// tick (schema "sattn.telemetry" v1) plus an optional Prometheus text file
// (written to <path>.tmp then renamed, so readers never see a torn file).
// stop() performs one final flush tick and joins; it is idempotent and also
// runs from the destructor. tick() is public so tests can drive the
// pipeline deterministically without the thread.
class TelemetryPublisher {
 public:
  TelemetryPublisher(TelemetryOptions opts, std::string label, TelemetryHub* hub,
                     std::function<EngineTelemetrySnapshot()> snapshot_fn);
  ~TelemetryPublisher();

  TelemetryPublisher(const TelemetryPublisher&) = delete;
  TelemetryPublisher& operator=(const TelemetryPublisher&) = delete;

  void start();
  void stop();
  void tick();

  // True once while a quality alert is active and drift.pretrip_breaker is
  // set; consuming resets the flag until the publisher re-arms it. Called
  // by the engine loop (any thread).
  bool consume_breaker_pretrip();

  // Most recent NDJSON line (also produced when ndjson_path is empty, so
  // in-process consumers can read the stream without a file).
  std::string last_line() const;

  std::vector<AlertState> alerts() const;
  TelemetryTotals totals() const;
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }
  std::uint64_t events_seen() const { return events_seen_.load(std::memory_order_relaxed); }

 private:
  void run();
  void fold(const TelemetryEvent& ev);
  std::string render_line(const EngineTelemetrySnapshot& snap);
  void write_prometheus(const EngineTelemetrySnapshot& snap);
  void publish_gauges(const EngineTelemetrySnapshot& snap);

  TelemetryOptions opts_;
  std::string label_;
  TelemetryHub* hub_;
  std::function<EngineTelemetrySnapshot()> snapshot_fn_;

  // Publisher-thread-owned aggregation state.
  TelemetryTotals totals_;
  RollingHistogram ttft_;
  RollingHistogram tpot_;
  RollingHistogram retained_;
  RollingHistogram audit_cra_;
  EwmaRate submit_rate_;
  EwmaRate complete_rate_;
  EwmaRate decode_tok_rate_;
  EwmaRate shed_rate_;
  DriftMonitor drift_;
  std::vector<TelemetryEvent> scratch_;
  std::uint64_t seq_ = 0;

  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> events_seen_{0};
  std::atomic<bool> pretrip_{false};

  mutable std::mutex state_mu_;  // guards last_line_/alerts/totals copies
  std::string last_line_;
  std::vector<AlertState> alerts_copy_;
  TelemetryTotals totals_copy_;

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace sattn::obs
