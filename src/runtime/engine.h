// Real continuous-batching serving engine: the measured counterpart of the
// queue simulator in runtime/scheduler.h (docs/SERVING.md).
//
// Where simulate_queue_slo plays an arrival trace against *modeled* prefill
// cost, ServingEngine runs the actual kernels: submitters hand it
// ServingRequests from any thread, an engine loop thread admits them,
// forms a continuous batch each iteration (runtime/batch.h), interleaves
// one chunked-prefill step or one decode step per live request through a
// single ragged_attention_sweep, and measures what the simulator predicts —
// per-request TTFT split into queue/compute/guard, TPOT over decode steps.
// Admission, deadlines, degrade-ladder steering, retry backoff and
// completion accounting are the simulator's own ServingPolicy and
// ServingTally (runtime/scheduler.h), applied to *measured* kernel time.
//
// Attribution contract (pinned by engine_test): for every completed
// request, queue + compute + guard == ttft, where compute is the sum of
// the request's measured kernel slices (planning + accepted execution),
// guard is measured guardrail overhead (rejected plan attempts on the
// escalation ladder, lost faulted chunks, retry-backoff gates), and queue
// is the remaining wall time — genuinely waiting on the device, because
// each request occupies at most one sequence of any sweep and its slices
// are disjoint in wall time.
//
// Threading model: submit()/cancel()/close() are thread-safe producers onto
// a mutex-guarded intake queue; the single loop thread owns all request
// state, so no request field is ever touched concurrently; kernel
// parallelism lives inside the sweep (pool workers claim row blocks of any
// sequence).
// finish() closes the intake, joins the loop (optionally bounded by a drain
// deadline that force-cancels stragglers), and returns the results. An
// optional watchdog thread observes loop progress through atomics only.
//
// One loop iteration is a run of named phases (engine.cpp): intake (drain
// submissions and cancels, bounded drain) -> admit (row keys and a prefix
// probe) -> gate_kv_budget -> steer -> form (synthesize at a request's
// first chunk, plan_chunk per sample-mode prefill chunk) -> one ragged
// sweep -> apply (finish_prefill when a prompt is done). Every terminal
// state goes through retire(), and every lifecycle event through note().
//
// Lifecycle hardening (docs/ROBUSTNESS.md, "Lifecycle, overload & chaos"):
// every submitted request reaches EXACTLY ONE terminal state — completed,
// shed (with reason), or cancelled — and completed + cancelled records both
// satisfy queue + compute + guard == ttft. The chaos harness
// (tests/chaos_engine_test.cpp, bench_serving --chaos) drives seeded fault
// storms, overload bursts, deadline storms, and mid-stream cancellations
// against these invariants.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attention/flash_attention.h"
#include "obs/audit.h"
#include "obs/telemetry.h"
#include "robust/fault_injection.h"
#include "runtime/batch.h"
#include "runtime/eviction.h"
#include "runtime/kv_page.h"
#include "runtime/scheduler.h"
#include "sample_attention/guarded.h"
#include "sample_attention/sample_attention.h"

namespace sattn {

enum class EngineMode { kDense, kSampleAttention };

class KVCache;

// Synthetic prompt content, named by row keys: one 64-bit key per prompt
// token that determines its Q, K and V rows. Row r of a segmented prompt
// (ServingRequest::segments) is keyed by (seed, segment key, r) and its
// rows are drawn from that key alone, so two requests whose prompts start
// with the same segment sequence have equal leading keys and bit-identical
// leading rows; the prefix index (runtime/kv_page.h) compares the keys
// before sharing pages. Tokens past the declared segments are keyed by the
// request id (private content). A segment-less prompt is one sequential Rng
// stream seeded by its id (Q, then K, then V, then the decode queries),
// bit-identical to the pre-paging engine; its key for row r names
// (seed, id, prompt length, r).
std::vector<std::uint64_t> prompt_row_keys(const ServingRequest& req, std::uint64_t seed);

// Synthesizes the prompt rows past those `cache` already holds (an
// attached prefix): Q row r into q.row(r - cache.size()) (q is resized to
// the rest of the prompt), K and V rows into private pages the cache
// extends by, and the decode queries into dec_q (sized by the caller). A
// segmented prompt fills its rows in page-sized blocks on the thread pool;
// `keys` are prompt_row_keys(req, seed).
void synthesize_prompt(const ServingRequest& req, std::uint64_t seed,
                       std::span<const std::uint64_t> keys, KVCache& cache, Matrix& q,
                       Matrix& dec_q);

// The ServingPolicy base carries the shared policy fields (max_queue_depth,
// max_prompt_tokens, deadline_seconds, slo_ttft_seconds,
// degrade_density_scale, max_retries, retry_backoff_seconds); the engine
// aborts at construction when they fail ServingPolicy::validate().
struct EngineOptions : ServingPolicy {
  EngineMode mode = EngineMode::kDense;
  Index head_dim = 64;

  // Batch formation (runtime/batch.h).
  Index chunk_tokens = 256;
  Index max_batch = 8;

  // Tokens decoded per request after prefill before it completes. TPOT is
  // the mean measured decode-step time. 0 skips decode.
  Index decode_tokens = 8;

  // Chunk-level transient faults (deterministic in fault.seed): a firing
  // chunk's measured time is billed to guard and the chunk is redone.
  FaultSpec fault;

  // kSampleAttention: per-chunk planning config and the guard policy whose
  // escalation ladder (resample -> widen -> dense) runs on measured time.
  // Each chunk walks escalation_ladder(sample, guard) — the rungs
  // guarded_sample_attention walks — and always ends on the dense rung, so
  // the engine ignores guard.allow_dense_fallback (and validate_inputs: its
  // synthetic inputs are finite by construction).
  SampleAttentionConfig sample;
  GuardConfig guard;

  FlashConfig flash;

  // Projected prefill seconds for a prompt at a density scale, calibrated by
  // the caller from measured samples (bench_serving fits one from warmup
  // chunks). The cost ServingPolicy::steer projects with at first service;
  // null projects zero cost, so there is no steering and only requests
  // that already waited past the deadline shed.
  PrefillCost projected_prefill_seconds;

  // Seed for the synthetic per-request Q/K/V content.
  std::uint64_t seed = 0x5e1ull;

  // Prefix for request.<run_label>/<id>.* gauges.
  std::string run_label = "engine";

  // ---- Lifecycle hardening ----

  // KV memory budget: cap on the projected live KV bytes across *active*
  // requests — prompt_tokens x head_dim x 2 streams x 4 bytes while a
  // request prefills (it will need its full KV), the actual KVCache::bytes()
  // once it decodes (eviction shrinks it). Admitted requests beyond the
  // budget wait un-started (backpressure; their wait bills to queue); before
  // a waiter sheds, the eviction rung compacts decoding caches to free
  // bytes. Only a request whose SOLO demand exceeds the whole budget is shed
  // ("kv_budget") — everything else eventually activates, so a finite trace
  // cannot deadlock. 0 disables the budget.
  double kv_budget_bytes = 0.0;

  // Eviction-under-pressure rung: the policy enforced on active decoding
  // caches when a waiter cannot fit (runtime/eviction.h). Retention degrades
  // before traffic sheds. H2O additionally observes per-step attention
  // weights (decode_attention) so its heavy-hitter scores are real.
  EvictionKind kv_eviction = EvictionKind::kSinkRecent;
  Index kv_evict_keep = 96;    // max slots a pressured cache retains
  Index kv_evict_recent = 64;  // tail slots always retained

  // ---- Paged KV & prefix cache (runtime/kv_page.h) ----

  // Shared page arena. Null: the engine creates its own private arena sized
  // by kv_page_tokens. Passing one in lets several engine runs share a
  // prefix index — a warm run reuses pages published by an earlier cold run
  // (bench_serving --prefix measures exactly this).
  std::shared_ptr<KvPageArena> kv_arena;
  Index kv_page_tokens = KvPageArena::kDefaultPageTokens;  // power of two

  // Prefix cache: at admission the engine probes the arena's prefix index
  // with the request's row keys (prompt_row_keys) and attaches any
  // matching shared pages — those tokens skip synthesis and prefill
  // compute entirely (counters engine.kv_prefix_hits /
  // engine.kv_prefix_hit_tokens), cutting TTFT; at prefill completion the
  // request's full pages are published for future requests. Sharing
  // requires overlapping ServingRequest::segments.
  bool kv_prefix_cache = true;

  // Sparse-residency eviction (sample mode): when a request finishes
  // prefill with an accepted structured plan, drop the KV pages no head
  // will touch again — keep the plan's stripe columns plus the local-window
  // tail — so pages_live tracks the mask's retained fraction instead of the
  // dense footprint. Uses the same keep_slots COW machinery as the
  // pressure-driven eviction rungs, but triggered by plan structure rather
  // than memory pressure.
  bool kv_sparse_residency = false;

  // Watchdog: with watchdog_stall_seconds > 0 a monitor thread alerts
  // (engine.watchdog_stalls) when the loop makes no progress for that long
  // while not idle-waiting — a stuck kernel or a deadlocked step. With
  // watchdog_cost_multiple > 0 and projected_prefill_seconds set, the loop
  // sheds a prefilling request ("watchdog") whose service wall time exceeds
  // multiple x projected cost — a runaway request cannot park the batch.
  double watchdog_stall_seconds = 0.0;
  double watchdog_cost_multiple = 0.0;

  // Circuit breaker (sample mode): after this many CONSECUTIVE chunk
  // plannings that exhausted the escalation ladder to dense fallback, the
  // breaker opens and planning is short-circuited straight to dense for
  // breaker_cooldown_seconds (no guard time burned on a faulting planner);
  // the first post-cooldown chunk probes half-open, and a planning success
  // closes the breaker. 0 disables.
  int breaker_fault_threshold = 0;
  double breaker_cooldown_seconds = 0.05;

  // ---- Live telemetry plane (obs/telemetry.h) ----
  //
  // With telemetry.enabled the engine owns a TelemetryHub (lock-free
  // per-thread event rings fed by submit() and the loop) and a
  // TelemetryPublisher thread that drains it every interval, maintains
  // rolling TTFT/TPOT/retained-KV windows and EWMA rates, evaluates the
  // quality-drift monitors (alert.* counters, optional breaker pre-trip via
  // telemetry.drift.pretrip_breaker), and emits an NDJSON stream plus a
  // Prometheus-style exposition file. Disabled: no hub, no thread, every
  // emission site is one pointer test.
  obs::TelemetryOptions telemetry;

  // ---- Online quality audit (obs/audit.h) ----
  //
  // With audit.enabled in sample mode, the engine owns a QualityAuditor
  // that shadow-samples a deterministic fraction of query rows: sparse
  // prefill chunks are scored in the sweep (ground-truth softmax rows vs
  // the deployed mask), and decode rows are scored for free from
  // decode_attention's exact weights against the request's accepted plan
  // structure. Audit wall time bills to *guard* (it is measured quality
  // assurance, not service compute), so queue + compute + guard == ttft
  // still holds; measured chunk CRA feeds the telemetry kAudit stream and
  // the measured_cra_low drift monitor. Ignored in dense mode (the dense
  // path is exact — there is nothing to audit).
  obs::AuditOptions audit;
};

// One finished request. `base` reuses the simulator's completion record so
// summarize() and the request gauges work unchanged; all its times are
// measured seconds relative to engine start.
struct EngineCompletion {
  CompletedRequest base;
  Index decoded_tokens = 0;
  double tpot_seconds = 0.0;    // mean measured decode-step seconds
  Index prefix_hit_tokens = 0;  // prompt tokens served from the prefix cache
};

// A request that reached the kCancelled terminal state: explicitly via
// cancel(), or force-cancelled by a bounded drain. The base record carries
// the same queue/compute/guard attribution as a completion, with
// finish_seconds = the cancellation instant (so queue + compute + guard ==
// ttft still holds: compute/guard are the measured slices spent before the
// cancel, queue the residual; an unserved portion of a retry-backoff gate
// is refunded from guard).
struct CancelledRequest {
  CompletedRequest base;
  Index decoded_tokens = 0;
  std::string reason;  // "cancel" | "shutdown"
};

// The three terminal states of the request lifecycle. Exactly one per
// submitted request — the chaos harness's core invariant.
enum class TerminalState { kCompleted, kShed, kCancelled };

// The ServingTally base holds shed, degraded, retries (faulted chunks
// retried) and served_per_level.
struct EngineResult : ServingTally {
  std::vector<EngineCompletion> completed;
  std::vector<CancelledRequest> cancelled;
  Index iterations = 0;      // engine loop iterations that ran a sweep
  Index peak_live_batch = 0; // max requests in flight at once

  // Lifecycle-hardening telemetry (mirrored by engine.* counters).
  Index kv_evictions = 0;       // eviction-rung passes that freed bytes
  Index kv_pressure_waits = 0;  // requests that waited on the KV budget
  double peak_kv_bytes = 0.0;   // max projected live KV bytes observed
  Index watchdog_stalls = 0;    // stall alerts from the watchdog thread
  Index breaker_trips = 0;      // closed -> open transitions

  // Paged-KV telemetry (mirrored by engine.kv_* counters).
  Index kv_prefix_hits = 0;        // requests that attached >= 1 shared page
  Index kv_prefix_hit_tokens = 0;  // prompt tokens skipped via the prefix cache
  Index kv_pages_peak = 0;         // max arena pages_live observed by the loop
  Index kv_residency_evictions = 0;  // sparse-residency page drops performed
  // Page-residency ratio inputs, summed over finished prefills: pages the
  // cache actually holds once residency eviction ran, vs. the dense
  // ceil(prompt / page_tokens) footprint. resident/full ~= the mask's
  // retained fraction in sparse-residency runs, ~= 1 otherwise.
  Index kv_pages_resident = 0;
  Index kv_pages_full = 0;

  std::vector<CompletedRequest> completions() const;  // bases, for summarize()

  // (request id, terminal state) over completed + shed + cancelled. The
  // chaos invariant: this lists every submitted id exactly once.
  std::vector<std::pair<std::string, TerminalState>> outcomes() const;
};

class ServingEngine {
 public:
  explicit ServingEngine(EngineOptions opts);
  ~ServingEngine();

  // Spawns the engine loop thread (and the watchdog thread when armed).
  // Call once.
  void start();

  // Thread-safe: enqueue a request for admission. The request's
  // arrival_seconds is ignored; arrival is measured at the submit() call.
  // kFailedPrecondition after close() — the request is NOT enqueued and
  // reaches no terminal state.
  Status submit(ServingRequest req);

  // Thread-safe, idempotent: ask the loop to cancel a request. A matched
  // in-flight or queued request reaches the kCancelled terminal state at
  // the next loop iteration (in-flight work already dispatched to the sweep
  // finishes first — cancellation is between-chunks, never mid-kernel). An
  // id that never matches anything is remembered until finish and then
  // dropped: cancelling an already-terminal or unknown request is a no-op.
  void cancel(const std::string& request_id);

  // Thread-safe: no further submissions; the loop drains and exits.
  void close();

  // close() + join + results. Idempotent — every call after the first
  // returns the same result. drain_deadline_seconds >= 0 bounds the drain:
  // requests still in flight that long after the call are force-cancelled
  // (reason "shutdown"); negative (default) drains fully.
  EngineResult finish(double drain_deadline_seconds = -1.0);

  // Convenience: replay a trace (arrival_seconds * time_scale = real
  // seconds between submits) on a submitter thread, then finish().
  EngineResult run_trace(std::span<const ServingRequest> trace, double time_scale = 1.0);

  // Seconds since the loop's last heartbeat: 0 while the loop is idle-
  // waiting (or before start()), the stall age while it is mid-iteration.
  // Thread-safe (atomics only); published as the `engine.heartbeat_age_s`
  // gauge by the watchdog and the telemetry publisher, so stall detection
  // is externally observable instead of a private watchdog channel.
  double heartbeat_age_seconds() const;

  // Live telemetry publisher (null unless EngineOptions::telemetry.enabled
  // and start() was called). Valid until destruction; tests read
  // last_line()/alerts() through it.
  obs::TelemetryPublisher* telemetry_publisher() const { return tele_pub_.get(); }

  // Online quality auditor (null unless EngineOptions::audit.enabled in
  // sample mode). Valid until destruction; tests read head_stats()/totals()
  // through it. finish() publishes its scorecard as `audit.*` gauges.
  const obs::QualityAuditor* auditor() const { return auditor_.get(); }

  // The page arena backing every live KVCache (never null after
  // construction). Expose it to share the prefix index across engine runs:
  // pass it as EngineOptions::kv_arena of a later engine.
  const std::shared_ptr<KvPageArena>& kv_arena() const { return arena_; }

 private:
  struct Live;  // one in-flight request (engine.cpp)
  struct Item;  // one request's share of a step (engine.cpp)
  using LiveIt = std::vector<std::unique_ptr<Live>>::iterator;

  // Circuit breaker over sample-mode planning episodes
  // (EngineOptions::breaker_fault_threshold / breaker_cooldown_seconds).
  struct PlanBreaker {
    enum State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };  // engine.breaker_state
    // Whether a chunk may plan: false while open (the chunk short-circuits
    // to the dense rung); the first call after the cooldown goes half-open.
    bool allow(double now);
    // One planning episode (threshold > 0 only): an exhausted ladder extends
    // the fault streak and trips at the threshold or from half-open; an
    // accepted plan resets the streak and closes a half-open breaker.
    void record(bool accepted, double now);
    // Opens the breaker for the cooldown; false (no trip) if already open.
    bool trip(double now);

    int threshold = 0;
    double cooldown_s = 0.0;
    State state = kClosed;
    double open_until = 0.0;
    int streak = 0;
    Index trips = 0;
  };

  // loop() runs these phases in order, once per iteration (engine.cpp).
  void loop();
  bool intake(std::vector<ServingRequest>& arrivals, bool& closed);
  void admit(std::vector<ServingRequest> arrivals);
  void gate_kv_budget();
  void steer();
  std::vector<Item> form(RaggedBatchView& batch);
  void plan_chunk(Item& item, RaggedSeq& seq);
  void apply(const std::vector<Item>& items, const std::vector<SeqCost>& costs);
  void synthesize(Live& lr);
  void finish_prefill(Live& lr);

  // The one terminal path: completed, shed or cancelled. `lr` is null for a
  // request retired before admission; the iterator form erases from live_.
  void retire(ServingRequest req, const Live* lr, TerminalState state, const char* reason);
  LiveIt retire(LiveIt it, TerminalState state, const char* reason);
  // One lifecycle event: telemetry plus, for the lifecycle kinds, the
  // request's timeline point.
  void note(obs::TelemetryEventKind kind, const std::string& id, double t, double value = 0.0,
            std::uint32_t aux = 0);
  void wait_for_work(std::unique_lock<std::mutex>& lk, double until);
  void probe_prefix(Live& lr);
  double kv_bytes(const Live& lr) const;
  double active_kv_bytes() const;
  void watchdog();
  double now() const;  // seconds since start()

  EngineOptions opts_;
  PrefillCost projected_cost_;  // opts_.projected_prefill_seconds, or zero cost
  PlanBreaker breaker_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ServingRequest> intake_;
  std::vector<std::string> cancel_intake_;
  bool closed_ = false;

  std::thread loop_thread_;
  bool started_ = false;
  bool finished_ = false;
  std::chrono::steady_clock::time_point t0_;

  // Engine-seconds instant after which the loop force-cancels all in-flight
  // work (bounded drain). +inf = drain fully.
  std::atomic<double> drain_deadline_{std::numeric_limits<double>::infinity()};

  // Watchdog channel: the loop stamps heartbeat_s_ (engine seconds) every
  // iteration and flags loop_waiting_ around its idle/backoff waits; the
  // watchdog thread and heartbeat_age_seconds() read both and detect a
  // silent, non-waiting loop. Atomics only — the watchdog never touches
  // request state (TSan-clean by construction).
  std::atomic<double> heartbeat_s_{0.0};
  std::atomic<bool> loop_waiting_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<Index> watchdog_stalls_{0};
  std::thread watchdog_thread_;

  // Telemetry plane (null when opts_.telemetry.enabled is false). The loop
  // and submit() push events into the hub; the publisher thread reads only
  // the hub and the tele_* atomics below, never request state.
  void tele_push(obs::TelemetryEventKind kind, const std::string& id, double t,
                 double value = 0.0, std::uint32_t aux = 0);
  std::unique_ptr<obs::TelemetryHub> tele_hub_;
  std::unique_ptr<obs::TelemetryPublisher> tele_pub_;
  std::atomic<std::size_t> tele_live_{0};
  std::atomic<std::size_t> tele_active_{0};
  std::atomic<double> tele_kv_bytes_{0.0};
  std::atomic<int> tele_breaker_{0};

  // Shadow quality auditor (null when disabled or in dense mode). Audit
  // calls run on sweep workers and the loop thread; the auditor locks its
  // own accumulation state internally.
  std::unique_ptr<obs::QualityAuditor> auditor_;

  // Page arena backing all live KV caches (and the prefix index). Declared
  // before live_ so caches release their pages before the arena dies.
  std::shared_ptr<KvPageArena> arena_;

  // Loop-thread-owned state. A cancel can race ahead of its submit, so
  // unmatched cancel ids wait in pending_cancels_ until they match (or the
  // loop exits); ids of already-terminal requests simply never match.
  std::vector<std::unique_ptr<Live>> live_;
  std::unordered_set<std::string> pending_cancels_;
  Index admit_seq_ = 0;
  EngineResult result_;
};

}  // namespace sattn
