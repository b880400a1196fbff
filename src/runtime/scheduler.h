// Serving-queue simulator: what SampleAttention's prefill speedup means for
// a stream of long-context requests on one device.
//
// TTFT in production is queueing + prefill; because prefill time is
// quadratic in prompt length, one 256K request parked in front of the queue
// dominates everyone's TTFT. simulate_queue_slo plays an arrival trace
// through a FCFS (optionally chunk-preemptive round-robin) single-device
// queue whose per-request prefill latency comes from the calibrated A100
// cost model, for either a FlashAttention2 engine or a SampleAttention
// engine with measured densities. The serving bench uses it to extend the
// paper's Table 4 / Fig 1 story from single requests to queues.
//
// ServingPolicy holds the production guardrails (docs/ROBUSTNESS.md):
// admission control, per-request TTFT deadlines with shedding, retry with
// exponential backoff, and SLO-aware graceful degradation — under overload
// the SampleAttention engine's density budget is lowered per the cost model
// (lower alpha / window budget) to keep p99 TTFT inside the target instead
// of letting the queue blow through it. It is the single implementation of
// these policies: the simulator applies it to modeled cost, the serving
// engine (runtime/engine.h) to measured kernel time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "perf/cost_model.h"
#include "sample_attention/sample_attention.h"

namespace sattn {

// A span of prompt content identified by a stable key. Two requests whose
// prompts start with the same segment sequence produce bit-identical Q/K/V
// rows for those tokens (the live engine derives synthetic content from the
// segment key + absolute position, not the request id), which is what makes
// the paged KV prefix cache (runtime/kv_page.h) able to share their prefill
// across requests — e.g. a fleet of conversations reusing one system prompt.
struct ContentSegment {
  std::string key;   // content identity ("sys", "conv/7", ...)
  Index tokens = 0;  // length of the segment in prompt tokens
};

struct ServingRequest {
  std::string id;
  Index prompt_tokens = 0;
  double arrival_seconds = 0.0;
  // Optional content layout. When non-empty, segment tokens must sum to
  // <= prompt_tokens (the remainder is request-private content); when empty
  // the whole prompt is private to the request (the pre-paging behavior,
  // bit-identical to it).
  std::vector<ContentSegment> segments;

  ServingRequest() = default;
  ServingRequest(std::string id_, Index tokens, double arrival,
                 std::vector<ContentSegment> segs = {})
      : id(std::move(id_)),
        prompt_tokens(tokens),
        arrival_seconds(arrival),
        segments(std::move(segs)) {}
};

enum class EngineKind { kSdpa, kFlashAttention, kSampleAttention };

// Latency model of one serving engine.
struct Engine {
  ModelConfig model = chatglm2_6b();
  GpuSpec gpu = a100_single();
  EngineKind kind = EngineKind::kFlashAttention;

  // SampleAttention inputs, measured on the substrate (see bench_fig5):
  // kept/window densities at `density_measured_at` tokens and the Stage-1
  // overhead fraction.
  double kept_density = 0.25;
  double overhead_density = 0.05;
  Index density_measured_at = 4096;
  double window_ratio = 0.08;

  // When set, replaces the analytic cost model: prefill_seconds returns
  // cost_override(prompt_tokens, density_scale) directly. bench_serving
  // --engine calibrates one from measured kernel time so the simulator's
  // predictions and the real engine's measurements share a cost substrate
  // (docs/SERVING.md).
  std::function<double(Index prompt_tokens, double density_scale)> cost_override;

  // Prefill seconds for one request of the given prompt length.
  // `density_scale` models graceful degradation: the SampleAttention
  // engine's kept/overhead densities are multiplied by it (a lower alpha
  // and window budget per the cost model); exact engines ignore it.
  double prefill_seconds(Index prompt_tokens, double density_scale = 1.0) const;
};

struct CompletedRequest {
  ServingRequest request;
  double start_seconds = 0.0;    // when prefill began
  double finish_seconds = 0.0;   // TTFT instant
  int degrade_level = 0;         // ladder level served at (0 = full quality)
  int attempts = 1;              // 1 + transient-failure retries
  // TTFT attribution (the three sum to ttft()):
  //   compute — service time that produced the final output,
  //   guard   — guardrail escalation time: lost retry attempts, stall
  //             slowdown excess, and retry-backoff gates,
  //   queue   — everything else (waiting for the device).
  double queue_seconds = 0.0;
  double compute_seconds = 0.0;
  double guard_seconds = 0.0;
  double ttft() const { return finish_seconds - request.arrival_seconds; }
  double queueing() const { return start_seconds - request.arrival_seconds; }
};

struct ServingSummary {
  double mean_ttft = 0.0;
  double max_ttft = 0.0;
  double p50_ttft = 0.0;
  double p99_ttft = 0.0;
  double mean_queueing = 0.0;
  double makespan = 0.0;  // finish of the last request
};

// ---- Serving policy ----

// Projected prefill seconds for a prompt at a degrade-ladder density scale.
using PrefillCost = std::function<double(Index prompt_tokens, double density_scale)>;

// The policy the simulator and the engine share. Its decisions are pure
// functions of the options and their arguments; each caller owns its clock,
// its queue and its cost substrate (modeled in simulate_queue_slo, measured
// in ServingEngine).
struct ServingPolicy {
  // Admission control: arrivals beyond this many waiting requests are shed
  // at the door ("admission"). 0 = unlimited.
  Index max_queue_depth = 0;

  // Arrivals longer than this are shed at the door ("oversized"). 0 =
  // unlimited.
  Index max_prompt_tokens = 0;

  // Per-request hard TTFT deadline; a request whose projected or actual
  // TTFT exceeds it is shed ("deadline"). 0 disables deadlines.
  double deadline_seconds = 0.0;

  // Target TTFT the degrader steers toward: before service starts, the
  // degrade ladder is walked until the projected TTFT fits (or the ladder
  // is exhausted). 0 steers toward the deadline instead; with both 0 there
  // is no steering.
  double slo_ttft_seconds = 0.0;

  // Graceful-degradation ladder: density multipliers applied to the engine
  // (level 0 must be 1.0 = full quality). Only SampleAttention can actually
  // trade quality for time; for exact engines the ladder is a no-op and
  // overload resolves by shedding.
  std::vector<double> degrade_density_scale = {1.0, 0.6, 0.35};

  // Transient failures: a failed attempt is lost and the request retries
  // after retry_backoff_seconds x 2^(attempts-1), at most max_retries
  // times; the next failure sheds it ("retries_exhausted").
  int max_retries = 2;
  double retry_backoff_seconds = 0.05;

  // kInvalidArgument unless every limit is >= 0 and the ladder starts at
  // 1.0 with every rung in (0, 1].
  Status validate() const;

  int levels() const { return static_cast<int>(degrade_density_scale.size()); }
  double density_scale(int level) const {
    return degrade_density_scale[static_cast<std::size_t>(level)];
  }

  // The TTFT steering aims at: slo_ttft_seconds, else deadline_seconds,
  // else +inf.
  double target_ttft() const;

  // Door check for an arrival while `waiting` requests are queued: the shed
  // reason — "oversized" is checked before "admission", and an empty
  // prompt is "admission" — or nullptr to admit.
  const char* admit(Index prompt_tokens, Index waiting) const;

  struct Steer {
    int level = 0;                // ladder level to serve at
    double projected_ttft = 0.0;  // waited + cost at that level
  };
  // First-service steering for a request that has waited `waited` seconds:
  // walks the ladder from full quality until waited + cost fits
  // target_ttft(), taking a rung only when it is strictly cheaper than the
  // current one — so exact engines, and a zero cost, never degrade.
  Steer steer(double waited, Index prompt_tokens, const PrefillCost& cost) const;

  // True when a projected or actual TTFT misses the hard deadline.
  bool past_deadline(double ttft) const {
    return deadline_seconds > 0.0 && ttft > deadline_seconds;
  }

  // Backoff before retrying a request whose attempt number `attempts`
  // (1-based) just failed, or nullopt once retries are exhausted
  // (attempts > max_retries).
  std::optional<double> retry_backoff(int attempts) const;
};

// ---- SLO-aware serving simulation ----

struct SloOptions : ServingPolicy {
  // Injected transient faults, deterministic in `seed`: each service
  // attempt fails with probability fault_rate (the work is lost and the
  // request retries per the policy's backoff); each service slice stalls
  // with probability stall_rate, running stall_factor x slower.
  double fault_rate = 0.0;
  double stall_rate = 0.0;
  double stall_factor = 4.0;
  std::uint64_t seed = 0x510ull;

  // Round-robin chunk quantum. 0 = FCFS.
  Index chunk_quantum_tokens = 0;

  // Label prefixing the per-request gauges (`request.<run_label>/<id>.*`)
  // so several simulations in one process do not overwrite each other.
  std::string run_label;
};

struct ShedRequest {
  ServingRequest request;
  // "admission" | "oversized" | "deadline" | "retries_exhausted" from the
  // simulator and the live engine; the engine's lifecycle hardening adds
  // "kv_budget" (solo KV demand exceeds the whole memory budget) and
  // "watchdog" (measured service time blew past the runaway multiple) —
  // see runtime/engine.h.
  std::string reason;
  double shed_seconds = 0.0;
};

// Outcome bookkeeping the simulator and the engine share: the one place a
// shed, a retry or a completion is counted.
struct ServingTally {
  std::vector<ShedRequest> shed;
  Index degraded = 0;  // completed requests served below full quality
  Index retries = 0;   // transient-failure retries performed
  std::vector<Index> served_per_level;  // completed count per ladder level

  // Appends the shed and bumps sched.requests_shed plus the policy reason's
  // own sched.* counter (the engine counts its engine-only reasons itself).
  void record_shed(ServingRequest req, std::string reason, double t);
  void record_retry();
  // Settles a completion: queue = ttft - compute - guard, the degrade-level
  // tallies, the `request.<request_key>.*` gauges, the sched.ttft_seconds
  // (with the request key as exemplar) and sched.tpot_seconds histograms,
  // and sched.requests_completed. decoded_tokens == 0 records no TPOT.
  void record_completion(CompletedRequest& c, const std::string& run_label,
                         Index decoded_tokens = 0, double tpot_seconds = 0.0);
};

struct SloServingResult : ServingTally {
  std::vector<CompletedRequest> completed;
  Index stalls = 0;  // stalled service slices
};

// Plays `requests` through one device under `opts`. If chunk_quantum_tokens
// > 0, prefill runs in chunk-sized quanta with round-robin between queued
// requests (bounds the head-of-line blocking a huge request causes). Quanta
// are billed at the *progressive* prefix cost — chunk i of a long request
// costs prefix_cost(i+1) - prefix_cost(i), matching real chunked prefill
// where early chunks attend short prefixes — so a request arriving
// mid-stream is not overcharged by a freshly started long request (the
// quanta telescope: total service time is exactly prefill_seconds(prompt)).
//
// Per-request observability: each completed request carries its
// queue/compute/guard TTFT breakdown, and when collection is enabled the
// simulator emits `request.<run_label>/<id>.{queue_s,compute_s,guard_s,
// ttft_s}` gauges (no label prefix when run_label is empty) and tags the
// `sched.ttft_seconds` histogram with request-id exemplars, so report
// tails are traceable to specific requests.
StatusOr<SloServingResult> simulate_queue_slo(std::span<const ServingRequest> requests,
                                              const Engine& engine, const SloOptions& opts);

ServingSummary summarize(std::span<const CompletedRequest> completed);

// Metric key of one request: `<run_label>/<id>`, or `<id>` when the label
// is empty.
std::string request_key(const std::string& run_label, const std::string& id);

// A reproducible arrival trace: `count` requests with lengths log-uniform in
// [min_tokens, max_tokens] and exponential inter-arrival times of the given
// mean. Invalid parameters are kInvalidArgument.
StatusOr<std::vector<ServingRequest>> synthetic_trace(Index count, Index min_tokens,
                                                      Index max_tokens,
                                                      double mean_interarrival_seconds,
                                                      std::uint64_t seed = 0x7e1ull);

}  // namespace sattn
