#include "runtime/scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sattn {

double Engine::prefill_seconds(Index prompt_tokens, double density_scale) const {
  if (prompt_tokens <= 0) return 0.0;
  if (cost_override) return cost_override(prompt_tokens, density_scale);
  const double linear = linear_parts_seconds(model, prompt_tokens, gpu);
  switch (kind) {
    case EngineKind::kSdpa:
      return sdpa_seconds(model, prompt_tokens, gpu) + linear;
    case EngineKind::kFlashAttention:
      return flash_attention_seconds(model, prompt_tokens, gpu) + linear;
    case EngineKind::kSampleAttention: {
      const double wd_measured = window_band_density(density_measured_at, window_ratio);
      const double stripes = std::max(0.0, kept_density - wd_measured);
      const double wd = window_band_density(prompt_tokens, window_ratio) * density_scale;
      const double kept =
          wd + extrapolate_kept_fraction(stripes, density_measured_at, prompt_tokens) *
                   density_scale;
      return sample_attention_seconds(model, prompt_tokens, gpu, kept,
                                      overhead_density * density_scale, wd)
                 .total_seconds +
             linear;
    }
  }
  return linear;
}

Status ServingPolicy::validate() const {
  SATTN_CHECK(deadline_seconds >= 0.0 && slo_ttft_seconds >= 0.0, kInvalidArgument,
              "deadline/SLO must be >= 0, got deadline=", deadline_seconds,
              " slo=", slo_ttft_seconds);
  SATTN_CHECK(max_retries >= 0 && retry_backoff_seconds >= 0.0, kInvalidArgument,
              "retry settings must be non-negative");
  SATTN_CHECK(max_queue_depth >= 0 && max_prompt_tokens >= 0, kInvalidArgument,
              "queue/prompt limits must be >= 0");
  SATTN_CHECK(!degrade_density_scale.empty() && degrade_density_scale[0] == 1.0,
              kInvalidArgument, "degrade ladder must start at 1.0 (full quality)");
  for (double s : degrade_density_scale) {
    SATTN_CHECK(s > 0.0 && s <= 1.0, kInvalidArgument, "degrade scale ", s, " not in (0,1]");
  }
  return Status::Ok();
}

double ServingPolicy::target_ttft() const {
  return slo_ttft_seconds > 0.0   ? slo_ttft_seconds
         : deadline_seconds > 0.0 ? deadline_seconds
                                  : std::numeric_limits<double>::infinity();
}

const char* ServingPolicy::admit(Index prompt_tokens, Index waiting) const {
  if (max_prompt_tokens > 0 && prompt_tokens > max_prompt_tokens) return "oversized";
  if (prompt_tokens <= 0 || (max_queue_depth > 0 && waiting >= max_queue_depth)) {
    return "admission";
  }
  return nullptr;
}

ServingPolicy::Steer ServingPolicy::steer(double waited, Index prompt_tokens,
                                          const PrefillCost& cost) const {
  Steer s;
  double cur = cost(prompt_tokens, density_scale(0));
  while (s.level + 1 < levels() && waited + cur > target_ttft()) {
    const double next = cost(prompt_tokens, density_scale(s.level + 1));
    if (next >= cur) break;  // the rung buys no time: not a degradation
    ++s.level;
    cur = next;
  }
  s.projected_ttft = waited + cur;
  return s;
}

std::optional<double> ServingPolicy::retry_backoff(int attempts) const {
  if (attempts > max_retries) return std::nullopt;
  return std::ldexp(retry_backoff_seconds, attempts - 1);
}

std::string request_key(const std::string& run_label, const std::string& id) {
  return run_label.empty() ? id : run_label + "/" + id;
}

void ServingTally::record_shed(ServingRequest req, std::string reason, double t) {
  SATTN_COUNTER_ADD("sched.requests_shed", 1);
  if (reason == "oversized") SATTN_COUNTER_ADD("sched.oversized_rejects", 1);
  if (reason == "admission") SATTN_COUNTER_ADD("sched.admission_rejects", 1);
  if (reason == "deadline") SATTN_COUNTER_ADD("sched.deadline_sheds", 1);
  if (reason == "retries_exhausted") SATTN_COUNTER_ADD("sched.retry_exhausted_sheds", 1);
  shed.push_back({std::move(req), std::move(reason), t});
}

void ServingTally::record_retry() {
  ++retries;
  SATTN_COUNTER_ADD("sched.request_retries", 1);
}

void ServingTally::record_completion(CompletedRequest& c, const std::string& run_label,
                                     Index decoded_tokens, double tpot_seconds) {
  c.queue_seconds = c.ttft() - c.compute_seconds - c.guard_seconds;
  if (c.degrade_level > 0) {
    ++degraded;
    SATTN_COUNTER_ADD("sched.requests_degraded", 1);
  }
  ++served_per_level[static_cast<std::size_t>(c.degrade_level)];
  SATTN_COUNTER_ADD("sched.requests_completed", 1);
  if (!obs::enabled()) return;
  // Per-request TTFT attribution, and request-id exemplars on the TTFT
  // histogram so report tails point at real requests.
  const std::string key = request_key(run_label, c.request.id);
  auto& reg = obs::MetricsRegistry::global();
  const std::string prefix = "request." + key + ".";
  reg.gauge(prefix + "queue_s").set(c.queue_seconds);
  reg.gauge(prefix + "compute_s").set(c.compute_seconds);
  reg.gauge(prefix + "guard_s").set(c.guard_seconds);
  reg.gauge(prefix + "ttft_s").set(c.ttft());
  SATTN_HISTOGRAM_EX("sched.ttft_seconds", c.ttft(), key);
  if (decoded_tokens > 0) {
    reg.gauge(prefix + "tpot_s").set(tpot_seconds);
    SATTN_HISTOGRAM("sched.tpot_seconds", tpot_seconds);
  }
}

namespace {

// Cumulative cost of prefilling the first `tokens` tokens of a request: the
// cost of a prompt of that length. Billing quantum i at
// prefix(i+1) - prefix(i) telescopes to the exact full prefill time while
// charging early chunks their true (short-prefix) cost.
double prefix_cost(const Engine& engine, Index tokens, double density_scale) {
  if (tokens <= 0) return 0.0;
  return engine.prefill_seconds(tokens, density_scale);
}

}  // namespace

StatusOr<SloServingResult> simulate_queue_slo(std::span<const ServingRequest> requests,
                                              const Engine& engine, const SloOptions& opts) {
  SATTN_RETURN_IF_ERROR(opts.validate());
  SATTN_CHECK(opts.fault_rate >= 0.0 && opts.fault_rate <= 1.0, kInvalidArgument,
              "fault_rate must be in [0,1], got ", opts.fault_rate);
  SATTN_CHECK(opts.stall_rate >= 0.0 && opts.stall_rate <= 1.0, kInvalidArgument,
              "stall_rate must be in [0,1], got ", opts.stall_rate);
  SATTN_CHECK(opts.stall_factor >= 1.0, kInvalidArgument, "stall_factor must be >= 1, got ",
              opts.stall_factor);
  SATTN_CHECK(opts.chunk_quantum_tokens >= 0, kInvalidArgument,
              "chunk quantum must be >= 0, got ", opts.chunk_quantum_tokens);

  SATTN_SPAN("runtime/scheduler_slo");
  std::vector<ServingRequest> sorted(requests.begin(), requests.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ServingRequest& a, const ServingRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });

  struct InFlight {
    ServingRequest req;
    Index tokens_done = 0;
    double cost_done = 0.0;
    double start = -1.0;          // first instant of service, across attempts
    double available_at = 0.0;    // backoff gate after a transient failure
    int level = 0;                // degrade ladder level (fixed at first service)
    int attempts = 1;
    double compute = 0.0;  // useful service time of the current attempt
    double guard = 0.0;    // lost attempts + stall excess + backoff gates
  };

  const PrefillCost cost = [&engine](Index prompt_tokens, double density_scale) {
    return engine.prefill_seconds(prompt_tokens, density_scale);
  };

  SloServingResult result;
  result.served_per_level.assign(static_cast<std::size_t>(opts.levels()), 0);
  Rng rng(opts.seed);
  std::deque<InFlight> queue;
  std::size_t next = 0;
  double now = 0.0;

  const auto admit_until = [&](double t) {
    while (next < sorted.size() && sorted[next].arrival_seconds <= t) {
      ServingRequest req = sorted[next];
      ++next;
      if (const char* reason =
              opts.admit(req.prompt_tokens, static_cast<Index>(queue.size()))) {
        const double arrival = req.arrival_seconds;
        result.record_shed(std::move(req), reason, arrival);
        continue;
      }
      queue.push_back({std::move(req), 0, 0.0, -1.0, 0.0, 0, 1});
      SATTN_COUNTER_ADD("sched.requests_enqueued", 1);
      SATTN_COUNTER_MAX("sched.queue_depth_peak", queue.size());
      SATTN_SERIES("sched.queue_depth", t, queue.size());
    }
  };

  while (next < sorted.size() || !queue.empty()) {
    if (queue.empty()) {
      now = std::max(now, sorted[next].arrival_seconds);
      admit_until(now);
      continue;
    }
    // First queued job already past its backoff gate, in queue order.
    std::size_t pick = queue.size();
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].available_at <= now) {
        pick = i;
        break;
      }
    }
    if (pick == queue.size()) {
      // Everyone is backing off; jump to the earliest gate or arrival.
      double wake = std::numeric_limits<double>::infinity();
      for (const InFlight& j : queue) wake = std::min(wake, j.available_at);
      if (next < sorted.size()) wake = std::min(wake, sorted[next].arrival_seconds);
      now = std::max(now, wake);
      admit_until(now);
      continue;
    }
    InFlight job = queue[pick];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));

    if (job.start < 0.0) {
      // Service is starting: steer the degrade ladder against the SLO and
      // shed what cannot make the hard deadline even fully degraded.
      job.start = now;
      const ServingPolicy::Steer steer =
          opts.steer(now - job.req.arrival_seconds, job.req.prompt_tokens, cost);
      job.level = steer.level;
      if (opts.past_deadline(steer.projected_ttft)) {
        result.record_shed(std::move(job.req), "deadline", now);
        continue;
      }
    }

    const double scale = opts.density_scale(job.level);
    const Index prev_tokens = job.tokens_done;
    bool finished;
    double slice;
    if (opts.chunk_quantum_tokens > 0 && job.req.prompt_tokens > 0) {
      const Index target_tokens =
          std::min(job.req.prompt_tokens, job.tokens_done + opts.chunk_quantum_tokens);
      const double target_cost = prefix_cost(engine, target_tokens, scale);
      slice = std::max(0.0, target_cost - job.cost_done);
      job.tokens_done = target_tokens;
      job.cost_done = target_cost;
      finished = job.tokens_done >= job.req.prompt_tokens;
    } else {
      slice = prefix_cost(engine, job.req.prompt_tokens, scale);
      finished = true;
    }
    const double base_slice = slice;
    if (opts.stall_rate > 0.0 && rng.uniform() < opts.stall_rate) {
      slice *= opts.stall_factor;
      job.guard += slice - base_slice;  // stall excess is guardrail time
      ++result.stalls;
      SATTN_COUNTER_ADD("sched.chunk_stalls", 1);
    }
    now += slice;
    job.compute += base_slice;
    admit_until(now);

    if (!finished) {
      // Reactive mid-stream escalation: a measured slice (stall, earlier
      // retry) can reveal that the first-service projection was optimistic.
      // When the remaining work at the current level can no longer meet the
      // target, take the next rung — and re-bill the chunk that was in
      // flight when the ladder fired: it was planned under the abandoned
      // density budget and is redone at the new level, so its time is
      // guardrail overhead, not service compute. Billing it as compute
      // would break queue + compute + guard == ttft the moment measured
      // times replace modeled ones (the redone chunk's compute would be
      // counted twice).
      if (job.level + 1 < opts.levels()) {
        const double remaining =
            prefix_cost(engine, job.req.prompt_tokens, scale) - job.cost_done;
        if ((now - job.req.arrival_seconds) + remaining > opts.target_ttft() &&
            engine.prefill_seconds(job.req.prompt_tokens, opts.density_scale(job.level + 1)) <
                engine.prefill_seconds(job.req.prompt_tokens, scale)) {
          ++job.level;
          job.compute -= base_slice;
          job.guard += base_slice;
          job.tokens_done = prev_tokens;
          job.cost_done = prefix_cost(engine, prev_tokens, opts.density_scale(job.level));
          SATTN_COUNTER_ADD("sched.midstream_escalations", 1);
        }
      }
      queue.push_back(job);  // round-robin
      SATTN_COUNTER_ADD("sched.preemptions", 1);
      continue;
    }
    if (opts.fault_rate > 0.0 && rng.uniform() < opts.fault_rate) {
      // Transient failure: the attempt's work is lost.
      const std::optional<double> backoff = opts.retry_backoff(job.attempts);
      if (!backoff) {
        result.record_shed(std::move(job.req), "retries_exhausted", now);
        continue;
      }
      result.record_retry();
      job.available_at = now + *backoff;
      // The whole attempt's useful time is lost, and the backoff gate is
      // guardrail-imposed waiting.
      job.guard += job.compute + *backoff;
      job.compute = 0.0;
      ++job.attempts;
      job.tokens_done = 0;
      job.cost_done = 0.0;
      queue.push_back(job);
      continue;
    }
    if (opts.past_deadline(now - job.req.arrival_seconds)) {
      // Finished late (stalls/retries ate the margin): counts as a
      // deadline violation, not a serve.
      result.record_shed(std::move(job.req), "deadline", now);
      continue;
    }
    SATTN_SERIES("sched.queue_depth", now, queue.size());
    CompletedRequest c{std::move(job.req), job.start, now, job.level, job.attempts};
    c.compute_seconds = job.compute;
    c.guard_seconds = job.guard;
    result.record_completion(c, opts.run_label);
    result.completed.push_back(std::move(c));
  }
  return result;
}

ServingSummary summarize(std::span<const CompletedRequest> completed) {
  ServingSummary s;
  if (completed.empty()) return s;
  std::vector<double> ttfts;
  ttfts.reserve(completed.size());
  for (const CompletedRequest& c : completed) {
    ttfts.push_back(c.ttft());
    s.mean_ttft += c.ttft();
    s.max_ttft = std::max(s.max_ttft, c.ttft());
    s.mean_queueing += c.queueing();
    s.makespan = std::max(s.makespan, c.finish_seconds);
  }
  s.mean_ttft /= static_cast<double>(completed.size());
  s.mean_queueing /= static_cast<double>(completed.size());
  std::sort(ttfts.begin(), ttfts.end());
  s.p50_ttft = obs::percentile_nearest_rank(ttfts, 0.50);
  s.p99_ttft = obs::percentile_nearest_rank(ttfts, 0.99);
  return s;
}

StatusOr<std::vector<ServingRequest>> synthetic_trace(Index count, Index min_tokens,
                                                      Index max_tokens,
                                                      double mean_interarrival_seconds,
                                                      std::uint64_t seed) {
  SATTN_CHECK(count > 0, kInvalidArgument, "trace count must be > 0, got ", count);
  SATTN_CHECK(min_tokens > 0 && max_tokens >= min_tokens, kInvalidArgument,
              "token range invalid: [", min_tokens, ", ", max_tokens, "]");
  SATTN_CHECK(mean_interarrival_seconds >= 0.0, kInvalidArgument,
              "mean inter-arrival must be >= 0, got ", mean_interarrival_seconds);
  Rng rng(seed);
  std::vector<ServingRequest> trace;
  double t = 0.0;
  const double lo = std::log(static_cast<double>(min_tokens));
  const double hi = std::log(static_cast<double>(max_tokens));
  for (Index r = 0; r < count; ++r) {
    ServingRequest req;
    req.id = "req-" + std::to_string(r);
    req.prompt_tokens = static_cast<Index>(std::llround(std::exp(rng.uniform(lo, hi))));
    // Exponential inter-arrivals.
    t += -mean_interarrival_seconds * std::log(std::max(1e-12, rng.uniform()));
    req.arrival_seconds = t;
    trace.push_back(std::move(req));
  }
  return trace;
}

}  // namespace sattn
