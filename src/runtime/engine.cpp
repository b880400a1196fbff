#include "runtime/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_set>

#include "core/rng.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/decode.h"
#include "runtime/kv_cache.h"

namespace sattn {

namespace {

// Per-request timeline: one `timeline.<run_label>/<id>` series whose values
// are obs::RequestPhase codes. The run report's timeline view and the Chrome
// request lanes are both derived from this shared coding.
void emit_timeline(const std::string& run_label, const std::string& id, double t,
                   obs::RequestPhase phase) {
  if (!obs::enabled()) return;
  obs::MetricsRegistry::global()
      .series("timeline." + request_key(run_label, id))
      .append(t, static_cast<double>(phase));
}

// Deterministic per-request tensor content: the engine measures kernel
// time, not model quality, so any finite well-scaled data works; hashing
// the request id into the stream keeps every request distinct and every
// run reproducible.
std::uint64_t mix_id(std::uint64_t seed, const std::string& id) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (const char ch : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001b3ull;
  }
  return h;
}

void fill_matrix(Matrix& m, Rng& rng) {
  for (Index r = 0; r < m.rows(); ++r) {
    for (float& x : m.row(r)) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
}

// Segment-keyed content (requests with ServingRequest::segments): row r of
// each stream depends only on (engine seed, segment key, absolute position
// r), so two requests whose prompts start with the same segment sequence
// produce bit-identical leading rows — the invariant the prefix cache's
// content-hash chain verifies before sharing pages. Tokens past the declared
// segments are keyed by the request id (private content). Segment-less
// requests keep the original sequential per-request fill, bit-identical to
// the pre-paging engine.
void fill_row(std::span<float> row, std::uint64_t key) {
  Rng rng(key);
  for (float& x : row) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

void fill_segmented(AttentionInput& in, const ServingRequest& req, std::uint64_t seed) {
  const Index s = in.sq();
  Index r = 0;
  const auto fill_rows = [&](std::uint64_t base, Index hi) {
    for (; r < hi; ++r) {
      std::uint64_t h = base ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(r) + 1));
      h *= 0x100000001b3ull;
      fill_row(in.q.row(r), h ^ 0x51ull);
      fill_row(in.k.row(r), h ^ 0x4bull);
      fill_row(in.v.row(r), h ^ 0x56ull);
    }
  };
  for (const ContentSegment& seg : req.segments) {
    if (r >= s) break;
    fill_rows(mix_id(seed, "seg/" + seg.key), std::min(s, r + std::max<Index>(0, seg.tokens)));
  }
  fill_rows(mix_id(seed, "req/" + req.id), s);
}

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

// One in-flight request. Owned exclusively by the loop thread after
// admission; submitters never see it.
struct ServingEngine::Live {
  ServingRequest req;  // arrival_seconds = measured submit instant
  Index admit_seq = 0;

  AttentionInput in;  // square prompt_tokens x prompt_tokens workload
  Matrix out;         // prefill attention output
  KVCache cache;
  Matrix dec_q;                // decode queries, one per generated token
  std::vector<float> dec_out;  // decode output scratch (head_dim)

  Index prefilled = 0;  // query rows whose output is final
  bool decoding = false;
  Index decoded = 0;
  Index prefix_hit = 0;  // prompt tokens attached from the prefix cache

  // TTFT attribution, accumulated over measured slices.
  double compute_s = 0.0;
  double guard_s = 0.0;
  double start_s = -1.0;          // first service instant
  double finish_prefill_s = -1.0; // TTFT instant
  int level = 0;                  // degrade-ladder level
  int attempts = 1;               // 1 + faulted-chunk retries
  double available_at = 0.0;      // retry-backoff gate (engine seconds)
  double decode_total_s = 0.0;

  // Lifecycle hardening.
  FaultInjector injector;  // per-request seeded: fault decisions depend only
                           // on (spec, id), never on batch interleaving
  bool active = true;      // KV-budget gate; false = waiting (backpressure)
  bool kv_waited = false;  // pressure wait counted once per request
  std::unique_ptr<EvictionPolicy> evict;  // pressure rung, decode phase

  // The plan record: the structure of the last completed prefill chunk's
  // accepted plan, kept only when the auditor or sparse residency reads it.
  // The decode-phase shadow audit (obs/audit.h) scores sampled decode rows'
  // exact weights against its window + stripes, and sparse-residency
  // eviction keeps exactly those slots at prefill-done. A chunk served by
  // the dense rung clears it: an earlier chunk's stripes span only that
  // chunk's keys.
  std::vector<Index> plan_stripes;
  Index plan_window = 0;
  double plan_predicted = 1.0;
  bool has_plan = false;

  Live(Index head_dim, FaultSpec fault, std::shared_ptr<KvPageArena> arena)
      : cache(head_dim, std::move(arena)), injector(fault) {}
};

std::vector<CompletedRequest> EngineResult::completions() const {
  std::vector<CompletedRequest> out;
  out.reserve(completed.size());
  for (const EngineCompletion& c : completed) out.push_back(c.base);
  return out;
}

std::vector<std::pair<std::string, TerminalState>> EngineResult::outcomes() const {
  std::vector<std::pair<std::string, TerminalState>> out;
  out.reserve(completed.size() + shed.size() + cancelled.size());
  for (const EngineCompletion& c : completed)
    out.emplace_back(c.base.request.id, TerminalState::kCompleted);
  for (const ShedRequest& s : shed) out.emplace_back(s.request.id, TerminalState::kShed);
  for (const CancelledRequest& c : cancelled)
    out.emplace_back(c.base.request.id, TerminalState::kCancelled);
  return out;
}

ServingEngine::ServingEngine(EngineOptions opts) : opts_(std::move(opts)) {
  assert(opts_.head_dim > 0 && opts_.chunk_tokens > 0 && opts_.max_batch > 0);
  if (const Status s = opts_.validate(); !s.ok()) {
    std::fprintf(stderr, "ServingEngine: invalid serving policy: %s\n", s.to_string().c_str());
    std::abort();
  }
  result_.served_per_level.assign(static_cast<std::size_t>(opts_.levels()), 0);
  arena_ = opts_.kv_arena ? opts_.kv_arena
                          : std::make_shared<KvPageArena>(opts_.head_dim, opts_.kv_page_tokens);
  assert(arena_->head_dim() == opts_.head_dim);
}

ServingEngine::~ServingEngine() {
  if (started_ && !finished_) finish();
}

double ServingEngine::now() const { return wall_seconds(t0_); }

double ServingEngine::heartbeat_age_seconds() const {
  if (!started_) return 0.0;
  if (loop_waiting_.load(std::memory_order_relaxed)) return 0.0;
  return std::max(0.0, now() - heartbeat_s_.load(std::memory_order_relaxed));
}

void ServingEngine::tele_push(obs::TelemetryEventKind kind, const std::string& id, double t,
                              double value, std::uint32_t aux) {
  if (!tele_hub_) return;
  obs::TelemetryEvent ev;
  ev.t = t;
  ev.value = static_cast<float>(value);
  ev.aux = aux;
  ev.kind = kind;
  ev.set_id(id);
  tele_hub_->push(ev);
}

void ServingEngine::start() {
  assert(!started_);
  started_ = true;
  t0_ = std::chrono::steady_clock::now();
  // Dense mode is exact — there is no deployed mask to audit.
  if (opts_.audit.enabled && opts_.mode == EngineMode::kSampleAttention) {
    auditor_ = std::make_unique<obs::QualityAuditor>(opts_.audit);
  }
  if (opts_.telemetry.enabled) {
    tele_hub_ = std::make_unique<obs::TelemetryHub>(opts_.telemetry.ring_capacity);
    tele_pub_ = std::make_unique<obs::TelemetryPublisher>(
        opts_.telemetry, opts_.run_label, tele_hub_.get(), [this] {
          obs::EngineTelemetrySnapshot s;
          s.t = now();
          s.live = tele_live_.load(std::memory_order_relaxed);
          s.active = tele_active_.load(std::memory_order_relaxed);
          s.kv_bytes = tele_kv_bytes_.load(std::memory_order_relaxed);
          s.kv_budget_bytes = opts_.kv_budget_bytes;
          s.breaker_state = tele_breaker_.load(std::memory_order_relaxed);
          s.heartbeat_age_s = heartbeat_age_seconds();
          s.watchdog_stalls =
              static_cast<long long>(watchdog_stalls_.load(std::memory_order_relaxed));
          return s;
        });
  }
  loop_thread_ = std::thread([this] { loop(); });
  if (opts_.watchdog_stall_seconds > 0.0) {
    watchdog_thread_ = std::thread([this] { watchdog(); });
  }
  if (tele_pub_) tele_pub_->start();
}

Status ServingEngine::submit(ServingRequest req) {
  req.arrival_seconds = now();
  const double arrival = req.arrival_seconds;
  const std::string id = req.id;
  {
    std::lock_guard lk(mu_);
    SATTN_CHECK(!closed_, kFailedPrecondition,
                "submit() after close(): request '", req.id, "' rejected");
    intake_.push_back(std::move(req));
  }
  cv_.notify_one();
  // Submitter-thread telemetry: the event rides this thread's own SPSC ring.
  tele_push(obs::TelemetryEventKind::kSubmit, id, arrival);
  return Status::Ok();
}

void ServingEngine::cancel(const std::string& request_id) {
  {
    std::lock_guard lk(mu_);
    cancel_intake_.push_back(request_id);
  }
  cv_.notify_one();
}

void ServingEngine::close() {
  {
    std::lock_guard lk(mu_);
    closed_ = true;
  }
  cv_.notify_one();
}

EngineResult ServingEngine::finish(double drain_deadline_seconds) {
  if (!finished_) {
    if (started_ && drain_deadline_seconds >= 0.0) {
      drain_deadline_.store(now() + drain_deadline_seconds, std::memory_order_relaxed);
    }
    close();
    if (loop_thread_.joinable()) loop_thread_.join();
    watchdog_stop_.store(true, std::memory_order_relaxed);
    if (watchdog_thread_.joinable()) watchdog_thread_.join();
    result_.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
    // All audit producers are quiesced: snapshot the scorecard as audit.*
    // gauges so run reports collected after finish() carry it.
    if (auditor_) auditor_->publish();
    // All producers are quiesced; stop() runs one final flush tick so the
    // stream's last line reflects the complete run.
    if (tele_pub_) tele_pub_->stop();
    finished_ = true;
  }
  return result_;
}

EngineResult ServingEngine::run_trace(std::span<const ServingRequest> trace, double time_scale) {
  start();
  std::vector<ServingRequest> sorted(trace.begin(), trace.end());
  std::sort(sorted.begin(), sorted.end(), [](const ServingRequest& a, const ServingRequest& b) {
    return a.arrival_seconds < b.arrival_seconds;
  });
  std::thread submitter([&] {
    for (const ServingRequest& r : sorted) {
      const double due = r.arrival_seconds * time_scale;
      const double lead = due - now();
      if (lead > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(lead));
      const Status s = submit(r);
      assert(s.ok());  // run_trace closes only after the submitter joins
      (void)s;
    }
  });
  submitter.join();
  return finish();
}

// Watchdog thread: observes loop progress through heartbeat_/loop_waiting_
// atomics only. A loop that is neither idle-waiting nor bumping its
// heartbeat for watchdog_stall_seconds — a stuck kernel, a deadlocked step —
// raises engine.watchdog_stalls. One alert per stalled window (re-armed
// after each alert), so a long stall is counted, not spammed.
void ServingEngine::watchdog() {
  const double stall_s = opts_.watchdog_stall_seconds;
  const double poll_s = std::min(stall_s / 4.0, 0.01);
  double last_beat = heartbeat_s_.load(std::memory_order_relaxed);
  auto last_progress = std::chrono::steady_clock::now();
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
    const auto t = std::chrono::steady_clock::now();
    const double beat = heartbeat_s_.load(std::memory_order_relaxed);
    SATTN_GAUGE_SET("engine.heartbeat_age_s", heartbeat_age_seconds());
    if (beat != last_beat || loop_waiting_.load(std::memory_order_relaxed)) {
      last_beat = beat;
      last_progress = t;
      continue;
    }
    if (std::chrono::duration<double>(t - last_progress).count() >= stall_s) {
      watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
      SATTN_COUNTER_ADD("engine.watchdog_stalls", 1);
      last_progress = t;
    }
  }
}

void ServingEngine::loop() {
  SATTN_SPAN("engine/loop");
  const PrefillCost projected_cost =
      opts_.projected_prefill_seconds ? opts_.projected_prefill_seconds
                                      : PrefillCost([](Index, double) { return 0.0; });
  // Scorecard attribution for the shadow audit: requests hash to stable
  // pseudo-head buckets (obs/audit.h, AuditOptions::head_buckets).
  const auto audit_head_of = [&](const std::string& id) {
    const auto buckets =
        static_cast<std::uint64_t>(std::max<Index>(1, opts_.audit.head_buckets));
    return static_cast<long long>(mix_id(opts_.audit.seed, id) % buckets);
  };

  const auto shed = [&](ServingRequest req, const char* reason) {
    const double t = now();
    tele_push(obs::TelemetryEventKind::kShed, req.id, t);
    emit_timeline(opts_.run_label, req.id, t, obs::RequestPhase::kShed);
    result_.record_shed(std::move(req), reason, t);
  };
  const auto shed_live = [&](Live* lr, const char* reason) {
    const auto it = std::find_if(live_.begin(), live_.end(),
                                 [lr](const std::unique_ptr<Live>& lp) { return lp.get() == lr; });
    assert(it != live_.end());
    shed(std::move(lr->req), reason);
    live_.erase(it);
  };

  // Cancellation terminals. Both preserve the attribution identity
  // queue + compute + guard == ttft with finish = the cancel instant; a
  // backoff gate that had not fully elapsed is refunded from guard (it was
  // billed in full when the retry was scheduled).
  const auto cancel_unadmitted = [&](ServingRequest req, const char* reason) {
    const double t = now();
    tele_push(obs::TelemetryEventKind::kCancel, req.id, t);
    emit_timeline(opts_.run_label, req.id, t, obs::RequestPhase::kCancelled);
    CancelledRequest c;
    c.base = CompletedRequest{std::move(req), t, t, 0, 1};
    c.base.queue_seconds = c.base.ttft();  // never serviced: pure queueing
    c.reason = reason;
    SATTN_COUNTER_ADD("engine.requests_cancelled", 1);
    result_.cancelled.push_back(std::move(c));
  };
  const auto cancel_live = [&](std::unique_ptr<Live> lr, const char* reason) {
    const double t = now();
    tele_push(obs::TelemetryEventKind::kCancel, lr->req.id, t);
    emit_timeline(opts_.run_label, lr->req.id, t, obs::RequestPhase::kCancelled);
    double guard = lr->guard_s;
    if (lr->available_at > t) guard = std::max(0.0, guard - (lr->available_at - t));
    CancelledRequest c;
    c.base = CompletedRequest{std::move(lr->req), lr->start_s >= 0.0 ? lr->start_s : t, t,
                              lr->level, lr->attempts};
    c.base.compute_seconds = lr->compute_s;
    c.base.guard_seconds = guard;
    c.base.queue_seconds = c.base.ttft() - c.base.compute_seconds - c.base.guard_seconds;
    c.decoded_tokens = lr->decoded;
    c.reason = reason;
    SATTN_COUNTER_ADD("engine.requests_cancelled", 1);
    result_.cancelled.push_back(std::move(c));
  };

  // KV memory budget: projected bytes a request pins while live. A
  // prefilling request will need its whole prompt's K/V (2 streams, fp32 —
  // the acct.* byte convention); a decoding request holds exactly its
  // cache, which the eviction rung can shrink.
  const double kv_per_token = 2.0 * static_cast<double>(opts_.head_dim) *
                              obs::kAcctBytesPerElement;
  const auto kv_bytes_of = [&](const Live& lr) {
    if (lr.decoding) return lr.cache.bytes();
    // Prefilling: full-prompt demand, minus what already resides in the
    // cache as attached prefix pages — those are billed at the cache's
    // counted-once page share instead of the flat per-token projection.
    return lr.cache.bytes() +
           kv_per_token * static_cast<double>(std::max<Index>(0, lr.req.prompt_tokens - lr.cache.size()));
  };

  // Prefix-cache probe: attach leading shared pages from the arena's
  // content-hash index and copy their stored attention outputs — those rows
  // skip prefill compute entirely. Capped at prompt - 1 so even a
  // full-prefix hit leaves one row of real prefill (the request still flows
  // through form_step and the normal prefill-done transition). Called at
  // admission AND again when a budget-deferred waiter activates: the index
  // may have grown while it queued (an earlier sharer published).
  const auto probe_prefix = [&](Live& lr) {
    if (!opts_.kv_prefix_cache || lr.prefilled > 0 || !lr.cache.empty()) return;
    const Index hit =
        lr.cache.try_attach_prefix(lr.in, lr.req.prompt_tokens - 1, &lr.out);
    if (hit <= 0) return;
    lr.prefilled = hit;
    lr.prefix_hit = hit;
    ++result_.kv_prefix_hits;
    result_.kv_prefix_hit_tokens += hit;
    SATTN_COUNTER_ADD("engine.kv_prefix_hits", 1);
    SATTN_COUNTER_ADD("engine.kv_prefix_hit_tokens", static_cast<double>(hit));
  };

  // Cancel ids with no matching request yet: a cancel can race ahead of its
  // submit, so unmatched ids are remembered until they match (or the loop
  // exits). Ids for already-terminal requests simply never match again.
  std::unordered_set<std::string> pending_cancels;

  // Circuit breaker over sample-mode planning episodes.
  enum class Breaker { kClosed, kOpen, kHalfOpen };
  Breaker breaker = Breaker::kClosed;
  double breaker_open_until = 0.0;
  int consecutive_plan_faults = 0;

  for (;;) {
    heartbeat_s_.store(now(), std::memory_order_relaxed);

    // Drift-monitor pre-trip: a sustained quality alert (dense-fallback /
    // escalation / retained-KV drift) opens the breaker before the
    // consecutive-fault streak alone would. Independent of
    // breaker_fault_threshold — the alert is the trip condition.
    if (tele_pub_ && tele_pub_->consume_breaker_pretrip() && breaker != Breaker::kOpen) {
      ++result_.breaker_trips;
      SATTN_COUNTER_ADD("engine.breaker_trips", 1);
      SATTN_COUNTER_ADD("engine.breaker_pretrips", 1);
      breaker = Breaker::kOpen;
      breaker_open_until = now() + opts_.breaker_cooldown_seconds;
      SATTN_GAUGE_SET("engine.breaker_state", 1.0);
    }

    // --- Intake: wait if idle, then drain submissions under the lock. ---
    std::vector<ServingRequest> arrivals;
    std::vector<std::string> cancels;
    bool closed;
    {
      std::unique_lock lk(mu_);
      if (live_.empty() && intake_.empty() && cancel_intake_.empty() && !closed_) {
        loop_waiting_.store(true, std::memory_order_relaxed);
        cv_.wait(lk, [&] { return closed_ || !intake_.empty() || !cancel_intake_.empty(); });
        loop_waiting_.store(false, std::memory_order_relaxed);
      }
      arrivals.swap(intake_);
      cancels.swap(cancel_intake_);
      closed = closed_;
    }
    for (std::string& id : cancels) pending_cancels.insert(std::move(id));

    // --- Bounded drain: past the deadline, force-cancel everything. ---
    if (closed && now() >= drain_deadline_.load(std::memory_order_relaxed)) {
      for (ServingRequest& req : arrivals) cancel_unadmitted(std::move(req), "shutdown");
      for (auto& lp : live_) cancel_live(std::move(lp), "shutdown");
      live_.clear();
      break;
    }

    // --- Admission. ---
    for (ServingRequest& req : arrivals) {
      if (!pending_cancels.empty()) {
        const auto pc = pending_cancels.find(req.id);
        if (pc != pending_cancels.end()) {
          pending_cancels.erase(pc);
          cancel_unadmitted(std::move(req), "cancel");
          continue;
        }
      }
      if (const char* reason = opts_.admit(req.prompt_tokens, static_cast<Index>(live_.size()))) {
        shed(std::move(req), reason);
        continue;
      }
      auto lr = std::make_unique<Live>(opts_.head_dim, opts_.fault.for_request(req.id), arena_);
      lr->req = std::move(req);
      lr->admit_seq = admit_seq_++;
      lr->active = opts_.kv_budget_bytes <= 0.0;  // budget gate (activation below)
      const Index s = lr->req.prompt_tokens, d = opts_.head_dim;
      lr->in.q.resize(s, d);
      lr->in.k.resize(s, d);
      lr->in.v.resize(s, d);
      if (lr->req.segments.empty()) {
        // Sequential per-request fill — bit-identical to the pre-paging
        // engine, so segment-less runs reproduce exactly.
        Rng rng(mix_id(opts_.seed, lr->req.id));
        fill_matrix(lr->in.q, rng);
        fill_matrix(lr->in.k, rng);
        fill_matrix(lr->in.v, rng);
        if (opts_.decode_tokens > 0) {
          lr->dec_q.resize(opts_.decode_tokens, d);
          fill_matrix(lr->dec_q, rng);
        }
      } else {
        fill_segmented(lr->in, lr->req, opts_.seed);
        if (opts_.decode_tokens > 0) {
          lr->dec_q.resize(opts_.decode_tokens, d);
          Rng rng(mix_id(opts_.seed, "dec/" + lr->req.id));
          fill_matrix(lr->dec_q, rng);
        }
      }
      lr->out.resize(s, d);
      if (opts_.decode_tokens > 0) lr->dec_out.assign(static_cast<std::size_t>(d), 0.0f);

      probe_prefix(*lr);
      SATTN_COUNTER_ADD("sched.requests_enqueued", 1);
      live_.push_back(std::move(lr));
      result_.peak_live_batch = std::max(result_.peak_live_batch, static_cast<Index>(live_.size()));
      const Live& adm = *live_.back();
      const double t_adm = now();
      tele_push(obs::TelemetryEventKind::kAdmit, adm.req.id, t_adm);
      emit_timeline(opts_.run_label, adm.req.id, adm.req.arrival_seconds,
                    obs::RequestPhase::kSubmitted);
      emit_timeline(opts_.run_label, adm.req.id, t_adm, obs::RequestPhase::kAdmitted);
    }

    // --- Cancellation of in-flight requests (between chunks). ---
    if (!pending_cancels.empty()) {
      for (auto it = live_.begin(); it != live_.end();) {
        const auto pc = pending_cancels.find((*it)->req.id);
        if (pc != pending_cancels.end()) {
          pending_cancels.erase(pc);
          cancel_live(std::move(*it), "cancel");
          it = live_.erase(it);
        } else {
          ++it;
        }
      }
    }

    // --- KV budget: activation, backpressure, and the eviction rung. ---
    // Waiters activate FCFS when their projected bytes fit; before a waiter
    // blocks, the eviction rung compacts active decoding caches (retention
    // degrades before traffic sheds). Only a request whose solo demand
    // exceeds the whole budget sheds — so a finite trace cannot deadlock:
    // when no request is active the head waiter always fits.
    double active_kv_bytes = 0.0;
    for (const auto& lp : live_)
      if (lp->active) active_kv_bytes += kv_bytes_of(*lp);
    if (opts_.kv_budget_bytes > 0.0) {
      for (auto it = live_.begin(); it != live_.end();) {
        Live& lr = **it;
        if (lr.active) {
          ++it;
          continue;
        }
        const double need = kv_bytes_of(lr);
        if (active_kv_bytes + need > opts_.kv_budget_bytes &&
            opts_.kv_eviction != EvictionKind::kNone) {
          bool freed = false;
          for (auto& lp : live_) {
            if (lp->active && lp->decoding && lp->evict && lp->evict->enforce(lp->cache)) {
              freed = true;
            }
          }
          if (freed) {
            ++result_.kv_evictions;
            SATTN_COUNTER_ADD("engine.kv_evictions", 1);
            active_kv_bytes = 0.0;
            for (const auto& lp : live_)
              if (lp->active) active_kv_bytes += kv_bytes_of(*lp);
          }
        }
        if (active_kv_bytes + need <= opts_.kv_budget_bytes) {
          lr.active = true;
          // Requests that queued behind the budget re-probe the prefix
          // index: an earlier sharer may have published while they waited.
          // Attached shared pages bill at the counted-once share, so the
          // post-probe demand can only be <= the flat projection that
          // passed the fit test above.
          probe_prefix(lr);
          active_kv_bytes += kv_bytes_of(lr);
          ++it;
          continue;
        }
        if (need > opts_.kv_budget_bytes) {
          SATTN_COUNTER_ADD("engine.kv_budget_sheds", 1);
          shed(std::move(lr.req), "kv_budget");
          it = live_.erase(it);
          continue;
        }
        if (!lr.kv_waited) {
          lr.kv_waited = true;
          ++result_.kv_pressure_waits;
          SATTN_COUNTER_ADD("engine.kv_pressure_waits", 1);
        }
        break;  // FCFS: later arrivals must not jump the head waiter's budget
      }
    }
    result_.peak_kv_bytes = std::max(result_.peak_kv_bytes, active_kv_bytes);
    {
      // Arena-wide page residency (shared pages counted once by the arena).
      const Index pages_live = arena_->pages_live();
      result_.kv_pages_peak = std::max(result_.kv_pages_peak, pages_live);
      SATTN_GAUGE_SET("engine.kv_pages_live", static_cast<double>(pages_live));
    }

    // Telemetry snapshot channel: atomics only, read by the publisher.
    if (tele_hub_) {
      std::size_t active_n = 0;
      for (const auto& lp : live_)
        if (lp->active) ++active_n;
      tele_live_.store(live_.size(), std::memory_order_relaxed);
      tele_active_.store(active_n, std::memory_order_relaxed);
      tele_kv_bytes_.store(active_kv_bytes, std::memory_order_relaxed);
      tele_breaker_.store(static_cast<int>(breaker), std::memory_order_relaxed);
    }

    if (live_.empty()) {
      if (closed) break;
      continue;
    }

    // --- First-service steering, deadline shedding, runaway watchdog. ---
    // When service is about to start, ServingPolicy::steer picks the
    // degrade level against the projected cost, and a request whose
    // projected TTFT misses the hard deadline even fully degraded sheds.
    // Started requests get the runaway check: a prefill whose measured
    // service time blew past watchdog_cost_multiple x its projected cost is
    // shed instead of parking the batch indefinitely.
    const double t_steer = now();
    for (auto it = live_.begin(); it != live_.end();) {
      Live& lr = **it;
      if (lr.start_s >= 0.0) {
        if (opts_.watchdog_cost_multiple > 0.0 && opts_.projected_prefill_seconds &&
            lr.finish_prefill_s < 0.0) {
          const double proj = projected_cost(lr.req.prompt_tokens, opts_.density_scale(lr.level));
          if (proj > 0.0 && t_steer - lr.start_s > opts_.watchdog_cost_multiple * proj) {
            SATTN_COUNTER_ADD("engine.watchdog_sheds", 1);
            shed(std::move(lr.req), "watchdog");
            it = live_.erase(it);
            continue;
          }
        }
        ++it;
        continue;
      }
      const ServingPolicy::Steer steer =
          opts_.steer(t_steer - lr.req.arrival_seconds, lr.req.prompt_tokens, projected_cost);
      lr.level = steer.level;
      if (opts_.past_deadline(steer.projected_ttft)) {
        shed(std::move(lr.req), "deadline");
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
    if (live_.empty()) {
      if (closed) break;
      continue;
    }

    // --- Batch formation (runtime/batch.h): active slots only, backoff
    // gates respected. ---
    const double t_form = now();
    std::vector<SlotSnapshot> slots;
    double earliest_gate = std::numeric_limits<double>::infinity();
    for (const auto& lp : live_) {
      if (!lp->active) continue;  // KV backpressure: waiting, not serviceable
      if (lp->available_at > t_form) {
        earliest_gate = std::min(earliest_gate, lp->available_at);
        continue;
      }
      slots.push_back({lp->req.id, lp->admit_seq, lp->decoding, lp->req.prompt_tokens,
                       lp->prefilled});
    }
    if (slots.empty()) {
      // Everyone serviceable is backing off: sleep to the earliest gate
      // (clamped to the drain deadline), but wake on arrivals, cancels, or a
      // drain deadline armed after the sleep began — a bounded finish() must
      // not wait out a long backoff.
      std::unique_lock lk(mu_);
      const double dd0 = drain_deadline_.load(std::memory_order_relaxed);
      const double lead = std::min(earliest_gate, dd0) - now();
      if (lead > 0.0 && intake_.empty() && cancel_intake_.empty()) {
        loop_waiting_.store(true, std::memory_order_relaxed);
        cv_.wait_for(lk, std::chrono::duration<double>(lead), [&] {
          return !intake_.empty() || !cancel_intake_.empty() ||
                 drain_deadline_.load(std::memory_order_relaxed) != dd0;
        });
        loop_waiting_.store(false, std::memory_order_relaxed);
      }
      continue;
    }
    StepPlanConfig plan_cfg{opts_.max_batch, opts_.chunk_tokens};
    const std::vector<StepItem> step = form_step(std::move(slots), plan_cfg);
    if (step.empty()) continue;
    ++result_.iterations;
    SATTN_SERIES("sched.queue_depth", t_form, static_cast<double>(live_.size()));

    const auto find_live = [&](const std::string& id) -> Live* {
      for (const auto& lp : live_)
        if (lp->req.id == id) return lp.get();
      return nullptr;
    };

    // --- Per-item kernel planning; sample mode runs the measured
    // escalation ladder here (rejected attempts bill to guard). ---
    struct ItemState {
      Live* lr = nullptr;
      Index q_lo = 0, q_hi = 0;
      bool decode = false;
      double plan_s = 0.0;   // accepted attempt's planning time (compute)
      bool escalated = false;
      std::unique_ptr<SamplePlan> plan;  // accepted plan, alive through the sweep
    };
    std::vector<ItemState> items;
    items.reserve(step.size());
    RaggedBatchView batch;
    batch.flash = opts_.flash;
    for (StepItem si : step) {
      Live* lr = find_live(si.id);
      assert(lr != nullptr);
      // Scheduled-time prefix probe: a request starting its FIRST prefill
      // chunk looks the index up again here — requests admitted in the same
      // intake sweep (or queued behind the batch) see pages an earlier
      // sharer published after their admission-time probe missed. On a hit
      // the scheduled window shifts past the attached rows.
      if (!si.decode && si.q_lo == 0 && lr->prefilled == 0) {
        probe_prefix(*lr);
        if (lr->prefilled > 0) {
          const Index rows = si.q_hi - si.q_lo;
          si.q_lo = lr->prefilled;
          si.q_hi = std::min(lr->req.prompt_tokens, si.q_lo + rows);
        }
      }
      ItemState st;
      st.lr = lr;
      st.decode = si.decode;
      st.q_lo = si.q_lo;
      st.q_hi = si.q_hi;
      RaggedSeq seq;
      seq.request_id = request_key(opts_.run_label, lr->req.id);
      seq.span_name = si.decode ? "seq/decode_step" : "seq/prefill_chunk";
      if (si.decode) {
        seq.q = lr->dec_q.row(lr->decoded).data();
        seq.rows = 1;
        seq.kv = lr->cache.view();  // reads straight through the page table
        seq.k_hi = lr->cache.size();
        seq.causal_off = seq.k_hi - 1;
        seq.out = lr->dec_out.data();
      } else {
        // Zero-copy chunked prefill, in either mode: queries [q_lo, q_hi)
        // against the key prefix [0, q_hi) of the request's own square input.
        seq.q = lr->in.q.row(si.q_lo).data();
        seq.rows = si.q_hi - si.q_lo;
        seq.kv = mk::KvView::of(lr->in);
        seq.k_hi = si.q_hi;
        seq.causal_off = si.q_lo;
        seq.out = lr->out.row(si.q_lo).data();
      }
      if (!si.decode && opts_.mode == EngineMode::kSampleAttention) {
        // SampleAttention chunk: plan it in place and walk the measured
        // plan/validate/escalate ladder. An accepted plan's mask sends the
        // sequence through the sparse kernel; the dense rung leaves it
        // unmasked. Degrade level -> planner budget: the ladder's density
        // scale multiplies the CRA threshold and window budget, the same
        // knobs the simulator's cost model scales.
        SampleAttentionConfig cfg = opts_.sample;
        const double ds = opts_.density_scale(lr->level);
        cfg.alpha = std::min(1.0, cfg.alpha * ds);
        cfg.window_ratio = cfg.window_ratio * ds;

        bool short_circuit = false;
        // Circuit breaker: while open, no guard time is burned on a planner
        // known to be faulting — the chunk short-circuits straight to the
        // dense rung. The first chunk after the cooldown probes half-open.
        if (breaker == Breaker::kOpen) {
          if (now() < breaker_open_until) {
            short_circuit = true;
            SATTN_COUNTER_ADD("engine.breaker_short_circuits", 1);
          } else {
            breaker = Breaker::kHalfOpen;
            SATTN_GAUGE_SET("engine.breaker_state", 2.0);
          }
        }
        if (!short_circuit) {
          for (const GuardRung& rung : escalation_ladder(cfg, opts_.guard)) {
            const double a0 = now();
            SamplePlan plan = plan_sample_attention(seq.q, seq.rows, seq.kv, seq.k_hi, rung.cfg);
            if (opts_.guard.plan_hook) opts_.guard.plan_hook(plan);
            const Status ok = validate_sample_plan(plan, seq.rows, seq.k_hi, rung.cfg, opts_.guard);
            const double attempt_s = now() - a0;
            if (ok.ok()) {
              st.plan_s = attempt_s;
              st.plan = std::make_unique<SamplePlan>(std::move(plan));
              break;
            }
            // Rejected attempt: measured guardrail time, next rung.
            lr->guard_s += attempt_s;
            SATTN_COUNTER_ADD("engine.plan_rejects", 1);
            st.escalated = true;
          }
          // Breaker bookkeeping per planning episode: exhausting the whole
          // ladder is one consecutive plan fault; an accepted plan resets
          // the streak and closes a half-open breaker.
          if (opts_.breaker_fault_threshold > 0) {
            if (!st.plan) {
              ++consecutive_plan_faults;
              if (breaker == Breaker::kHalfOpen ||
                  consecutive_plan_faults >= opts_.breaker_fault_threshold) {
                ++result_.breaker_trips;
                SATTN_COUNTER_ADD("engine.breaker_trips", 1);
                breaker = Breaker::kOpen;
                breaker_open_until = now() + opts_.breaker_cooldown_seconds;
                SATTN_GAUGE_SET("engine.breaker_state", 1.0);
              }
            } else {
              consecutive_plan_faults = 0;
              if (breaker == Breaker::kHalfOpen) {
                breaker = Breaker::kClosed;
                SATTN_COUNTER_ADD("engine.breaker_closes", 1);
                SATTN_GAUGE_SET("engine.breaker_state", 0.0);
              }
            }
          }
        }
        // One planning-episode telemetry event per chunk: retained-KV
        // fraction (mask density; 1.0 for the dense rung), escalation and
        // fallback bits feed the rolling drift monitors.
        tele_push(obs::TelemetryEventKind::kPlan, lr->req.id, now(),
                  st.plan ? st.plan->density : 1.0,
                  (st.escalated ? 1u : 0u) | (st.plan ? 0u : 2u));
        if (!st.plan) {
          SATTN_COUNTER_ADD("engine.dense_fallbacks", 1);  // exact rung, always valid
        } else {
          seq.mask = &st.plan->mask;
          if (auditor_) {
            // Shadow audit of the accepted plan, run by the sweep after the
            // kernel's timing window. Serving requests are single-head
            // synthetic workloads, so the scorecard slot is a stable
            // pseudo-head hash(id) % head_buckets at layer 0.
            seq.auditor = auditor_.get();
            seq.audit_q_lo = si.q_lo;
            seq.audit_layer = 0;
            seq.audit_head = audit_head_of(lr->req.id);
            seq.audit_predicted = st.plan->filter.coverage;
          }
        }
      }
      batch.seqs.push_back(std::move(seq));
      items.push_back(std::move(st));
    }

    // --- One ragged sweep services the whole step. ---
    const std::vector<SeqCost> costs = ragged_attention_sweep(batch);

    // --- Apply results: fault injection, attribution, phase transitions. ---
    const double t_done = now();
    for (std::size_t i = 0; i < items.size(); ++i) {
      ItemState& st = items[i];
      Live* lr = st.lr;
      const double kernel_s = costs[i].seconds;
      if (lr->start_s < 0.0) lr->start_s = t_done - kernel_s;

      // Shadow-audit outcome (sparse chunks only; rows = 0 otherwise). The
      // audit's wall time is quality assurance, not service compute: it
      // bills to guard — keeping queue + compute + guard == ttft — even
      // when the chunk itself faults below. The measured chunk CRA feeds
      // the kAudit telemetry stream and the measured_cra_low monitor.
      const obs::AuditResult& audit = costs[i].audit;
      if (audit.rows > 0) {
        lr->guard_s += audit.seconds;
        tele_push(obs::TelemetryEventKind::kAudit, lr->req.id, t_done, audit.cra_min,
                  static_cast<std::uint32_t>(audit.rows));
      }

      if (!st.decode && lr->injector.should_fire()) {
        // Transient chunk fault: the attempt's measured work (planning and
        // kernel) is lost guardrail time, and the backoff gate is
        // guardrail-imposed waiting — the chunk is redone after it.
        lr->guard_s += st.plan_s + kernel_s;
        const std::optional<double> backoff = opts_.retry_backoff(lr->attempts);
        if (!backoff) {
          shed_live(lr, "retries_exhausted");
          continue;
        }
        result_.record_retry();
        lr->available_at = t_done + *backoff;
        lr->guard_s += *backoff;
        ++lr->attempts;
        continue;
      }

      if (st.decode) {
        lr->decode_total_s += kernel_s;
        // H2O's heavy-hitter scores observe this step's real attention
        // weights (runtime/decode.h) — only when the pressure rung is
        // armed, so the un-budgeted decode path stays untouched.
        if (lr->evict && opts_.kv_eviction == EvictionKind::kH2O) {
          std::vector<float> weights;
          std::vector<float> scratch(static_cast<std::size_t>(opts_.head_dim), 0.0f);
          const auto q = lr->dec_q.row(lr->decoded);
          const Status ws = decode_attention(q, lr->cache, scratch, &weights);
          if (ws.ok()) lr->evict->observe(lr->cache, weights);
        }
        // Decode-phase shadow audit: decode is exact, so its weights ARE the
        // ground-truth row — a sampled step scores the request's accepted
        // plan structure (window + stripes) against them for free. Absolute
        // row index prompt_tokens + decoded keeps selection deterministic
        // across the whole request lifetime. Decode audit time stays out of
        // guard (TTFT is already fixed at prefill-done) and out of
        // decode_total_s (TPOT stays honest); the auditor tracks it as
        // overhead_seconds.
        if (auditor_ && lr->has_plan &&
            auditor_->selects_row(lr->req.id, lr->req.prompt_tokens + lr->decoded)) {
          const double a0 = now();
          std::vector<float> weights;
          std::vector<float> scratch(static_cast<std::size_t>(opts_.head_dim), 0.0f);
          const Status ws =
              decode_attention(lr->dec_q.row(lr->decoded), lr->cache, scratch, &weights);
          if (ws.ok()) {
            const double retained =
                audited_decode_retained_mass(weights, lr->plan_stripes, lr->plan_window);
            auditor_->record_decode(0, audit_head_of(lr->req.id), retained, lr->plan_predicted,
                                    now() - a0);
            tele_push(obs::TelemetryEventKind::kAudit, lr->req.id, t_done, retained, 1);
          }
        }
        ++lr->decoded;
        tele_push(obs::TelemetryEventKind::kDecodeStep, lr->req.id, t_done, kernel_s);
        emit_timeline(opts_.run_label, lr->req.id, t_done, obs::RequestPhase::kDecodeStep);
        continue;
      }

      // Successful prefill chunk.
      lr->compute_s += st.plan_s + kernel_s;
      tele_push(obs::TelemetryEventKind::kPrefillChunk, lr->req.id, t_done,
                st.plan_s + kernel_s, static_cast<std::uint32_t>(st.q_hi - st.q_lo));
      emit_timeline(opts_.run_label, lr->req.id, t_done, obs::RequestPhase::kPrefillChunk);
      // The plan record follows this chunk's own outcome, cleared on the
      // dense rung.
      lr->has_plan = st.plan && (auditor_ || opts_.kv_sparse_residency);
      if (lr->has_plan) {
        lr->plan_stripes = st.plan->mask.stripe_columns();
        lr->plan_window = st.plan->mask.window();
        lr->plan_predicted = st.plan->filter.coverage;
      }
      lr->prefilled = st.q_hi;
      if (opts_.past_deadline(t_done - lr->req.arrival_seconds)) {
        // Deadline enforcement between chunks: a request that blew its TTFT
        // deadline mid-prefill sheds now instead of burning the remaining
        // chunks' device time.
        shed_live(lr, "deadline");
        continue;
      }
      if (lr->prefilled >= lr->req.prompt_tokens) {
        // The cache is needed for decode, and (independently) to publish
        // this prompt's prefix pages for future requests to attach. It is
        // filled BEFORE the TTFT stamp: the fill (and the prefix publish's
        // hashing) bills to compute, so it must lie inside the TTFT wall
        // window or the queue residual could go negative.
        if (opts_.decode_tokens > 0 || opts_.kv_prefix_cache) {
          // Cache fill is service work on the request's critical path; it
          // appends only the suffix past any attached prefix pages.
          const double c0 = now();
          const Status cs = lr->cache.append_prefill(lr->in);
          assert(cs.ok());
          (void)cs;
          if (opts_.kv_prefix_cache) lr->cache.publish_prefix(lr->in, lr->out);
          lr->compute_s += now() - c0;
          // Sparse-residency eviction: with an accepted structured plan, no
          // decode row will read keys outside the plan's stripes + local
          // window — free the pages holding only such tokens, so page
          // residency tracks the mask's retained fraction.
          if (opts_.kv_sparse_residency && lr->has_plan) {
            const Index dropped =
                apply_mask_residency(lr->cache, lr->plan_stripes, lr->plan_window);
            if (dropped > 0) {
              ++result_.kv_residency_evictions;
              SATTN_COUNTER_ADD("engine.kv_residency_evictions", 1);
            }
          }
          result_.kv_pages_resident += lr->cache.pages();
          result_.kv_pages_full += (lr->req.prompt_tokens + arena_->page_tokens() - 1) >>
                                   arena_->page_shift();
          if (opts_.decode_tokens > 0) {
            lr->decoding = true;
            if (opts_.kv_budget_bytes > 0.0) {
              lr->evict = make_eviction_policy(opts_.kv_eviction, opts_.kv_evict_keep,
                                               opts_.kv_evict_recent);
            }
          }
          // The prefill tensors are dead once the cache holds K/V: release
          // them so live memory tracks what the KV budget models.
          lr->in = AttentionInput{};
          lr->out = Matrix{};
        }
        const double t_fin = now();
        lr->finish_prefill_s = t_fin;
        tele_push(obs::TelemetryEventKind::kPrefillDone, lr->req.id, t_fin,
                  t_fin - lr->req.arrival_seconds);
        emit_timeline(opts_.run_label, lr->req.id, t_fin, obs::RequestPhase::kPrefillDone);
      }
    }

    // --- Completions. ---
    for (auto it = live_.begin(); it != live_.end();) {
      Live& lr = **it;
      const bool prefill_done = lr.finish_prefill_s >= 0.0;
      const bool decode_done = !lr.decoding || lr.decoded >= opts_.decode_tokens;
      if (!(prefill_done && decode_done)) {
        ++it;
        continue;
      }
      EngineCompletion c;
      c.base = CompletedRequest{std::move(lr.req), lr.start_s, lr.finish_prefill_s, lr.level,
                                lr.attempts};
      c.base.compute_seconds = lr.compute_s;
      c.base.guard_seconds = lr.guard_s;
      c.decoded_tokens = lr.decoded;
      c.tpot_seconds = lr.decoded > 0 ? lr.decode_total_s / static_cast<double>(lr.decoded) : 0.0;
      c.prefix_hit_tokens = lr.prefix_hit;
      result_.record_completion(c.base, opts_.run_label, c.decoded_tokens, c.tpot_seconds);
      const double t_comp = now();
      tele_push(obs::TelemetryEventKind::kComplete, c.base.request.id, t_comp, c.tpot_seconds,
                static_cast<std::uint32_t>(c.decoded_tokens));
      emit_timeline(opts_.run_label, c.base.request.id, t_comp, obs::RequestPhase::kCompleted);
      result_.completed.push_back(std::move(c));
      it = live_.erase(it);
    }
  }
  // Loop exited: nothing left for the watchdog to monitor.
  loop_waiting_.store(true, std::memory_order_relaxed);
}

}  // namespace sattn
