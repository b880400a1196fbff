#include "runtime/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "obs/accounting.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/decode.h"
#include "runtime/kv_cache.h"

namespace sattn {

namespace {

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

void fill_row(std::span<float> row, std::uint64_t key) {
  Rng rng(key);
  for (float& x : row) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
}

// Key of row r of the content stream `base`.
std::uint64_t row_key(std::uint64_t base, Index r) {
  return (base ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(r) + 1))) *
         0x100000001b3ull;
}

// Scorecard attribution for the shadow audit: serving requests are
// single-head synthetic workloads, so each hashes to a stable pseudo-head
// bucket at layer 0 (obs/audit.h, AuditOptions::head_buckets).
using Kind = obs::TelemetryEventKind;

long long audit_head(const obs::AuditOptions& audit, const std::string& id) {
  const auto buckets = static_cast<std::uint64_t>(std::max<Index>(1, audit.head_buckets));
  return static_cast<long long>(mix_id(audit.seed, id) % buckets);
}

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

std::vector<std::uint64_t> prompt_row_keys(const ServingRequest& req, std::uint64_t seed) {
  const Index s = req.prompt_tokens;
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(std::max<Index>(0, s)));
  const auto fill = [&](std::uint64_t base, Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) keys[static_cast<std::size_t>(r)] = row_key(base, r);
  };
  if (req.segments.empty()) {
    fill(mix_id(seed, "seq/" + std::to_string(s) + "/" + req.id), 0, s);
    return keys;
  }
  Index r = 0;
  for (const ContentSegment& seg : req.segments) {
    if (r >= s) break;
    const Index hi = std::min(s, r + std::max<Index>(0, seg.tokens));
    fill(mix_id(seed, "seg/" + seg.key), r, hi);
    r = hi;
  }
  fill(mix_id(seed, "req/" + req.id), r, s);
  return keys;
}

void synthesize_prompt(const ServingRequest& req, std::uint64_t seed,
                       std::span<const std::uint64_t> keys, KVCache& cache, Matrix& q,
                       Matrix& dec_q) {
  const Index lo = cache.size(), s = static_cast<Index>(keys.size());
  assert(lo <= s);
  q.resize(s - lo, cache.head_dim());
  const Status grown = cache.extend(s - lo);
  assert(grown.ok());
  (void)grown;
  if (req.segments.empty()) {
    // The one sequential stream: rows below `lo` are drawn and dropped.
    Rng rng(mix_id(seed, req.id));
    std::vector<float> dropped(static_cast<std::size_t>(cache.head_dim()));
    const auto draw = [&](auto&& dst) {
      for (Index r = 0; r < s; ++r) {
        const std::span<float> row = r < lo ? std::span<float>(dropped) : dst(r);
        for (float& x : row) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      }
    };
    draw([&](Index r) { return q.row(r - lo); });
    draw([&](Index r) { return cache.k_row(r); });
    draw([&](Index r) { return cache.v_row(r); });
    fill_matrix(dec_q, rng);
    return;
  }
  // Each row depends on its key alone, so page-sized blocks fill in
  // parallel.
  const Index block = cache.arena()->page_tokens();
  parallel_for((s - lo + block - 1) / block, [&](Index b) {
    for (Index r = lo + b * block; r < std::min(s, lo + (b + 1) * block); ++r) {
      const std::uint64_t key = keys[static_cast<std::size_t>(r)];
      fill_row(q.row(r - lo), key ^ 0x51ull);
      fill_row(cache.k_row(r), key ^ 0x4bull);
      fill_row(cache.v_row(r), key ^ 0x56ull);
    }
  });
  Rng rng(mix_id(seed, "dec/" + req.id));
  fill_matrix(dec_q, rng);
}

// One in-flight request. Owned exclusively by the loop thread after
// admission; submitters never see it.
struct ServingEngine::Live {
  ServingRequest req;  // arrival_seconds = measured submit instant
  Index admit_seq = 0;

  // One key per prompt token (prompt_row_keys). The rows past the prefix
  // hit are synthesized at the first chunk: Q and the outputs into q and
  // out (row r - prefix_hit), K and V into the cache's private pages.
  std::vector<std::uint64_t> keys;
  Matrix q;
  Matrix out;
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

// One request's share of a step: its prefill rows or decode token, and in
// sample mode the chunk's accepted plan (alive through the sweep).
struct ServingEngine::Item {
  Live* lr = nullptr;
  Index q_lo = 0, q_hi = 0;
  bool decode = false;
  double plan_s = 0.0;  // accepted attempt's planning time (compute)
  std::unique_ptr<SamplePlan> plan;
};

bool ServingEngine::PlanBreaker::allow(double now) {
  if (state != kOpen) return true;
  if (now < open_until) {
    SATTN_COUNTER_ADD("engine.breaker_short_circuits", 1);
    return false;
  }
  state = kHalfOpen;
  SATTN_GAUGE_SET("engine.breaker_state", 2.0);
  return true;
}

void ServingEngine::PlanBreaker::record(bool accepted, double now) {
  if (threshold <= 0) return;
  if (!accepted) {
    ++streak;
    if (state == kHalfOpen || streak >= threshold) trip(now);
    return;
  }
  streak = 0;
  if (state == kHalfOpen) {
    state = kClosed;
    SATTN_COUNTER_ADD("engine.breaker_closes", 1);
    SATTN_GAUGE_SET("engine.breaker_state", 0.0);
  }
}

bool ServingEngine::PlanBreaker::trip(double now) {
  if (state == kOpen) return false;
  ++trips;
  SATTN_COUNTER_ADD("engine.breaker_trips", 1);
  state = kOpen;
  open_until = now + cooldown_s;
  SATTN_GAUGE_SET("engine.breaker_state", 1.0);
  return true;
}

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

ServingEngine::ServingEngine(EngineOptions opts)
    : opts_(std::move(opts)),
      projected_cost_(opts_.projected_prefill_seconds
                          ? opts_.projected_prefill_seconds
                          : PrefillCost([](Index, double) { return 0.0; })),
      breaker_{opts_.breaker_fault_threshold, opts_.breaker_cooldown_seconds} {
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
  tele_push(Kind::kSubmit, id, arrival);
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
  for (;;) {
    heartbeat_s_.store(now(), std::memory_order_relaxed);
    // Drift-monitor pre-trip: a sustained quality alert (dense-fallback /
    // escalation / retained-KV drift) opens the breaker before the
    // consecutive-fault streak alone would, whatever
    // breaker_fault_threshold says — the alert is the trip condition.
    if (tele_pub_ && tele_pub_->consume_breaker_pretrip() && breaker_.trip(now())) {
      SATTN_COUNTER_ADD("engine.breaker_pretrips", 1);
    }
    std::vector<ServingRequest> arrivals;
    bool closed = false;
    if (!intake(arrivals, closed)) break;
    admit(std::move(arrivals));
    gate_kv_budget();
    if (!live_.empty()) steer();
    if (live_.empty()) {
      if (closed) break;
      continue;
    }
    RaggedBatchView batch;
    const std::vector<Item> items = form(batch);
    if (items.empty()) continue;
    // One ragged sweep services the whole step.
    apply(items, ragged_attention_sweep(batch));
  }
  result_.breaker_trips = breaker_.trips;
  // Loop exited: nothing left for the watchdog to monitor.
  loop_waiting_.store(true, std::memory_order_relaxed);
}

// Intake: wait while idle, then drain submissions and cancels under the
// lock and record each arrival's `submitted` timeline point. Past a bounded
// drain's deadline everything is force-cancelled ("shutdown") and false
// tells the loop to exit.
bool ServingEngine::intake(std::vector<ServingRequest>& arrivals, bool& closed) {
  std::vector<std::string> cancels;
  {
    std::unique_lock lk(mu_);
    if (live_.empty()) wait_for_work(lk, std::numeric_limits<double>::infinity());
    arrivals.swap(intake_);
    cancels.swap(cancel_intake_);
    closed = closed_;
  }
  for (std::string& id : cancels) pending_cancels_.insert(std::move(id));
  for (const ServingRequest& req : arrivals) note(Kind::kSubmit, req.id, req.arrival_seconds);
  if (!closed || now() < drain_deadline_.load(std::memory_order_relaxed)) return true;
  for (ServingRequest& req : arrivals) {
    retire(std::move(req), nullptr, TerminalState::kCancelled, "shutdown");
  }
  while (!live_.empty()) retire(live_.begin(), TerminalState::kCancelled, "shutdown");
  return false;
}

// Admission: an arrival matched by a pending cancel retires cancelled, the
// door (ServingPolicy::admit) sheds, and the rest get their row keys and a
// prefix-cache probe and join the live set. Then pending cancels
// retire matching in-flight requests — between chunks, never mid-kernel.
void ServingEngine::admit(std::vector<ServingRequest> arrivals) {
  for (ServingRequest& req : arrivals) {
    if (pending_cancels_.erase(req.id) > 0) {
      retire(std::move(req), nullptr, TerminalState::kCancelled, "cancel");
      continue;
    }
    if (const char* reason = opts_.admit(req.prompt_tokens, static_cast<Index>(live_.size()))) {
      retire(std::move(req), nullptr, TerminalState::kShed, reason);
      continue;
    }
    auto lr = std::make_unique<Live>(opts_.head_dim, opts_.fault.for_request(req.id), arena_);
    lr->req = std::move(req);
    lr->admit_seq = admit_seq_++;
    lr->active = opts_.kv_budget_bytes <= 0.0;  // budget gate (gate_kv_budget)
    // Row keys and the first probe, billed to queue; the span shows them in
    // the request's trace lane. Nothing is synthesized before the first
    // chunk, and then only the rows past the prefix hit.
    obs::RequestContext ctx(request_key(opts_.run_label, lr->req.id));
    SATTN_SPAN("engine/admit");
    lr->keys = prompt_row_keys(lr->req, opts_.seed);
    probe_prefix(*lr);
    SATTN_COUNTER_ADD("sched.requests_enqueued", 1);
    note(Kind::kAdmit, lr->req.id, now());
    live_.push_back(std::move(lr));
    result_.peak_live_batch = std::max(result_.peak_live_batch, static_cast<Index>(live_.size()));
  }
  if (pending_cancels_.empty()) return;
  for (auto it = live_.begin(); it != live_.end();) {
    if (pending_cancels_.erase((*it)->req.id) > 0) {
      it = retire(it, TerminalState::kCancelled, "cancel");
    } else {
      ++it;
    }
  }
}

// KV budget: activation, backpressure, and the eviction rung. Waiters
// activate FCFS when their projected bytes fit; before a waiter blocks, the
// eviction rung compacts active decoding caches (retention degrades before
// traffic sheds). Only a request whose solo demand exceeds the whole budget
// sheds — so a finite trace cannot deadlock: when no request is active the
// head waiter always fits. Then publishes the loop's memory and snapshot
// gauges.
void ServingEngine::gate_kv_budget() {
  const double budget = opts_.kv_budget_bytes;
  double active = active_kv_bytes();
  for (auto it = live_.begin(); budget > 0.0 && it != live_.end();) {
    Live& lr = **it;
    if (lr.active) {
      ++it;
      continue;
    }
    const double need = kv_bytes(lr);
    if (active + need > budget && opts_.kv_eviction != EvictionKind::kNone) {
      bool freed = false;
      for (auto& lp : live_) {
        if (lp->active && lp->decoding && lp->evict && lp->evict->enforce(lp->cache)) freed = true;
      }
      if (freed) {
        ++result_.kv_evictions;
        SATTN_COUNTER_ADD("engine.kv_evictions", 1);
        active = active_kv_bytes();
      }
    }
    if (active + need <= budget) {
      lr.active = true;
      // Requests that queued behind the budget re-probe the prefix index:
      // an earlier sharer may have published while they waited. Attached
      // shared pages bill at the counted-once share, so the post-probe
      // demand can only be <= the flat projection that passed the fit test.
      probe_prefix(lr);
      active += kv_bytes(lr);
      ++it;
      continue;
    }
    if (need > budget) {
      it = retire(it, TerminalState::kShed, "kv_budget");
      continue;
    }
    if (!lr.kv_waited) {
      lr.kv_waited = true;
      ++result_.kv_pressure_waits;
      SATTN_COUNTER_ADD("engine.kv_pressure_waits", 1);
    }
    break;  // FCFS: later arrivals must not jump the head waiter's budget
  }
  result_.peak_kv_bytes = std::max(result_.peak_kv_bytes, active);
  // Arena-wide page residency (shared pages counted once by the arena).
  const Index pages_live = arena_->pages_live();
  result_.kv_pages_peak = std::max(result_.kv_pages_peak, pages_live);
  SATTN_GAUGE_SET("engine.kv_pages_live", static_cast<double>(pages_live));
  if (!tele_hub_) return;
  // Telemetry snapshot channel: atomics only, read by the publisher.
  const auto active_n = static_cast<std::size_t>(std::count_if(
      live_.begin(), live_.end(), [](const std::unique_ptr<Live>& lp) { return lp->active; }));
  tele_live_.store(live_.size(), std::memory_order_relaxed);
  tele_active_.store(active_n, std::memory_order_relaxed);
  tele_kv_bytes_.store(active, std::memory_order_relaxed);
  tele_breaker_.store(breaker_.state, std::memory_order_relaxed);
}

// First-service steering, deadline shedding, runaway watchdog. When service
// is about to start, ServingPolicy::steer picks the degrade level against
// the projected cost, and a request whose projected TTFT misses the hard
// deadline even fully degraded sheds. Started requests get the runaway
// check: a prefill whose measured service time blew past
// watchdog_cost_multiple x its projected cost sheds instead of parking the
// batch indefinitely.
void ServingEngine::steer() {
  const double t = now();
  const bool watch = opts_.watchdog_cost_multiple > 0.0 && opts_.projected_prefill_seconds;
  for (auto it = live_.begin(); it != live_.end();) {
    Live& lr = **it;
    if (lr.start_s < 0.0) {
      const ServingPolicy::Steer s =
          opts_.steer(t - lr.req.arrival_seconds, lr.req.prompt_tokens, projected_cost_);
      lr.level = s.level;
      if (opts_.past_deadline(s.projected_ttft)) {
        it = retire(it, TerminalState::kShed, "deadline");
        continue;
      }
    } else if (watch && lr.finish_prefill_s < 0.0) {
      const double proj = projected_cost_(lr.req.prompt_tokens, opts_.density_scale(lr.level));
      if (proj > 0.0 && t - lr.start_s > opts_.watchdog_cost_multiple * proj) {
        it = retire(it, TerminalState::kShed, "watchdog");
        continue;
      }
    }
    ++it;
  }
}

// Batch formation (runtime/batch.h) over active, ungated requests, then one
// ragged sequence per step item. Every sequence reads its request's KV
// cache through its page table: a prefill chunk queries rows [q_lo, q_hi)
// against the key prefix [0, q_hi), a decode step the whole cache. Empty
// when nothing can run (the loop then waits out the earliest backoff gate
// here).
std::vector<ServingEngine::Item> ServingEngine::form(RaggedBatchView& batch) {
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
    std::unique_lock lk(mu_);
    wait_for_work(lk, earliest_gate);
    return {};
  }
  const std::vector<StepItem> step =
      form_step(std::move(slots), StepPlanConfig{opts_.max_batch, opts_.chunk_tokens});
  if (step.empty()) return {};
  ++result_.iterations;
  SATTN_SERIES("sched.queue_depth", t_form, static_cast<double>(live_.size()));

  std::vector<Item> items;
  items.reserve(step.size());
  batch.flash = opts_.flash;
  for (StepItem si : step) {
    const auto at = std::find_if(live_.begin(), live_.end(), [&](const std::unique_ptr<Live>& lp) {
      return lp->req.id == si.id;
    });
    assert(at != live_.end());
    Live* lr = at->get();
    // Scheduled-time prefix probe: a request starting its FIRST prefill
    // chunk looks the index up again — requests admitted in the same intake
    // sweep (or queued behind the batch) see pages an earlier sharer
    // published after their admission-time probe missed. On a hit the
    // scheduled window shifts past the attached rows. A first chunk that
    // faulted with nothing attached drops its synthesized rows and probes
    // again, like a request that never ran.
    if (!si.decode && lr->prefilled == 0) {
      if (!lr->cache.empty()) lr->cache = KVCache(opts_.head_dim, arena_);
      probe_prefix(*lr);
      if (lr->prefilled > 0) {
        const Index rows = si.q_hi - si.q_lo;
        si.q_lo = lr->prefilled;
        si.q_hi = std::min(lr->req.prompt_tokens, si.q_lo + rows);
      }
    }
    // After the last probe it can make, the request synthesizes the rows
    // past its hit.
    if (!si.decode && lr->cache.size() < lr->req.prompt_tokens) synthesize(*lr);
    Item item{lr, si.q_lo, si.q_hi, si.decode, 0.0, nullptr};
    RaggedSeq seq;
    seq.request_id = request_key(opts_.run_label, lr->req.id);
    seq.span_name = si.decode ? "seq/decode_step" : "seq/prefill_chunk";
    if (si.decode) {
      seq.q = lr->dec_q.row(lr->decoded).data();
      seq.rows = 1;
      seq.kv = lr->cache.view();
      seq.k_hi = lr->cache.size();
      seq.causal_off = seq.k_hi - 1;
      seq.out = lr->dec_out.data();
    } else {
      seq.q = lr->q.row(si.q_lo - lr->prefix_hit).data();
      seq.rows = si.q_hi - si.q_lo;
      seq.kv = lr->cache.view();
      seq.k_hi = si.q_hi;
      seq.causal_off = si.q_lo;
      seq.out = lr->out.row(si.q_lo - lr->prefix_hit).data();
      if (opts_.mode == EngineMode::kSampleAttention) plan_chunk(item, seq);
    }
    batch.seqs.push_back(std::move(seq));
    items.push_back(std::move(item));
  }
  return items;
}

// SampleAttention chunk planning: plan the chunk in place and walk the
// measured plan/validate/escalate ladder — rejected attempts bill to guard
// — unless the breaker short-circuits straight to the dense rung (no guard
// time burned on a planner known to be faulting). An accepted plan's mask
// sends the sequence through the sparse kernel; the dense rung leaves it
// unmasked. Degrade level -> planner budget: the ladder's density scale
// multiplies the CRA threshold and window budget, the same knobs the
// simulator's cost model scales.
void ServingEngine::plan_chunk(Item& item, RaggedSeq& seq) {
  Live& lr = *item.lr;
  SampleAttentionConfig cfg = opts_.sample;
  const double ds = opts_.density_scale(lr.level);
  cfg.alpha = std::min(1.0, cfg.alpha * ds);
  cfg.window_ratio = cfg.window_ratio * ds;
  bool escalated = false;
  if (breaker_.allow(now())) {
    for (const GuardRung& rung : escalation_ladder(cfg, opts_.guard)) {
      const double a0 = now();
      SamplePlan plan = plan_sample_attention(seq.q, seq.rows, seq.kv, seq.k_hi, rung.cfg);
      if (opts_.guard.plan_hook) opts_.guard.plan_hook(plan);
      const Status ok = validate_sample_plan(plan, seq.rows, seq.k_hi, rung.cfg, opts_.guard);
      const double attempt_s = now() - a0;
      if (ok.ok()) {
        item.plan_s = attempt_s;
        item.plan = std::make_unique<SamplePlan>(std::move(plan));
        break;
      }
      lr.guard_s += attempt_s;  // rejected attempt: guardrail time, next rung
      SATTN_COUNTER_ADD("engine.plan_rejects", 1);
      escalated = true;
    }
    breaker_.record(item.plan != nullptr, now());
  }
  // One planning-episode event per chunk: retained-KV fraction (mask
  // density; 1.0 for the dense rung), escalation and fallback bits feed the
  // rolling drift monitors.
  note(Kind::kPlan, lr.req.id, now(), item.plan ? item.plan->density : 1.0,
       (escalated ? 1u : 0u) | (item.plan ? 0u : 2u));
  if (!item.plan) {
    SATTN_COUNTER_ADD("engine.dense_fallbacks", 1);  // exact rung, always valid
    return;
  }
  seq.mask = &item.plan->mask;
  if (!auditor_) return;
  // Shadow audit of the accepted plan, run by the sweep after the kernel's
  // timing window.
  seq.auditor = auditor_.get();
  seq.audit_q_lo = item.q_lo;
  seq.audit_layer = 0;
  seq.audit_head = audit_head(opts_.audit, lr.req.id);
  seq.audit_predicted = item.plan->filter.coverage;
}

// Apply the sweep's results per item — audit billing, fault injection and
// retry, attribution, phase transitions — then retire completed requests.
void ServingEngine::apply(const std::vector<Item>& items, const std::vector<SeqCost>& costs) {
  const double t_done = now();
  const auto live_at = [this](const Live* p) {
    return std::find_if(live_.begin(), live_.end(),
                        [p](const std::unique_ptr<Live>& lp) { return lp.get() == p; });
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    Live& lr = *item.lr;
    const double kernel_s = costs[i].seconds;
    if (lr.start_s < 0.0) lr.start_s = t_done - kernel_s;

    // Shadow-audit outcome (sparse chunks only; rows = 0 otherwise). The
    // audit's wall time is quality assurance, not service compute: it bills
    // to guard — keeping queue + compute + guard == ttft — even when the
    // chunk itself faults below.
    const obs::AuditResult& audit = costs[i].audit;
    if (audit.rows > 0) {
      lr.guard_s += audit.seconds;
      note(Kind::kAudit, lr.req.id, t_done, audit.cra_min, static_cast<std::uint32_t>(audit.rows));
    }

    if (!item.decode && lr.injector.should_fire()) {
      // Transient chunk fault: the attempt's measured work (planning and
      // kernel) is lost guardrail time, and the backoff gate is
      // guardrail-imposed waiting — the chunk is redone after it.
      lr.guard_s += item.plan_s + kernel_s;
      const std::optional<double> backoff = opts_.retry_backoff(lr.attempts);
      if (!backoff) {
        retire(live_at(&lr), TerminalState::kShed, "retries_exhausted");
        continue;
      }
      result_.record_retry();
      lr.available_at = t_done + *backoff;
      lr.guard_s += *backoff;
      ++lr.attempts;
      continue;
    }

    if (item.decode) {
      lr.decode_total_s += kernel_s;
      // This step's exact attention weights, computed at most once: H2O's
      // heavy-hitter scores observe them (only when the pressure rung is
      // armed, so the un-budgeted decode path stays untouched), and a
      // sampled step's shadow audit scores the request's plan structure
      // (window + stripes) against them — decode is exact, so they ARE the
      // ground-truth row. The absolute row index prompt_tokens + decoded
      // keeps selection deterministic across the request's lifetime. Audit
      // time stays out of guard (TTFT is already fixed) and out of
      // decode_total_s (TPOT stays honest); the auditor tracks it as
      // overhead_seconds.
      const bool h2o = lr.evict && opts_.kv_eviction == EvictionKind::kH2O;
      const bool audit_row = auditor_ && lr.has_plan &&
                             auditor_->selects_row(lr.req.id, lr.req.prompt_tokens + lr.decoded);
      if (h2o || audit_row) {
        const double a0 = now();
        std::vector<float> weights;
        std::vector<float> scratch(static_cast<std::size_t>(opts_.head_dim), 0.0f);
        if (decode_attention(lr.dec_q.row(lr.decoded), lr.cache, scratch, &weights).ok()) {
          if (audit_row) {
            const double retained =
                audited_decode_retained_mass(weights, lr.plan_stripes, lr.plan_window);
            auditor_->record_decode(0, audit_head(opts_.audit, lr.req.id), retained,
                                    lr.plan_predicted, now() - a0);
            note(Kind::kAudit, lr.req.id, t_done, retained, 1);
          }
          if (h2o) lr.evict->observe(lr.cache, weights);
        }
      }
      ++lr.decoded;
      note(Kind::kDecodeStep, lr.req.id, t_done, kernel_s);
      continue;
    }

    // Successful prefill chunk.
    lr.compute_s += item.plan_s + kernel_s;
    note(Kind::kPrefillChunk, lr.req.id, t_done, item.plan_s + kernel_s,
         static_cast<std::uint32_t>(item.q_hi - item.q_lo));
    // The plan record follows this chunk's own outcome, cleared on the
    // dense rung.
    lr.has_plan = item.plan && (auditor_ || opts_.kv_sparse_residency);
    if (lr.has_plan) {
      lr.plan_stripes = item.plan->mask.stripe_columns();
      lr.plan_window = item.plan->mask.window();
      lr.plan_predicted = item.plan->filter.coverage;
    }
    lr.prefilled = item.q_hi;
    if (opts_.past_deadline(t_done - lr.req.arrival_seconds)) {
      // Deadline enforcement between chunks: a request that blew its TTFT
      // deadline mid-prefill sheds now instead of burning the remaining
      // chunks' device time.
      retire(live_at(&lr), TerminalState::kShed, "deadline");
      continue;
    }
    if (lr.prefilled >= lr.req.prompt_tokens) finish_prefill(lr);
  }

  for (auto it = live_.begin(); it != live_.end();) {
    const Live& lr = **it;
    const bool done =
        lr.finish_prefill_s >= 0.0 && (!lr.decoding || lr.decoded >= opts_.decode_tokens);
    it = done ? retire(it, TerminalState::kCompleted, "") : std::next(it);
  }
}

// Synthesis at a request's first chunk, billed to queue like admission:
// the rows past the prefix hit, K/V straight into the cache's pages.
void ServingEngine::synthesize(Live& lr) {
  obs::RequestContext ctx(request_key(opts_.run_label, lr.req.id));
  SATTN_SPAN("engine/synthesize");
  const Index d = opts_.head_dim;
  if (opts_.decode_tokens > 0) {
    lr.dec_q.resize(opts_.decode_tokens, d);
    lr.dec_out.assign(static_cast<std::size_t>(d), 0.0f);
  }
  synthesize_prompt(lr.req, opts_.seed, lr.keys, lr.cache, lr.q, lr.dec_q);
  lr.out.resize(lr.q.rows(), d);
}

// Prefill done: the cache already holds the whole prompt, so this publishes
// its full pages for future requests, applies sparse residency, and stamps
// TTFT. The publish happens BEFORE the stamp: it bills to compute, so it
// must lie inside the TTFT wall window or the queue residual could go
// negative.
void ServingEngine::finish_prefill(Live& lr) {
  if (opts_.decode_tokens > 0 || opts_.kv_prefix_cache) {
    if (opts_.kv_prefix_cache) {
      const double c0 = now();
      lr.cache.publish_prefix(lr.keys, lr.out, lr.prefix_hit);
      lr.compute_s += now() - c0;
    }
    // Sparse-residency eviction: with an accepted structured plan, no
    // decode row will read keys outside the plan's stripes + local window —
    // free the pages holding only such tokens, so page residency tracks the
    // mask's retained fraction.
    if (opts_.kv_sparse_residency && lr.has_plan &&
        apply_mask_residency(lr.cache, lr.plan_stripes, lr.plan_window) > 0) {
      ++result_.kv_residency_evictions;
      SATTN_COUNTER_ADD("engine.kv_residency_evictions", 1);
    }
    result_.kv_pages_resident += lr.cache.pages();
    result_.kv_pages_full +=
        (lr.req.prompt_tokens + arena_->page_tokens() - 1) >> arena_->page_shift();
    if (opts_.decode_tokens > 0) {
      lr.decoding = true;
      if (opts_.kv_budget_bytes > 0.0) {
        lr.evict = make_eviction_policy(opts_.kv_eviction, opts_.kv_evict_keep,
                                        opts_.kv_evict_recent);
      }
    }
    // The prefill rows are dead once the cache holds K/V: release them so
    // live memory tracks what the KV budget models.
    lr.keys = std::vector<std::uint64_t>();
    lr.q = Matrix{};
    lr.out = Matrix{};
  }
  const double t_fin = now();
  lr.finish_prefill_s = t_fin;
  note(Kind::kPrefillDone, lr.req.id, t_fin, t_fin - lr.req.arrival_seconds);
}

// Every terminal state goes through here: it builds the request's one
// record, emits its terminal event and bumps its counters. Completed and
// cancelled records carry the attribution queue + compute + guard == ttft;
// a cancellation's finish is the cancel instant, and a backoff gate that
// had not fully elapsed is refunded from guard (it was billed in full when
// the retry was scheduled). Never-serviced requests are pure queueing.
void ServingEngine::retire(ServingRequest req, const Live* lr, TerminalState state,
                           const char* reason) {
  const double t = now();
  if (state == TerminalState::kShed) {
    note(Kind::kShed, req.id, t);
    // Engine-only reasons; record_shed counts the policy's own.
    if (std::strcmp(reason, "kv_budget") == 0) SATTN_COUNTER_ADD("engine.kv_budget_sheds", 1);
    if (std::strcmp(reason, "watchdog") == 0) SATTN_COUNTER_ADD("engine.watchdog_sheds", 1);
    result_.record_shed(std::move(req), reason, t);
    return;
  }
  CompletedRequest base{std::move(req), t, t, 0, 1};
  Index decoded = 0;
  if (lr != nullptr) {
    if (lr->start_s >= 0.0) base.start_seconds = lr->start_s;
    if (state == TerminalState::kCompleted) base.finish_seconds = lr->finish_prefill_s;
    base.degrade_level = lr->level;
    base.attempts = lr->attempts;
    base.compute_seconds = lr->compute_s;
    base.guard_seconds = std::max(0.0, lr->guard_s - std::max(0.0, lr->available_at - t));
    decoded = lr->decoded;
  }
  if (state == TerminalState::kCompleted) {
    EngineCompletion c{std::move(base), decoded, 0.0, lr->prefix_hit};
    if (decoded > 0) c.tpot_seconds = lr->decode_total_s / static_cast<double>(decoded);
    result_.record_completion(c.base, opts_.run_label, decoded, c.tpot_seconds);
    note(Kind::kComplete, c.base.request.id, t, c.tpot_seconds,
         static_cast<std::uint32_t>(decoded));
    result_.completed.push_back(std::move(c));
    return;
  }
  base.queue_seconds = base.ttft() - base.compute_seconds - base.guard_seconds;
  note(Kind::kCancel, base.request.id, t);
  SATTN_COUNTER_ADD("engine.requests_cancelled", 1);
  result_.cancelled.push_back({std::move(base), decoded, reason});
}

ServingEngine::LiveIt ServingEngine::retire(LiveIt it, TerminalState state, const char* reason) {
  assert(it != live_.end());
  Live& lr = **it;
  retire(std::move(lr.req), &lr, state, reason);
  return live_.erase(it);
}

// The eight lifecycle kinds (kSubmit..kCancel, codes 0-7) also append to
// the request's `timeline.<run_label>/<id>` series, coded by the kind's
// value — the coding the run report's timeline view decodes. kSubmit's
// telemetry event rides the submitter's own ring (submit()), so here it is
// a timeline point only.
void ServingEngine::note(obs::TelemetryEventKind kind, const std::string& id, double t,
                         double value, std::uint32_t aux) {
  if (kind != Kind::kSubmit) tele_push(kind, id, t, value, aux);
  if (kind > Kind::kCancel || !obs::enabled()) return;
  obs::MetricsRegistry::global()
      .series("timeline." + request_key(opts_.run_label, id))
      .append(t, static_cast<double>(kind));
}

// Blocks the loop (lock held by the caller) until a submission or cancel
// arrives. until = +inf is the idle wait, which also wakes on close(); a
// finite `until` is a backoff wait, clamped to the drain deadline and woken
// early when a bounded finish() arms that deadline — it must not wait out a
// long backoff. loop_waiting_ tells the watchdog the silence is idleness.
void ServingEngine::wait_for_work(std::unique_lock<std::mutex>& lk, double until) {
  const bool idle = until == std::numeric_limits<double>::infinity();
  const double dd0 = drain_deadline_.load(std::memory_order_relaxed);
  const auto ready = [&] {
    return !intake_.empty() || !cancel_intake_.empty() ||
           (idle ? closed_ : drain_deadline_.load(std::memory_order_relaxed) != dd0);
  };
  const double lead = idle ? until : std::min(until, dd0) - now();
  if (ready() || lead <= 0.0) return;
  loop_waiting_.store(true, std::memory_order_relaxed);
  if (idle) {
    cv_.wait(lk, ready);
  } else {
    cv_.wait_for(lk, std::chrono::duration<double>(lead), ready);
  }
  loop_waiting_.store(false, std::memory_order_relaxed);
}

// Prefix-cache probe: attach leading shared pages from the arena's row-key
// index — those rows skip synthesis and prefill compute entirely. Their
// stored outputs are not copied: nothing reads them, since attached pages
// are never published again. Capped at prompt - 1 so even a full-prefix hit leaves one row of
// real prefill (the request still flows through form_step and the normal
// prefill-done transition). Called at admission, when a budget-deferred
// waiter activates, and when a first chunk is scheduled: the index may have
// grown meanwhile (an earlier sharer published).
void ServingEngine::probe_prefix(Live& lr) {
  if (!opts_.kv_prefix_cache || lr.prefilled > 0 || !lr.cache.empty()) return;
  const Index hit = lr.cache.try_attach_prefix(lr.keys, lr.req.prompt_tokens - 1, nullptr);
  if (hit <= 0) return;
  lr.prefilled = hit;
  lr.prefix_hit = hit;
  ++result_.kv_prefix_hits;
  result_.kv_prefix_hit_tokens += hit;
  SATTN_COUNTER_ADD("engine.kv_prefix_hits", 1);
  SATTN_COUNTER_ADD("engine.kv_prefix_hit_tokens", static_cast<double>(hit));
}

// Projected KV bytes a request pins while live. A prefilling request will
// need its whole prompt's K/V (2 streams, fp32 — the acct.* byte
// convention): its attached prefix pages bill at the cache's counted-once
// share and the rows past the hit per token, whether or not they are
// synthesized yet. Once prefill is done a request holds exactly its cache,
// which the eviction rung can shrink.
double ServingEngine::kv_bytes(const Live& lr) const {
  if (lr.finish_prefill_s >= 0.0) return lr.cache.bytes();
  const double per_token = 2.0 * static_cast<double>(opts_.head_dim) * obs::kAcctBytesPerElement;
  return lr.cache.shared_bytes() +
         per_token * static_cast<double>(lr.req.prompt_tokens - lr.prefix_hit);
}

double ServingEngine::active_kv_bytes() const {
  double sum = 0.0;
  for (const auto& lp : live_)
    if (lp->active) sum += kv_bytes(*lp);
  return sum;
}

}  // namespace sattn
