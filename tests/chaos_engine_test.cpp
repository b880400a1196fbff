// Deterministic chaos harness for the live ServingEngine
// (docs/ROBUSTNESS.md, "Lifecycle, overload & chaos").
//
// Each scenario drives the real engine — loop thread, ragged sweeps,
// measured time — through a storm it must survive: seeded chunk-fault
// storms, overload bursts well past capacity, deadline storms, mid-stream
// cancellations, KV memory pressure, runaway requests, faulting planners,
// and bounded shutdown. The invariants are the lifecycle contract itself:
//
//   1. Every submitted request reaches EXACTLY ONE terminal state
//      (completed | shed | cancelled) — no loss, no duplication, no
//      deadlock (the suite simply finishing pins the last one).
//   2. queue + compute + guard == ttft for every completed AND cancelled
//      record, with a non-negative queue residual.
//   3. The engine.* / sched.* counters reconcile with the result lists.
//   4. Two runs with the same spec produce the same outcome multiset,
//      regardless of concurrent submit interleaving (per-request fault
//      seeding, FaultSpec::for_request).
//
// Kept fast enough to run as a default ctest entry and under
// ASan/UBSan/TSan (scripts/check_sanitizers.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "attention/flash_attention.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "runtime/batch.h"
#include "runtime/decode.h"
#include "runtime/engine.h"
#include "runtime/eviction.h"
#include "runtime/kv_cache.h"

namespace sattn {
namespace {

class ChaosObs : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
    ASSERT_TRUE(obs::set_enabled(true)) << "SATTN_TRACE=0 in the test environment";
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Collector::global().reset();
    obs::MetricsRegistry::global().reset();
  }

  static double counter_value(const std::string& name) {
    for (const obs::CounterValue& cv : obs::Collector::global().counters())
      if (cv.name == name) return cv.value;
    return 0.0;
  }
};

EngineOptions chaos_engine() {
  EngineOptions opts;
  opts.mode = EngineMode::kDense;
  opts.head_dim = 32;
  opts.chunk_tokens = 64;
  opts.max_batch = 4;
  opts.decode_tokens = 2;
  opts.run_label.clear();  // no per-request gauges: chaos runs submit many
  return opts;
}

// The attribution identity, asserted to fp tolerance: the engine computes
// queue as the exact residual, so this really pins "compute and guard never
// exceed the request's wall time" (non-negative queue).
void expect_attribution_identity(const CompletedRequest& r, const std::string& what) {
  EXPECT_NEAR(r.queue_seconds + r.compute_seconds + r.guard_seconds, r.ttft(), 1e-9)
      << what << " " << r.request.id;
  EXPECT_GE(r.queue_seconds, -1e-9) << what << " " << r.request.id;
  EXPECT_GE(r.compute_seconds, 0.0) << what << " " << r.request.id;
  EXPECT_GE(r.guard_seconds, 0.0) << what << " " << r.request.id;
}

// ---------------------------------------------------------------------------
// The storm: faults + overload burst + deadline storm + mid-stream cancels.

TEST_F(ChaosObs, StormEveryRequestReachesExactlyOneTerminalState) {
  constexpr int kRequests = 24;  // 6x max_batch, submitted all at once
  EngineOptions opts = chaos_engine();
  opts.head_dim = 64;  // chunks heavy enough that the burst takes real time
  opts.fault = {FaultClass::kTensorNaN, 0.3, 0xc4a05ull, /*max_fires=*/-1};
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 0.001;
  opts.deadline_seconds = 0.05;  // deadline storm: the overloaded tail blows it
  ServingEngine engine(opts);
  engine.start();

  // Overload burst: four submitter threads race all requests onto the
  // intake at once, while a canceller thread pulls 25% of them back
  // mid-stream (plus ids that never existed — must be no-ops). Two cancels
  // are issued before their requests are even submitted: a cancel racing
  // ahead of its submit must still land (deterministically, whatever the
  // machine load), so at least two requests always reach kCancelled.
  std::vector<std::string> ids;
  for (int i = 0; i < kRequests; ++i) ids.push_back("c" + std::to_string(i));
  engine.cancel(ids[19]);
  engine.cancel(ids[23]);
  std::atomic<int> next{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const int n = next.fetch_add(1);
        if (n >= kRequests) return;
        ASSERT_TRUE(
            engine.submit({ids[static_cast<std::size_t>(n)], 256 + 128 * (n % 3), 0.0}).ok());
      }
    });
  }
  std::thread canceller([&] {
    engine.cancel("never-submitted");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (int i = 0; i < kRequests; i += 4) engine.cancel(ids[static_cast<std::size_t>(i)]);
    engine.cancel("also-never-submitted");
  });  // 6 mid-stream + 2 ahead-of-submit cancels = 1/3 of the storm
  for (std::thread& t : submitters) t.join();
  canceller.join();
  const EngineResult res = engine.finish();

  // Invariant 1: exactly one terminal state per submitted id, and nothing
  // that was never submitted.
  std::vector<std::string> terminal;
  for (const auto& [id, state] : res.outcomes()) terminal.push_back(id);
  ASSERT_EQ(terminal.size(), static_cast<std::size_t>(kRequests));
  std::sort(terminal.begin(), terminal.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(terminal, ids);

  // Invariant 2: the attribution identity on every completed and cancelled
  // record (cancels included: finish = the cancel instant).
  for (const EngineCompletion& c : res.completed) expect_attribution_identity(c.base, "completed");
  for (const CancelledRequest& c : res.cancelled) {
    expect_attribution_identity(c.base, "cancelled");
    EXPECT_EQ(c.reason, "cancel");
  }

  // Invariant 3: counters reconcile with the result lists.
  EXPECT_EQ(counter_value("sched.requests_completed"), static_cast<double>(res.completed.size()));
  EXPECT_EQ(counter_value("sched.requests_shed"), static_cast<double>(res.shed.size()));
  EXPECT_EQ(counter_value("engine.requests_cancelled"), static_cast<double>(res.cancelled.size()));
  EXPECT_EQ(counter_value("sched.request_retries"), static_cast<double>(res.retries));

  // The storm must actually have stormed: faults fired (retries or
  // retry-exhausted sheds) and cancels landed.
  EXPECT_GT(res.retries + static_cast<Index>(res.shed.size()), 0);
  EXPECT_GE(res.cancelled.size(), 2u);  // the ahead-of-submit cancels at minimum
}

TEST_F(ChaosObs, StormWithSharedPrefixArenaLeaksNoPages) {
  // A faulted, cancelled, concurrently-submitted storm over a SHARED page
  // arena: half the requests carry a common "sys" segment so prefix pages
  // are published, attached, and COW-released while requests retry and die
  // mid-flight. The pin: after the engine is gone, the arena holds exactly
  // the index-published pages — alloc minus freed equals live (no leak),
  // and release() asserts inside the arena catch any double free.
  constexpr int kRequests = 24;
  EngineOptions opts = chaos_engine();
  opts.fault = {FaultClass::kTensorNaN, 0.2, 0x9a6e5ull, /*max_fires=*/6};
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 0.001;
  // KV backpressure stages admission (~4 requests' worth of pages at a
  // time), so later shared-segment requests admit after the first publish
  // and actually hit the prefix index mid-storm.
  opts.kv_budget_bytes = 4.0 * 256.0 * (2.0 * opts.head_dim * sizeof(float));
  auto arena = std::make_shared<KvPageArena>(opts.head_dim, opts.kv_page_tokens);
  opts.kv_arena = arena;
  const std::vector<ContentSegment> sys = {{"sys", 128}};
  {
    ServingEngine engine(opts);
    engine.start();
    std::vector<std::string> ids;
    for (int i = 0; i < kRequests; ++i) ids.push_back("p" + std::to_string(i));
    std::atomic<int> next{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (;;) {
          const int n = next.fetch_add(1);
          if (n >= kRequests) return;
          // Even requests share the system segment; odd ones are private.
          ServingRequest req(ids[static_cast<std::size_t>(n)], 192 + 64 * (n % 2), 0.0,
                             n % 2 == 0 ? sys : std::vector<ContentSegment>{});
          ASSERT_TRUE(engine.submit(std::move(req)).ok());
        }
      });
    }
    // Cancel only odd (private) ids: the shared-segment requests complete
    // deterministically, so the index is guaranteed to end up populated.
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      for (int i = 1; i < kRequests; i += 4) engine.cancel(ids[static_cast<std::size_t>(i)]);
    });
    for (std::thread& t : submitters) t.join();
    canceller.join();
    const EngineResult res = engine.finish();

    std::vector<std::string> terminal;
    for (const auto& [id, state] : res.outcomes()) terminal.push_back(id);
    ASSERT_EQ(terminal.size(), static_cast<std::size_t>(kRequests));
    std::sort(terminal.begin(), terminal.end());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(terminal, ids);
    EXPECT_GT(res.kv_prefix_hits, 0);  // sharing actually happened
  }

  // Engine destroyed: every per-request cache released its pages. What
  // remains live is exactly the published prefix set, counted once.
  EXPECT_GT(arena->prefix_entries(), 0);
  EXPECT_EQ(arena->pages_live(), arena->prefix_entries());
  EXPECT_EQ(arena->pages_allocated() - arena->pages_freed(), arena->pages_live());

  // The published pages are still attachable: a fresh engine over the same
  // arena gets the full shared segment (two 64-token pages) for free.
  ServingEngine fresh(opts);
  const std::vector<ServingRequest> warm = {{"fresh", 256, 0.0, sys}};
  const EngineResult wres = fresh.run_trace(warm);
  ASSERT_EQ(wres.completed.size(), 1u);
  EXPECT_EQ(wres.completed[0].prefix_hit_tokens, 128);
}

// ---------------------------------------------------------------------------
// Determinism: same spec => same outcome multiset, any submit interleaving.

TEST(ChaosEngine, SameSeedStormsProduceIdenticalOutcomeMultisets) {
  // Chunk faults at 50% with per-request seeding: whether request "d7"
  // retries, and how often, depends only on (spec, "d7"), never on which
  // submitter thread won the race or how batches interleaved. Two runs with
  // maximally different submit interleavings must agree on every outcome.
  const auto run_storm = [](bool reverse_submit_order) {
    EngineOptions opts;
    opts.mode = EngineMode::kDense;
    opts.head_dim = 32;
    opts.chunk_tokens = 64;
    opts.max_batch = 4;
    opts.decode_tokens = 2;
    opts.run_label.clear();
    opts.fault = {FaultClass::kTensorNaN, 0.5, 0xd5eedull, /*max_fires=*/-1};
    opts.max_retries = 1;  // some requests exhaust retries and shed
    opts.retry_backoff_seconds = 0.001;
    ServingEngine engine(opts);
    engine.start();
    constexpr int kRequests = 16;
    for (int i = 0; i < kRequests; ++i) {
      const int n = reverse_submit_order ? kRequests - 1 - i : i;
      EXPECT_TRUE(engine.submit({"d" + std::to_string(n), 64 + 64 * (n % 2), 0.0}).ok());
    }
    return engine.finish();
  };
  const EngineResult a = run_storm(false);
  const EngineResult b = run_storm(true);

  // (id, state) multisets match...
  auto outcomes_a = a.outcomes();
  auto outcomes_b = b.outcomes();
  std::sort(outcomes_a.begin(), outcomes_a.end());
  std::sort(outcomes_b.begin(), outcomes_b.end());
  EXPECT_EQ(outcomes_a, outcomes_b);

  // ...and so do the per-request fault histories: attempts per completion,
  // reason per shed.
  const auto attempts_of = [](const EngineResult& r) {
    std::vector<std::pair<std::string, int>> v;
    for (const EngineCompletion& c : r.completed) v.emplace_back(c.base.request.id, c.base.attempts);
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto sheds_of = [](const EngineResult& r) {
    std::vector<std::pair<std::string, std::string>> v;
    for (const ShedRequest& s : r.shed) v.emplace_back(s.request.id, s.reason);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(attempts_of(a), attempts_of(b));
  EXPECT_EQ(sheds_of(a), sheds_of(b));
  EXPECT_GT(a.retries, 0);  // the storm was live, not vacuous
}

// ---------------------------------------------------------------------------
// KV memory budget: backpressure and the eviction rung.

TEST_F(ChaosObs, KvBudgetBackpressureServesEveryoneWithoutDeadlock) {
  // 12 x 256-token requests want 12 x 64 KiB of KV; the budget holds ~3.
  // Later arrivals must wait (backpressure), the eviction rung must compact
  // decoding caches to admit them sooner, nobody may shed, and the test
  // finishing at all pins "no deadlock".
  EngineOptions opts = chaos_engine();
  opts.decode_tokens = 8;
  const double per_request = 2.0 * 256 * 32 * 4;  // K+V, fp32
  opts.kv_budget_bytes = 3.0 * per_request;
  opts.kv_eviction = EvictionKind::kSinkRecent;
  opts.kv_evict_keep = 96;
  opts.kv_evict_recent = 64;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace;
  for (int i = 0; i < 12; ++i) trace.push_back({"kv" + std::to_string(i), 256, 0.0});
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), trace.size());
  EXPECT_TRUE(res.shed.empty());
  EXPECT_GT(res.kv_pressure_waits, 0);
  EXPECT_GT(res.kv_evictions, 0);  // retention degraded before anyone shed
  EXPECT_LE(res.peak_kv_bytes, opts.kv_budget_bytes + 1e-6);
  EXPECT_GT(res.peak_kv_bytes, 0.0);
  EXPECT_EQ(counter_value("engine.kv_evictions"), static_cast<double>(res.kv_evictions));
  EXPECT_EQ(counter_value("engine.kv_pressure_waits"), static_cast<double>(res.kv_pressure_waits));
  EXPECT_GT(counter_value("kv_cache.evicted_slots"), 0.0);
  for (const EngineCompletion& c : res.completed) expect_attribution_identity(c.base, "kv");
}

TEST_F(ChaosObs, KvBudgetShedsOnlyRequestsThatCanNeverFit) {
  // A request whose solo KV demand exceeds the whole budget sheds
  // ("kv_budget"); one that fits completes. That shed is the deadlock
  // escape hatch — nothing else may shed on memory.
  EngineOptions opts = chaos_engine();
  const double per_token = 2.0 * 32 * 4;
  opts.kv_budget_bytes = 128 * per_token;  // fits 128 tokens of KV
  opts.kv_eviction = EvictionKind::kNone;  // no rung: pure budget math
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"huge", 256, 0.0}, {"ok", 64, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].request.id, "huge");
  EXPECT_EQ(res.shed[0].reason, "kv_budget");
  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.completed[0].base.request.id, "ok");
  EXPECT_EQ(counter_value("engine.kv_budget_sheds"), 1.0);
}

// ---------------------------------------------------------------------------
// Cancellation.

TEST_F(ChaosObs, MidStreamCancelDuringRetryBackoffRefundsUnservedGuard) {
  // The only request faults on its first (and only) prefill chunk, entering
  // a long retry backoff billed to guard upfront. Cancelling mid-backoff
  // must refund the un-elapsed part of that gate: the cancelled record's
  // guard is far below the full backoff, and the identity still holds.
  EngineOptions opts = chaos_engine();
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x1ull, /*max_fires=*/1};
  opts.max_retries = 3;
  opts.retry_backoff_seconds = 0.2;
  ServingEngine engine(opts);
  engine.start();
  ASSERT_TRUE(engine.submit({"slow", 64, 0.0}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.cancel("slow");
  const EngineResult res = engine.finish();

  ASSERT_EQ(res.cancelled.size(), 1u);
  const CancelledRequest& c = res.cancelled[0];
  EXPECT_EQ(c.base.request.id, "slow");
  EXPECT_EQ(c.reason, "cancel");
  EXPECT_EQ(c.decoded_tokens, 0);
  expect_attribution_identity(c.base, "cancelled");
  // Refund: only the ~50ms that elapsed (plus the lost chunk) stays billed,
  // not the full 200ms gate.
  EXPECT_LT(c.base.guard_seconds, 0.19);
  EXPECT_TRUE(res.completed.empty());
  EXPECT_TRUE(res.shed.empty());
  EXPECT_EQ(counter_value("engine.requests_cancelled"), 1.0);
}

TEST(ChaosEngine, CancellingUnknownOrForeignIdsIsANoOp) {
  EngineOptions opts = chaos_engine();
  ServingEngine engine(opts);
  engine.start();
  engine.cancel("ghost");  // cancel racing ahead of any submit
  ASSERT_TRUE(engine.submit({"real", 64, 0.0}).ok());
  engine.cancel("another-ghost");
  const EngineResult res = engine.finish();

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.completed[0].base.request.id, "real");
  EXPECT_TRUE(res.cancelled.empty());
  EXPECT_TRUE(res.shed.empty());
}

// ---------------------------------------------------------------------------
// Watchdog and circuit breaker.

TEST_F(ChaosObs, WatchdogFlagsAStalledLoop) {
  // One monolithic 1536-token chunk keeps the loop inside a single sweep
  // for far longer than the stall threshold; the watchdog (which only ever
  // reads atomics) must flag it at least once, and the run still completes.
  EngineOptions opts = chaos_engine();
  opts.head_dim = 64;
  opts.chunk_tokens = 1536;
  opts.decode_tokens = 0;
  opts.watchdog_stall_seconds = 0.002;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"stall", 1536, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_GE(res.watchdog_stalls, 1);
  EXPECT_EQ(counter_value("engine.watchdog_stalls"), static_cast<double>(res.watchdog_stalls));
}

TEST_F(ChaosObs, WatchdogShedsRunawayRequests) {
  // The cost model promises near-instant prefill; reality takes multiple
  // chunks of real kernel time. With watchdog_cost_multiple armed, the
  // runaway is shed between chunks instead of occupying the batch forever.
  EngineOptions opts = chaos_engine();
  opts.decode_tokens = 0;
  opts.projected_prefill_seconds = [](Index, double) { return 1e-7; };
  opts.watchdog_cost_multiple = 2.0;
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"runaway", 256, 0.0}};  // 4 chunks
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.shed.size(), 1u);
  EXPECT_EQ(res.shed[0].reason, "watchdog");
  EXPECT_TRUE(res.completed.empty());
  EXPECT_EQ(counter_value("engine.watchdog_sheds"), 1.0);
}

TEST_F(ChaosObs, BreakerTripsOnConsecutivePlanFaultsAndShortCircuitsToDense) {
  // Every plan is corrupted, so every chunk's planning episode exhausts the
  // escalation ladder. After breaker_fault_threshold consecutive
  // exhaustions the breaker opens and the remaining chunks short-circuit
  // straight to dense — no more guard time burned on a dead planner.
  EngineOptions opts = chaos_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.decode_tokens = 0;
  opts.breaker_fault_threshold = 2;
  opts.breaker_cooldown_seconds = 60.0;  // stays open for the whole run
  auto injector = std::make_shared<FaultInjector>(
      FaultSpec{FaultClass::kPlanEmptyStripes, 1.0, 0x9ull, /*max_fires=*/-1});
  opts.guard.plan_hook = [injector](SamplePlan& plan) { injector->corrupt_plan(plan); };
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"brk", 256, 0.0}};  // 4 chunk episodes
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.breaker_trips, 1);
  EXPECT_EQ(counter_value("engine.breaker_trips"), 1.0);
  // Episodes 3 and 4 hit the open breaker.
  EXPECT_EQ(counter_value("engine.breaker_short_circuits"), 2.0);
  // Exactly the first two episodes ran (and exhausted) the ladder.
  const double rejects = counter_value("engine.plan_rejects");
  EXPECT_GT(rejects, 0.0);
  EXPECT_EQ(counter_value("engine.dense_fallbacks"), 4.0);
}

TEST_F(ChaosObs, BreakerProbesHalfOpenAndClosesWhenThePlannerRecovers) {
  // The planner faults long enough to trip the breaker, then recovers. With
  // a zero cooldown the next episode probes half-open, the accepted plan
  // closes the breaker, and planning resumes for the rest of the run.
  EngineOptions opts = chaos_engine();
  opts.mode = EngineMode::kSampleAttention;
  opts.decode_tokens = 0;
  opts.breaker_fault_threshold = 1;
  opts.breaker_cooldown_seconds = 0.0;
  // Corrupt every attempt of the FIRST planning episode only. One episode
  // makes 1 + max_resamples + max_widens attempts when all are rejected.
  const int attempts_per_episode = 1 + static_cast<int>(opts.guard.max_resamples) +
                                   static_cast<int>(opts.guard.max_widens);
  auto injector = std::make_shared<FaultInjector>(
      FaultSpec{FaultClass::kPlanEmptyStripes, 1.0, 0x9ull, attempts_per_episode});
  opts.guard.plan_hook = [injector](SamplePlan& plan) { injector->corrupt_plan(plan); };
  ServingEngine engine(opts);
  std::vector<ServingRequest> trace = {{"rcv", 256, 0.0}};
  const EngineResult res = engine.run_trace(trace);

  ASSERT_EQ(res.completed.size(), 1u);
  EXPECT_EQ(res.breaker_trips, 1);
  EXPECT_EQ(counter_value("engine.breaker_closes"), 1.0);
  EXPECT_EQ(counter_value("engine.breaker_short_circuits"), 0.0);
  // Only the first episode fell back to dense; the rest planned normally.
  EXPECT_EQ(counter_value("engine.dense_fallbacks"), 1.0);
}

// ---------------------------------------------------------------------------
// Bounded drain.

TEST_F(ChaosObs, DrainDeadlineForceCancelsStragglersAndFinishIsIdempotent) {
  // Every chunk faults forever with a 10s backoff: the request can never
  // finish on its own. A bounded finish() must come back almost
  // immediately, force-cancelling the straggler with reason "shutdown", and
  // calling finish() again must return the same result.
  EngineOptions opts = chaos_engine();
  opts.fault = {FaultClass::kTensorNaN, 1.0, 0x2ull, /*max_fires=*/-1};
  opts.max_retries = 1000;
  opts.retry_backoff_seconds = 10.0;
  ServingEngine engine(opts);
  engine.start();
  ASSERT_TRUE(engine.submit({"straggler", 64, 0.0}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  const EngineResult res = engine.finish(/*drain_deadline_seconds=*/0.01);
  const double finish_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  EXPECT_LT(finish_s, 5.0) << "bounded drain must not wait out the 10s backoff";
  ASSERT_EQ(res.cancelled.size(), 1u);
  EXPECT_EQ(res.cancelled[0].base.request.id, "straggler");
  EXPECT_EQ(res.cancelled[0].reason, "shutdown");
  expect_attribution_identity(res.cancelled[0].base, "shutdown");

  const EngineResult again = engine.finish();
  EXPECT_EQ(again.cancelled.size(), res.cancelled.size());
  EXPECT_EQ(again.completed.size(), res.completed.size());
  EXPECT_EQ(again.shed.size(), res.shed.size());
}

// ---------------------------------------------------------------------------
// Eviction-under-decode parity: compaction keeps the batched kernels exact.

TEST(ChaosEviction, CompactedCacheKeepsSweepBitIdenticalToDirectKernels) {
  // Mid-stream compaction (the engine's pressure rung) must not perturb
  // decode math: after H2O or SinkRecent evicts, a decode step through
  // ragged_attention_sweep over the compacted cache is bit-identical to
  // flash_rows run directly on the same retained slots.
  const Index s = 256, d = 32;
  AttentionInput in;
  in.q.resize(s, d);
  in.k.resize(s, d);
  in.v.resize(s, d);
  Rng rng(0xeeffull);
  rng.fill_normal(in.q);
  rng.fill_normal(in.k);
  rng.fill_normal(in.v);
  Matrix q = Matrix(1, d);
  for (float& x : q.row(0)) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);

  for (const EvictionKind kind : {EvictionKind::kSinkRecent, EvictionKind::kH2O}) {
    KVCache cache(d);
    ASSERT_TRUE(cache.append_prefill(in).ok());
    auto policy = make_eviction_policy(kind, /*keep_budget=*/96, /*recent=*/64);
    ASSERT_NE(policy, nullptr);
    if (kind == EvictionKind::kH2O) {
      // H2O needs real observed weights to rank heavy hitters.
      std::vector<float> weights, scratch(static_cast<std::size_t>(d), 0.0f);
      ASSERT_TRUE(decode_attention(q.row(0), cache, scratch, &weights).ok());
      policy->observe(cache, weights);
    }
    ASSERT_TRUE(policy->enforce(cache));
    ASSERT_LE(cache.size(), 96);

    std::vector<float> ref(static_cast<std::size_t>(d), 0.0f);
    std::vector<float> got(static_cast<std::size_t>(d), 0.0f);
    const mk::KvView kv = cache.view();  // paged view over the compacted table
    flash_rows(q.data(), 1, kv, cache.size(), cache.size() - 1, ref.data(), d);

    RaggedBatchView batch;
    RaggedSeq seq;
    seq.q = q.data();
    seq.rows = 1;
    seq.kv = kv;
    seq.k_hi = cache.size();
    seq.causal_off = cache.size() - 1;
    seq.out = got.data();
    batch.seqs.push_back(seq);
    ragged_attention_sweep(batch);
    ASSERT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
        << "eviction kind " << eviction_kind_name(kind);
  }
}

}  // namespace
}  // namespace sattn
