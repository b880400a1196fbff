// Tests for the serving-queue simulator and layer-level planning.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "attention/full_attention.h"
#include "metrics/recovery.h"
#include "model/workload.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/scheduler.h"
#include "sample_attention/layer_plan.h"

namespace sattn {
namespace {

// The simulator with no guardrail armed: a FCFS queue, or round-robin with
// the given chunk quantum.
std::vector<CompletedRequest> plain_queue(std::span<const ServingRequest> requests,
                                          const Engine& engine, Index chunk_quantum_tokens = 0,
                                          const std::string& run_label = {}) {
  SloOptions opts;
  opts.chunk_quantum_tokens = chunk_quantum_tokens;
  opts.run_label = run_label;
  return simulate_queue_slo(requests, engine, opts).value().completed;
}

TEST(Engine, PrefillLatencyOrdering) {
  Engine sdpa, fa2, sa;
  sdpa.kind = EngineKind::kSdpa;
  fa2.kind = EngineKind::kFlashAttention;
  sa.kind = EngineKind::kSampleAttention;
  sa.kept_density = 0.20;
  const Index s = 96 * 1024;
  EXPECT_GT(sdpa.prefill_seconds(s), fa2.prefill_seconds(s));
  EXPECT_GT(fa2.prefill_seconds(s), sa.prefill_seconds(s));
}

TEST(Engine, QuadraticGrowth) {
  Engine fa2;
  fa2.kind = EngineKind::kFlashAttention;
  const double t1 = fa2.prefill_seconds(64 * 1024);
  const double t2 = fa2.prefill_seconds(128 * 1024);
  EXPECT_GT(t2, 2.5 * t1);
}

TEST(Scheduler, SingleRequestNoQueueing) {
  Engine fa2;
  std::vector<ServingRequest> reqs = {{"r0", 32768, 1.0}};
  const auto done = plain_queue(reqs, fa2);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].queueing(), 0.0);
  EXPECT_NEAR(done[0].ttft(), fa2.prefill_seconds(32768), 1e-9);
}

TEST(Scheduler, FcfsQueueingAccumulates) {
  Engine fa2;
  // Two requests arriving together: the second waits for the first.
  std::vector<ServingRequest> reqs = {{"r0", 65536, 0.0}, {"r1", 8192, 0.0}};
  const auto done = plain_queue(reqs, fa2);
  ASSERT_EQ(done.size(), 2u);
  const CompletedRequest& second = done[1];
  EXPECT_EQ(second.request.id, "r1");
  EXPECT_NEAR(second.queueing(), fa2.prefill_seconds(65536), 1e-9);
}

TEST(Scheduler, ChunkQuantumBoundsHeadOfLineBlocking) {
  Engine fa2;
  // A monster request followed shortly by a tiny one: with chunked
  // round-robin the tiny one's TTFT is far smaller than FCFS.
  std::vector<ServingRequest> reqs = {{"big", 262144, 0.0}, {"small", 4096, 0.01}};
  const auto fcfs = plain_queue(reqs, fa2, 0);
  const auto rr = plain_queue(reqs, fa2, 8192);
  const auto find = [](const std::vector<CompletedRequest>& v, const std::string& id) {
    for (const auto& c : v) {
      if (c.request.id == id) return c.ttft();
    }
    return -1.0;
  };
  EXPECT_LT(find(rr, "small"), 0.25 * find(fcfs, "small"));
  // Total work is conserved: makespans match closely.
  EXPECT_NEAR(summarize(fcfs).makespan, summarize(rr).makespan, 1e-6);
}

// Satellite regression (docs/ROBUSTNESS.md): chunk_quantum_tokens = 0 must
// be exactly FCFS — every request's finish time equals the analytic fold of
// arrival-sorted prefill times.
TEST(Scheduler, ZeroQuantumIsExactlyFcfs) {
  Engine fa2;
  std::vector<ServingRequest> reqs = {
      {"a", 65536, 0.0}, {"b", 8192, 0.5}, {"c", 131072, 0.6}, {"d", 4096, 0.7}};
  const auto done = plain_queue(reqs, fa2, 0);
  ASSERT_EQ(done.size(), 4u);
  double clock = 0.0;
  for (std::size_t r = 0; r < done.size(); ++r) {
    EXPECT_EQ(done[r].request.id, reqs[r].id) << "FCFS must preserve arrival order";
    clock = std::max(clock, reqs[r].arrival_seconds) + fa2.prefill_seconds(reqs[r].prompt_tokens);
    EXPECT_NEAR(done[r].finish_seconds, clock, 1e-9);
  }
}

// Fairness audit regression: quanta are billed at the progressive prefix
// cost, so a request arriving just after a monster request started waits
// roughly one (cheap, early) chunk — not a chunk billed at the monster's
// average per-token cost, which for quadratic prefill front-loads cost that
// real chunked prefill pays at the end.
TEST(Scheduler, MidQuantumArrivalNotOvercharged) {
  Engine fa2;
  const Index quantum = 8192;
  std::vector<ServingRequest> reqs = {{"big", 262144, 0.0}, {"small", 4096, 0.01}};
  const auto done = plain_queue(reqs, fa2, quantum);
  double small_queueing = -1.0;
  for (const auto& c : done) {
    if (c.request.id == "small") small_queueing = c.queueing();
  }
  ASSERT_GE(small_queueing, 0.0);
  // Early chunks of "big" attend short prefixes: the worst case for "small"
  // is a couple of short-prefix quanta, far below one average-cost quantum
  // (prefill(262144) / 262144 * 8192, which front-loads the quadratic tail).
  const double avg_cost_quantum =
      fa2.prefill_seconds(262144) / 262144.0 * static_cast<double>(quantum);
  EXPECT_LT(small_queueing, 0.5 * avg_cost_quantum);
  EXPECT_LE(small_queueing, 1.05 * fa2.prefill_seconds(2 * quantum));
}

TEST(Scheduler, SummaryPercentiles) {
  std::vector<CompletedRequest> done;
  for (int r = 0; r < 100; ++r) {
    CompletedRequest c;
    c.request.arrival_seconds = 0.0;
    c.start_seconds = 0.0;
    c.finish_seconds = static_cast<double>(r + 1);
    done.push_back(c);
  }
  const ServingSummary s = summarize(done);
  EXPECT_DOUBLE_EQ(s.p50_ttft, 50.0);
  EXPECT_DOUBLE_EQ(s.p99_ttft, 99.0);
  EXPECT_DOUBLE_EQ(s.max_ttft, 100.0);
}

TEST(SloServing, DegradationKeepsP99InsideSlo) {
  // Overload trace: SampleAttention engine with SLO steering keeps every
  // completed request inside the deadline by degrading the density budget,
  // and serves more than shedding-only FCFS at full quality would.
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  sa.kept_density = 0.25;
  const auto trace = synthetic_trace(32, 64 * 1024, 256 * 1024, 4.0, 11).value();
  SloOptions opts;
  opts.slo_ttft_seconds = 60.0;
  opts.deadline_seconds = 60.0;
  const SloServingResult res = simulate_queue_slo(trace, sa, opts).value();
  EXPECT_EQ(res.completed.size() + res.shed.size(), trace.size());
  ASSERT_FALSE(res.completed.empty());
  const ServingSummary s = summarize(res.completed);
  EXPECT_LE(s.p99_ttft, opts.slo_ttft_seconds + 1e-9);
  EXPECT_GT(res.degraded, 0) << "overload should trigger the degrade ladder";
}

TEST(SloServing, DegradeLadderEarnsThroughputWhenPaced) {
  // Arrival rate between the degraded and full-quality service rates: the
  // degrading queue keeps pace and serves (almost) everything; the rigid
  // single-level queue falls behind and sheds every other request.
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  sa.kept_density = 0.25;
  const Index prompt = 262144;
  const double c_full = sa.prefill_seconds(prompt, 1.0);
  const double c_min = sa.prefill_seconds(prompt, 0.35);
  ASSERT_LT(c_min, 0.75 * c_full) << "ladder must buy real time for this scenario";
  const double gap = 0.5 * (c_full + c_min);  // between the two service rates
  std::vector<ServingRequest> reqs;
  for (int r = 0; r < 16; ++r) {
    reqs.push_back({"r" + std::to_string(r), prompt, gap * r});
  }
  SloOptions opts;
  opts.slo_ttft_seconds = opts.deadline_seconds = 1.2 * c_full;

  const SloServingResult adaptive = simulate_queue_slo(reqs, sa, opts).value();
  SloOptions rigid_opts = opts;
  rigid_opts.degrade_density_scale = {1.0};
  const SloServingResult rigid = simulate_queue_slo(reqs, sa, rigid_opts).value();

  EXPECT_GT(adaptive.completed.size(), rigid.completed.size());
  EXPECT_LT(adaptive.shed.size(), rigid.shed.size());
  EXPECT_GT(adaptive.degraded, 0);
  EXPECT_LE(summarize(adaptive.completed).p99_ttft, opts.deadline_seconds + 1e-9);
  EXPECT_LE(summarize(rigid.completed).p99_ttft, opts.deadline_seconds + 1e-9);
}

TEST(SloServing, AdmissionAndOversizedShedding) {
  Engine fa2;
  std::vector<ServingRequest> reqs;
  for (int r = 0; r < 8; ++r) {
    reqs.push_back({"r" + std::to_string(r), 65536, 0.0});
  }
  reqs.push_back({"huge", 1 << 20, 0.0});
  SloOptions opts;
  opts.max_queue_depth = 3;
  opts.max_prompt_tokens = 512 * 1024;
  const SloServingResult res = simulate_queue_slo(reqs, fa2, opts).value();
  EXPECT_EQ(res.completed.size() + res.shed.size(), reqs.size());
  bool saw_admission = false, saw_oversized = false;
  for (const ShedRequest& s : res.shed) {
    saw_admission = saw_admission || s.reason == "admission";
    if (s.request.id == "huge") {
      saw_oversized = true;
      EXPECT_EQ(s.reason, "oversized");
    }
  }
  EXPECT_TRUE(saw_admission);
  EXPECT_TRUE(saw_oversized);
}

TEST(SloServing, RetriesWithBackoffThenExhaustion) {
  Engine fa2;
  std::vector<ServingRequest> reqs = {{"r0", 32768, 0.0}, {"r1", 32768, 1.0}};
  SloOptions opts;
  opts.fault_rate = 1.0;  // every attempt fails deterministically
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 1.0;
  const SloServingResult res = simulate_queue_slo(reqs, fa2, opts).value();
  EXPECT_TRUE(res.completed.empty());
  ASSERT_EQ(res.shed.size(), 2u);
  for (const ShedRequest& s : res.shed) EXPECT_EQ(s.reason, "retries_exhausted");
  EXPECT_EQ(res.retries, 4);  // 2 retries per request before exhaustion

  // With a moderate fault rate requests eventually complete, having
  // recorded their attempts.
  opts.fault_rate = 0.5;
  opts.max_retries = 8;
  const SloServingResult partial = simulate_queue_slo(reqs, fa2, opts).value();
  EXPECT_EQ(partial.completed.size() + partial.shed.size(), reqs.size());
  for (const CompletedRequest& c : partial.completed) EXPECT_GE(c.attempts, 1);
}

TEST(SloServing, DeterministicInSeed) {
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  const auto trace = synthetic_trace(24, 32 * 1024, 192 * 1024, 3.0, 13).value();
  SloOptions opts;
  opts.slo_ttft_seconds = 80.0;
  opts.deadline_seconds = 100.0;
  opts.fault_rate = 0.2;
  opts.stall_rate = 0.1;
  opts.chunk_quantum_tokens = 8192;
  const SloServingResult a = simulate_queue_slo(trace, sa, opts).value();
  const SloServingResult b = simulate_queue_slo(trace, sa, opts).value();
  ASSERT_EQ(a.completed.size(), b.completed.size());
  ASSERT_EQ(a.shed.size(), b.shed.size());
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.stalls, b.stalls);
  for (std::size_t r = 0; r < a.completed.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.completed[r].finish_seconds, b.completed[r].finish_seconds);
    EXPECT_EQ(a.completed[r].degrade_level, b.completed[r].degrade_level);
  }
}

TEST(SloServing, RejectsInvalidOptions) {
  Engine fa2;
  std::vector<ServingRequest> reqs = {{"r0", 1024, 0.0}};
  SloOptions bad;
  bad.fault_rate = 1.5;
  EXPECT_EQ(simulate_queue_slo(reqs, fa2, bad).status().code(), StatusCode::kInvalidArgument);
  SloOptions ladder;
  ladder.degrade_density_scale = {0.5, 0.25};  // must start at 1.0
  EXPECT_EQ(simulate_queue_slo(reqs, fa2, ladder).status().code(),
            StatusCode::kInvalidArgument);
  ladder.degrade_density_scale = {};
  EXPECT_EQ(simulate_queue_slo(reqs, fa2, ladder).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(synthetic_trace(0, 16, 32, 1.0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(synthetic_trace(4, 32, 16, 1.0).status().code(), StatusCode::kInvalidArgument);
}

TEST(ServingPolicy, TargetTtftPrecedence) {
  ServingPolicy p;
  EXPECT_EQ(p.target_ttft(), std::numeric_limits<double>::infinity());
  p.deadline_seconds = 9.0;
  EXPECT_DOUBLE_EQ(p.target_ttft(), 9.0);
  p.slo_ttft_seconds = 4.0;
  EXPECT_DOUBLE_EQ(p.target_ttft(), 4.0);
}

TEST(ServingPolicy, SteerWalksTheLadderOnlyWhenARungBuysTime) {
  ServingPolicy p;
  p.slo_ttft_seconds = 5.0;  // ladder {1.0, 0.6, 0.35}
  const PrefillCost scaled = [](Index, double scale) { return 10.0 * scale; };
  ServingPolicy::Steer s = p.steer(0.0, 1024, scaled);
  EXPECT_EQ(s.level, 2);  // 10 and 6 miss the target; 3.5 is the bottom rung
  EXPECT_DOUBLE_EQ(s.projected_ttft, 3.5);
  p.slo_ttft_seconds = 7.0;
  s = p.steer(0.0, 1024, scaled);
  EXPECT_EQ(s.level, 1);  // the first rung that fits
  EXPECT_DOUBLE_EQ(s.projected_ttft, 6.0);
  s = p.steer(0.0, 1024, [](Index, double scale) { return 4.0 * scale; });
  EXPECT_EQ(s.level, 0);  // full quality already fits

  // Exact engines: the next rung is not cheaper, so steering is a no-op.
  Engine fa2;
  const PrefillCost exact = [&fa2](Index tokens, double scale) {
    return fa2.prefill_seconds(tokens, scale);
  };
  s = p.steer(100.0, 64 * 1024, exact);
  EXPECT_EQ(s.level, 0);
  EXPECT_DOUBLE_EQ(s.projected_ttft, 100.0 + fa2.prefill_seconds(64 * 1024));
  // Zero cost (an engine without a projection): no-op, projection = waited.
  s = p.steer(100.0, 64 * 1024, [](Index, double) { return 0.0; });
  EXPECT_EQ(s.level, 0);
  EXPECT_DOUBLE_EQ(s.projected_ttft, 100.0);
}

TEST(ServingPolicy, PastDeadlineOnlyWhenArmed) {
  ServingPolicy p;
  EXPECT_FALSE(p.past_deadline(1e9));
  p.deadline_seconds = 2.0;
  EXPECT_FALSE(p.past_deadline(2.0));
  EXPECT_TRUE(p.past_deadline(2.0 + 1e-9));
}

TEST(ServingPolicy, RetryBackoffDoublesUntilExhausted) {
  ServingPolicy p;
  p.max_retries = 3;
  p.retry_backoff_seconds = 0.5;
  EXPECT_EQ(p.retry_backoff(1), 0.5);
  EXPECT_EQ(p.retry_backoff(2), 1.0);
  EXPECT_EQ(p.retry_backoff(3), 2.0);
  EXPECT_EQ(p.retry_backoff(4), std::nullopt);
  p.max_retries = 40;  // a deep retry budget doubles past any int shift
  EXPECT_EQ(p.retry_backoff(40), std::ldexp(0.5, 39));
  p.max_retries = 0;
  EXPECT_EQ(p.retry_backoff(1), std::nullopt);
}

TEST(ServingPolicy, AdmissionChecksOversizedFirst) {
  ServingPolicy p;
  EXPECT_EQ(p.admit(1 << 20, 1000), nullptr);  // no limits armed
  EXPECT_STREQ(p.admit(0, 0), "admission");    // an empty prompt never admits
  p.max_prompt_tokens = 100;
  p.max_queue_depth = 2;
  EXPECT_STREQ(p.admit(101, 5), "oversized");  // oversized wins over a full queue
  EXPECT_STREQ(p.admit(50, 2), "admission");
  EXPECT_STREQ(p.admit(0, 0), "admission");
  EXPECT_EQ(p.admit(100, 1), nullptr);
}

TEST(SloServing, DegradedEngineIsFaster) {
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  sa.kept_density = 0.25;
  const Index s = 128 * 1024;
  EXPECT_LT(sa.prefill_seconds(s, 0.35), sa.prefill_seconds(s, 0.6));
  EXPECT_LT(sa.prefill_seconds(s, 0.6), sa.prefill_seconds(s, 1.0));
  // Exact engines ignore the scale.
  Engine fa2;
  EXPECT_DOUBLE_EQ(fa2.prefill_seconds(s, 0.35), fa2.prefill_seconds(s, 1.0));
}

TEST(Scheduler, SampleEngineImprovesMeanTtft) {
  const auto trace = synthetic_trace(12, 16 * 1024, 128 * 1024, 5.0).value();
  Engine fa2, sa;
  fa2.kind = EngineKind::kFlashAttention;
  sa.kind = EngineKind::kSampleAttention;
  sa.kept_density = 0.25;
  const ServingSummary s_fa2 = summarize(plain_queue(trace, fa2));
  const ServingSummary s_sa = summarize(plain_queue(trace, sa));
  EXPECT_LT(s_sa.mean_ttft, s_fa2.mean_ttft);
  EXPECT_LT(s_sa.makespan, s_fa2.makespan);
  // Queueing amplification: the TTFT gain exceeds the raw prefill gain on a
  // busy queue.
  EXPECT_GT(s_fa2.mean_ttft / s_sa.mean_ttft, 1.0);
}

TEST(Scheduler, TraceIsDeterministicAndSorted) {
  const auto a = synthetic_trace(20, 1024, 65536, 2.0, 7).value();
  const auto b = synthetic_trace(20, 1024, 65536, 2.0, 7).value();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].prompt_tokens, b[r].prompt_tokens);
    EXPECT_DOUBLE_EQ(a[r].arrival_seconds, b[r].arrival_seconds);
    if (r > 0) EXPECT_GE(a[r].arrival_seconds, a[r - 1].arrival_seconds);
    EXPECT_GE(a[r].prompt_tokens, 1024);
    EXPECT_LE(a[r].prompt_tokens, 65536 + 1);
  }
}

// Fixture for the per-request observability tests: metrics collection on,
// registries clean, and everything restored afterwards so the rest of the
// binary keeps running with collection off.
class SchedulerObs : public ::testing::Test {
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

  static double gauge_value(const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [n, v] : snap.gauges)
      if (n == name) return v;
    ADD_FAILURE() << "gauge not found: " << name;
    return 0.0;
  }
};

TEST_F(SchedulerObs, FcfsAttributionSumsToTtftAndEmitsGauges) {
  Engine fa2;
  fa2.kind = EngineKind::kFlashAttention;
  const auto trace = synthetic_trace(12, 16 * 1024, 128 * 1024, 2.0, 5).value();
  const auto done = plain_queue(trace, fa2, /*chunk_quantum_tokens=*/0, "fcfs_t");
  ASSERT_EQ(done.size(), trace.size());

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  std::string max_id;
  double max_ttft = -1.0;
  for (const CompletedRequest& c : done) {
    // The attribution invariant: the three components partition TTFT, and
    // without guardrails the FCFS queue books zero guard time and charges
    // exactly the engine's prefill cost as compute.
    EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9)
        << c.request.id;
    EXPECT_DOUBLE_EQ(c.guard_seconds, 0.0) << c.request.id;
    EXPECT_NEAR(c.compute_seconds, fa2.prefill_seconds(c.request.prompt_tokens), 1e-9)
        << c.request.id;
    EXPECT_NEAR(c.queue_seconds, c.queueing(), 1e-9) << c.request.id;

    const std::string base = "request.fcfs_t/" + c.request.id + ".";
    EXPECT_NEAR(gauge_value(snap, base + "queue_s"), c.queue_seconds, 1e-12);
    EXPECT_NEAR(gauge_value(snap, base + "compute_s"), c.compute_seconds, 1e-12);
    EXPECT_NEAR(gauge_value(snap, base + "guard_s"), c.guard_seconds, 1e-12);
    EXPECT_NEAR(gauge_value(snap, base + "ttft_s"), c.ttft(), 1e-12);
    if (c.ttft() > max_ttft) {
      max_ttft = c.ttft();
      max_id = c.request.id;
    }
  }

  // The TTFT histogram carries request exemplars so report tails point at a
  // concrete request; the exemplar is the label-qualified key, matching the
  // `request.<label>/<id>.*` gauge names.
  bool found_hist = false;
  for (const auto& [name, stats] : snap.histograms) {
    if (name != "sched.ttft_seconds") continue;
    found_hist = true;
    EXPECT_EQ(stats.count, done.size());
    EXPECT_EQ(stats.max_exemplar, "fcfs_t/" + max_id);
    EXPECT_FALSE(stats.p99_exemplar.empty());
  }
  EXPECT_TRUE(found_hist) << "sched.ttft_seconds histogram missing";

  // Round-robin chunking must preserve the invariant, and the quanta
  // telescope so compute is still exactly the full prefill cost.
  obs::MetricsRegistry::global().reset();
  const auto rr = plain_queue(trace, fa2, /*chunk_quantum_tokens=*/8192, "rr_t");
  ASSERT_EQ(rr.size(), trace.size());
  for (const CompletedRequest& c : rr) {
    EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9)
        << c.request.id;
    EXPECT_DOUBLE_EQ(c.guard_seconds, 0.0) << c.request.id;
    EXPECT_NEAR(c.compute_seconds, fa2.prefill_seconds(c.request.prompt_tokens), 1e-9)
        << c.request.id;
  }

  // An empty run label drops the `<label>/` prefix rather than emitting a
  // dangling slash.
  obs::MetricsRegistry::global().reset();
  std::vector<ServingRequest> one = {{"r0", 32768, 0.0}};
  (void)plain_queue(one, fa2);
  const obs::MetricsSnapshot plain = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(gauge_value(plain, "request.r0.ttft_s"), 0.0);
}

TEST_F(SchedulerObs, MidStreamEscalationRebillsInFlightChunkToGuard) {
  // A stalled chunk reveals mid-prefill that the first-service projection
  // was optimistic; the ladder must fire *during* service and the chunk in
  // flight when it fired — planned under the abandoned density budget and
  // redone at the new level — must be re-billed from compute to guard.
  // Deterministic cost substrate: level-0 prefill of the 1000-token request
  // costs 1.0s (0.25s per 250-token chunk), level 1 half that.
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  sa.cost_override = [](Index prompt_tokens, double density_scale) {
    return density_scale * static_cast<double>(prompt_tokens) * 1e-3;
  };
  SloOptions opts;
  opts.slo_ttft_seconds = 1.1;  // level-0 projection (1.0s) fits at t=0
  opts.chunk_quantum_tokens = 250;
  opts.stall_rate = 1.0;  // every chunk stalls: measured > modeled
  opts.stall_factor = 3.0;
  opts.degrade_density_scale = {1.0, 0.5};
  opts.run_label = "mid_t";
  const std::vector<ServingRequest> trace = {{"r0", 1000, 0.0}};
  const SloServingResult res = simulate_queue_slo(trace, sa, opts).value();

  ASSERT_EQ(res.completed.size(), 1u);
  const CompletedRequest& c = res.completed[0];
  EXPECT_EQ(c.degrade_level, 1);
  EXPECT_EQ(res.degraded, 1);

  // The attribution invariant survives the escalation, and compute is
  // exactly the final level's prefill cost — the escalated chunk's 0.25s
  // sits in guard, not double-counted into compute.
  EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9);
  EXPECT_NEAR(c.compute_seconds, sa.prefill_seconds(1000, 0.5), 1e-9);
  EXPECT_GT(c.guard_seconds, 0.0);
  EXPECT_NEAR(c.queue_seconds, 0.0, 1e-9);

  bool found = false;
  for (const obs::CounterValue& cv : obs::Collector::global().counters()) {
    if (cv.name != "sched.midstream_escalations") continue;
    found = true;
    EXPECT_GE(cv.value, 1);
  }
  EXPECT_TRUE(found) << "sched.midstream_escalations counter missing";
}

TEST_F(SchedulerObs, SloAttributionSumsToTtftUnderFaultsAndStalls) {
  Engine sa;
  sa.kind = EngineKind::kSampleAttention;
  const auto trace = synthetic_trace(24, 32 * 1024, 192 * 1024, 3.0, 13).value();
  SloOptions opts;
  opts.slo_ttft_seconds = 80.0;
  opts.deadline_seconds = 100.0;
  opts.fault_rate = 0.2;
  opts.stall_rate = 0.1;
  opts.chunk_quantum_tokens = 8192;
  opts.run_label = "slo_t";
  const SloServingResult res = simulate_queue_slo(trace, sa, opts).value();
  ASSERT_FALSE(res.completed.empty());
  EXPECT_GT(res.retries + res.stalls, 0) << "trace should exercise the guardrails";

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  double total_guard = 0.0;
  for (const CompletedRequest& c : res.completed) {
    EXPECT_NEAR(c.queue_seconds + c.compute_seconds + c.guard_seconds, c.ttft(), 1e-9)
        << c.request.id;
    EXPECT_GE(c.queue_seconds, -1e-12) << c.request.id;
    EXPECT_GT(c.compute_seconds, 0.0) << c.request.id;
    EXPECT_GE(c.guard_seconds, -1e-12) << c.request.id;
    total_guard += c.guard_seconds;

    const std::string base = "request.slo_t/" + c.request.id + ".";
    EXPECT_NEAR(gauge_value(snap, base + "ttft_s"), c.ttft(), 1e-12);
    EXPECT_NEAR(gauge_value(snap, base + "guard_s"), c.guard_seconds, 1e-12);
  }
  // Injected faults/stalls must surface as guard time somewhere, not be
  // silently folded into queueing.
  EXPECT_GT(total_guard, 0.0);
}

TEST(LayerPlan, PlansEveryHead) {
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(3, 256);
  const LayerPlan plan = plan_layer(model, content, 8);
  EXPECT_EQ(static_cast<Index>(plan.head_plans.size()), model.n_heads);
  EXPECT_EQ(plan.planned_heads, model.n_heads);
  EXPECT_GT(plan.mean_density, 0.0);
  EXPECT_LT(plan.mean_density, 1.0);
}

TEST(LayerPlan, GroupSharingCutsPlanningWork) {
  const ModelConfig model = chatglm2_6b();  // 32 heads, 2 KV groups
  const ContentSpec content = plain_prompt(4, 256);
  LayerPlanOptions shared;
  shared.share_within_kv_group = true;
  const LayerPlan per_head = plan_layer(model, content, 8);
  const LayerPlan grouped = plan_layer(model, content, 8, shared);
  EXPECT_EQ(grouped.planned_heads, model.n_kv_heads);
  EXPECT_LT(grouped.mean_overhead, 0.25 * per_head.mean_overhead);
}

TEST(LayerPlan, RunLayerOutputsAreNearLossless) {
  const ModelConfig model = chatglm2_6b();
  const ContentSpec content = plain_prompt(5, 256);
  const Index layer = 8;
  const LayerPlan plan = plan_layer(model, content, layer);
  const auto outputs = run_layer(model, content, layer, plan);
  ASSERT_EQ(static_cast<Index>(outputs.size()), model.n_heads);
  double worst = 0.0;
  for (Index head = 0; head < model.n_heads; head += 8) {
    const AttentionInput in = generate_attention(model, content, layer, head);
    Matrix exact;
    full_attention(in, exact);
    worst = std::max(worst,
                     recovery_stats(outputs[static_cast<std::size_t>(head)], exact).rel_l1);
  }
  EXPECT_LT(worst, 0.15);
}

TEST(LayerPlan, SharedPlansLoseLittleOnGroupedModel) {
  // InternLM2-like config has 8 KV groups of 4 query heads; sharing I_KV
  // within a group should cost only a modest accuracy delta.
  const ModelConfig model = internlm2_7b();
  const ContentSpec content = plain_prompt(6, 256);
  const Index layer = 8;
  LayerPlanOptions shared;
  shared.share_within_kv_group = true;
  const LayerPlan grouped = plan_layer(model, content, layer, shared);
  const auto outputs = run_layer(model, content, layer, grouped);
  double worst = 0.0;
  for (Index head = 0; head < model.n_heads; head += 8) {
    const AttentionInput in = generate_attention(model, content, layer, head);
    Matrix exact;
    full_attention(in, exact);
    worst = std::max(worst,
                     recovery_stats(outputs[static_cast<std::size_t>(head)], exact).rel_l1);
  }
  EXPECT_LT(worst, 0.35) << "group-shared plans degraded too much";
}

}  // namespace
}  // namespace sattn
