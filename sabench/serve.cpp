// serve_prefix: open-loop multi-turn serving through ServingEngine.
//
// Each prompt is a 4096-token shared system prompt, a per-conversation
// history that grows by 128 tokens per turn (both passed as
// ServingRequest::segments) and a private tail of 64-512 tokens, followed by
// 16 decode tokens, in kDense mode. Prefix-index reads dominate (lookup,
// memcmp verification, attach), most prefill compute is skipped, and decode
// runs over long paged caches.
//
// One submitter (this thread) calls submit() on a seeded schedule instead of
// ServingEngine::run_trace, which stamps arrival at submit and so hides how
// late the generator ran. Each request is due at its scheduled instant; its
// TTFT counts from then (engine TTFT + generator lateness). The host-speed
// probe runs only while no engine works: in set-up, in bursts just before
// start() and just after finish() of the open loop, and in the loop's gaps
// while the engine is idle-waiting (heartbeat_age_seconds() reads 0).
//
// The offered rate is 3 requests/s, a small fraction of what the engine
// sustains on a 4-core x86 host. Queueing amplifies the host's own speed
// drift: at 5/s TTFT p50 moved by 27% between runs, at 10/s TTFT p95 by 80%.
// The schedule is stratified (see stratified_poisson), so seeds differ in
// order and burst placement but not in load or prompt-length mix.
//
// End-to-end metrics, as this workload defines them (the first kWarmup
// requests are excluded from every latency statistic):
//   ttft_p50/p95, tpot_p50/p95   per request, TTFT from the due instant
//   slo_frac                     submitted requests meeting both kSlo limits;
//                                shed and cancelled ones are misses
//   prefill_head_p50/p90         per-request prefill compute (each engine
//                                request is one attention head)
//   prefill_tok_s                computed prompt tokens / prefill compute s
//   cra_min, out_err_max         fixed placeholders, not measurements (see
//                                record_dense_quality)
//   setup_s                      median over repetitions of a warm-up engine
//                                run (start, 8 requests, finish)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/scheduler.h"
#include "sabench.h"

namespace sabench {
namespace {

using sattn::Index;

constexpr int kSetupReps = 5;
constexpr std::size_t kWarmup = 8;  // first submitted requests left out of statistics
constexpr double kRateRps = 3.0;
constexpr SloLimits kSlo{0.5, 0.001};
constexpr int kProbeBurst = 64;  // probe samples on each side of the open loop

// Conversation layout.
constexpr Index kSysTokens = 4096;
constexpr Index kHistoryStep = 128;
constexpr Index kConversations = 16;
constexpr Index kMaxTurns = 12;  // a conversation restarts (new history) after this

sattn::EngineOptions engine_options(std::uint64_t seed) {
  sattn::EngineOptions o;
  o.mode = sattn::EngineMode::kDense;
  o.head_dim = 64;
  o.chunk_tokens = 256;
  o.max_batch = 8;
  o.decode_tokens = 16;
  o.seed = 0x5e1ull ^ (seed * 0x9e3779b97f4a7c15ull);
  o.run_label = "serve_prefix";
  return o;
}

// rank[i] = position of key[i] in ascending order (ties by index).
std::vector<std::size_t> ranks(const std::vector<double>& key) {
  std::vector<std::size_t> order(key.size()), rank(key.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
  for (std::size_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
  return rank;
}

// rate x seconds requests. synthetic_trace(seed) decides the arrangement:
// which request comes when, and which is long. The values are stratified:
// the k-th smallest gap and length are the (k + 0.5) / n quantiles of the
// exponential and log-uniform [lo, hi] distributions. Every seed therefore
// offers the same load and the same multiset of lengths, and seeds differ
// only in order and burst placement; without this, the realized length mix
// alone moved TTFT p50 by 20% between seeds.
std::vector<sattn::ServingRequest> stratified_poisson(std::uint64_t seed, double seconds,
                                                      double rate, Index lo, Index hi) {
  const auto n = static_cast<Index>(std::max(1.0, std::round(rate * seconds)));
  auto trace = sattn::synthetic_trace(n, lo, hi, 1.0 / rate, seed).value();
  std::vector<double> gap, len;
  double prev = 0.0;
  for (const sattn::ServingRequest& r : trace) {
    gap.push_back(r.arrival_seconds - prev);
    prev = r.arrival_seconds;
    len.push_back(static_cast<double>(r.prompt_tokens));
  }
  const std::vector<std::size_t> gap_rank = ranks(gap), len_rank = ranks(len);
  const auto quantile = [&](std::size_t k) {
    return (static_cast<double>(k) + 0.5) / static_cast<double>(n);
  };
  std::vector<double> exp_q(static_cast<std::size_t>(n));
  double exp_sum = 0.0;
  for (std::size_t k = 0; k < exp_q.size(); ++k) exp_sum += exp_q[k] = -std::log1p(-quantile(k));
  // Scale so that the next request after the last would be due at `seconds`.
  const double scale = seconds / (exp_sum * (1.0 + 1.0 / static_cast<double>(n)));
  const double log_lo = std::log(static_cast<double>(lo));
  const double log_hi = std::log(static_cast<double>(hi));
  double t = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    t += exp_q[gap_rank[i]] * scale;
    trace[i].arrival_seconds = t;
    trace[i].prompt_tokens = static_cast<Index>(
        std::llround(std::exp(log_lo + quantile(len_rank[i]) * (log_hi - log_lo))));
  }
  return trace;
}

// Tails take the stratified lengths. Conversations take turns in rounds:
// each round of kConversations requests visits every conversation once, in
// an order the seed shuffles, so the history lengths on offer are the same
// for every seed.
std::vector<sattn::ServingRequest> make_trace(std::uint64_t seed, double seconds) {
  std::vector<sattn::ServingRequest> trace = stratified_poisson(seed, seconds, kRateRps, 64, 512);
  sattn::Rng rng(seed ^ 0xc0117e5ull);
  std::vector<Index> turn(kConversations, 0), generation(kConversations, 0);
  std::vector<Index> round;
  for (sattn::ServingRequest& req : trace) {
    if (round.empty()) {
      for (Index c = 0; c < kConversations; ++c) round.push_back(c);
      for (std::size_t i = round.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_index(static_cast<Index>(i + 1)));
        std::swap(round[i], round[j]);
      }
    }
    const auto c = static_cast<std::size_t>(round.back());
    round.pop_back();
    if (turn[c] >= kMaxTurns) {
      turn[c] = 0;
      ++generation[c];
    }
    const Index history = kHistoryStep * turn[c]++;
    req.segments = {{"sys", kSysTokens}};
    if (history > 0) {
      req.segments.push_back(
          {"conv/" + std::to_string(c) + "." + std::to_string(generation[c]), history});
    }
    req.prompt_tokens += kSysTokens + history;
  }
  return trace;
}

// One warm-up engine run of 8 fixed requests submitted at once.
void warmup_engine(const sattn::EngineOptions& opts) {
  sattn::ServingEngine engine(opts);
  engine.start();
  for (int i = 0; i < 8; ++i) {
    (void)engine.submit(sattn::ServingRequest("warm-" + std::to_string(i), kSysTokens + 256, 0.0,
                                              {{"sys", kSysTokens}}));
  }
  (void)engine.finish();
}

// The quality metrics are prefill_long's (the sparse pipeline's); every run
// must still report them. kDense serving runs exact attention: the mask is
// full, so CRA is 1, and the output differs from flash_attention only by
// float rounding. Both are reported as fixed placeholders, out_err_max as one
// float epsilon since no metric may read 0.
void record_dense_quality(RunResult& r) {
  r.set("cra_min", 1.0, "frac");
  r.set("out_err_max", 0x1p-23, "abs");
  r.note("cra_min, out_err_max: fixed placeholders (kDense attention is exact), not measured");
}

struct OpenLoop {
  sattn::EngineResult result;
  std::vector<std::string> ids;  // submitted, in send order
  std::map<std::string, double> late_s;
  double gen_seconds = 0.0;  // generator wall time
  Index prefix_entries = 0;
  long long submit_errors = 0;
};

OpenLoop run_open_loop(const sattn::EngineOptions& opts,
                       const std::vector<sattn::ServingRequest>& trace) {
  OpenLoop ol;
  sattn::ServingEngine engine(opts);
  for (int i = 0; i < kProbeBurst; ++i) host_probe().sample();
  engine.start();
  const auto t0 = Clock::now();
  for (const sattn::ServingRequest& req : trace) {
    // Probe in a gap where the engine is idle (its loop waits for work, and
    // only this thread submits, so it stays idle) and the next request is
    // not due soon.
    if (engine.heartbeat_age_seconds() == 0.0 &&
        req.arrival_seconds - seconds_since(t0) > 0.005) {
      host_probe().sample();
    }
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(req.arrival_seconds)));
    ol.late_s[req.id] = lateness(req.arrival_seconds, seconds_since(t0));
    ol.ids.push_back(req.id);
    if (!engine.submit(req).ok()) ++ol.submit_errors;
  }
  ol.gen_seconds = seconds_since(t0);
  ol.result = engine.finish();
  ol.prefix_entries = engine.kv_arena()->prefix_entries();
  for (int i = 0; i < kProbeBurst; ++i) host_probe().sample();
  return ol;
}

// Lifecycle checks: every submitted id reaches exactly one terminal state,
// and every completed or cancelled record satisfies
// queue + compute + guard == ttft. Returns the largest residual.
double check_lifecycle(const OpenLoop& ol, RunResult& r) {
  std::map<std::string, int> seen;
  for (const auto& [id, state] : ol.result.outcomes()) ++seen[id];
  long long missing = 0, duplicated = 0;
  for (const std::string& id : ol.ids) {
    const auto it = seen.find(id);
    if (it == seen.end()) {
      ++missing;
    } else if (it->second != 1) {
      ++duplicated;
    }
  }
  if (missing > 0 || duplicated > 0 || seen.size() != ol.ids.size()) {
    r.fail_check("terminal states: " + std::to_string(missing) + " missing, " +
                 std::to_string(duplicated) + " duplicated");
  }
  if (ol.submit_errors > 0) r.fail_check("submit() rejected requests");
  double residual_max = 0.0;
  const auto residual = [&](const sattn::CompletedRequest& b) {
    residual_max = std::max(residual_max, std::abs(b.queue_seconds + b.compute_seconds +
                                                   b.guard_seconds - b.ttft()));
  };
  for (const auto& c : ol.result.completed) residual(c.base);
  for (const auto& c : ol.result.cancelled) residual(c.base);
  if (residual_max > 1e-9) r.fail_check("queue + compute + guard != ttft");
  return residual_max;
}

// Request-level view of one open-loop run, warm-up excluded.
struct Requests {
  std::vector<Served> served;
  std::vector<double> ttft_s, tpot_s, compute_s, queue_s, guard_s;
  double computed_tokens = 0.0, prompt_tokens = 0.0, hit_tokens = 0.0;
  std::size_t submitted = 0;
};

Requests collect(const OpenLoop& ol) {
  Requests q;
  const std::vector<std::string> counted = drop_warmup(ol.ids, kWarmup);
  q.submitted = counted.size();
  const std::set<std::string> in_window(counted.begin(), counted.end());
  for (const sattn::EngineCompletion& c : ol.result.completed) {
    const std::string& id = c.base.request.id;
    if (!in_window.count(id)) continue;
    const double ttft = ttft_from_due(c.base.ttft(), ol.late_s.at(id));
    q.served.push_back({ttft, c.tpot_seconds});
    q.ttft_s.push_back(ttft);
    q.tpot_s.push_back(c.tpot_seconds);
    q.compute_s.push_back(c.base.compute_seconds);
    q.queue_s.push_back(c.base.queue_seconds);
    q.guard_s.push_back(c.base.guard_seconds);
    q.prompt_tokens += static_cast<double>(c.base.request.prompt_tokens);
    q.hit_tokens += static_cast<double>(c.prefix_hit_tokens);
    q.computed_tokens += static_cast<double>(c.base.request.prompt_tokens - c.prefix_hit_tokens);
  }
  return q;
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Durations of the program's own spans, by name.
std::map<std::string, std::vector<double>> span_seconds() {
  std::map<std::string, std::vector<double>> out;
  for (const auto& s : sattn::obs::Collector::global().spans()) {
    out[s.name].push_back(s.dur_us * 1e-6);
  }
  return out;
}

// The durations of span `name`, which the traced run must have recorded: a
// renamed or vanished span fails the run instead of reading as 0.
const std::vector<double>& required_span(std::map<std::string, std::vector<double>>& spans,
                                         const std::string& name, RunResult& r) {
  const std::vector<double>& d = spans[name];
  if (d.empty()) r.fail_check("span " + name + " was not recorded");
  return d;
}

// The value of counter `name`, which the traced run must have bumped.
double required_counter(const std::string& name, RunResult& r) {
  for (const auto& c : sattn::obs::Collector::global().counters()) {
    if (c.name == name) return c.value;
  }
  r.fail_check("counter " + name + " was not recorded");
  return 0.0;
}

}  // namespace

RunResult run_serve_prefix(const RunArgs& args) {
  RunResult r;
  const sattn::EngineOptions opts = engine_options(args.seed);

  // Set-up, repeated: a warm-up engine run.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    warmup_engine(opts);
    setup_s.push_back(seconds_since(t0));
    host_probe().sample();
  }
  record_dense_quality(r);

  if (!args.trace) {
    const OpenLoop ol = run_open_loop(opts, make_trace(args.seed, args.seconds));
    check_lifecycle(ol, r);
    const Requests q = collect(ol);
    r.attempted = static_cast<long long>(ol.ids.size());
    r.failed = static_cast<long long>(ol.result.shed.size() + ol.result.cancelled.size());
    if (q.ttft_s.empty()) {
      r.fail_check("no completed requests after warm-up; raise --seconds");
      return r;
    }
    r.set("setup_s", median_of(setup_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    r.set("prefill_tok_s", q.computed_tokens / sum_of(q.compute_s), "tok/s");
    record_timing(r, "prefill_head_p50_ms", "prefill_head_p90_ms", summarize(q.compute_s, 0.90),
                  1e3, "ms");
    record_timing(r, "ttft_p50_ms", "ttft_p95_ms", summarize(q.ttft_s, 0.95), 1e3, "ms");
    record_timing(r, "tpot_p50_ms", "tpot_p95_ms", summarize(q.tpot_s, 0.95), 1e3, "ms");
    r.set("slo_frac", slo_frac(served_at_reference_speed(q.served), q.submitted, kSlo), "frac");
    return r;
  }

  // ---- Traced run: the same half-length schedule untraced, then traced. ----
  const std::vector<sattn::ServingRequest> trace = make_trace(args.seed, args.seconds / 2.0);
  const OpenLoop base = run_open_loop(opts, trace);
  check_lifecycle(base, r);
  const Requests qa = collect(base);

  sattn::obs::Collector::global().reset();
  sattn::obs::set_enabled(true);
  const OpenLoop ol = run_open_loop(opts, trace);
  sattn::obs::set_enabled(false);
  const double residual = check_lifecycle(ol, r);
  const Requests qb = collect(ol);
  r.attempted = static_cast<long long>(base.ids.size() + ol.ids.size());
  r.failed = static_cast<long long>(base.result.shed.size() + base.result.cancelled.size() +
                                    ol.result.shed.size() + ol.result.cancelled.size());
  if (qa.ttft_s.empty() || qb.ttft_s.empty()) {
    r.fail_check("no completed requests after warm-up; raise --seconds");
    return r;
  }
  // The parts must add up: mean(queue + compute + guard) == mean TTFT from
  // the send, and the prefix index must hold exactly the pages published.
  {
    double parts = 0.0, whole = 0.0;
    for (const auto& c : ol.result.completed) {
      parts += c.base.queue_seconds + c.base.compute_seconds + c.base.guard_seconds;
      whole += c.base.ttft();
    }
    if (parts_gap(parts, whole) > 1e-9) r.fail_check("mean(queue+compute+guard) != mean ttft");
  }
  const double published = required_counter("kv_cache.prefix_published", r);
  if (published != static_cast<double>(ol.prefix_entries)) {
    r.fail_check("kv_cache.prefix_published counter disagrees with the arena's prefix entries");
  }

  std::map<std::string, std::vector<double>> spans = span_seconds();
  const std::vector<double>& sweeps = required_span(spans, "kernel/ragged_sweep", r);
  const std::vector<double>& chunks = required_span(spans, "seq/prefill_chunk", r);
  const std::vector<double>& steps = required_span(spans, "seq/decode_step", r);
  if (!r.correct) return r;

  // Dense prefill chunks are flash_rows sweeps; their seq spans time them.
  r.set("attn.flash_ms", summarize(chunks, 0.5).mean * 1e3, "ms");

  const Timing queue = summarize(qb.queue_s, 0.95);
  r.set("engine.queue_ms_p50", queue.median * 1e3, "ms");
  r.set("engine.queue_ms_p95", queue.tail.value * 1e3, "ms");
  r.set("engine.compute_ms_mean", summarize(qb.compute_s, 0.5).mean * 1e3, "ms");
  r.set("engine.guard_ms_mean", summarize(qb.guard_s, 0.5).mean * 1e3, "ms");
  r.set("engine.ttft_residual_max_s", residual, "s");
  r.set("engine.iterations", static_cast<double>(ol.result.iterations), "count");
  r.set("engine.peak_live", static_cast<double>(ol.result.peak_live_batch), "count");

  const double seqs = static_cast<double>(chunks.size() + steps.size());
  r.set("batch.sweep_ms_p50", summarize(sweeps, 0.5).median * 1e3, "ms");
  r.set("batch.seqs_per_sweep", seqs / static_cast<double>(sweeps.size()), "count");
  r.set("batch.prefill_chunk_ms_p50", summarize(chunks, 0.5).median * 1e3, "ms");
  r.set("batch.decode_step_us_p50", summarize(steps, 0.5).median * 1e6, "us");

  const double completed = static_cast<double>(ol.result.completed.size());
  r.set("kv.prefix_hit_frac",
        completed > 0 ? static_cast<double>(ol.result.kv_prefix_hits) / completed : 0.0, "frac");
  r.set("kv.hit_token_frac", qb.prompt_tokens > 0 ? qb.hit_tokens / qb.prompt_tokens : 0.0,
        "frac");
  r.set("kv.pages_peak", static_cast<double>(ol.result.kv_pages_peak), "count");
  r.set("kv.pages_published", published, "count");
  r.set("kv.prefix_entries", static_cast<double>(ol.prefix_entries), "count");
  r.set("kv.peak_kv_bytes", ol.result.peak_kv_bytes, "bytes");

  // Generator figures come from the untraced half.
  std::vector<double> late;
  for (const auto& [id, l] : base.late_s) late.push_back(l);
  std::sort(late.begin(), late.end());
  r.set("gen.offered_rps", static_cast<double>(base.ids.size()) / base.gen_seconds, "1/s");
  r.set("gen.late_p99_ms", nearest_rank(late, 0.99) * 1e3, "ms");
  r.set("gen.late_max_ms", late.empty() ? 0.0 : late.back() * 1e3, "ms");
  r.set("fail_frac",
        static_cast<double>(base.result.shed.size() + base.result.cancelled.size()) /
            static_cast<double>(base.ids.size()),
        "frac");
  r.set("trace.overhead_frac",
        summarize(qb.ttft_s, 0.5).median / summarize(qa.ttft_s, 0.5).median - 1.0, "frac");
  return r;
}

}  // namespace sabench
