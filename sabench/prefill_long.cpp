// prefill_long: offline long-context prefill through the full SampleAttention
// pipeline, one call per (layer, head) — the paper's regime.
//
// Inputs are ChatGLM2-6B-shaped structured heads at S = 4096, d = 128
// (generate_attention over representative_heads, which includes the denser
// layer-0 head), for a plain prompt whose content seed is the run seed. A
// call is plan_sample_attention followed by sparse_flash_attention; calls
// cycle over the heads back to back (closed loop, nothing queues). S is 4096
// rather than 8192 so that a run makes enough calls for its tails: at 8192 a
// call averages ~370 ms on a 4-core x86 host, too few for p90 to keep ten
// samples beyond it in 30 s.
//
// End-to-end metrics, as this workload defines them:
//   prefill_tok_s          S x calls / pipeline seconds
//   prefill_head_p50/p90   per-call latency (plan + sparse kernel)
//   ttft_p50/p95           the same per-call latency: a call is one head's
//                          share of a prompt's time to first token
//   tpot_p50/p95           one exact decode step over the 4K-token paged KV
//                          cache of the head just prefilled (decode_attention)
//   slo_frac               calls meeting kSlo at the reference host speed:
//                          the sparse heads do, the dense layer-0 head does
//                          not (~45 ms and ~220 ms against a 150 ms limit)
//   cra_min                CRA of the deployed masks on fixed rows, min over
//                          the heads of a fixed reference prompt
//   out_err_max            max |sparse - flash_attention| over those heads
//   setup_s                median over repetitions of building the heads'
//                          inputs, flash_attention references and KV caches
//
// The reported quality figures use a fixed prompt so that they carry no seed
// noise; the timed heads of every run pass the same floors.
//
// The traced run (--trace 1) repeats the call loop untraced, then traced, and
// times the planner stage by stage through its public functions
// (sample_column_weights, filter_kv_indices, StructuredMask::set_window /
// set_stripe_columns / density); every replica must build the same window
// and stripes as plan_sample_attention.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attention/flash_attention.h"
#include "attention/sparse_flash_attention.h"
#include "metrics/cra.h"
#include "model/synthetic_model.h"
#include "model/workload.h"
#include "obs/trace.h"
#include "runtime/decode.h"
#include "runtime/kv_cache.h"
#include "sabench.h"
#include "sample_attention/sample_attention.h"

namespace sabench {
namespace {

using sattn::Index;

constexpr Index kSeqLen = 4096;
constexpr Index kHeads = 4;
constexpr int kSetupReps = 3;
constexpr Index kDecodeSteps = 4;  // decode steps timed after each call
constexpr Index kCraRows = 64;     // fixed rows the CRA check scores
// Output checks: the deployed masks must keep at least this much attention
// mass on every checked row, and outputs must stay this close to exact.
// The dense layer-0 head is the weakest (CRA 0.77-0.86 across seeds).
constexpr double kCraFloor = 0.70;
constexpr double kOutErrCeiling = 0.05;
// Content seed of the fixed prompt the reported cra_min / out_err_max use.
constexpr std::uint64_t kReferenceSeed = 0;
// Latency limits for slo_frac (per call and per decode step).
constexpr SloLimits kSlo{0.150, 0.002};

struct Head {
  Index layer = 0;
  Index head = 0;
  sattn::AttentionInput in;
  sattn::Matrix ref;  // flash_attention output
  double flash_s = 0.0;
  std::unique_ptr<sattn::KVCache> cache;  // K/V of the whole prompt, for decode
  sattn::Matrix first_out;                // first checked sparse output
};

struct Setup {
  std::vector<Head> heads;
  double seconds = 0.0;
};

Setup build_heads(std::uint64_t seed) {
  const auto t0 = Clock::now();
  const sattn::ModelConfig model = sattn::chatglm2_6b();
  const sattn::ContentSpec content =
      sattn::plain_prompt(0x5ab0000ull + seed * 0x9e3779b97f4a7c15ull, kSeqLen);
  Setup s;
  for (const auto& [layer, head] : sattn::representative_heads(model, kHeads)) {
    Head h;
    h.layer = layer;
    h.head = head;
    h.in = sattn::generate_attention(model, content, layer, head);
    const auto f0 = Clock::now();
    sattn::flash_attention(h.in, h.ref);
    h.flash_s = seconds_since(f0);
    h.cache = std::make_unique<sattn::KVCache>(h.in.head_dim());
    if (!h.cache->append_prefill(h.in).ok()) h.cache.reset();
    s.heads.push_back(std::move(h));
  }
  s.seconds = seconds_since(t0);
  return s;
}

std::vector<Index> cra_rows() {
  std::vector<Index> rows;
  for (Index i = 1; i <= kCraRows; ++i) rows.push_back(i * kSeqLen / kCraRows - 1);
  return rows;
}

struct CallTimes {
  double call_s = 0.0;         // plan_sample_attention + sparse_flash_attention
  double decode_step_s = 0.0;  // mean over kDecodeSteps
  bool output_ok = true;
};

// One pipeline call on head h plus its decode steps. The output is compared
// bit for bit with the head's first (quality-checked) output, outside the
// timed windows.
CallTimes run_call(Head& h, const sattn::SampleAttentionConfig& cfg, sattn::Matrix& out,
                   std::vector<float>& dec_out) {
  CallTimes c;
  const auto t0 = Clock::now();
  const sattn::SamplePlan plan = sattn::plan_sample_attention(h.in, cfg);
  sattn::sparse_flash_attention(h.in, plan.mask, out);
  c.call_s = seconds_since(t0);
  c.output_ok = out.size() == h.first_out.size() &&
                std::equal(out.flat().begin(), out.flat().end(), h.first_out.flat().begin());
  const auto d0 = Clock::now();
  for (Index s = 0; s < kDecodeSteps; ++s) {
    const sattn::Status st =
        sattn::decode_attention(h.in.q.row(kSeqLen - 1 - s), *h.cache, dec_out);
    if (!st.ok()) c.output_ok = false;
  }
  c.decode_step_s = seconds_since(d0) / static_cast<double>(kDecodeSteps);
  return c;
}

// Stage-by-stage replica of plan_sample_attention, each stage timed from
// outside. Returns false when it does not rebuild the plan's mask.
struct StageTimes {
  double stage1_s = 0.0, stage2_s = 0.0, merge_s = 0.0, density_s = 0.0;
};

bool replica_matches(const sattn::AttentionInput& in, const sattn::SampleAttentionConfig& cfg,
                     const sattn::SamplePlan& plan, StageTimes* times) {
  const Index window = sattn::window_width_from_ratio(in.sk(), cfg.window_ratio);
  const auto t0 = Clock::now();
  const sattn::SampleStats st =
      sattn::sample_column_weights(in, cfg.row_ratio, cfg.sampling, window, cfg.seed);
  const auto t1 = Clock::now();
  sattn::FilterConfig fcfg;
  fcfg.alpha = cfg.alpha;
  fcfg.pre_covered = st.total_mass > 0.0 ? st.window_mass / st.total_mass : 0.0;
  fcfg.mode = cfg.filter;
  const sattn::FilterResult filtered = sattn::filter_kv_indices(st.column_weight, fcfg);
  const auto t2 = Clock::now();
  sattn::StructuredMask mask(in.sq(), in.sk());
  mask.set_window(window);
  mask.set_stripe_columns(filtered.kv_indices);
  const auto t3 = Clock::now();
  const double density = mask.density();
  const auto t4 = Clock::now();
  if (times != nullptr) {
    using D = std::chrono::duration<double>;
    *times = {D(t1 - t0).count(), D(t2 - t1).count(), D(t3 - t2).count(), D(t4 - t3).count()};
  }
  return mask.window() == plan.mask.window() &&
         mask.stripe_columns() == plan.mask.stripe_columns() && density == plan.density;
}

struct Quality {
  double cra_min = 1.0;
  double err_max = 0.0;
};

// Plans every head once and checks the deployed pipeline: the stage replica
// rebuilds the plan, CRA on fixed rows stays above kCraFloor and the sparse
// output stays within kOutErrCeiling of flash_attention. The sparse output
// becomes the head's reference for the bit-for-bit checks of later calls.
Quality check_quality(Setup& s, const sattn::SampleAttentionConfig& cfg, const char* which,
                      RunResult& r) {
  const std::vector<Index> rows = cra_rows();
  Quality q;
  for (Head& h : s.heads) {
    const std::string tag = std::string(which) + " L" + std::to_string(h.layer) + "H" +
                            std::to_string(h.head);
    if (!h.cache) r.fail_check(tag + ": KV cache fill failed");
    const sattn::SamplePlan plan = sattn::plan_sample_attention(h.in, cfg);
    if (!replica_matches(h.in, cfg, plan, nullptr)) {
      r.fail_check(tag + ": stage-by-stage replica differs from plan_sample_attention");
    }
    sattn::sparse_flash_attention(h.in, plan.mask, h.first_out);
    const double cra = sattn::cra(h.in, plan.mask, rows);
    const double err = sattn::max_abs_diff(h.first_out, h.ref);
    q.cra_min = std::min(q.cra_min, cra);
    q.err_max = std::max(q.err_max, err);
    char line[160];
    std::snprintf(line, sizeof(line), "%s: density %.4f  cra %.4f  max|sparse-flash| %.3g",
                  tag.c_str(), plan.density, cra, err);
    r.note(line);
    if (cra < kCraFloor) r.fail_check(tag + ": CRA below floor");
    if (!(err <= kOutErrCeiling)) r.fail_check(tag + ": output error above ceiling");
  }
  return q;
}

struct LoopStats {
  std::vector<double> call_s, decode_s;  // in issue order
  long long bad_outputs = 0;
};

LoopStats call_loop(Setup& s, const sattn::SampleAttentionConfig& cfg, double seconds) {
  LoopStats ls;
  sattn::Matrix out;
  std::vector<float> dec_out(static_cast<std::size_t>(s.heads.front().in.head_dim()));
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(t0) < seconds; ++i) {
    Head& h = s.heads[i % s.heads.size()];
    const CallTimes c = run_call(h, cfg, out, dec_out);
    host_probe().sample();
    ls.call_s.push_back(c.call_s);
    ls.decode_s.push_back(c.decode_step_s);
    if (!c.output_ok) ++ls.bad_outputs;
  }
  return ls;
}

}  // namespace

RunResult run_prefill_long(const RunArgs& args) {
  RunResult r;
  const sattn::SampleAttentionConfig cfg;  // the paper's alpha = 0.95 defaults

  // ---- Set-up, repeated; the last repetition's heads are used. ----
  std::vector<double> setup_s;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Setup{};  // release the previous repetition before building the next
    s = build_heads(args.seed);
    setup_s.push_back(s.seconds);
    host_probe().sample();
  }
  // ---- Output checks on the timed heads, then the reported quality on the
  // fixed reference prompt (seed-independent, so it carries no seed noise).
  check_quality(s, cfg, "seed", r);
  Setup ref = build_heads(kReferenceSeed);
  const Quality q = check_quality(ref, cfg, "reference", r);
  ref = Setup{};
  if (!r.correct) return r;

  const std::size_t warmup = s.heads.size();  // one cold pass over the heads
  if (!args.trace) {
    const LoopStats ls = call_loop(s, cfg, args.seconds);
    r.attempted = static_cast<long long>(ls.call_s.size());
    r.failed = ls.bad_outputs;
    if (ls.bad_outputs > 0) r.fail_check("sparse output changed between calls");
    const std::vector<double> calls = drop_warmup(ls.call_s, warmup);
    const std::vector<double> decode = drop_warmup(ls.decode_s, warmup);
    if (calls.empty()) {
      r.fail_check("no calls left after warm-up; raise --seconds");
      return r;
    }
    std::vector<Served> served;
    for (std::size_t i = 0; i < calls.size(); ++i) served.push_back({calls[i], decode[i]});
    const Timing call_p90 = summarize(calls, 0.90);

    r.set("setup_s", median_of(setup_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    r.set("prefill_tok_s", static_cast<double>(kSeqLen) / call_p90.mean, "tok/s");
    record_timing(r, "prefill_head_p50_ms", "prefill_head_p90_ms", call_p90, 1e3, "ms");
    record_timing(r, "ttft_p50_ms", "ttft_p95_ms", summarize(calls, 0.95), 1e3, "ms");
    record_timing(r, "tpot_p50_ms", "tpot_p95_ms", summarize(decode, 0.95), 1e3, "ms");
    r.set("slo_frac", slo_frac(served_at_reference_speed(served), calls.size(), kSlo), "frac");
    r.set("cra_min", q.cra_min, "frac");
    r.set("out_err_max", q.err_max, "abs");
    return r;
  }

  // ---- Traced run: untraced half, then traced half with stage replicas. ----
  const LoopStats base = call_loop(s, cfg, args.seconds / 2.0);
  r.attempted = static_cast<long long>(base.call_s.size());
  r.failed = base.bad_outputs;

  sattn::obs::Collector::global().reset();
  sattn::obs::set_enabled(true);
  std::vector<double> call_s, plan_s, sparse_s, st1, st2, merge, dens, density, overhead, evals;
  long long replica_mismatches = 0;
  sattn::Matrix out;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(t0) < args.seconds / 2.0; ++i) {
    Head& h = s.heads[i % s.heads.size()];
    // The library's whole pipeline call, then its two parts timed apart.
    const auto c0 = Clock::now();
    sattn::sample_attention(h.in, cfg, out);
    call_s.push_back(seconds_since(c0));
    const auto p0 = Clock::now();
    const sattn::SamplePlan plan = sattn::plan_sample_attention(h.in, cfg);
    const auto p1 = Clock::now();
    sattn::sparse_flash_attention(h.in, plan.mask, out);
    const auto p2 = Clock::now();
    StageTimes st;
    if (!replica_matches(h.in, cfg, plan, &st)) ++replica_mismatches;
    ++r.attempted;
    if (!std::equal(out.flat().begin(), out.flat().end(), h.first_out.flat().begin())) {
      ++r.failed;
    }
    plan_s.push_back(std::chrono::duration<double>(p1 - p0).count());
    sparse_s.push_back(std::chrono::duration<double>(p2 - p1).count());
    st1.push_back(st.stage1_s);
    st2.push_back(st.stage2_s);
    merge.push_back(st.merge_s);
    dens.push_back(st.density_s);
    density.push_back(plan.density);
    overhead.push_back(plan.overhead_fraction);
    evals.push_back(sattn::sparse_flash_work(plan.mask));
  }
  sattn::obs::set_enabled(false);
  if (replica_mismatches > 0) r.fail_check("stage replica differs from plan_sample_attention");
  if (r.failed > 0) r.fail_check("sparse output changed between calls");

  const auto mean_of = [&](const std::vector<double>& v) {
    return summarize(drop_warmup(v, warmup), 0.5).mean;
  };
  const double plan_ms = mean_of(plan_s) * 1e3, sparse_ms = mean_of(sparse_s) * 1e3;
  const double st1_ms = mean_of(st1) * 1e3, st2_ms = mean_of(st2) * 1e3;
  const double merge_ms = mean_of(merge) * 1e3, dens_ms = mean_of(dens) * 1e3;
  std::vector<double> flash_s;
  for (const Head& h : s.heads) flash_s.push_back(h.flash_s);
  const double flash_ms = median_of(flash_s) * 1e3;
  const double call_ms = mean_of(call_s) * 1e3;
  const double base_call_ms = mean_of(base.call_s) * 1e3;

  // Parts must add up: the replica's stages against the planner call, and
  // planner + kernel against the whole sample_attention call. Both pairs are
  // timed in the same loop, so a drift in host speed between the two halves
  // of the run cannot open a gap.
  const double stage_gap = parts_gap(st1_ms + st2_ms + merge_ms + dens_ms, plan_ms);
  const double call_gap = parts_gap(plan_ms + sparse_ms, call_ms);
  char line[200];
  std::snprintf(line, sizeof(line),
                "sums: stage1+stage2+merge+density = %.2f ms vs plan %.2f ms (gap %.3f); "
                "plan+sparse = %.2f ms vs sample_attention %.2f ms (gap %.3f)",
                st1_ms + st2_ms + merge_ms + dens_ms, plan_ms, stage_gap, plan_ms + sparse_ms,
                call_ms, call_gap);
  r.note(line);
  if (stage_gap > 0.15) r.fail_check("planner stages do not add up to the plan call");
  if (call_gap > 0.15) r.fail_check("plan + sparse kernel does not add up to the per-head call");

  const double evals_mean = mean_of(evals);
  r.set("sattn.plan_ms", plan_ms, "ms");
  r.set("sattn.stage1_ms", st1_ms, "ms");
  r.set("sattn.stage2_ms", st2_ms, "ms");
  r.set("sattn.merge_ms", merge_ms, "ms");
  r.set("sattn.density_ms", dens_ms, "ms");
  r.set("sattn.density", mean_of(density), "frac");
  r.set("sattn.overhead_frac", mean_of(overhead), "frac");
  r.set("sattn.plan_share", plan_ms / (plan_ms + sparse_ms), "frac");
  r.set("attn.sparse_ms", sparse_ms, "ms");
  r.set("attn.sparse_evals", evals_mean, "count");
  r.set("attn.sparse_gevals_s", evals_mean / (sparse_ms * 1e-3) / 1e9, "Geval/s");
  r.set("attn.flash_ms", flash_ms, "ms");
  r.set("attn.speedup_vs_flash", flash_ms / sparse_ms, "x");
  r.set("trace.overhead_frac", call_ms / base_call_ms - 1.0, "frac");
  return r;
}

}  // namespace sabench
