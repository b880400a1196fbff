// Reproduces Table 4: prefill latency breakdown on the paper's serving
// setup (ChatGLM2-6B, 8x A100, TP=4 x PP=2) — TTFT, full-attention time and
// the attention share of TTFT, 32K to 1M.
//
// Paper row at 1M: TTFT 169.7s, attention 148.8s (87.7%).
//
// Besides the analytic cost model, this bench *measures* the paper's
// Stage-1 / Stage-2 / attention breakdown with real wall-clock time on the
// CPU substrate via the obs tracing layer, so the overhead claim is
// reproducible from observed time rather than only predicted. Run with
// --trace-out=trace.json to also capture the full Chrome trace.
#include <cstdio>

#include "bench_common.h"
#include "model/workload.h"
#include "perf/cost_model.h"
#include "perf/latency_report.h"
#include "sample_attention/sample_attention.h"

using namespace sattn;

namespace {

// Measured wall-clock Stage-1 / Stage-2 / sparse-attention breakdown for
// one substrate length, aggregated over a few heads from obs span totals.
void measured_breakdown_rows(TextTable& t, const ModelConfig& model, Index s) {
  const obs::Collector& col = obs::Collector::global();
  const auto before = col.spans();
  const double b_s1 = obs::total_seconds(before, "sattn/stage1_sampling");
  const double b_s2 = obs::total_seconds(before, "sattn/stage2_filtering");
  const double b_mg = obs::total_seconds(before, "sattn/merge");
  const double b_dn = obs::total_seconds(before, "sattn/density");
  const double b_kn = obs::total_seconds(before, "kernel/sparse_flash");

  const SampleAttention method;
  double pred_overhead = 0.0, pred_density = 0.0;
  const Index heads_to_run = 4;
  for (Index h = 0; h < heads_to_run; ++h) {
    const AttentionInput in =
        generate_attention(model, plain_prompt(7 + h, s), /*layer=*/8, /*head=*/3 + h);
    const AttentionResult res = method.run(in);
    pred_overhead += res.overhead_density;
    pred_density += res.density;
  }
  pred_overhead /= static_cast<double>(heads_to_run);
  pred_density /= static_cast<double>(heads_to_run);

  const auto after = col.spans();
  const double s1 = obs::total_seconds(after, "sattn/stage1_sampling") - b_s1;
  const double s2 = obs::total_seconds(after, "sattn/stage2_filtering") - b_s2 +
                    obs::total_seconds(after, "sattn/merge") - b_mg +
                    obs::total_seconds(after, "sattn/density") - b_dn;
  const double kn = obs::total_seconds(after, "kernel/sparse_flash") - b_kn;
  const double total = s1 + s2 + kn;
  const double measured_share = total > 0.0 ? (s1 + s2) / total : 0.0;
  // The cost model charges planning as overhead_density and attention as
  // density, both in units of full-attention work.
  const double predicted_share = pred_overhead / (pred_overhead + pred_density);

  // Feed the run report's "breakdown" section (io/run_report.h): predicted
  // vs measured Stage-1/Stage-2 overhead at this substrate length.
  const std::string prefix = "breakdown.S" + std::to_string(s) + ".";
  SATTN_GAUGE_SET(prefix + "stage1_us", s1 * 1e6);
  SATTN_GAUGE_SET(prefix + "stage2_us", s2 * 1e6);
  SATTN_GAUGE_SET(prefix + "kernel_us", kn * 1e6);
  SATTN_GAUGE_SET(prefix + "measured_overhead_share", measured_share);
  SATTN_GAUGE_SET(prefix + "predicted_overhead_share", predicted_share);

  t.add_row({std::to_string(s / 1024) + "K", fmt_ms(s1, 2), fmt_ms(s2, 2), fmt_ms(kn, 2),
             fmt_pct(measured_share, 1), fmt_pct(predicted_share, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  sattn::bench::TraceSession trace_session(argc, argv);

  const ModelConfig model = chatglm2_6b();
  const GpuSpec gpu = a100_cluster();

  std::printf("Table 4 — prefill latency breakdown (%s, 8xA100 TP=4 PP=2 cost model)\n\n",
              model.name.c_str());
  TextTable t({"Sequence Length", "TTFT (ms)", "Full Attention (ms)", "Percent (%)"});
  for (Index s : {32768, 65536, 131072, 262144, 524288, 1048576}) {
    const double attn = flash_attention_seconds(model, s, gpu);
    const double ttft = ttft_seconds(model, s, gpu, attn);
    t.add_row({std::to_string(s / 1024) + "K", fmt_ms(ttft, 1), fmt_ms(attn, 1),
               fmt(100.0 * attn / ttft, 1)});
  }
  t.print();
  std::printf(
      "\npaper: 32K 1273/410 (32.2%%) ... 1M 169653/148774 (87.7%%); the model matches the\n"
      "long-sequence regime and the dominance trend (short lengths omit the paper's\n"
      "chunked-prefill fixed costs, so the 32K share lands lower).\n");

  // Measured SampleAttention breakdown (wall-clock, CPU substrate): the
  // paper's claim that Stage-1 + Stage-2 overhead is small relative to the
  // attention it saves, from observed time instead of the analytic model.
  std::printf(
      "\nMeasured Stage-1/Stage-2/attention wall-clock breakdown "
      "(SampleAttention, CPU substrate, 4 heads per length):\n\n");
  const bool was_enabled = obs::enabled();
  if (!obs::set_enabled(true)) {
    std::printf("(tracing hard-disabled via SATTN_TRACE=0 — measured breakdown skipped)\n");
  } else {
    TextTable m({"Sequence Length", "Stage-1 (ms)", "Stage-2 (ms)", "Sparse Attn (ms)",
                 "Measured Overhead Share", "Cost-Model Share"});
    for (Index s : {1024, 2048, 4096}) measured_breakdown_rows(m, model, s);
    m.print();
    std::printf(
        "\nthe measured share is (Stage-1 + Stage-2) / total wall-clock; the cost-model\n"
        "share is overhead_density / (overhead_density + density) from the same plans.\n"
        "Both shrink with length — Table 4 / Fig 5(b)'s overhead story, now measured.\n");
    if (!was_enabled) obs::set_enabled(trace_session.trace_out().empty() ? false : true);
  }
  return 0;
}
