// Structured, versioned JSON run reports: the machine-readable record of a
// bench run, written by every bench's --report-out (bench/bench_common.h).
// This is the write side only; the repo's perf gate is sabench +
// BENCHMARK.json, and quality floors live in ctest (docs/OBSERVABILITY.md,
// "Run reports").
//
// Schema (version 2; pinned byte-for-byte by tests/golden/run_report_v2.json):
//
//   {
//     "schema": "sattn.run_report",
//     "version": 2,
//     "meta": { "created_by", "git_rev", "build_type", "compiler",
//               "cxx_flags", "threads", "simd", "hostname", "benches": [...] },
//     "benches": [
//       {
//         "name": "bench_serving",
//         "latency":    [ { "path", "name", "depth", "count", "total_us",
//                           "mean_us", "p50_us", "p99_us" }, ... ],
//         "counters":   { "sched.requests_completed": 24, ... },
//         "gauges":     { "quality.L4H3.cra": 0.97, ... },
//         "histograms": { "sched.ttft_seconds":
//                           { "count","sum","min","max","p50","p90","p99",
//                             // v2, present only when exemplars were tagged:
//                             "max_exemplar","p99_exemplar" } },
//         "series":     { "sched.queue_depth": [[t, v], ...] },
//         // Derived views, re-assembled from the raw maps at write time
//         // (each omitted when its source metrics are absent):
//         "quality":    { "per_head": [ { "layer","head",
//                                         "retained_kv_frac","cra" } ] },
//         "breakdown":  [ { "seq_len","stage1_us","stage2_us","kernel_us",
//                           "measured_overhead_share",
//                           "predicted_overhead_share" } ],
//         "serving":    { "completed","shed","degraded","retries",
//                         "queue_depth_peak","ttft": {histogram stats} },
//         // v2: per-request TTFT attribution, from request.<id>.* gauges
//         // (see docs/OBSERVABILITY.md "Resource accounting"):
//         "per_request": [ { "id","queue_s","compute_s","guard_s",
//                            "ttft_s", ... } ],
//         // Paged-KV / prefix-cache metrics, from the kv.* gauges that
//         // bench_serving --prefix publishes:
//         "kv":         { "prefix_hit_rate","prefix_ttft_reduction",
//                         "residency_page_ratio", ... }
//       }, ...
//     ]
//   }
//
// `latency` comes from the span summaries (obs/summary.h), `counters` from
// the obs::Collector, and `gauges`/`histograms`/`series` from the
// MetricsRegistry (obs/metrics.h). The derived sections are views over the
// raw maps under the naming conventions of docs/OBSERVABILITY.md:
// `quality.L<l>H<h>.*` gauges, `breakdown.S<len>.*` gauges, `sched.*`
// counters/metrics, and `request.<id>.*` gauges.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/summary.h"

namespace sattn {

inline constexpr int kRunReportVersion = 2;
inline constexpr const char* kRunReportSchema = "sattn.run_report";

// One bench binary's worth of metrics.
struct BenchReport {
  std::string name;
  std::vector<obs::SpanStat> latency;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, obs::HistogramStats> histograms;
  std::map<std::string, std::vector<std::pair<double, double>>> series;
};

struct RunReport {
  // Environment metadata, stamped at collection time (git rev and build
  // flags are baked in at configure time — see src/CMakeLists.txt).
  std::map<std::string, std::string> meta;
  std::vector<BenchReport> benches;
};

// Snapshots the global obs::Collector + MetricsRegistry into a single-bench
// report named `bench_name`, with environment metadata filled in.
RunReport collect_run_report(const std::string& bench_name);

// Serialization.
std::string run_report_json(const RunReport& report);
bool write_run_report(const std::string& path, const RunReport& report);

}  // namespace sattn
