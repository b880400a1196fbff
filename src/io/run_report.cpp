#include "io/run_report.h"

#include <algorithm>
#include <cstdio>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "core/simd.h"
#include "core/thread_pool.h"
#include "io/json.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

// Build/environment stamps, provided by src/CMakeLists.txt at configure
// time; fall back to "unknown" when building outside the repo's cmake.
#ifndef SATTN_GIT_REV
#define SATTN_GIT_REV "unknown"
#endif
#ifndef SATTN_BUILD_TYPE
#define SATTN_BUILD_TYPE "unknown"
#endif
#ifndef SATTN_COMPILER
#define SATTN_COMPILER "unknown"
#endif
#ifndef SATTN_CXX_FLAGS
#define SATTN_CXX_FLAGS ""
#endif

namespace sattn {
namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size();
  return (std::fclose(f) == 0) && ok;
}

JsonValue hist_json(const obs::HistogramStats& h) {
  JsonValue o = JsonValue::object();
  o.set("count", h.count);
  o.set("sum", h.sum);
  o.set("min", h.min);
  o.set("max", h.max);
  o.set("p50", h.p50);
  o.set("p90", h.p90);
  o.set("p99", h.p99);
  // v2: exemplar ids linking the tail to a specific observation. Emitted
  // only when the histogram was actually tagged, so untagged histograms
  // serialize byte-identically to schema v1.
  if (!h.max_exemplar.empty()) o.set("max_exemplar", h.max_exemplar);
  if (!h.p99_exemplar.empty()) o.set("p99_exemplar", h.p99_exemplar);
  return o;
}

// Parses "<prefix><layer>H<head>.<metric>" (prefix like "quality.L" or
// "audit.L"); returns false when the gauge name is not in the per-head
// convention.
bool parse_head_metric_name(const std::string& name, const std::string& prefix,
                            long long& layer, long long& head, std::string& metric) {
  if (name.rfind(prefix, 0) != 0) return false;
  const std::size_t h_at = name.find('H', prefix.size());
  const std::size_t dot_at = name.find('.', prefix.size());
  if (h_at == std::string::npos || dot_at == std::string::npos || h_at > dot_at) return false;
  try {
    layer = std::stoll(name.substr(prefix.size(), h_at - prefix.size()));
    head = std::stoll(name.substr(h_at + 1, dot_at - h_at - 1));
  } catch (...) {
    return false;
  }
  metric = name.substr(dot_at + 1);
  return true;
}

// Groups `<prefix><l>H<h>.<metric>` gauges into per-head records.
JsonValue per_head_json(const BenchReport& b, const std::string& prefix) {
  std::map<std::pair<long long, long long>, std::map<std::string, double>> heads;
  for (const auto& [name, v] : b.gauges) {
    long long layer = 0, head = 0;
    std::string metric;
    if (parse_head_metric_name(name, prefix, layer, head, metric)) {
      heads[{layer, head}][metric] = v;
    }
  }
  JsonValue per_head = JsonValue::array();
  for (const auto& [lh, metrics] : heads) {
    JsonValue rec = JsonValue::object();
    rec.set("layer", lh.first);
    rec.set("head", lh.second);
    for (const auto& [metric, v] : metrics) rec.set(metric, v);
    per_head.push_back(std::move(rec));
  }
  return per_head;
}

// Derived view: gauges `quality.L<l>H<h>.*` grouped into per-head records.
JsonValue quality_json(const BenchReport& b) {
  JsonValue q = JsonValue::object();
  q.set("per_head", per_head_json(b, "quality.L"));
  return q;
}

// Derived view: the online quality audit's scorecard (obs/audit.h) —
// per-head *measured* CRA percentiles with the planner's predicted CRA and
// the predicted-vs-measured gap, from the `audit.L<l>H<h>.*` gauges the
// QualityAuditor publishes, plus the run totals (`audit.rows_audited` etc).
// Distinct from the `quality` view: that one is planner-side bookkeeping,
// this one is ground-truth shadow measurement.
JsonValue quality_audit_json(const BenchReport& b, bool& present) {
  JsonValue per_head = per_head_json(b, "audit.L");
  const auto gauge = [&](const char* name, double& out) {
    const auto it = b.gauges.find(name);
    if (it == b.gauges.end()) return false;
    out = it->second;
    return true;
  };
  double rows = 0.0;
  const bool has_totals = gauge("audit.rows_audited", rows);
  present = per_head.size() > 0 || has_totals;
  JsonValue q = JsonValue::object();
  if (!present) return q;
  q.set("per_head", std::move(per_head));
  q.set("rows_audited", rows);
  double v = 0.0;
  if (gauge("audit.chunks_audited", v)) q.set("chunks_audited", v);
  if (gauge("audit.cra_min", v)) q.set("cra_min", v);
  if (gauge("audit.cra_mean", v)) q.set("cra_mean", v);
  if (gauge("audit.overhead_seconds", v)) q.set("overhead_seconds", v);
  return q;
}

// Derived view: gauges `breakdown.S<len>.<field>` grouped per length —
// the measured vs cost-model-predicted Stage-1/2 split (Table 4).
JsonValue breakdown_json(const BenchReport& b) {
  std::map<long long, std::map<std::string, double>> by_len;
  const std::string prefix = "breakdown.S";
  for (const auto& [name, v] : b.gauges) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot_at = name.find('.', prefix.size());
    if (dot_at == std::string::npos) continue;
    try {
      by_len[std::stoll(name.substr(prefix.size(), dot_at - prefix.size()))]
            [name.substr(dot_at + 1)] = v;
    } catch (...) {
    }
  }
  JsonValue arr = JsonValue::array();
  for (const auto& [len, fields] : by_len) {
    JsonValue rec = JsonValue::object();
    rec.set("seq_len", len);
    for (const auto& [field, v] : fields) rec.set(field, v);
    arr.push_back(std::move(rec));
  }
  return arr;
}

// Derived view: the serving SLO section, from sched.* counters plus the
// TTFT histogram. Present only when the bench exercised the scheduler.
JsonValue serving_json(const BenchReport& b, bool& present) {
  const auto counter = [&](const char* name) {
    const auto it = b.counters.find(name);
    return it == b.counters.end() ? 0.0 : it->second;
  };
  const auto ttft = b.histograms.find("sched.ttft_seconds");
  present = counter("sched.requests_enqueued") > 0.0 || ttft != b.histograms.end();
  JsonValue s = JsonValue::object();
  if (!present) return s;
  s.set("completed", counter("sched.requests_completed"));
  s.set("shed", counter("sched.requests_shed"));
  s.set("degraded", counter("sched.requests_degraded"));
  s.set("retries", counter("sched.request_retries"));
  s.set("queue_depth_peak", counter("sched.queue_depth_peak"));
  if (ttft != b.histograms.end()) s.set("ttft", hist_json(ttft->second));
  return s;
}

// Derived view (v2): per-request TTFT attribution records, grouped from the
// `request.<id>.<field>` gauges the scheduler and model runner emit. The id
// may itself contain dots or slashes (run labels like "sa_rr8192/req-003"),
// so the field is everything after the LAST dot.
JsonValue per_request_json(const BenchReport& b) {
  std::map<std::string, std::map<std::string, double>> requests;
  const std::string prefix = "request.";
  for (const auto& [name, v] : b.gauges) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot_at = name.rfind('.');
    if (dot_at == std::string::npos || dot_at <= prefix.size()) continue;
    const std::string id = name.substr(prefix.size(), dot_at - prefix.size());
    if (id.empty()) continue;
    requests[id][name.substr(dot_at + 1)] = v;
  }
  JsonValue arr = JsonValue::array();
  for (const auto& [id, fields] : requests) {
    JsonValue rec = JsonValue::object();
    rec.set("id", id);
    for (const auto& [field, v] : fields) rec.set(field, v);
    arr.push_back(std::move(rec));
  }
  return arr;
}

// Derived view: simulator-predicted vs engine-measured serving metrics,
// grouped from the engine.predicted.<metric> / engine.measured.<metric> /
// engine.err.<metric> gauges that bench_serving --engine publishes.
JsonValue engine_json(const BenchReport& b) {
  std::map<std::string, std::map<std::string, double>> metrics;
  for (const auto& [name, v] : b.gauges) {
    for (const char* kind : {"predicted", "measured", "err"}) {
      const std::string prefix = std::string("engine.") + kind + ".";
      if (name.rfind(prefix, 0) == 0) {
        metrics[name.substr(prefix.size())][kind] = v;
        break;
      }
    }
  }
  JsonValue arr = JsonValue::array();
  for (const auto& [metric, kinds] : metrics) {
    JsonValue rec = JsonValue::object();
    rec.set("metric", metric);
    for (const auto& [kind, v] : kinds) rec.set(kind, v);
    // Tail-metric labeling: a metric with an err gauge is gated by
    // bench_serving --engine's self-check; one without (the raw tpot_p99_s,
    // whose ~30µs decode steps are OS-jitter-dominated) is report-only.
    rec.set("gated", kinds.count("err") > 0);
    arr.push_back(std::move(rec));
  }
  return arr;
}

// Derived view: engine lifecycle-hardening telemetry — cancellation, KV
// memory pressure, watchdog, and circuit-breaker events published by the
// live ServingEngine (docs/ROBUSTNESS.md, "Lifecycle, overload & chaos").
// Counter names keep their engine.-stripped suffix; emitted only when the
// bench actually drove a hardening path.
JsonValue lifecycle_json(const BenchReport& b) {
  JsonValue o = JsonValue::object();
  static constexpr const char* kLifecycleCounters[] = {
      "engine.requests_cancelled",   "engine.kv_evictions",
      "engine.kv_pressure_waits",    "engine.kv_budget_sheds",
      "engine.watchdog_stalls",      "engine.watchdog_sheds",
      "engine.breaker_trips",        "engine.breaker_closes",
      "engine.breaker_short_circuits", "engine.breaker_pretrips"};
  for (const char* name : kLifecycleCounters) {
    const auto it = b.counters.find(name);
    if (it != b.counters.end()) o.set(std::string(name).substr(7), it->second);
  }
  const auto state = b.gauges.find("engine.breaker_state");
  if (state != b.gauges.end()) o.set("breaker_state", state->second);
  const auto heartbeat = b.gauges.find("engine.heartbeat_age_s");
  if (heartbeat != b.gauges.end()) o.set("heartbeat_age_s", heartbeat->second);
  const auto dropped = b.gauges.find("telemetry.events_dropped");
  if (dropped != b.gauges.end()) o.set("telemetry_events_dropped", dropped->second);
  // Quality-drift alerts raised by the telemetry plane: `alert.<name>`
  // counters count rising edges over the run.
  JsonValue alerts = JsonValue::object();
  const std::string alert_prefix = "alert.";
  for (const auto& [name, v] : b.counters) {
    if (name.rfind(alert_prefix, 0) == 0) alerts.set(name.substr(alert_prefix.size()), v);
  }
  if (alerts.size() > 0) o.set("alerts", std::move(alerts));
  return o;
}

// Derived view: paged-KV / prefix-cache metrics, grouped from the `kv.*`
// gauges bench_serving --prefix publishes (hit rates, warm-vs-cold TTFT
// reduction, page residency ratios). bench_serving --prefix fails its run
// when the TTFT reduction falls below its floor.
JsonValue kv_json(const BenchReport& b) {
  JsonValue o = JsonValue::object();
  const std::string prefix = "kv.";
  for (const auto& [name, v] : b.gauges) {
    if (name.rfind(prefix, 0) == 0) o.set(name.substr(prefix.size()), v);
  }
  return o;
}

// Derived view (v2): per-request timelines from the `timeline.<request>`
// series the engine emits — lifecycle events coded by
// obs::TelemetryEventKind (0-7), submit through terminal state, rendered
// with their names so the report is readable without the enum.
JsonValue timelines_json(const BenchReport& b) {
  JsonValue arr = JsonValue::array();
  const std::string prefix = "timeline.";
  for (const auto& [name, samples] : b.series) {
    if (name.rfind(prefix, 0) != 0) continue;
    JsonValue rec = JsonValue::object();
    rec.set("request", name.substr(prefix.size()));
    JsonValue events = JsonValue::array();
    for (const auto& [t, v] : samples) {
      JsonValue ev = JsonValue::object();
      ev.set("t", t);
      ev.set("phase", v);
      ev.set("name", obs::request_phase_name(static_cast<obs::TelemetryEventKind>(
                         static_cast<int>(v))));
      events.push_back(std::move(ev));
    }
    rec.set("events", std::move(events));
    arr.push_back(std::move(rec));
  }
  return arr;
}

JsonValue bench_json(const BenchReport& b) {
  JsonValue o = JsonValue::object();
  o.set("name", b.name);

  JsonValue latency = JsonValue::array();
  for (const obs::SpanStat& s : b.latency) {
    JsonValue rec = JsonValue::object();
    rec.set("path", s.path);
    rec.set("name", s.name);
    rec.set("depth", s.depth);
    rec.set("count", s.count);
    rec.set("total_us", s.total_us);
    rec.set("mean_us", s.mean_us);
    rec.set("p50_us", s.p50_us);
    rec.set("p99_us", s.p99_us);
    latency.push_back(std::move(rec));
  }
  o.set("latency", std::move(latency));

  JsonValue counters = JsonValue::object();
  for (const auto& [name, v] : b.counters) counters.set(name, v);
  o.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, v] : b.gauges) gauges.set(name, v);
  o.set("gauges", std::move(gauges));

  JsonValue hists = JsonValue::object();
  for (const auto& [name, h] : b.histograms) hists.set(name, hist_json(h));
  o.set("histograms", std::move(hists));

  JsonValue series = JsonValue::object();
  for (const auto& [name, samples] : b.series) {
    JsonValue arr = JsonValue::array();
    for (const auto& [t, v] : samples) {
      JsonValue pt = JsonValue::array();
      pt.push_back(t);
      pt.push_back(v);
      arr.push_back(std::move(pt));
    }
    series.set(name, std::move(arr));
  }
  o.set("series", std::move(series));

  // Derived views are emitted only when their source gauges/counters exist,
  // so benches that never touched a subsystem stay compact.
  JsonValue quality = quality_json(b);
  if (quality.get("per_head").size() > 0) o.set("quality", std::move(quality));
  bool audit_present = false;
  JsonValue quality_audit = quality_audit_json(b, audit_present);
  if (audit_present) o.set("quality_audit", std::move(quality_audit));
  JsonValue breakdown = breakdown_json(b);
  if (breakdown.size() > 0) o.set("breakdown", std::move(breakdown));
  bool serving_present = false;
  JsonValue serving = serving_json(b, serving_present);
  if (serving_present) o.set("serving", std::move(serving));
  JsonValue per_request = per_request_json(b);
  if (per_request.size() > 0) o.set("per_request", std::move(per_request));
  JsonValue engine = engine_json(b);
  if (engine.size() > 0) o.set("engine", std::move(engine));
  JsonValue lifecycle = lifecycle_json(b);
  if (lifecycle.size() > 0) o.set("lifecycle", std::move(lifecycle));
  JsonValue kv = kv_json(b);
  if (kv.size() > 0) o.set("kv", std::move(kv));
  JsonValue timelines = timelines_json(b);
  if (timelines.size() > 0) o.set("timelines", std::move(timelines));
  return o;
}

}  // namespace

RunReport collect_run_report(const std::string& bench_name) {
  RunReport report;
  report.meta["created_by"] = bench_name;
  report.meta["git_rev"] = SATTN_GIT_REV;
  report.meta["build_type"] = SATTN_BUILD_TYPE;
  report.meta["compiler"] = SATTN_COMPILER;
  report.meta["cxx_flags"] = SATTN_CXX_FLAGS;
  // The pool size the kernels actually ran with (SATTN_THREADS-aware), not
  // the host's hardware_concurrency — wall-clock numbers are only
  // comparable between reports that used the same worker count. A pool with
  // zero workers runs everything inline on the caller, i.e. one thread.
  report.meta["threads"] = std::to_string(std::max(1u, ThreadPool::global().size()));
  // The SIMD backend the micro-kernels actually dispatched to on this host
  // (docs/PERFORMANCE.md) — wall-clock numbers are only comparable between
  // reports that ran the same backend.
  report.meta["simd"] = simd::active_level_name();
#ifndef _WIN32
  {
    char host[256] = {0};
    if (gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
      report.meta["hostname"] = host;
    }
  }
#endif

  BenchReport bench;
  bench.name = bench_name;
  const obs::Collector& col = obs::Collector::global();
  bench.latency = obs::summarize_spans(col.spans());
  for (const obs::CounterValue& c : col.counters()) bench.counters[c.name] = c.value;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : snap.gauges) bench.gauges[name] = v;
  for (const auto& [name, h] : snap.histograms) bench.histograms[name] = h;
  for (const auto& [name, s] : snap.series) bench.series[name] = s;
  report.benches.push_back(std::move(bench));
  return report;
}

std::string run_report_json(const RunReport& report) {
  JsonValue root = JsonValue::object();
  root.set("schema", kRunReportSchema);
  root.set("version", kRunReportVersion);

  JsonValue meta = JsonValue::object();
  for (const auto& [k, v] : report.meta) meta.set(k, v);
  JsonValue bench_names = JsonValue::array();
  for (const BenchReport& b : report.benches) bench_names.push_back(b.name);
  meta.set("benches", std::move(bench_names));
  root.set("meta", std::move(meta));

  JsonValue benches = JsonValue::array();
  for (const BenchReport& b : report.benches) benches.push_back(bench_json(b));
  root.set("benches", std::move(benches));
  return root.to_string();
}

bool write_run_report(const std::string& path, const RunReport& report) {
  return write_file(path, run_report_json(report));
}

}  // namespace sattn
