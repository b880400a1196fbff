// sabench: the repository's end-to-end benchmark.
//
//   sabench --workload <prefill_long|serve_prefix> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Normally launched through run.py, which builds this binary from source
// first. Prints a config record, human-readable notes, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones from a
// separate traced run. Exits 1 when any output check failed, 2 on bad
// arguments, 3 when the build is not an optimized, sanitizer-free Release
// build (such numbers are refused rather than reported).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "io/run_report.h"
#include "obs/trace.h"
#include "sabench.h"

namespace sabench {

HostProbe& host_probe() {
  static HostProbe probe;
  return probe;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

void record_timing(RunResult& r, const std::string& p50_name, const std::string& tail_name,
                   const Timing& t, double scale, const std::string& unit) {
  r.set(p50_name, t.median * scale, unit);
  r.set(tail_name, t.tail.value * scale, unit);
  char line[200];
  std::snprintf(line, sizeof(line), "%s: n=%zu; reported tail is p%.1f with %zu samples beyond",
                tail_name.c_str(), t.tail.n, t.tail.q * 100.0, t.tail.beyond);
  r.note(line);
}

std::vector<Served> served_at_reference_speed(std::vector<Served> served) {
  const double slowdown = host_probe().slowdown();
  for (Served& s : served) {
    s.ttft_s /= slowdown;
    s.tpot_s /= slowdown;
  }
  return served;
}

namespace {

const char* const kEndToEnd[] = {
    "setup_s",       "peak_rss_mb", "prefill_tok_s", "prefill_head_p50_ms", "prefill_head_p90_ms",
    "cra_min",       "out_err_max", "ttft_p50_ms",   "ttft_p95_ms",         "tpot_p50_ms",
    "tpot_p95_ms",   "slo_frac",
};

// Per-layer metrics, with the unit used when a workload does not exercise
// the layer (see idle_layer) and the metric reads 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"sattn.plan_ms", "ms"},          {"sattn.stage1_ms", "ms"},
    {"sattn.stage2_ms", "ms"},        {"sattn.merge_ms", "ms"},
    {"sattn.density_ms", "ms"},       {"sattn.density", "frac"},
    {"sattn.overhead_frac", "frac"},  {"sattn.plan_share", "frac"},
    {"attn.sparse_ms", "ms"},         {"attn.sparse_evals", "count"},
    {"attn.sparse_gevals_s", "Geval/s"}, {"attn.flash_ms", "ms"},
    {"attn.speedup_vs_flash", "x"},   {"engine.queue_ms_p50", "ms"},
    {"engine.queue_ms_p95", "ms"},    {"engine.compute_ms_mean", "ms"},
    {"engine.guard_ms_mean", "ms"},   {"engine.ttft_residual_max_s", "s"},
    {"engine.iterations", "count"},   {"engine.peak_live", "count"},
    {"engine.plan_rejects", "count"}, {"engine.dense_fallbacks", "count"},
    {"batch.sweep_ms_p50", "ms"},     {"batch.seqs_per_sweep", "count"},
    {"batch.prefill_chunk_ms_p50", "ms"}, {"batch.decode_step_us_p50", "us"},
    {"kv.prefix_hit_frac", "frac"},   {"kv.hit_token_frac", "frac"},
    {"kv.pages_peak", "count"},       {"kv.pages_published", "count"},
    {"kv.prefix_entries", "count"},   {"kv.peak_kv_bytes", "bytes"},
    {"gen.offered_rps", "1/s"},       {"gen.late_p99_ms", "ms"},
    {"gen.late_max_ms", "ms"},        {"fail_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

// Whether `workload` leaves the layer of per-layer metric `name` idle. Only
// such metrics read 0 when a traced run does not set them; any other metric
// missing from a traced run fails it, so a renamed or vanished span or
// counter cannot pass as a zero.
bool idle_layer(const std::string& workload, const std::string& name) {
  static const std::map<std::string, std::vector<std::string>> kIdle = {
      // Offline prefill: no engine, batch sweep, KV arena or generator.
      {"prefill_long", {"engine.", "batch.", "kv.", "gen.", "fail_frac"}},
      // kDense serving: the planner and the sparse kernel never run, so the
      // engine has no plans to reject or to replace by dense fallbacks.
      {"serve_prefix",
       {"sattn.", "attn.sparse_", "attn.speedup_vs_flash", "engine.plan_rejects",
        "engine.dense_fallbacks"}},
  };
  for (const std::string& prefix : kIdle.at(workload)) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

bool parse_args(int argc, char** argv, RunArgs& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  if (argc % 2 != 1 || !have_workload || !(a.seconds > 0.0)) return false;
  return a.workload == "prefill_long" || a.workload == "serve_prefix";
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// The run's configuration: what the numbers were measured on. Returns false
// when the build must not report numbers.
bool print_config(const RunArgs& args) {
  const sattn::RunReport rep = sattn::collect_run_report("sabench");
  const auto meta = [&](const char* k) {
    const auto it = rep.meta.find(k);
    return it == rep.meta.end() ? std::string("unknown") : it->second;
  };
  const auto env = [](const char* k) {
    const char* v = std::getenv(k);
    return json_escape(v != nullptr ? v : "");
  };
  const std::string build_type = meta("build_type");
  const std::string flags = meta("cxx_flags");
  std::printf(
      "config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"simd\": \"%s\", "
      "\"pool_threads\": %s, \"SATTN_THREADS\": \"%s\", \"nproc\": %u, \"git_rev\": \"%s\", "
      "\"source_rev\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, json_escape(build_type).c_str(), json_escape(meta("compiler")).c_str(),
      json_escape(flags).c_str(), json_escape(meta("simd")).c_str(), meta("threads").c_str(),
      env("SATTN_THREADS").c_str(), std::thread::hardware_concurrency(),
      json_escape(meta("git_rev")).c_str(), env("SABENCH_SOURCE_REV").c_str());
  if (build_type != "Release") {
    std::fprintf(stderr, "sabench: refusing to report from a '%s' build; build Release\n",
                 build_type.c_str());
    return false;
  }
  if (sanitized_build() || flags.find("-fsanitize") != std::string::npos) {
    std::fprintf(stderr, "sabench: refusing to report from a sanitizer build\n");
    return false;
  }
  return true;
}

void print_result(RunResult& r, const RunArgs& args) {
  std::set<std::string> wanted;
  if (!args.trace) {
    for (const char* name : kEndToEnd) wanted.insert(name);
  } else {
    for (const auto& [name, unit] : kPerLayer) {
      wanted.insert(name);
      if (!r.metrics.count(name) && idle_layer(args.workload, name)) r.set(name, 0.0, unit);
    }
  }
  for (const std::string& name : wanted) {
    const auto it = r.metrics.find(name);
    if (it == r.metrics.end()) {
      if (r.correct) r.fail_check("metric " + name + " was not measured");
      r.set(name, 0.0, "");
    } else if (!std::isfinite(it->second.value)) {
      r.fail_check("metric " + name + " is not finite");
      it->second.value = 0.0;
    }
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : wanted) {
    const Metric& m = r.metrics.at(name);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Reports the end-to-end timings at the reference host speed (host_probe.h)
// and notes the raw figures beside them.
void at_reference_speed(RunResult& r) {
  const double slowdown = host_probe().slowdown();
  std::string raw = "raw, at measured host speed:";
  for (auto& [name, m] : r.metrics) {
    const bool time = m.unit == "ms" || m.unit == "s";
    if (!time && m.unit != "tok/s") continue;
    raw += " " + name + "=" + std::to_string(m.value);
    m.value = time ? m.value / slowdown : m.value * slowdown;
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "host slowdown %.4f (median of %zu probes over %.3g ms); timings are divided by it",
                slowdown, host_probe().samples(), HostProbe::kReferenceSeconds * 1e3);
  r.note(line);
  r.note(raw);
}

}  // namespace
}  // namespace sabench

int main(int argc, char** argv) {
  sabench::RunArgs args;
  if (!sabench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <prefill_long|serve_prefix> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  // End-to-end numbers are measured with tracing off; only the traced
  // phase of a --trace 1 run turns it on.
  sattn::obs::set_enabled(false);
  if (!sabench::print_config(args)) return 3;
  sabench::RunResult r = args.workload == "prefill_long" ? sabench::run_prefill_long(args)
                                                          : sabench::run_serve_prefix(args);
  if (!args.trace) sabench::at_reference_speed(r);
  sabench::print_result(r, args);
  return r.correct ? 0 : 1;
}
