// engine_top: terminal dashboard for the serving engine's live telemetry
// stream (docs/OBSERVABILITY.md, "Live telemetry & alerts").
//
// Tails the NDJSON file written by a running engine (--telemetry-out on
// bench_serving --engine, or EngineOptions::telemetry.ndjson_path) and
// renders one frame per tick: throughput rates, rolling TTFT/TPOT
// percentiles, KV bytes against the budget, breaker/watchdog state, and the
// active quality-drift alerts.
//
//   engine_top --input=telemetry.ndjson             # live, refresh loop
//   engine_top --input=telemetry.ndjson --once      # one frame, for CI/pipes
//   engine_top --selftest [--keep]                  # in-process engine run
//
// --selftest spins a small sample-mode engine with every plan corrupted
// (forced dense fallbacks) and low drift thresholds, streams telemetry to a
// scratch file, renders it through the same --once path, and exits non-zero
// unless the frame shows rolling percentiles and an active alert; then it
// renders malformed lines (negative, 1e300 and wrong-type fields), each of
// which must still produce a frame. This is the ctest smoke test: it proves
// the whole plane end to end — engine -> rings -> publisher -> NDJSON ->
// dashboard.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "robust/fault_injection.h"
#include "runtime/engine.h"

namespace {

using sattn::JsonValue;

std::string read_last_line(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  return last;
}

// Telemetry fields are parsed doubles, and a malformed line can carry any
// value there (a negative count, 1e300) or none (a string where a number
// belongs reads as 0). A double-to-integer cast out of the target's range is
// undefined behaviour, so every integer the frame shows goes through here:
// clamped to T's range, NaN read as 0.
template <typename T>
T clamp_to(double x) {
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::lowest());
  constexpr double hi = static_cast<double>(std::numeric_limits<T>::max());
  if (std::isnan(x)) return T{0};
  if (x <= lo) return std::numeric_limits<T>::lowest();
  if (x >= hi) return std::numeric_limits<T>::max();
  return static_cast<T>(x);
}

// An integer field of a telemetry object, clamped.
template <typename T = long long>
T int_field(const JsonValue& o, const char* key) {
  return clamp_to<T>(o.get(key).as_number());
}

std::string fmt_seconds(double s) {
  char buf[48];
  if (s < 0.0) s = 0.0;
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

std::string fmt_bytes(double b) {
  char buf[48];
  if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", b);
  }
  return buf;
}

const char* breaker_name(int state) {
  switch (state) {
    case 1: return "OPEN";
    case 2: return "half-open";
    default: return "closed";
  }
}

void render_rolling(std::ostringstream& out, const char* name, const JsonValue& h,
                    double window_s) {
  const auto n = int_field<std::size_t>(h, "count");
  out << "  " << name;
  if (n == 0) {
    out << "   (no samples in window)\n";
    return;
  }
  out << "   n=" << n << "  p50=" << fmt_seconds(h.get("p50").as_number())
      << "  p95=" << fmt_seconds(h.get("p95").as_number())
      << "  p99=" << fmt_seconds(h.get("p99").as_number())
      << "  mean=" << fmt_seconds(h.get("mean").as_number()) << "  (last "
      << window_s << "s)\n";
}

// One dashboard frame from a parsed telemetry line. Pure string-building so
// the selftest can assert on the exact frame the user would see.
std::string render_frame(const JsonValue& o) {
  std::ostringstream out;
  const JsonValue& eng = o.get("engine");
  const JsonValue& totals = o.get("totals");
  const JsonValue& rates = o.get("rates");
  const JsonValue& rolling = o.get("rolling");
  const JsonValue& alerts = o.get("alerts");

  out << "engine_top — label=" << o.get("label").as_string()
      << "  seq=" << int_field(o, "seq")
      << "  t=" << fmt_seconds(o.get("t").as_number()) << "\n";
  out << "  engine live=" << int_field(eng, "live")
      << " active=" << int_field(eng, "active")
      << "  breaker=" << breaker_name(int_field<int>(eng, "breaker_state"))
      << "  heartbeat_age=" << fmt_seconds(eng.get("heartbeat_age_s").as_number())
      << "  watchdog_stalls=" << int_field(eng, "watchdog_stalls")
      << "\n";

  const double kv = eng.get("kv_bytes").as_number();
  const double budget = eng.get("kv_budget_bytes").as_number();
  out << "  kv     " << fmt_bytes(kv);
  if (budget > 0.0) {
    const double frac = kv / budget;
    out << " / " << fmt_bytes(budget) << " (" << clamp_to<long long>(frac * 100.0) << "%)  [";
    const int width = 24;
    const int fill = std::clamp(clamp_to<int>(frac * width), 0, width);
    for (int i = 0; i < width; ++i) out << (i < fill ? '=' : '.');
    out << "]";
  } else {
    out << " (no budget)";
  }
  out << "\n";

  char rate_buf[160];
  std::snprintf(rate_buf, sizeof(rate_buf),
                "  rates  submit=%.1f/s complete=%.1f/s decode=%.0f tok/s shed=%.1f/s\n",
                rates.get("submit_per_s").as_number(), rates.get("complete_per_s").as_number(),
                rates.get("decode_tokens_per_s").as_number(), rates.get("shed_per_s").as_number());
  out << rate_buf;

  const double window_s = rolling.get("window_s").as_number();
  render_rolling(out, "ttft", rolling.get("ttft_s"), window_s);
  render_rolling(out, "tpot", rolling.get("tpot_s"), window_s);
  const JsonValue& retained = rolling.get("retained_kv_frac");
  if (retained.get("count").as_number() > 0.0) {
    char ret_buf[96];
    std::snprintf(ret_buf, sizeof(ret_buf), "  retained_kv mean=%.3f min=%.3f (plans in window)\n",
                  retained.get("mean").as_number(), retained.get("min").as_number());
    out << ret_buf;
  }
  // Shadow-audit scorecard panel: measured chunk CRA from the online
  // quality auditor (obs/audit.h). Presence-guarded so streams from
  // audit-disabled engines render unchanged.
  const JsonValue& audit = rolling.get("audit_cra");
  if (audit.get("count").as_number() > 0.0) {
    char audit_buf[160];
    std::snprintf(audit_buf, sizeof(audit_buf),
                  "  audit_cra mean=%.3f min=%.3f p50=%.3f  audited chunks=%lld rows=%lld\n",
                  audit.get("mean").as_number(), audit.get("min").as_number(),
                  audit.get("p50").as_number(),
                  int_field(totals, "audited_chunks"),
                  int_field(totals, "audited_rows"));
    out << audit_buf;
  }

  out << "  totals submitted=" << int_field(totals, "submitted")
      << " admitted=" << int_field(totals, "admitted")
      << " completed=" << int_field(totals, "completed")
      << " shed=" << int_field(totals, "shed")
      << " cancelled=" << int_field(totals, "cancelled") << "\n";
  out << "         prefill_chunks=" << int_field(totals, "prefill_chunks")
      << " decode_steps=" << int_field(totals, "decode_steps")
      << " plans=" << int_field(totals, "plans")
      << " escalations=" << int_field(totals, "escalations")
      << " dense_fallbacks=" << int_field(totals, "dense_fallbacks")
      << "\n";

  if (alerts.is_array() && alerts.size() > 0) {
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      const JsonValue& a = alerts.at(i);
      char alert_buf[192];
      std::snprintf(alert_buf, sizeof(alert_buf),
                    "  ALERT  %s value=%.3f threshold=%.3f since=t+%.2fs\n",
                    a.get("name").as_string().c_str(), a.get("value").as_number(),
                    a.get("threshold").as_number(), a.get("since_s").as_number());
      out << alert_buf;
    }
  } else {
    out << "  alerts (none active)\n";
  }

  const long long dropped = int_field(o, "events_dropped");
  if (dropped > 0) out << "  events_dropped=" << dropped << "\n";
  return out.str();
}

// Returns 0 on success; 2 on unreadable/unparseable input.
int show_once(const std::string& path, std::string* frame_out = nullptr) {
  const std::string line = read_last_line(path);
  if (line.empty()) {
    std::fprintf(stderr, "engine_top: no telemetry lines in %s\n", path.c_str());
    return 2;
  }
  const auto parsed = sattn::parse_json(line);
  if (!parsed.ok()) {
    std::fprintf(stderr, "engine_top: bad telemetry line: %s\n",
                 parsed.status().message().c_str());
    return 2;
  }
  const std::string frame = render_frame(parsed.value());
  std::fputs(frame.c_str(), stdout);
  if (frame_out != nullptr) *frame_out = frame;
  return 0;
}

int watch(const std::string& path, double interval_s) {
  for (;;) {
    const std::string line = read_last_line(path);
    std::fputs("\x1b[2J\x1b[H", stdout);  // clear + home
    if (line.empty()) {
      std::printf("engine_top: waiting for telemetry in %s ...\n", path.c_str());
    } else {
      const auto parsed = sattn::parse_json(line);
      if (parsed.ok()) {
        std::fputs(render_frame(parsed.value()).c_str(), stdout);
      } else {
        std::printf("engine_top: unparseable line (mid-write?), retrying\n");
      }
    }
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}

// In-process end-to-end check, three scenarios:
//
//   1. Every plan corrupted so the ladder falls back to dense; drift
//      thresholds low enough that the dense-fallback alert must fire.
//      Verifies the frame carries rolling percentiles and the alert.
//   2. Quietly degraded masks: a plan hook shrinks each accepted plan's
//      window to a single diagonal while the Stage-1 bookkeeping still
//      claims full coverage — validation passes, no fallback, no planner-
//      side signal at all. Only the shadow auditor's *measured* CRA can see
//      it; verifies the audit panel renders and measured_cra_low fires.
//   3. Malformed telemetry lines (negative, 1e300 and wrong-type fields)
//      each still render a frame.
int selftest(bool keep_file) {
  using namespace sattn;
  const std::string path = "engine_top_selftest.ndjson";

  EngineOptions opts;
  opts.mode = EngineMode::kSampleAttention;
  opts.head_dim = 32;
  opts.chunk_tokens = 128;
  opts.max_batch = 4;
  opts.decode_tokens = 4;
  opts.run_label = "selftest";
  auto injector = std::make_shared<FaultInjector>(
      FaultSpec{FaultClass::kPlanEmptyStripes, 1.0, 0x9ull, /*max_fires=*/-1});
  opts.guard.plan_hook = [injector](SamplePlan& plan) { injector->corrupt_plan(plan); };
  opts.telemetry.enabled = true;
  opts.telemetry.ndjson_path = path;
  opts.telemetry.interval_seconds = 0.005;
  opts.telemetry.drift.min_samples = 2;
  opts.telemetry.drift.window_seconds = 30.0;  // short run: keep every plan in window
  opts.telemetry.drift.max_dense_fallback_rate = 0.5;

  std::vector<ServingRequest> trace;
  for (int i = 0; i < 8; ++i) {
    trace.push_back({"req" + std::to_string(i), 512, 0.0});
  }
  ServingEngine engine(opts);
  const EngineResult res = engine.run_trace(trace);
  if (res.completed.size() != trace.size()) {
    std::fprintf(stderr, "selftest: expected %zu completions, got %zu\n", trace.size(),
                 res.completed.size());
    return 1;
  }

  std::string frame;
  const int rc = show_once(path, &frame);
  if (rc != 0) return rc;

  int failures = 0;
  const auto expect = [&](const char* needle) {
    if (frame.find(needle) == std::string::npos) {
      std::fprintf(stderr, "selftest: frame is missing \"%s\"\n", needle);
      ++failures;
    }
  };
  expect("p99=");                        // rolling percentiles rendered
  expect("ttft");
  expect("tpot");
  expect("ALERT  dense_fallback_rate_high");  // drift monitor fired
  expect("dense_fallbacks=");
  if (!keep_file) std::remove(path.c_str());

  // Scenario 2: measured-quality drift. The hook leaves every plan valid on
  // paper (coverage bookkeeping untouched, window >= 1, density > 0) but
  // strips the executed mask's local window down to the bare diagonal, so
  // the deployed mask silently loses the retained mass the window carried.
  const std::string audit_path = "engine_top_selftest_audit.ndjson";
  EngineOptions aopts;
  aopts.mode = EngineMode::kSampleAttention;
  aopts.head_dim = 32;
  aopts.chunk_tokens = 128;
  aopts.max_batch = 4;
  aopts.decode_tokens = 4;
  aopts.run_label = "selftest_audit";
  aopts.guard.plan_hook = [](SamplePlan& plan) { plan.mask.set_window(1); };
  aopts.audit.enabled = true;
  aopts.audit.sample_rate = 1.0;  // audit every row: the drift must be seen
  aopts.audit.row_budget = 8;
  aopts.telemetry.enabled = true;
  aopts.telemetry.ndjson_path = audit_path;
  aopts.telemetry.interval_seconds = 0.005;
  aopts.telemetry.drift.min_samples = 2;
  aopts.telemetry.drift.window_seconds = 30.0;
  aopts.telemetry.drift.min_measured_cra = 0.90;

  std::vector<ServingRequest> audit_trace;
  for (int i = 0; i < 8; ++i) {
    audit_trace.push_back({"aud" + std::to_string(i), 512, 0.0});
  }
  ServingEngine audit_engine(aopts);
  const EngineResult audit_res = audit_engine.run_trace(audit_trace);
  if (audit_res.completed.size() != audit_trace.size()) {
    std::fprintf(stderr, "selftest: audit scenario expected %zu completions, got %zu\n",
                 audit_trace.size(), audit_res.completed.size());
    return 1;
  }

  std::string audit_frame;
  const int audit_rc = show_once(audit_path, &audit_frame);
  if (audit_rc != 0) return audit_rc;
  const auto expect_audit = [&](const char* needle) {
    if (audit_frame.find(needle) == std::string::npos) {
      std::fprintf(stderr, "selftest: audit frame is missing \"%s\"\n", needle);
      ++failures;
    }
  };
  expect_audit("audit_cra mean=");           // scorecard panel rendered
  expect_audit("audited chunks=");
  expect_audit("ALERT  measured_cra_low");   // measured-quality drift fired
  if (!keep_file) std::remove(audit_path.c_str());

  // Scenario 3: malformed lines. Negative, huge (1e300) and wrong-type
  // fields must each still render a frame — every integer they feed is
  // clamped, never cast out of range.
  const char* const malformed[] = {
      R"({"label":"neg","seq":-1,"t":-2,"engine":{"live":-3,"active":-1,"breaker_state":-7,)"
      R"("watchdog_stalls":-1,"kv_bytes":-5,"kv_budget_bytes":1},"totals":{"submitted":-1,)"
      R"("audited_chunks":-1},"rolling":{"ttft_s":{"count":-1},"audit_cra":{"count":1}},)"
      R"("events_dropped":-9})",
      R"({"label":"huge","seq":1e300,"engine":{"live":1e300,"breaker_state":1e300,)"
      R"("watchdog_stalls":-1e300,"kv_bytes":1e300,"kv_budget_bytes":1e-300},)"
      R"("totals":{"completed":1e300,"audited_rows":1e300},"rolling":{"ttft_s":)"
      R"({"count":1e300,"p50":1e300},"audit_cra":{"count":1e300}},"events_dropped":1e300})",
      R"({"label":7,"seq":"x","t":[1],"engine":"oops","totals":[1,2],)"
      R"("rolling":{"ttft_s":{"count":"many"},"tpot_s":[]},"alerts":{"a":1}})",
  };
  for (const char* line : malformed) {
    const auto parsed = parse_json(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "selftest: malformed fixture does not parse: %s\n", line);
      ++failures;
      continue;
    }
    const std::string bad_frame = render_frame(parsed.value());
    if (bad_frame.rfind("engine_top", 0) != 0 || bad_frame.find("totals") == std::string::npos) {
      std::fprintf(stderr, "selftest: malformed line did not render: %s\n", line);
      ++failures;
    }
  }

  if (failures == 0) std::printf("selftest: OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  double interval_s = 0.5;
  bool once = false;
  bool run_selftest = false;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--input=", 0) == 0) {
      input = arg.substr(8);
    } else if (arg.rfind("--interval=", 0) == 0) {
      interval_s = std::atof(arg.c_str() + 11);
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--selftest") {
      run_selftest = true;
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: engine_top --input=PATH [--once] [--interval=S]\n"
          "       engine_top --selftest [--keep]\n"
          "Tails the NDJSON telemetry stream from a serving-engine run\n"
          "(bench_serving --engine --telemetry-out=PATH) and renders a\n"
          "dashboard frame per tick. --once prints one frame and exits.\n");
      return 0;
    } else {
      std::fprintf(stderr, "engine_top: unknown flag %s (try --help)\n", arg.c_str());
      return 2;
    }
  }

  if (run_selftest) return selftest(keep);
  if (input.empty()) {
    std::fprintf(stderr, "engine_top: --input=PATH or --selftest required (try --help)\n");
    return 2;
  }
  if (once) return show_once(input);
  return watch(input, interval_s);
}
