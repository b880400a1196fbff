// Shared plumbing of the end-to-end benchmark: run arguments, the metric
// record every workload fills, and small timing utilities.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_probe.h"
#include "stats.h"

namespace sabench {

// The process's host-speed probe. Workloads sample it only while the
// library is idle: between measured calls, never inside them and never
// beside a running engine, whose threads would slow the probe down.
HostProbe& host_probe();

// `served` at the reference host speed, as the reported timings are, so that
// slo_frac's fixed limits do not move with the host's speed. Call after the
// run's last probe sample.
std::vector<Served> served_at_reference_speed(std::vector<Served> served);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run reports. `notes` are human-readable lines printed above the
// final JSON object (sample counts, the percentile each tail really is,
// which check failed).
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed output check: the run is incorrect and says why.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void note(const std::string& line) { notes.push_back(line); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of a handful of repeated set-up timings.
inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 0.5);
}

// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

// Records t's median and tail (times `scale`) under the two names, and a note
// stating the sample count and the percentile the tail really is.
void record_timing(RunResult& r, const std::string& p50_name, const std::string& tail_name,
                   const Timing& t, double scale, const std::string& unit);

// Workloads (prefill_long.cpp, serve.cpp).
RunResult run_prefill_long(const RunArgs& args);
RunResult run_serve_prefix(const RunArgs& args);

}  // namespace sabench
