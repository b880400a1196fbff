// Statistics helpers of the end-to-end benchmark (sabench).
//
// Everything here is a pure function of its arguments so that
// stats_test.cpp can pin it without threads or clocks:
//
//   * nearest-rank percentiles and the "ten beyond" rule: a timing is
//     reported as its median plus the highest percentile (up to a cap such
//     as p95) that still has at least ten samples strictly beyond its rank;
//   * warm-up exclusion: the first calls of a run pay cold caches and lazy
//     set-up (the first flash_attention call at S=8192 costs about twice the
//     steady state), so they are dropped before any statistic is taken;
//   * open-loop lateness: a request is due at its scheduled instant; the
//     generator may send it late, and its TTFT is counted from the due time,
//     so a stall is charged to every request it delays;
//   * SLO accounting over *submitted* requests: a shed or cancelled request
//     is a miss, never an omission.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace sabench {

// Value at 1-indexed rank ceil(q * n) of an ascending-sorted sample, clamped
// to [1, n]. Always an observed sample. Empty input returns 0. Unlike
// obs::percentile_nearest_rank this tolerates rounding in q * n (0.9 * 10 is
// 9.000000000000002 in doubles), which the ten-beyond rule depends on.
inline double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// A tail percentile chosen by the ten-beyond rule.
struct TailQuantile {
  double value = 0.0;
  double q = 0.0;          // quantile actually reported (<= the cap)
  std::size_t n = 0;       // sample count
  std::size_t beyond = 0;  // samples strictly past the reported rank
};

// Highest quantile q <= q_cap whose nearest rank leaves at least
// `min_beyond` samples after it. With n <= min_beyond no quantile qualifies
// and the median is reported (beyond < min_beyond tells the caller so).
inline TailQuantile tail_quantile(std::span<const double> sorted, double q_cap,
                                  std::size_t min_beyond = 10) {
  TailQuantile t;
  t.n = sorted.size();
  if (t.n == 0) return t;
  const auto n = static_cast<double>(t.n);
  auto rank = static_cast<std::size_t>(std::ceil(q_cap * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, t.n);
  if (t.n - rank < min_beyond) {
    const std::size_t median_rank = (t.n + 1) / 2;
    rank = t.n > min_beyond ? std::max(t.n - min_beyond, median_rank) : median_rank;
  }
  t.q = static_cast<double>(rank) / n;
  t.value = sorted[rank - 1];
  t.beyond = t.n - rank;
  return t;
}

// Median and capped tail of one timing series, after warm-up exclusion.
struct Timing {
  double median = 0.0;
  TailQuantile tail;
  double mean = 0.0;
};

inline Timing summarize(std::vector<double> samples, double q_cap) {
  Timing t;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.median = nearest_rank(samples, 0.5);
  t.tail = tail_quantile(samples, q_cap);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  t.mean = sum / static_cast<double>(samples.size());
  return t;
}

// Drops the first `warmup` entries (in issue order). Asking to drop the
// whole series is a configuration error the caller must see, so it yields
// an empty vector rather than a silently shorter warm-up.
template <class T>
std::vector<T> drop_warmup(const std::vector<T>& in_order, std::size_t warmup) {
  if (warmup >= in_order.size()) return {};
  return std::vector<T>(in_order.begin() + static_cast<std::ptrdiff_t>(warmup), in_order.end());
}

// Open-loop lateness of one send: how far past its due instant the
// generator actually issued it (clock jitter can put a send a hair early;
// that is not negative lateness).
inline double lateness(double due_s, double sent_s) { return std::max(0.0, sent_s - due_s); }

// TTFT counted from the due instant. The engine stamps arrival at submit(),
// so its ttft() starts at the send; adding the lateness moves the origin back
// to when the user wanted the request served.
inline double ttft_from_due(double ttft_from_send_s, double late_s) {
  return ttft_from_send_s + late_s;
}

struct SloLimits {
  double ttft_s = 0.0;
  double tpot_s = 0.0;
};

// One completed request as SLO accounting sees it.
struct Served {
  double ttft_s = 0.0;  // from the due instant
  double tpot_s = 0.0;
};

// Share of submitted requests that completed within both limits. Requests
// that were submitted but never completed (shed, cancelled) are absent from
// `completed` and count as misses through the denominator.
inline double slo_frac(std::span<const Served> completed, std::size_t submitted,
                       const SloLimits& limits) {
  if (submitted == 0) return 0.0;
  std::size_t met = 0;
  for (const Served& s : completed) {
    if (s.ttft_s <= limits.ttft_s && s.tpot_s <= limits.tpot_s) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(submitted);
}

// |parts - whole| / whole: how far a set of separately measured parts is
// from the whole they should add up to.
inline double parts_gap(double parts, double whole) {
  return whole > 0.0 ? std::abs(parts - whole) / whole : (parts == 0.0 ? 0.0 : 1.0);
}

}  // namespace sabench
