// Tests of the benchmark's own statistics helpers (stats.h). Plain checks,
// no framework: run.py runs this binary before every benchmark run and
// refuses to report when it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void nearest_rank_picks_observed_samples() {
  const std::vector<double> v = one_to(10);
  CHECK(sabench::nearest_rank(v, 0.5) == 5.0);
  CHECK(sabench::nearest_rank(v, 0.9) == 9.0);  // rank ceil(9.0) despite rounding
  CHECK(sabench::nearest_rank(v, 0.91) == 10.0);
  CHECK(sabench::nearest_rank(v, 0.0) == 1.0);
  CHECK(sabench::nearest_rank(v, 1.0) == 10.0);
  CHECK(sabench::nearest_rank(std::vector<double>{}, 0.5) == 0.0);
  CHECK(sabench::nearest_rank(std::vector<double>{7.0}, 0.99) == 7.0);
}

void tail_keeps_ten_samples_beyond() {
  // 200 samples: p95 is rank 190 with exactly 10 beyond — allowed.
  const std::vector<double> v200 = one_to(200);
  const sabench::TailQuantile t = sabench::tail_quantile(v200, 0.95);
  CHECK(t.value == 190.0 && t.beyond == 10 && t.n == 200);
  CHECK(std::abs(t.q - 0.95) < 1e-12);

  // 150 samples: p95 (rank 143) leaves 7 beyond; the rule falls back to
  // rank 140, the highest with ten beyond.
  const std::vector<double> v150 = one_to(150);
  const sabench::TailQuantile f = sabench::tail_quantile(v150, 0.95);
  CHECK(f.value == 140.0 && f.beyond == 10);
  CHECK(f.q < 0.95);

  // Too few samples for any tail: the median, flagged by beyond < 10.
  const std::vector<double> v12 = one_to(12);
  const sabench::TailQuantile m = sabench::tail_quantile(v12, 0.95);
  CHECK(m.value == 6.0 && m.beyond < 10);

  // p90 of 100 samples: rank 90, 10 beyond.
  const sabench::TailQuantile p90 = sabench::tail_quantile(one_to(100), 0.90);
  CHECK(p90.value == 90.0 && p90.beyond == 10);
}

void summarize_sorts_and_averages() {
  const sabench::Timing t = sabench::summarize({3.0, 1.0, 2.0}, 0.95);
  CHECK(t.median == 2.0 && t.mean == 2.0 && t.tail.n == 3);
}

void slo_counts_shed_and_cancelled_as_misses() {
  const sabench::SloLimits lim{1.0, 0.01};
  // Ten submitted; six completed, of which one misses TTFT and one TPOT.
  // The four that were shed or cancelled never completed.
  const std::vector<sabench::Served> done = {
      {0.5, 0.001}, {0.9, 0.002}, {1.0, 0.01}, {0.2, 0.003}, {1.5, 0.001}, {0.3, 0.05},
  };
  CHECK(std::abs(sabench::slo_frac(done, 10, lim) - 0.4) < 1e-12);
  // Without the failures every completed request is its own denominator.
  CHECK(std::abs(sabench::slo_frac(done, done.size(), lim) - 4.0 / 6.0) < 1e-12);
  CHECK(sabench::slo_frac({}, 0, lim) == 0.0);
  CHECK(sabench::slo_frac({}, 5, lim) == 0.0);  // all shed: nothing met
}

void lateness_moves_ttft_origin_to_due() {
  // Due every 100 ms; the generator stalls 400 ms before the second send, so
  // the second and third go out late and the fourth is back on time.
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.6};
  const std::vector<double> sent = {0.0, 0.5, 0.5, 0.6};
  const std::vector<double> want = {0.0, 0.4, 0.3, 0.0};
  for (std::size_t i = 0; i < due.size(); ++i) {
    CHECK(std::abs(sabench::lateness(due[i], sent[i]) - want[i]) < 1e-12);
  }
  CHECK(sabench::lateness(1.0, 0.9999) == 0.0);  // early by jitter is not negative
  // The engine saw 0.2 s from send to first token; from due it is 0.6 s.
  CHECK(std::abs(sabench::ttft_from_due(0.2, sabench::lateness(0.1, 0.5)) - 0.6) < 1e-12);
}

void warmup_is_excluded_in_issue_order() {
  // The first call is cold (twice the steady state) and must not reach the
  // median or the tail.
  const std::vector<double> calls = {2.0, 1.0, 1.01, 0.99, 1.0};
  const std::vector<double> steady = sabench::drop_warmup(calls, 1);
  CHECK(steady.size() == 4 && steady.front() == 1.0);
  CHECK(sabench::summarize(steady, 0.95).tail.value < 2.0);
  CHECK(sabench::drop_warmup(calls, 5).empty());
  CHECK(sabench::drop_warmup(calls, 9).empty());
  CHECK(sabench::drop_warmup(calls, 0).size() == calls.size());
}

void parts_gap_is_relative() {
  CHECK(std::abs(sabench::parts_gap(9.0, 10.0) - 0.1) < 1e-12);
  CHECK(sabench::parts_gap(0.0, 0.0) == 0.0);
  CHECK(sabench::parts_gap(1.0, 0.0) == 1.0);
}

}  // namespace

int main() {
  nearest_rank_picks_observed_samples();
  tail_keeps_ten_samples_beyond();
  summarize_sorts_and_averages();
  slo_counts_shed_and_cancelled_as_misses();
  lateness_moves_ttft_origin_to_due();
  warmup_is_excluded_in_issue_order();
  parts_gap_is_relative();
  if (failures > 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
