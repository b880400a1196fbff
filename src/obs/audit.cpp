#include "obs/audit.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "attention/attention_method.h"
#include "attention/score_utils.h"
#include "metrics/cra.h"
#include "obs/accounting.h"
#include "obs/metrics.h"

namespace sattn::obs {

namespace {

// FNV-1a-style mix of (seed, request id, absolute row). The same shape as
// the engine's request-content seeding, so audited sets depend only on
// request identity — never on batch interleaving, retries, or wall time.
std::uint64_t mix_audit(std::uint64_t seed, std::string_view id, Index abs_row) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (const char ch : id) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001b3ull;
  }
  std::uint64_t r = static_cast<std::uint64_t>(abs_row);
  for (int i = 0; i < 8; ++i) {
    h ^= r & 0xffull;
    h *= 0x100000001b3ull;
    r >>= 8;
  }
  return h;
}

// Top 53 bits as a uniform double in [0, 1).
double unit_hash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

QualityAuditor::QualityAuditor(const AuditOptions& opts) : opts_(opts) {
  opts_.sample_rate = std::clamp(opts_.sample_rate, 0.0, 1.0);
}

bool QualityAuditor::selects_row(std::string_view request_id, Index abs_row) const {
  if (opts_.sample_rate <= 0.0) return false;
  if (opts_.sample_rate >= 1.0) return true;
  return unit_hash(mix_audit(opts_.seed, request_id, abs_row)) < opts_.sample_rate;
}

AuditResult QualityAuditor::audit_chunk(std::string_view request_id, const float* q, Index sq,
                                        const mk::KvView& kv, Index sk,
                                        const StructuredMask& mask, Index q_lo, long long layer,
                                        long long head, double predicted) {
  AuditResult res;
  if (opts_.sample_rate <= 0.0 || sq <= 0) return res;

  // Threshold-hash selection over the chunk's rows. The budget keeps the
  // lowest-hash rows, which preserves nesting across sample rates: the
  // budgeted set at rate r1 is always a subset of the budgeted set at any
  // r2 > r1, so the min-estimate stays monotone in the rate.
  std::vector<std::pair<double, Index>> picked;  // (hash, chunk-local row)
  for (Index i = 0; i < sq; ++i) {
    const double u = unit_hash(mix_audit(opts_.seed, request_id, q_lo + i));
    if (u < opts_.sample_rate) picked.emplace_back(u, i);
  }
  if (picked.empty()) return res;
  if (opts_.row_budget > 0 && static_cast<Index>(picked.size()) > opts_.row_budget) {
    std::nth_element(picked.begin(), picked.begin() + (opts_.row_budget - 1), picked.end());
    picked.resize(static_cast<std::size_t>(opts_.row_budget));
  }
  std::vector<Index> rows;
  rows.reserve(picked.size());
  for (const auto& [u, i] : picked) rows.push_back(i);
  std::sort(rows.begin(), rows.end());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> mass;
  mass.reserve(rows.size());
  double evals = 0.0;
  for_each_score_row(q, sq, kv, sk, rows, [&](Index i, std::span<const float> p) {
    mass.push_back(row_retained_mass(p, mask, i));
    evals += static_cast<double>(causal_limit(i, sq, sk) + 1);
  });
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Ground truth is one dense score row per audited row: bill it like the
  // dense kernels so acct.audit.* carries the measured audit cost.
  charge_attention_kernel("audit", static_cast<long long>(rows.size()), sk, kv.d, evals);

  res.rows = static_cast<Index>(mass.size());
  res.cra_min = 1.0;
  double sum = 0.0;
  for (const double m : mass) {
    res.cra_min = std::min(res.cra_min, m);
    sum += m;
  }
  res.cra_mean = mass.empty() ? 1.0 : sum / static_cast<double>(mass.size());

  std::lock_guard<std::mutex> lock(mu_);
  accumulate_locked(layer, head, mass, predicted, res.seconds);
  return res;
}

void QualityAuditor::record_decode(long long layer, long long head, double retained,
                                   double predicted, double seconds) {
  const double mass[1] = {retained};
  std::lock_guard<std::mutex> lock(mu_);
  accumulate_locked(layer, head, mass, predicted, seconds);
}

void QualityAuditor::accumulate_locked(long long layer, long long head,
                                       std::span<const double> row_mass, double predicted,
                                       double seconds) {
  if (row_mass.empty()) return;
  HeadAgg& agg = heads_[{layer, head}];
  for (const double m : row_mass) {
    // Bounded raw samples: on overflow decimate by stride doubling (keep
    // every other sample), as the Series sketch does, so long runs keep a
    // representative spread instead of only their head.
    if (agg.samples.size() >= kMaxHeadSamples) {
      std::vector<double> kept;
      kept.reserve(agg.samples.size() / 2 + 1);
      for (std::size_t s = 0; s < agg.samples.size(); s += 2) kept.push_back(agg.samples[s]);
      agg.samples = std::move(kept);
    }
    agg.samples.push_back(m);
    agg.min = std::min(agg.min, m);
    agg.sum += m;
    ++agg.n;
    totals_.cra_min = std::min(totals_.cra_min, m);
  }
  agg.predicted_sum += predicted;
  ++agg.predicted_n;
  totals_.rows += row_mass.size();
  ++totals_.chunks;
  totals_.overhead_seconds += seconds;
}

std::vector<AuditHeadStats> QualityAuditor::head_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuditHeadStats> out;
  out.reserve(heads_.size());
  for (const auto& [key, agg] : heads_) {
    if (agg.n == 0) continue;
    AuditHeadStats hs;
    hs.layer = key.first;
    hs.head = key.second;
    hs.rows = agg.n;
    std::vector<double> sorted = agg.samples;
    std::sort(sorted.begin(), sorted.end());
    hs.cra_p5 = percentile_nearest_rank(sorted, 0.05);
    hs.cra_p50 = percentile_nearest_rank(sorted, 0.50);
    hs.cra_min = agg.min;
    hs.cra_mean = agg.sum / static_cast<double>(agg.n);
    hs.predicted =
        agg.predicted_n == 0 ? 0.0 : agg.predicted_sum / static_cast<double>(agg.predicted_n);
    hs.cra_gap = hs.predicted - hs.cra_p50;
    out.push_back(hs);
  }
  return out;
}

QualityAuditor::Totals QualityAuditor::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t = totals_;
  if (t.rows > 0) {
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& [key, agg] : heads_) {
      sum += agg.sum;
      n += agg.n;
    }
    t.cra_mean = n == 0 ? 1.0 : sum / static_cast<double>(n);
  }
  return t;
}

void QualityAuditor::publish() const {
  if (!enabled()) return;
  for (const AuditHeadStats& hs : head_stats()) {
    const std::string base =
        "audit.L" + std::to_string(hs.layer) + "H" + std::to_string(hs.head) + ".";
    SATTN_GAUGE_SET(base + "cra_p5", hs.cra_p5);
    SATTN_GAUGE_SET(base + "cra_p50", hs.cra_p50);
    SATTN_GAUGE_SET(base + "cra_min", hs.cra_min);
    SATTN_GAUGE_SET(base + "cra_mean", hs.cra_mean);
    SATTN_GAUGE_SET(base + "predicted", hs.predicted);
    SATTN_GAUGE_SET(base + "cra_gap", hs.cra_gap);
    SATTN_GAUGE_SET(base + "rows", static_cast<double>(hs.rows));
  }
  const Totals t = totals();
  if (t.chunks == 0) return;
  SATTN_GAUGE_SET("audit.rows_audited", static_cast<double>(t.rows));
  SATTN_GAUGE_SET("audit.chunks_audited", static_cast<double>(t.chunks));
  SATTN_GAUGE_SET("audit.cra_min", t.cra_min);
  SATTN_GAUGE_SET("audit.cra_mean", t.cra_mean);
  SATTN_GAUGE_SET("audit.overhead_seconds", t.overhead_seconds);
}

}  // namespace sattn::obs
