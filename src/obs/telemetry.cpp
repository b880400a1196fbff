#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "io/json.h"
#include "obs/metrics.h"

namespace sattn::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t next_hub_id() {
  static std::atomic<std::uint64_t> g{1};
  return g.fetch_add(1, std::memory_order_relaxed);
}

// Prometheus exposition escaping: inside label values `\` -> `\\`,
// `"` -> `\"`, and a literal newline -> `\n`; HELP text escapes only the
// backslash and newline (the exposition format's escaping rules).
std::string prom_escape(std::string_view s, bool label_value) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (label_value && c == '"') {
      out += "\\\"";
    } else {
      out += c;
    }
  }
  return out;
}

JsonValue stats_json(const RollingStats& s) {
  JsonValue o = JsonValue::object();
  o.set("count", s.count);
  o.set("mean", s.mean);
  o.set("min", s.min);
  o.set("max", s.max);
  o.set("p50", s.p50);
  o.set("p95", s.p95);
  o.set("p99", s.p99);
  return o;
}

}  // namespace

const char* request_phase_name(TelemetryEventKind kind) {
  static constexpr const char* kNames[] = {"submitted",    "admitted",    "prefill_chunk",
                                           "prefill_done", "decode_step", "completed",
                                           "shed",         "cancelled"};
  const auto code = static_cast<std::size_t>(kind);
  return code < std::size(kNames) ? kNames[code] : "unknown";
}

// ---------------------------------------------------------------------------
// TelemetryRing
// ---------------------------------------------------------------------------

TelemetryRing::TelemetryRing(std::size_t capacity)
    : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

bool TelemetryRing::try_push(const TelemetryEvent& ev) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[head & mask_] = ev;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t TelemetryRing::drain(std::vector<TelemetryEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t n = static_cast<std::size_t>(head - tail);
  out.reserve(out.size() + n);
  while (tail != head) {
    out.push_back(slots_[tail & mask_]);
    ++tail;
  }
  tail_.store(tail, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

TelemetryHub::TelemetryHub(std::size_t ring_capacity)
    : id_(next_hub_id()), ring_capacity_(ring_capacity) {}

std::shared_ptr<TelemetryRing> TelemetryHub::ring_for_this_thread() {
  // Per-thread cache of (hub id, ring). Hub ids are never reused, so an
  // entry can never resolve to the wrong hub; the shared_ptr keeps a ring
  // from a destroyed hub alive (writes to it are just never drained).
  struct CacheEntry {
    std::uint64_t hub_id;
    std::shared_ptr<TelemetryRing> ring;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& e : cache) {
    if (e.hub_id == id_) return e.ring;
  }
  auto ring = std::make_shared<TelemetryRing>(ring_capacity_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    rings_.push_back(ring);
  }
  if (cache.size() >= 16) cache.erase(cache.begin());  // bound stale entries
  cache.push_back({id_, ring});
  return ring;
}

void TelemetryHub::push(const TelemetryEvent& ev) { ring_for_this_thread()->try_push(ev); }

std::size_t TelemetryHub::drain(std::vector<TelemetryEvent>& out) {
  std::vector<std::shared_ptr<TelemetryRing>> rings;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rings = rings_;
  }
  const std::size_t before = out.size();
  for (const auto& r : rings) r->drain(out);
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
                   [](const TelemetryEvent& a, const TelemetryEvent& b) { return a.t < b.t; });
  return out.size() - before;
}

std::uint64_t TelemetryHub::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

std::size_t TelemetryHub::ring_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rings_.size();
}

// ---------------------------------------------------------------------------
// RollingHistogram / EwmaRate
// ---------------------------------------------------------------------------

RollingHistogram::RollingHistogram(double window_seconds, std::size_t max_samples)
    : window_s_(window_seconds > 0.0 ? window_seconds : 1.0),
      max_samples_(max_samples > 0 ? max_samples : 1) {}

void RollingHistogram::evict(double now) {
  const double cutoff = now - window_s_;
  while (!samples_.empty() && samples_.front().first < cutoff) samples_.pop_front();
  while (samples_.size() > max_samples_) samples_.pop_front();
}

void RollingHistogram::observe(double t, double v) {
  samples_.emplace_back(t, v);
  evict(t);
}

RollingStats RollingHistogram::stats(double now) {
  evict(now);
  RollingStats s;
  s.count = samples_.size();
  if (samples_.empty()) return s;
  std::vector<double> vals;
  vals.reserve(samples_.size());
  double sum = 0.0;
  for (const auto& [t, v] : samples_) {
    vals.push_back(v);
    sum += v;
  }
  std::sort(vals.begin(), vals.end());
  s.mean = sum / static_cast<double>(vals.size());
  s.min = vals.front();
  s.max = vals.back();
  s.p50 = percentile_nearest_rank(vals, 0.50);
  s.p95 = percentile_nearest_rank(vals, 0.95);
  s.p99 = percentile_nearest_rank(vals, 0.99);
  return s;
}

EwmaRate::EwmaRate(double tau_seconds) : tau_(tau_seconds > 0.0 ? tau_seconds : 1.0) {}

void EwmaRate::add(double t, double n) {
  if (t > last_t_) {
    acc_ *= std::exp(-(t - last_t_) / tau_);
    last_t_ = t;
  }
  acc_ += n;
}

double EwmaRate::rate(double now) const {
  double acc = acc_;
  if (now > last_t_) acc *= std::exp(-(now - last_t_) / tau_);
  return acc / tau_;
}

// ---------------------------------------------------------------------------
// DriftMonitor
// ---------------------------------------------------------------------------

DriftMonitor::DriftMonitor(DriftThresholds th)
    : th_(th),
      ttft_(th.window_seconds > 0.0 ? th.window_seconds : 5.0),
      tpot_(th.window_seconds > 0.0 ? th.window_seconds : 5.0),
      audit_(th.window_seconds > 0.0 ? th.window_seconds : 5.0) {}

void DriftMonitor::observe_plan(double t, double retained_frac, bool escalated,
                                bool dense_fallback) {
  plans_.push_back({t, static_cast<float>(retained_frac), escalated, dense_fallback});
  const double cutoff = t - th_.window_seconds;
  while (!plans_.empty() && plans_.front().t < cutoff) plans_.pop_front();
}

void DriftMonitor::observe_ttft(double t, double seconds) { ttft_.observe(t, seconds); }
void DriftMonitor::observe_tpot(double t, double seconds) { tpot_.observe(t, seconds); }
void DriftMonitor::observe_audit(double t, double measured_cra) {
  audit_.observe(t, measured_cra);
}

const std::vector<AlertState>& DriftMonitor::evaluate(double now) {
  const double cutoff = now - th_.window_seconds;
  while (!plans_.empty() && plans_.front().t < cutoff) plans_.pop_front();

  std::size_t plan_n = plans_.size();
  double retained_sum = 0.0, escalated_n = 0.0, fallback_n = 0.0;
  for (const PlanSample& p : plans_) {
    retained_sum += p.retained;
    if (p.escalated) escalated_n += 1.0;
    if (p.dense_fallback) fallback_n += 1.0;
  }
  const RollingStats ttft = ttft_.stats(now);
  const RollingStats tpot = tpot_.stats(now);
  const RollingStats audit = audit_.stats(now);

  struct Spec {
    const char* name;
    double threshold;
    double value;
    std::size_t count;
    bool below;  // alert when value < threshold (vs > threshold)
  };
  const Spec specs[] = {
      {"retained_kv_frac_low", th_.min_retained_kv_frac,
       plan_n > 0 ? retained_sum / static_cast<double>(plan_n) : 0.0, plan_n, true},
      {"dense_fallback_rate_high", th_.max_dense_fallback_rate,
       plan_n > 0 ? fallback_n / static_cast<double>(plan_n) : 0.0, plan_n, false},
      {"escalation_rate_high", th_.max_escalation_rate,
       plan_n > 0 ? escalated_n / static_cast<double>(plan_n) : 0.0, plan_n, false},
      {"ttft_p99_high", th_.max_ttft_p99_seconds, ttft.p99, ttft.count, false},
      {"tpot_p99_high", th_.max_tpot_p99_seconds, tpot.p99, tpot.count, false},
      // Measured quality: rolling mean of shadow-audited chunk CRA minima
      // (obs/audit.h). The one monitor fed by ground truth, not proxies.
      {"measured_cra_low", th_.min_measured_cra, audit.mean, audit.count, true},
  };

  if (alerts_.empty()) {
    alerts_.reserve(std::size(specs));
    for (const Spec& sp : specs) alerts_.push_back({sp.name, 0.0, sp.threshold, false, 0.0});
  }
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const Spec& sp = specs[i];
    AlertState& a = alerts_[i];
    a.value = sp.value;
    a.threshold = sp.threshold;
    const bool configured = sp.threshold >= 0.0;
    const bool crossed = sp.below ? sp.value < sp.threshold : sp.value > sp.threshold;
    const bool active = configured && sp.count >= th_.min_samples && crossed;
    if (active && !a.active) {
      a.since_s = now;
      SATTN_COUNTER_ADD("alert." + a.name, 1);
    }
    a.active = active;
  }
  return alerts_;
}

bool DriftMonitor::quality_alert_active() const {
  for (const AlertState& a : alerts_) {
    if (!a.active) continue;
    if (a.name == "retained_kv_frac_low" || a.name == "dense_fallback_rate_high" ||
        a.name == "escalation_rate_high" || a.name == "measured_cra_low") {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// TelemetryPublisher
// ---------------------------------------------------------------------------

TelemetryPublisher::TelemetryPublisher(TelemetryOptions opts, std::string label,
                                       TelemetryHub* hub,
                                       std::function<EngineTelemetrySnapshot()> snapshot_fn)
    : opts_(std::move(opts)),
      label_(std::move(label)),
      hub_(hub),
      snapshot_fn_(std::move(snapshot_fn)),
      ttft_(opts_.window_seconds),
      tpot_(opts_.window_seconds),
      retained_(opts_.window_seconds),
      audit_cra_(opts_.window_seconds),
      submit_rate_(opts_.rate_tau_seconds),
      complete_rate_(opts_.rate_tau_seconds),
      decode_tok_rate_(opts_.rate_tau_seconds),
      shed_rate_(opts_.rate_tau_seconds),
      drift_(opts_.drift) {
  if (!opts_.ndjson_path.empty()) {
    // Truncate the stream at publisher creation so every run starts fresh.
    std::ofstream(opts_.ndjson_path, std::ios::trunc);
  }
}

TelemetryPublisher::~TelemetryPublisher() { stop(); }

void TelemetryPublisher::start() {
  thread_ = std::thread([this] { run(); });
}

void TelemetryPublisher::stop() {
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    if (stopped_) return;
    stop_requested_ = true;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  tick();  // final flush: producers are quiesced by the time stop() is called
  {
    std::lock_guard<std::mutex> lk(run_mu_);
    stopped_ = true;
  }
}

void TelemetryPublisher::run() {
  for (;;) {
    std::unique_lock<std::mutex> lk(run_mu_);
    const bool stopping = run_cv_.wait_for(lk, std::chrono::duration<double>(opts_.interval_seconds),
                                           [this] { return stop_requested_; });
    lk.unlock();
    if (stopping) return;  // stop() runs the final tick after the join
    tick();
  }
}

void TelemetryPublisher::fold(const TelemetryEvent& ev) {
  switch (ev.kind) {
    case TelemetryEventKind::kSubmit:
      ++totals_.submitted;
      submit_rate_.add(ev.t);
      break;
    case TelemetryEventKind::kAdmit:
      ++totals_.admitted;
      break;
    case TelemetryEventKind::kPrefillChunk:
      ++totals_.prefill_chunks;
      break;
    case TelemetryEventKind::kPrefillDone:
      ttft_.observe(ev.t, ev.value);
      drift_.observe_ttft(ev.t, ev.value);
      break;
    case TelemetryEventKind::kDecodeStep:
      ++totals_.decode_steps;
      tpot_.observe(ev.t, ev.value);
      drift_.observe_tpot(ev.t, ev.value);
      decode_tok_rate_.add(ev.t);
      break;
    case TelemetryEventKind::kComplete:
      ++totals_.completed;
      complete_rate_.add(ev.t);
      break;
    case TelemetryEventKind::kShed:
      ++totals_.shed;
      shed_rate_.add(ev.t);
      break;
    case TelemetryEventKind::kCancel:
      ++totals_.cancelled;
      break;
    case TelemetryEventKind::kPlan: {
      ++totals_.plans;
      const bool escalated = (ev.aux & 1u) != 0;
      const bool fallback = (ev.aux & 2u) != 0;
      if (escalated) ++totals_.escalations;
      if (fallback) ++totals_.dense_fallbacks;
      retained_.observe(ev.t, ev.value);
      drift_.observe_plan(ev.t, ev.value, escalated, fallback);
      break;
    }
    case TelemetryEventKind::kAudit:
      ++totals_.audited_chunks;
      totals_.audited_rows += ev.aux;
      audit_cra_.observe(ev.t, ev.value);
      drift_.observe_audit(ev.t, ev.value);
      break;
  }
}

void TelemetryPublisher::tick() {
  scratch_.clear();
  const std::size_t n = hub_ != nullptr ? hub_->drain(scratch_) : 0;
  events_seen_.fetch_add(n, std::memory_order_relaxed);
  for (const TelemetryEvent& ev : scratch_) fold(ev);

  const EngineTelemetrySnapshot snap = snapshot_fn_ ? snapshot_fn_() : EngineTelemetrySnapshot{};
  drift_.evaluate(snap.t);
  if (opts_.drift.pretrip_breaker && drift_.quality_alert_active()) {
    pretrip_.store(true, std::memory_order_relaxed);
  }

  const std::string line = render_line(snap);
  if (!opts_.ndjson_path.empty()) {
    std::ofstream out(opts_.ndjson_path, std::ios::app);
    out << line << '\n';
  }
  if (!opts_.prom_path.empty()) write_prometheus(snap);
  publish_gauges(snap);

  {
    std::lock_guard<std::mutex> lk(state_mu_);
    last_line_ = line;
    alerts_copy_ = drift_.alerts();
    totals_copy_ = totals_;
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

std::string TelemetryPublisher::render_line(const EngineTelemetrySnapshot& snap) {
  JsonValue root = JsonValue::object();
  root.set("schema", "sattn.telemetry");
  root.set("version", 1);
  root.set("seq", seq_++);
  root.set("t", snap.t);
  root.set("label", label_);

  JsonValue engine = JsonValue::object();
  engine.set("live", snap.live);
  engine.set("active", snap.active);
  engine.set("kv_bytes", snap.kv_bytes);
  engine.set("kv_budget_bytes", snap.kv_budget_bytes);
  engine.set("breaker_state", snap.breaker_state);
  engine.set("heartbeat_age_s", snap.heartbeat_age_s);
  engine.set("watchdog_stalls", snap.watchdog_stalls);
  root.set("engine", std::move(engine));

  JsonValue totals = JsonValue::object();
  totals.set("submitted", totals_.submitted);
  totals.set("admitted", totals_.admitted);
  totals.set("completed", totals_.completed);
  totals.set("shed", totals_.shed);
  totals.set("cancelled", totals_.cancelled);
  totals.set("prefill_chunks", totals_.prefill_chunks);
  totals.set("decode_steps", totals_.decode_steps);
  totals.set("plans", totals_.plans);
  totals.set("escalations", totals_.escalations);
  totals.set("dense_fallbacks", totals_.dense_fallbacks);
  totals.set("audited_chunks", totals_.audited_chunks);
  totals.set("audited_rows", totals_.audited_rows);
  root.set("totals", std::move(totals));

  JsonValue rates = JsonValue::object();
  rates.set("submit_per_s", submit_rate_.rate(snap.t));
  rates.set("complete_per_s", complete_rate_.rate(snap.t));
  rates.set("decode_tokens_per_s", decode_tok_rate_.rate(snap.t));
  rates.set("shed_per_s", shed_rate_.rate(snap.t));
  root.set("rates", std::move(rates));

  JsonValue rolling = JsonValue::object();
  rolling.set("window_s", opts_.window_seconds);
  rolling.set("ttft_s", stats_json(ttft_.stats(snap.t)));
  rolling.set("tpot_s", stats_json(tpot_.stats(snap.t)));
  rolling.set("retained_kv_frac", stats_json(retained_.stats(snap.t)));
  rolling.set("audit_cra", stats_json(audit_cra_.stats(snap.t)));
  root.set("rolling", std::move(rolling));

  JsonValue alerts = JsonValue::array();
  for (const AlertState& a : drift_.alerts()) {
    if (!a.active) continue;
    JsonValue o = JsonValue::object();
    o.set("name", a.name);
    o.set("value", a.value);
    o.set("threshold", a.threshold);
    o.set("since_s", a.since_s);
    alerts.push_back(std::move(o));
  }
  root.set("alerts", std::move(alerts));
  root.set("events_dropped", hub_ != nullptr ? hub_->dropped() : 0);
  return root.to_string(-1);
}

void TelemetryPublisher::write_prometheus(const EngineTelemetrySnapshot& snap) {
  const RollingStats ttft = ttft_.stats(snap.t);
  const RollingStats tpot = tpot_.stats(snap.t);
  const RollingStats retained = retained_.stats(snap.t);
  const RollingStats audit = audit_cra_.stats(snap.t);
  std::string body;
  body.reserve(4096);
  // Label values are escaped per the exposition format (`\` -> `\\`,
  // `"` -> `\"`, newline -> `\n`); run labels are caller-supplied strings.
  const std::string tag = "{label=\"" + prom_escape(label_, /*label_value=*/true) + "\"}";
  const auto emit = [&](const char* name, const char* type, const char* help, double v) {
    body += "# HELP ";
    body += name;
    body += ' ';
    body += prom_escape(help, /*label_value=*/false);
    body += '\n';
    body += "# TYPE ";
    body += name;
    body += ' ';
    body += type;
    body += '\n';
    body += name;
    body += tag;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.9g\n", v);
    body += buf;
  };
  emit("sattn_engine_live_requests", "gauge", "Requests in flight (any state).",
       static_cast<double>(snap.live));
  emit("sattn_engine_active_requests", "gauge", "Requests past the KV-budget gate.",
       static_cast<double>(snap.active));
  emit("sattn_engine_kv_bytes", "gauge", "Live KV cache bytes.", snap.kv_bytes);
  emit("sattn_engine_kv_budget_bytes", "gauge", "Configured KV byte budget (0 = unlimited).",
       snap.kv_budget_bytes);
  emit("sattn_engine_breaker_state", "gauge",
       "Planning breaker state: 0 closed, 1 open, 2 half-open.",
       static_cast<double>(snap.breaker_state));
  emit("sattn_engine_heartbeat_age_seconds", "gauge",
       "Seconds since the engine loop last made progress.", snap.heartbeat_age_s);
  emit("sattn_engine_watchdog_stalls_total", "counter", "Watchdog stall detections.",
       static_cast<double>(snap.watchdog_stalls));
  emit("sattn_requests_submitted_total", "counter", "Requests submitted.",
       static_cast<double>(totals_.submitted));
  emit("sattn_requests_completed_total", "counter", "Requests completed.",
       static_cast<double>(totals_.completed));
  emit("sattn_requests_shed_total", "counter", "Requests shed.",
       static_cast<double>(totals_.shed));
  emit("sattn_requests_cancelled_total", "counter", "Requests cancelled.",
       static_cast<double>(totals_.cancelled));
  emit("sattn_plan_dense_fallbacks_total", "counter",
       "Sample-mode plans that fell back to dense.",
       static_cast<double>(totals_.dense_fallbacks));
  emit("sattn_ttft_p50_seconds", "gauge", "Rolling-window TTFT p50.", ttft.p50);
  emit("sattn_ttft_p99_seconds", "gauge", "Rolling-window TTFT p99.", ttft.p99);
  emit("sattn_tpot_p50_seconds", "gauge", "Rolling-window decode-step p50.", tpot.p50);
  emit("sattn_tpot_p99_seconds", "gauge", "Rolling-window decode-step p99.", tpot.p99);
  emit("sattn_retained_kv_frac_mean", "gauge", "Rolling mean retained-KV fraction.",
       retained.mean);
  emit("sattn_decode_tokens_per_second", "gauge", "EWMA decode token rate.",
       decode_tok_rate_.rate(snap.t));
  emit("sattn_audit_rows_total", "counter", "Shadow-audited query rows.",
       static_cast<double>(totals_.audited_rows));
  emit("sattn_audit_cra_mean", "gauge", "Rolling mean measured chunk CRA (audited).",
       audit.mean);
  emit("sattn_audit_cra_min", "gauge", "Rolling min measured chunk CRA (audited).", audit.min);
  emit("sattn_telemetry_events_dropped_total", "counter",
       "Telemetry events dropped by full rings.",
       static_cast<double>(hub_ != nullptr ? hub_->dropped() : 0));

  const std::string tmp = opts_.prom_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << body;
  }
  std::rename(tmp.c_str(), opts_.prom_path.c_str());
}

void TelemetryPublisher::publish_gauges(const EngineTelemetrySnapshot& snap) {
  if (!enabled()) return;
  auto& reg = MetricsRegistry::global();
  reg.gauge("engine.heartbeat_age_s").set(snap.heartbeat_age_s);
  reg.gauge("telemetry.live_requests").set(static_cast<double>(snap.live));
  reg.gauge("telemetry.kv_bytes").set(snap.kv_bytes);
  reg.gauge("telemetry.ttft_p99_s").set(ttft_.stats(snap.t).p99);
  reg.gauge("telemetry.tpot_p99_s").set(tpot_.stats(snap.t).p99);
  reg.gauge("telemetry.retained_kv_frac_mean").set(retained_.stats(snap.t).mean);
  reg.gauge("telemetry.decode_tokens_per_s").set(decode_tok_rate_.rate(snap.t));
  if (totals_.audited_chunks > 0) {
    reg.gauge("telemetry.audit_cra_mean").set(audit_cra_.stats(snap.t).mean);
    reg.gauge("telemetry.audit_rows").set(static_cast<double>(totals_.audited_rows));
  }
  reg.gauge("telemetry.events_dropped").set(
      static_cast<double>(hub_ != nullptr ? hub_->dropped() : 0));
  SATTN_COUNTER_ADD("telemetry.ticks", 1);
}

bool TelemetryPublisher::consume_breaker_pretrip() {
  return pretrip_.exchange(false, std::memory_order_relaxed);
}

std::string TelemetryPublisher::last_line() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return last_line_;
}

std::vector<AlertState> TelemetryPublisher::alerts() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return alerts_copy_;
}

TelemetryTotals TelemetryPublisher::totals() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return totals_copy_;
}

}  // namespace sattn::obs
