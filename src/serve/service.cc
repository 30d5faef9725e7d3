#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "chk/chk.h"
#include "common/check.h"
#include "core/combiner.h"
#include "math/matrix.h"
#include "obs/trace.h"

namespace eadrl::serve {
namespace {

// Workspace slots of a batch's actor passes (ProcessWave).
enum WaveSlot : size_t { kWsStates = 0, kWsActions, kWsScratch };

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Why admission refused a malformed payload; the names are the `reason`
// label values of eadrl_serve_rejected_total, in enum order.
enum RejectReason : size_t {
  kPredsSize,
  kNonfinitePreds,
  kNonfiniteActual,
  kScaledOverflow,
  kMagnitude,
  kWellFormed,  ///< not a rejection: the payload was admitted.
};
constexpr const char* kRejectReasonNames[kWellFormed] = {
    "preds_size", "nonfinite_preds", "nonfinite_actual", "scaled_overflow",
    "magnitude"};

// The payload checks of the public boundary, after the session lookup:
// converts a well-formed payload to policy units in place and returns
// kWellFormed, or returns the rejection reason. The drain wave's contracts
// guard internal invariants and must never be the first to see a caller's
// malformed input -- including a finite value whose scaling overflows.
RejectReason AdmitPayload(Request* request) {
  const Session& session = *request->session;
  if (request->kind == Request::Kind::kObserve) {
    if (!std::isfinite(request->actual)) return kNonfiniteActual;
    if (session.has_scaler) {
      request->actual = session.scaler.Transform(request->actual);
    }
    return std::isfinite(request->actual) ? kWellFormed : kScaledOverflow;
  }
  if (request->preds.size() != session.policy->combiner->num_models()) {
    return kPredsSize;
  }
  for (double pred : request->preds) {
    if (!std::isfinite(pred)) return kNonfinitePreds;
  }
  // The combined forecast is a convex mix of the members and joins the
  // omega-entry window. With every entry within sqrt(DBL_MAX / (4 omega)) in
  // magnitude, the window's sum and squared deviations in OnlineStateVec
  // stay finite; a larger member could overflow them into a NaN state.
  const double omega =
      static_cast<double>(session.policy->fresh_state.window.size());
  const double limit =
      std::sqrt(std::numeric_limits<double>::max() / (4.0 * omega));
  for (double& pred : request->preds) {
    if (session.has_scaler) {
      pred = session.scaler.Transform(pred);
      if (!std::isfinite(pred)) return kScaledOverflow;
    }
    if (std::fabs(pred) > limit) return kMagnitude;
  }
  return kWellFormed;
}

}  // namespace

ForecastService::ForecastService(const ServeConfig& config)
    : config_(config),
      effective_max_inflight_(config.max_inflight > 0
                                  ? config.max_inflight
                                  : 2 * std::max<size_t>(config.max_queue, 1)),
      table_(SessionTable::Options{config.shards, config.max_sessions,
                                   config.session_ttl_seconds}),
      predict_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_serve_requests_total", {{"kind", "predict"}})),
      observe_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_serve_requests_total", {{"kind", "observe"}})),
      shed_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_serve_shed_total")),
      batch_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_serve_waves_total")),
      batch_rows_counter_(obs::MetricRegistry::Default().GetCounter(
          "eadrl_serve_act_batch_rows_total")),
      sessions_gauge_(
          obs::MetricRegistry::Default().GetGauge("eadrl_serve_sessions")),
      queue_depth_gauge_(
          obs::MetricRegistry::Default().GetGauge("eadrl_serve_queue_depth")),
      predict_latency_hist_(obs::MetricRegistry::Default().GetHistogram(
          "eadrl_serve_request_seconds", {}, {{"kind", "predict"}})),
      observe_latency_hist_(obs::MetricRegistry::Default().GetHistogram(
          "eadrl_serve_request_seconds", {}, {{"kind", "observe"}})),
      occupancy_hist_(obs::MetricRegistry::Default().GetHistogram(
          "eadrl_serve_batch_occupancy",
          obs::Histogram::LinearBounds(1.0, 1.0, 64))),
      predict_window_(config.window),
      shed_window_(config.window),
      predict_latency_window_(config.window, {}),
      windowed_(config.windowed_stats),
      queue_(
          BatchingQueue::Options{config.max_queue, config.linger_us,
                                 config.manual_drain, config.pool,
                                 config.window,
                                 /*track_queue_delay=*/config.windowed_stats},
          [this](std::vector<Request> batch) { ProcessBatch(std::move(batch)); }) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  for (const char* reason : kRejectReasonNames) {
    rejected_counters_.push_back(obs::MetricRegistry::Default().GetCounter(
        "eadrl_serve_rejected_total", {{"reason", reason}}));
  }
  if (config_.slo.enabled) {
    obs::SloTrackerOptions slo;
    slo.objectives.push_back(
        {"predict_latency", config_.slo.latency_threshold_seconds,
         config_.slo.latency_target});
    slo.objectives.push_back(
        {"availability", 0.0, config_.slo.availability_target});
    slo.burn_threshold = config_.slo.burn_threshold;
    // Both burn windows follow the configured clock so fake-clock tests
    // drive SLO edges deterministically; the long window reuses the
    // configured layout, the short one a quarter of it (at least one tick).
    slo.long_window = config_.window;
    slo.short_window = config_.window;
    slo.short_window.buckets = std::max<size_t>(config_.window.buckets / 4, 1);
    slo_ = std::make_unique<obs::SloTracker>(slo);
  }
  if (config_.tenant_drilldown > 0) {
    obs::LabeledWindowedFamilyOptions family;
    family.name = "eadrl_serve_tenant_predict_seconds";
    family.label_key = "tenant";
    family.max_labels = config_.tenant_drilldown;
    family.window = config_.window;
    tenant_family_ = std::make_unique<obs::LabeledWindowedFamily>(family);
  }
  if (config_.policy_drilldown > 0) {
    obs::LabeledWindowedFamilyOptions family;
    family.name = "eadrl_serve_policy_predict_seconds";
    family.label_key = "policy";
    family.max_labels = config_.policy_drilldown;
    family.window = config_.window;
    policy_family_ = std::make_unique<obs::LabeledWindowedFamily>(family);
  }
  obs_live_ = windowed_ || slo_ != nullptr || tenant_family_ != nullptr ||
              policy_family_ != nullptr;
}

ForecastService::~ForecastService() { Flush(); }

size_t ForecastService::RegisterPolicy(
    std::unique_ptr<core::EadrlCombiner> trained) {
  EADRL_CHECK(trained != nullptr);
  auto policy = std::make_shared<Policy>();
  policy->fresh_state = trained->ExportOnlineState();
  policy->combiner = std::move(trained);
  std::lock_guard<chk::OrderedMutex> lock(policies_mu_);
  policy->id = policies_.size();  // pre-publication, like fresh_state.
  policy->label = std::to_string(policy->id);
  policies_.push_back(std::move(policy));
  return policies_.size() - 1;
}

Status ForecastService::CreateSession(const std::string& tenant,
                                      size_t policy_id,
                                      const ts::StandardScaler* scaler) {
  std::shared_ptr<Policy> policy;
  {
    std::lock_guard<chk::OrderedMutex> lock(policies_mu_);
    if (policy_id >= policies_.size()) {
      return Status::OutOfRange("unknown policy id " +
                                std::to_string(policy_id));
    }
    policy = policies_[policy_id];
  }
  obs::Span span("serve_session");
  const uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto session =
      std::make_shared<Session>(tenant, std::move(policy), generation, scaler,
                                config_.drift_delta, config_.drift_lambda);
  EADRL_RETURN_IF_ERROR(table_.Insert(tenant, std::move(session)));
  sessions_created_.fetch_add(1, std::memory_order_relaxed);
  sessions_gauge_->Set(static_cast<double>(table_.size()));
  if (span.armed()) {
    span.SetAttr("tenant", tenant);
    span.SetAttr("generation", generation);
    span.SetAttr("policy_id", policy_id);
    span.SetAttr("reset", false);
  }
  return Status::Ok();
}

Status ForecastService::EvictSession(const std::string& tenant) {
  if (!table_.Erase(tenant)) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  evictions_explicit_.fetch_add(1, std::memory_order_relaxed);
  sessions_gauge_->Set(static_cast<double>(table_.size()));
  return Status::Ok();
}

Status ForecastService::ResetSession(const std::string& tenant) {
  std::shared_ptr<Session> session = table_.Lookup(tenant);
  if (session == nullptr) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  obs::Span span("serve_session");
  {
    std::lock_guard<chk::OrderedMutex> lock(session->session_mu);
    session->Reset();
  }
  if (span.armed()) {
    span.SetAttr("tenant", tenant);
    span.SetAttr("generation", session->generation);
    span.SetAttr("reset", true);
  }
  return Status::Ok();
}

Status ForecastService::Admit(Request request, const std::string& tenant) {
  obs::Span span("serve_admission");
  const char* kind =
      request.kind == Request::Kind::kPredict ? "predict" : "observe";
  span.SetAttr("kind", kind);
  const uint64_t inflight = inflight_.load(std::memory_order_relaxed);
  if (inflight >= effective_max_inflight_) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->Inc();
    if (windowed_) shed_window_.Inc();
    if (slo_ != nullptr) slo_->Record(kSloAvailabilityObjective, false);
    if (span.armed()) {
      span.SetAttr("tenant", tenant);
      span.SetAttr("shed", "inflight");
      span.SetAttr("inflight", inflight);
    }
    return Status::ResourceExhausted(
        "serving overloaded: " + std::to_string(inflight) +
        " requests in flight (limit " +
        std::to_string(effective_max_inflight_) + ")");
  }
  request.session = table_.Lookup(tenant);
  if (request.session == nullptr) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  if (const RejectReason reason = AdmitPayload(&request);
      reason != kWellFormed) {
    rejected_counters_[reason]->Inc();
    if (span.armed()) {
      span.SetAttr("tenant", tenant);
      span.SetAttr("rejected", kRejectReasonNames[reason]);
    }
    return Status::InvalidArgument(std::string("malformed ") + kind +
                                   " request for tenant '" + tenant +
                                   "': " + kRejectReasonNames[reason]);
  }
  request.enqueue_time = std::chrono::steady_clock::now();
  // The in-flight slot is taken BEFORE the enqueue: on a serial pool the
  // enqueue drains (and completes the request, releasing the slot) inline,
  // so counting afterwards would release before acquire and underflow.
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.TryEnqueue(std::move(request))) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter_->Inc();
    if (windowed_) shed_window_.Inc();
    if (slo_ != nullptr) slo_->Record(kSloAvailabilityObjective, false);
    if (span.armed()) {
      span.SetAttr("tenant", tenant);
      span.SetAttr("shed", "queue_full");
      span.SetAttr("queue_depth", queue_.depth());
    }
    return Status::ResourceExhausted(
        "serving queue full (" + std::to_string(config_.max_queue) +
        " requests)");
  }
  if (slo_ != nullptr) slo_->Record(kSloAvailabilityObjective, true);
  return Status::Ok();
}

Status ForecastService::PredictAsync(
    const std::string& tenant, math::Vec preds,
    std::function<void(StatusOr<double>)> done) {
  EADRL_CHECK(done != nullptr);
  Request request;
  request.kind = Request::Kind::kPredict;
  request.preds = std::move(preds);
  request.on_predict = std::move(done);
  return Admit(std::move(request), tenant);
}

Status ForecastService::ObserveActualAsync(const std::string& tenant,
                                           double actual,
                                           std::function<void(Status)> done) {
  Request request;
  request.kind = Request::Kind::kObserve;
  request.actual = actual;
  request.on_observe = std::move(done);
  return Admit(std::move(request), tenant);
}

StatusOr<double> ForecastService::Predict(const std::string& tenant,
                                          const math::Vec& preds) {
  std::promise<StatusOr<double>> promise;
  std::future<StatusOr<double>> future = promise.get_future();
  Status admitted = PredictAsync(tenant, preds, [&promise](StatusOr<double> r) {
    promise.set_value(std::move(r));
  });
  if (!admitted.ok()) return admitted;
  if (config_.manual_drain) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      EADRL_CHECK(DrainOnce());
    }
  }
  return future.get();
}

Status ForecastService::ObserveActual(const std::string& tenant,
                                      double actual) {
  std::promise<Status> promise;
  std::future<Status> future = promise.get_future();
  Status admitted = ObserveActualAsync(
      tenant, actual, [&promise](Status s) { promise.set_value(std::move(s)); });
  if (!admitted.ok()) return admitted;
  if (config_.manual_drain) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      EADRL_CHECK(DrainOnce());
    }
  }
  return future.get();
}

StatusOr<SessionInfo> ForecastService::GetSessionInfo(
    const std::string& tenant) {
  std::shared_ptr<Session> session = table_.Lookup(tenant);
  if (session == nullptr) {
    return Status::NotFound("no session for tenant '" + tenant + "'");
  }
  std::lock_guard<chk::OrderedMutex> lock(session->session_mu);
  SessionInfo info;
  info.generation = session->generation;
  info.predicts = session->predicts;
  info.observes = session->observes;
  info.drift_events = session->drift_events;
  info.window_size = session->state.window.size();
  info.last_prediction = session->last_prediction;
  info.has_last_prediction = session->has_last_prediction;
  info.drift_observations = session->drift.num_observations();
  info.drift_cumulative = session->drift.cumulative();
  return info;
}

size_t ForecastService::EvictIdleSessions() {
  size_t evicted = table_.EvictIdle();
  sessions_gauge_->Set(static_cast<double>(table_.size()));
  return evicted;
}

ServeStats ForecastService::Stats() const {
  ServeStats stats;
  stats.sessions = table_.size();
  stats.sessions_created = sessions_created_.load(std::memory_order_relaxed);
  stats.evictions_lru = table_.lru_evictions();
  stats.evictions_ttl = table_.ttl_evictions();
  stats.evictions_explicit =
      evictions_explicit_.load(std::memory_order_relaxed);
  stats.predicts = predicts_done_.load(std::memory_order_relaxed);
  stats.observes = observes_done_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.act_batches = act_batches_.load(std::memory_order_relaxed);
  stats.act_batch_rows = act_batch_rows_.load(std::memory_order_relaxed);
  stats.drift_events = drift_events_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_.depth();

  const obs::CounterSnapshot predicts = predict_window_.Snapshot();
  const obs::CounterSnapshot sheds = shed_window_.Snapshot();
  const obs::HistogramSnapshot latency = predict_latency_window_.Snapshot();
  stats.window_seconds = predicts.window_seconds;
  stats.window_predict_qps = predicts.Rate();
  stats.window_shed_rate = sheds.Rate();
  stats.window_predict_p50_s = latency.Quantile(0.5);
  stats.window_predict_p99_s = latency.Quantile(0.99);

  const obs::HistogramSnapshot delay = queue_.QueueDelaySnapshot();
  stats.queue_delay_count = delay.count;
  stats.queue_delay_mean_s = delay.Mean();
  stats.queue_delay_p50_s = delay.Quantile(0.5);
  stats.queue_delay_p99_s = delay.Quantile(0.99);
  stats.queue_delay_max_s = delay.max;
  return stats;
}

obs::HistogramSnapshot ForecastService::PredictLatencySnapshot() const {
  return predict_latency_hist_->Snapshot();
}

obs::HistogramSnapshot ForecastService::PredictLatencyWindowSnapshot() const {
  return predict_latency_window_.Snapshot();
}

obs::HistogramSnapshot ForecastService::QueueDelaySnapshot() const {
  return queue_.QueueDelaySnapshot();
}

void ForecastService::Flush() { queue_.Flush(); }

bool ForecastService::DrainOnce() { return queue_.DrainOnce(); }

void ForecastService::ProcessBatch(std::vector<Request> batch) {
  // Waves: each takes at most one request per session (per-session FIFO
  // order is the queue order restricted to that session) and at most
  // max_batch requests total.
  std::vector<char> done(batch.size(), 0);
  size_t processed = 0;
  std::vector<size_t> wave;
  std::unordered_set<const Session*> wave_sessions;
  math::Workspace ws;
  while (processed < batch.size()) {
    wave.clear();
    wave_sessions.clear();
    for (size_t i = 0; i < batch.size() && wave.size() < config_.max_batch;
         ++i) {
      if (done[i] != 0) continue;
      const Session* session = batch[i].session.get();
      if (wave_sessions.count(session) != 0) continue;
      wave_sessions.insert(session);
      wave.push_back(i);
    }
    ProcessWave(&batch, wave, &ws);
    for (size_t i : wave) done[i] = 1;
    processed += wave.size();
  }
  queue_depth_gauge_->Set(static_cast<double>(queue_.depth()));
  // Per-batch evaluation gives breach/recover edges drain-rate resolution
  // without a dedicated evaluator thread (the exporter also evaluates on
  // its own tick, covering idle gaps).
  if (slo_ != nullptr) slo_->Evaluate();
}

void ForecastService::ProcessWave(std::vector<Request>* batch,
                                  const std::vector<size_t>& wave,
                                  math::Workspace* ws) {
  obs::Span span("serve_batch");
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_counter_->Inc();

  // A predict awaiting its policy group's batched actor pass. The session
  // lock is held from state capture through apply: every session appears at
  // most once per wave, so these locks never deadlock against each other.
  struct Pending {
    size_t index = 0;
    std::unique_lock<chk::OrderedMutex> lock;
    math::Vec state;
    math::Vec reduced;
  };
  std::vector<Pending> pending;
  pending.reserve(wave.size());
  size_t observes_in_wave = 0;

  // Session locks are acquired in one canonical order (session address),
  // never the wave's arrival order: predict locks stay held from capture
  // through apply, so arrival order would rank any given session pair
  // differently from wave to wave — a lock-order inversion. Pending rows
  // are sorted back to wave order below, so batching, apply, and callback
  // order (and thus parity) are untouched.
  std::vector<size_t> lock_order(wave.begin(), wave.end());
  std::sort(lock_order.begin(), lock_order.end(), [batch](size_t a, size_t b) {
    return std::less<const Session*>()((*batch)[a].session.get(),
                                       (*batch)[b].session.get());
  });

  for (size_t i : lock_order) {
    Request& request = (*batch)[i];
    Session& session = *request.session;
    if (request.kind == Request::Kind::kObserve) {
      obs::Span rspan("serve_request");
      bool drifted = false;
      {
        std::lock_guard<chk::OrderedMutex> lock(session.session_mu);
        ++session.observes;
        if (session.has_last_prediction) {
          // Scale-free one-step absolute error (policy units, as admitted)
          // feeds the per-tenant Page-Hinkley detector (same signal family
          // as the combiner's online drift mode).
          const double sd =
              session.state.state_std > 0.0 ? session.state.state_std : 1.0;
          const double err =
              std::fabs(session.last_prediction - request.actual) / sd;
          if (session.drift.Update(err)) {
            ++session.drift_events;
            drifted = true;
          }
        }
      }
      if (drifted) {
        drift_events_.fetch_add(1, std::memory_order_relaxed);
        if (rspan.armed()) {
          rspan.SetAttr("drift", true);
          rspan.SetAttr("generation", session.generation);
        }
      }
      ++observes_in_wave;
      observes_done_.fetch_add(1, std::memory_order_relaxed);
      observe_counter_->Inc();
      const double latency = SecondsSince(request.enqueue_time);
      observe_latency_hist_->Observe(latency);
      if (rspan.armed()) {
        rspan.SetAttr("kind", "observe");
        rspan.SetAttr("queue_wait_seconds", latency);
      }
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      if (request.on_observe) request.on_observe(Status::Ok());
    } else {
      Pending p;
      p.index = i;
      p.lock = std::unique_lock<chk::OrderedMutex>(session.session_mu);
      EADRL_CHK_FINITE(request.preds, "serve predict member predictions");
      p.reduced = session.policy->combiner->ReduceToActive(request.preds);
      p.state = core::OnlineStateVec(session.state);
      pending.push_back(std::move(p));
    }
  }

  // Restore wave (arrival) order for grouping and dispatch: ActBatch row
  // assembly and callbacks see exactly what they would under arrival-order
  // locking, keeping batched-vs-serial parity byte-for-byte.
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.index < b.index; });

  // Group the wave's predicts by policy (first-appearance order) and run one
  // batched actor pass per group — the cross-tenant batching step.
  std::vector<char> dispatched(pending.size(), 0);
  math::Vec action;
  for (size_t lead = 0; lead < pending.size(); ++lead) {
    if (dispatched[lead] != 0) continue;
    Policy* policy = (*batch)[pending[lead].index].session->policy.get();
    std::vector<size_t> group;
    for (size_t j = lead; j < pending.size(); ++j) {
      if (dispatched[j] == 0 &&
          (*batch)[pending[j].index].session->policy.get() == policy) {
        group.push_back(j);
      }
    }
    math::Matrix& states =
        ws->mat(kWsStates, group.size(), pending[group[0]].state.size());
    for (size_t g = 0; g < group.size(); ++g) {
      states.SetRow(g, pending[group[g]].state);
    }
    math::Matrix& actions = ws->mat(kWsActions, group.size(), 0);
    policy->combiner->agent()->ActBatch(states, &actions,
                                        &ws->mat(kWsScratch, group.size(), 0));
    act_batches_.fetch_add(1, std::memory_order_relaxed);
    act_batch_rows_.fetch_add(group.size(), std::memory_order_relaxed);
    batch_rows_counter_->Inc(static_cast<double>(group.size()));
    occupancy_hist_->Observe(static_cast<double>(group.size()));

    // One wall-clock and one window-clock reading cover the whole group:
    // every row completes "now", so per-row re-reads would only add ~8
    // clock_gettime calls per request without changing any observation. The
    // window clock is read only when a live-obs sink will consume it.
    const auto completion = std::chrono::steady_clock::now();
    const uint64_t obs_now = obs_live_ ? predict_window_.NowNs() : 0;

    for (size_t g = 0; g < group.size(); ++g) {
      Pending& p = pending[group[g]];
      Request& request = (*batch)[p.index];
      Session& session = *request.session;
      obs::Span rspan("serve_request");
      actions.RowInto(g, &action);
      const double pred =
          core::CombineAndRoll(action, p.reduced, &session.state);
      session.last_prediction = pred;
      session.has_last_prediction = true;
      ++session.predicts;
      const double out =
          session.has_scaler ? session.scaler.Inverse(pred) : pred;
      p.lock.unlock();
      predicts_done_.fetch_add(1, std::memory_order_relaxed);
      predict_counter_->Inc();
      const double latency =
          std::chrono::duration<double>(completion - request.enqueue_time)
              .count();
      predict_latency_hist_->Observe(latency);
      // Windowed stats, SLO and drill-down are observed with the session
      // lock released: the metric locks (obs_family/obs_window) are leaves
      // and never nest under serve locks on this path.
      if (windowed_) {
        predict_window_.IncAt(obs_now);
        predict_latency_window_.ObserveAt(obs_now, latency);
      }
      if (slo_ != nullptr) {
        slo_->RecordLatencyAt(obs_now, kSloLatencyObjective, latency);
      }
      if (tenant_family_ != nullptr) {
        tenant_family_->ObserveAt(obs_now, session.tenant, latency);
      }
      if (policy_family_ != nullptr) {
        policy_family_->ObserveAt(obs_now, session.policy->label, latency);
      }
      if (rspan.armed()) {
        rspan.SetAttr("kind", "predict");
        rspan.SetAttr("queue_wait_seconds", latency);
        rspan.SetAttr("batch_rows", group.size());
      }
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      request.on_predict(out);
    }
    for (size_t j : group) dispatched[j] = 1;
  }

  if (span.armed()) {
    span.SetAttr("wave_size", wave.size());
    span.SetAttr("observes", observes_in_wave);
  }
}

}  // namespace eadrl::serve
