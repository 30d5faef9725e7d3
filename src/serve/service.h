#ifndef EADRL_SERVE_SERVICE_H_
#define EADRL_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chk/lockdep.h"
#include "chk/thread_annotations.h"
#include "common/status.h"
#include "core/eadrl.h"
#include "math/vec.h"
#include "math/workspace.h"
#include "obs/cardinality.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "par/thread_pool.h"
#include "serve/batching_queue.h"
#include "serve/session_table.h"
#include "ts/scaler.h"

namespace eadrl::serve {

/// Serving-layer configuration. Defaults are sized for a test-scale
/// deployment; the load driver (tools/eadrl_serve.cc) overrides most of
/// them from flags.
struct ServeConfig {
  size_t shards = 16;            ///< session-table lock stripes.
  size_t max_sessions = 0;       ///< resident-session cap (0 = unbounded).
  double session_ttl_seconds = 0.0;  ///< idle eviction (0 = off).
  size_t max_batch = 64;         ///< requests per processed wave.
  size_t max_queue = 4096;       ///< admission bound on queued requests.
  /// Admission bound on admitted-but-incomplete requests (0 = 2 * max_queue).
  /// Approximate under concurrency: racing admits may briefly overshoot.
  size_t max_inflight = 0;
  size_t linger_us = 0;          ///< batching window (see BatchingQueue).
  bool manual_drain = false;     ///< tests: pump via DrainOnce().
  double drift_delta = 0.005;    ///< per-session Page-Hinkley tolerance.
  double drift_lambda = 3.0;     ///< per-session Page-Hinkley threshold.
  par::ThreadPool* pool = nullptr;  ///< nullptr = par::DefaultPool().

  /// Sub-window layout + clock for the service's live windowed stats
  /// (windowed QPS / p99 / shed rate, queue delay, drill-down families).
  /// Tests inject a fake clock here; it propagates everywhere.
  obs::WindowOptions window;
  /// Opt-in: maintain the live windowed stats (windowed QPS/p99/shed rate
  /// in Stats(), queue-delay estimator). Off by default — the enabled path
  /// costs a handful of atomic RMWs per predict (priced in
  /// bench/window_bench.cc and BM_BatchingQueueEnqueueDrainTracked), which
  /// the lean serving path does not pay unless asked. tools/eadrl_serve
  /// turns this on.
  bool windowed_stats = false;
  /// Cardinality caps for the per-tenant / per-policy latency drill-down
  /// (see obs::LabeledWindowedFamily); 0 (the default) disables that
  /// drill-down. Opt-in because each enabled family adds a mutex-serialized
  /// label lookup per predict on the completion path; tools/eadrl_serve
  /// turns both on.
  size_t tenant_drilldown = 0;
  size_t policy_drilldown = 0;

  /// SLO tracking (obs::SloTracker); when enabled the service maintains two
  /// objectives — predict latency (threshold below) and availability
  /// (admitted vs shed) — evaluated after every drained batch.
  struct Slo {
    bool enabled = false;
    double latency_threshold_seconds = 0.05;
    double latency_target = 0.99;
    double availability_target = 0.999;
    double burn_threshold = 2.0;
  };
  Slo slo;
};

/// Service-wide counters (monotone since construction, except gauges).
struct ServeStats {
  uint64_t sessions = 0;          ///< resident right now.
  uint64_t sessions_created = 0;
  uint64_t evictions_lru = 0;
  uint64_t evictions_ttl = 0;
  uint64_t evictions_explicit = 0;
  uint64_t predicts = 0;          ///< completed predict requests.
  uint64_t observes = 0;          ///< completed observe requests.
  uint64_t shed = 0;              ///< admission rejections under load.
  uint64_t batches = 0;           ///< processed waves.
  uint64_t act_batches = 0;       ///< batched actor passes.
  uint64_t act_batch_rows = 0;    ///< total rows across actor passes.
  uint64_t drift_events = 0;
  uint64_t inflight = 0;          ///< admitted, not yet completed.
  uint64_t queue_depth = 0;

  // Windowed view (last ServeConfig::window span; see obs/metrics.h). All
  // rates are per second over window_seconds.
  double window_seconds = 0.0;
  double window_predict_qps = 0.0;
  double window_shed_rate = 0.0;
  double window_predict_p50_s = 0.0;
  double window_predict_p99_s = 0.0;
  /// Windowed admission-to-drain backlog residence (BatchingQueue).
  uint64_t queue_delay_count = 0;
  double queue_delay_mean_s = 0.0;
  double queue_delay_p50_s = 0.0;
  double queue_delay_p99_s = 0.0;
  double queue_delay_max_s = 0.0;

  /// Mean rows per batched actor pass — the cross-tenant batching win; > 1
  /// means concurrent tenants actually shared actor passes.
  double MeanActBatchRows() const {
    return act_batches == 0
               ? 0.0
               : static_cast<double>(act_batch_rows) /
                     static_cast<double>(act_batches);
  }
};

/// Per-session diagnostics snapshot (GetSessionInfo).
struct SessionInfo {
  uint64_t generation = 0;
  uint64_t predicts = 0;
  uint64_t observes = 0;
  uint64_t drift_events = 0;
  size_t window_size = 0;
  double last_prediction = 0.0;   ///< policy units; 0 before first predict.
  bool has_last_prediction = false;
  size_t drift_observations = 0;  ///< detector observations since reset.
  double drift_cumulative = 0.0;
};

/// Multi-tenant online forecast serving for trained EA-DRL policies.
///
/// Tenants register once (CreateSession) against a shared trained policy and
/// then stream Predict / ObserveActual requests. Requests from concurrent
/// tenants funnel through one BatchingQueue and are drained in waves: each
/// wave takes at most one request per session (preserving per-session FIFO
/// order), groups the predicts by policy, and runs ONE batched actor pass
/// (rl::DdpgAgent::ActBatch) per policy group — the cross-tenant batching
/// that amortizes actor inference. Because Act is a 1-row ActBatch whose
/// rows never interact, and the state/reduce/combine-and-roll steps are the
/// functions EadrlCombiner::Predict calls, a batched serving replay is
/// bit-identical to per-session serial evaluation
/// (tests/serve_parity_test.cc).
///
/// Admission control: a request is shed with Status::ResourceExhausted when
/// the queue is at max_queue or admitted-but-incomplete requests reach
/// max_inflight. Shedding is the backpressure signal of an open-loop load
/// driver (tools/eadrl_serve.cc --expect-shed).
/// Admission converts the payload to policy units with the session's
/// scaler. A malformed payload -- a predict whose member forecasts are not
/// one finite value per pool member, an observe with a non-finite actual, or
/// a value whose scaling overflows -- is refused with
/// Status::InvalidArgument and never reaches the drain wave.
///
/// Threading: all public entry points are thread-safe. Per-session state is
/// guarded by the session mutex and sessions are striped across the table's
/// shard locks; the shared policies are read-only (their actor passes run on
/// wave-owned buffers).
class ForecastService {
 public:
  /// SLO objective indices within slo_tracker().
  static constexpr size_t kSloLatencyObjective = 0;
  static constexpr size_t kSloAvailabilityObjective = 1;

  explicit ForecastService(const ServeConfig& config);

  /// Drains in-flight work, then tears down. The configured pool must
  /// outlive the service.
  ~ForecastService();

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Takes ownership of a trained (Initialize or LoadPolicy succeeded)
  /// combiner and returns its policy id. The combiner's online state is
  /// snapshotted now as the fresh-session template.
  size_t RegisterPolicy(std::unique_ptr<core::EadrlCombiner> trained);

  /// Creates a resident session for `tenant` against `policy_id`.
  /// `scaler` (optional, copied) is the tenant-units <-> policy-units affine
  /// map. FailedPrecondition when the tenant already has a session;
  /// OutOfRange for an unknown policy id.
  Status CreateSession(const std::string& tenant, size_t policy_id,
                       const ts::StandardScaler* scaler = nullptr);

  /// Removes the tenant's session. NotFound when absent.
  Status EvictSession(const std::string& tenant);

  /// Restores the tenant's session to fresh-construction state (window
  /// re-cloned from the policy snapshot, drift detector and counters
  /// zeroed). NotFound when absent.
  Status ResetSession(const std::string& tenant);

  /// Admits a predict request: `preds` are the member forecasts in tenant
  /// units, one per member of the session policy's pool; `done` receives
  /// the combined forecast (tenant units) on the drainer thread. Returns the
  /// admission decision: NotFound (no session), ResourceExhausted (shed) or
  /// InvalidArgument (wrong length, or a forecast that is non-finite before
  /// or after the tenant's scaling); once Ok is returned, `done` will be
  /// called. `done` must not throw.
  Status PredictAsync(const std::string& tenant, math::Vec preds,
                      std::function<void(StatusOr<double>)> done);

  /// Admits an observe request feeding the tenant's realized value (tenant
  /// units) to its drift detector. `done` (optional) runs on the drainer
  /// thread; same admission semantics as PredictAsync (InvalidArgument for
  /// an `actual` that is non-finite before or after scaling).
  Status ObserveActualAsync(const std::string& tenant, double actual,
                            std::function<void(Status)> done = {});

  /// Blocking conveniences over the async entry points (admission errors
  /// propagate). Not legal in manual_drain mode on a parallel pool (nothing
  /// would pump the queue).
  StatusOr<double> Predict(const std::string& tenant, const math::Vec& preds);
  Status ObserveActual(const std::string& tenant, double actual);

  StatusOr<SessionInfo> GetSessionInfo(const std::string& tenant);

  /// Runs one TTL sweep; returns sessions evicted.
  size_t EvictIdleSessions();

  ServeStats Stats() const;

  /// End-to-end predict latency (admission to completion callback), seconds.
  obs::HistogramSnapshot PredictLatencySnapshot() const;

  /// Windowed predict latency over the last ServeConfig::window span.
  obs::HistogramSnapshot PredictLatencyWindowSnapshot() const;

  /// Windowed backlog residence time (see BatchingQueue::QueueDelaySnapshot).
  obs::HistogramSnapshot QueueDelaySnapshot() const;

  /// The service's SLO tracker; nullptr when ServeConfig::slo.enabled is
  /// false. Objective 0 is predict latency, objective 1 availability.
  obs::SloTracker* slo_tracker() { return slo_.get(); }
  const obs::SloTracker* slo_tracker() const { return slo_.get(); }

  /// Per-tenant / per-policy windowed predict-latency drill-down; nullptr
  /// when the corresponding cap in ServeConfig is 0.
  const obs::LabeledWindowedFamily* tenant_drilldown() const {
    return tenant_family_.get();
  }
  const obs::LabeledWindowedFamily* policy_drilldown() const {
    return policy_family_.get();
  }

  /// Blocks until all admitted requests completed (see BatchingQueue::Flush).
  void Flush();

  /// Manual-drain pump: processes the current backlog as one batch on the
  /// calling thread. Returns false when the queue was empty.
  bool DrainOnce();

  const ServeConfig& config() const { return config_; }

 private:
  void ProcessBatch(std::vector<Request> batch);
  /// One wave: at most one request per session, batched actor passes
  /// grouped by policy (on `ws`, which the batch reuses across its waves),
  /// then per-request apply + completion.
  void ProcessWave(std::vector<Request>* batch,
                   const std::vector<size_t>& wave, math::Workspace* ws);
  Status Admit(Request request, const std::string& tenant);

  ServeConfig config_;
  size_t effective_max_inflight_;

  chk::OrderedMutex policies_mu_{EADRL_LOCK_RANK(serve_policies),
                                 "serve::ForecastService::policies_mu_"};
  std::vector<std::shared_ptr<Policy>> policies_ EADRL_GUARDED_BY(policies_mu_);

  SessionTable table_;
  std::atomic<uint64_t> next_generation_{0};

  std::atomic<uint64_t> predicts_done_{0};
  std::atomic<uint64_t> observes_done_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> act_batches_{0};
  std::atomic<uint64_t> act_batch_rows_{0};
  std::atomic<uint64_t> drift_events_{0};
  std::atomic<uint64_t> sessions_created_{0};
  std::atomic<uint64_t> evictions_explicit_{0};
  std::atomic<uint64_t> inflight_{0};

  // Cached from the default registry (stable pointers; see DESIGN.md,
  // "Observability").
  obs::Counter* predict_counter_;
  obs::Counter* observe_counter_;
  obs::Counter* shed_counter_;
  obs::Counter* batch_counter_;
  obs::Counter* batch_rows_counter_;
  obs::Gauge* sessions_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Histogram* predict_latency_hist_;
  obs::Histogram* observe_latency_hist_;
  obs::Histogram* occupancy_hist_;
  /// eadrl_serve_rejected_total{reason}, one per admission rejection reason
  /// (indexed like service.cc's RejectReason); filled by the constructor,
  /// read-only afterwards.
  std::vector<obs::Counter*> rejected_counters_ EADRL_UNGUARDED;

  // Service-owned windowed stats (NOT in the default registry: they follow
  // ServeConfig::window's injected clock, and each service instance gets its
  // own window — exporters reach them through sections, see DESIGN.md "Live
  // serving observability"). All internally synchronized.
  obs::Counter predict_window_ EADRL_UNGUARDED;
  obs::Counter shed_window_ EADRL_UNGUARDED;
  obs::Histogram predict_latency_window_ EADRL_UNGUARDED;
  /// Null unless the corresponding config enables them.
  std::unique_ptr<obs::SloTracker> slo_ EADRL_UNGUARDED;
  std::unique_ptr<obs::LabeledWindowedFamily> tenant_family_ EADRL_UNGUARDED;
  std::unique_ptr<obs::LabeledWindowedFamily> policy_family_ EADRL_UNGUARDED;
  /// ServeConfig::windowed_stats: feed the windowed counters above.
  bool windowed_ = false;
  /// Any live-obs sink enabled (windowed stats, SLO, drill-down): the
  /// completion path reads the window clock only when something consumes it.
  bool obs_live_ = false;

  /// Declared last: its destructor drains while every member above is alive
  /// (ProcessBatch touches the table, counters and metrics).
  BatchingQueue queue_;
};

}  // namespace eadrl::serve

#endif  // EADRL_SERVE_SERVICE_H_
