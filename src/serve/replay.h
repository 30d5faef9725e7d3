#ifndef EADRL_SERVE_REPLAY_H_
#define EADRL_SERVE_REPLAY_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "serve/service.h"

namespace eadrl::serve {

/// Synthetic open-loop traffic replayed against a ForecastService: requests
/// are released on a fixed arrival schedule regardless of completion (the
/// load-testing discipline that surfaces queueing delay instead of hiding it
/// behind closed-loop self-throttling). Each of `tenants` sessions gets its
/// own affine unit map (a per-tenant StandardScaler) and streams the shared
/// validation prediction matrix mapped into its units; arrivals pick a
/// uniform-random tenant per request.
struct ReplayOptions {
  enum class Schedule {
    kPoisson,  ///< exponential inter-arrivals at target_qps.
    kBursty,   ///< alternating burst/idle windows around target_qps.
  };

  size_t tenants = 1000;
  size_t requests = 20000;
  double target_qps = 20000.0;
  Schedule schedule = Schedule::kPoisson;
  /// Bursty: arrival rate is target_qps * burst_factor inside a burst window
  /// and target_qps / burst_factor between bursts.
  double burst_factor = 4.0;
  double burst_seconds = 0.05;
  double idle_seconds = 0.05;
  uint64_t seed = 42;
  size_t policy_id = 0;
  /// Feed each successful prediction's realized value back via
  /// ObserveActual (exercises the drift path and doubles the offered load).
  bool observe = true;
  /// Create sessions tenant-0..tenant-N-1 before replaying (off when the
  /// caller pre-created them). A replay that created the sessions also
  /// recreates one the service evicted meanwhile (under a session cap, the
  /// LRU victim), with the same scaler, and admits the request once more.
  bool create_sessions = true;
};

/// What one replay did and measured. Latencies come from the service's
/// end-to-end predict histogram; batching/shedding counters are deltas of
/// ForecastService::Stats across the replay.
struct ReplayReport {
  uint64_t submitted = 0;      ///< predict admissions attempted.
  uint64_t accepted = 0;       ///< predicts admitted.
  uint64_t predict_shed = 0;   ///< predicts refused with ResourceExhausted.
  uint64_t observe_shed = 0;   ///< observes refused with ResourceExhausted.
  /// Observes refused with NotFound: the session was evicted between the
  /// predict's admission and its completion.
  uint64_t observe_evicted = 0;
  /// Sessions recreated after an eviction (see create_sessions).
  uint64_t sessions_recreated = 0;
  double wall_seconds = 0.0;
  double offered_qps = 0.0;    ///< submitted / scheduled arrival horizon.
  double achieved_qps = 0.0;   ///< accepted / wall_seconds.
  double predict_p50_ms = 0.0;
  double predict_p99_ms = 0.0;
  double predict_max_ms = 0.0;
  uint64_t waves = 0;
  uint64_t act_batches = 0;
  uint64_t act_batch_rows = 0;
  uint64_t drift_events = 0;
  uint64_t sessions = 0;       ///< resident after the replay.

  /// Mean rows per batched actor pass during the replay (> 1 means
  /// cross-tenant batching actually happened).
  double MeanBatchOccupancy() const {
    return act_batches == 0 ? 0.0
                            : static_cast<double>(act_batch_rows) /
                                  static_cast<double>(act_batches);
  }
};

/// Replays `options.requests` predict (plus optional observe) requests of
/// the validation stream `preds`/`actuals` (policy units; rows cycle) against
/// `service`. Blocks until every admitted request completed. InvalidArgument
/// on inconsistent inputs; session-creation failures propagate, and so does
/// an admission refused for any reason other than shedding, except a
/// NotFound the replay mends by recreating the session.
StatusOr<ReplayReport> RunOpenLoopReplay(ForecastService* service,
                                         const math::Matrix& preds,
                                         const math::Vec& actuals,
                                         const ReplayOptions& options);

}  // namespace eadrl::serve

#endif  // EADRL_SERVE_REPLAY_H_
