#include "serve/replay.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "ts/scaler.h"

namespace eadrl::serve {
namespace {

/// Arrival-rate for a virtual time under the bursty schedule: alternating
/// hot/cold windows whose rates straddle the target.
double BurstyRate(double virtual_seconds, const ReplayOptions& options) {
  const double period = options.burst_seconds + options.idle_seconds;
  const double phase = std::fmod(virtual_seconds, period);
  if (phase < options.burst_seconds) {
    return options.target_qps * options.burst_factor;
  }
  return options.target_qps / options.burst_factor;
}

}  // namespace

StatusOr<ReplayReport> RunOpenLoopReplay(ForecastService* service,
                                         const math::Matrix& preds,
                                         const math::Vec& actuals,
                                         const ReplayOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("replay requires a service");
  }
  if (preds.rows() == 0 || preds.cols() == 0) {
    return Status::InvalidArgument("replay requires a non-empty stream");
  }
  if (actuals.size() != preds.rows()) {
    return Status::InvalidArgument("actuals/preds row mismatch");
  }
  if (options.tenants == 0 || options.requests == 0) {
    return Status::InvalidArgument("replay requires tenants and requests");
  }
  if (options.target_qps <= 0.0) {
    return Status::InvalidArgument("target_qps must be positive");
  }
  if (options.schedule == ReplayOptions::Schedule::kBursty &&
      (options.burst_factor < 1.0 || options.burst_seconds <= 0.0 ||
       options.idle_seconds <= 0.0)) {
    return Status::InvalidArgument("invalid bursty schedule parameters");
  }

  Rng rng(options.seed);

  // Per-tenant identity: a name, an affine unit map, and a stream cursor.
  std::vector<std::string> names;
  std::vector<ts::StandardScaler> scalers;
  std::vector<size_t> next_step(options.tenants, 0);
  names.reserve(options.tenants);
  scalers.reserve(options.tenants);
  for (size_t t = 0; t < options.tenants; ++t) {
    names.push_back("tenant-" + std::to_string(t));
    scalers.push_back(ts::StandardScaler::FromMoments(
        rng.Uniform(-10.0, 10.0), rng.Uniform(0.5, 2.0)));
    if (options.create_sessions) {
      EADRL_RETURN_IF_ERROR(
          service->CreateSession(names[t], options.policy_id, &scalers[t]));
    }
  }

  const ServeStats before = service->Stats();

  std::atomic<uint64_t> observe_shed{0};
  std::atomic<uint64_t> observe_evicted{0};

  const auto start = std::chrono::steady_clock::now();
  double arrival = 0.0;  // virtual seconds since start.
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t predict_shed = 0;
  uint64_t recreated = 0;

  for (size_t i = 0; i < options.requests; ++i) {
    const double rate = options.schedule == ReplayOptions::Schedule::kPoisson
                            ? options.target_qps
                            : BurstyRate(arrival, options);
    arrival += rng.Exponential(rate);
    const auto release =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrival));
    // Open loop: sleep until the scheduled release, never past it — when the
    // service falls behind, requests fire back-to-back and queueing shows up
    // as latency/shedding instead of being absorbed by the driver.
    if (release > std::chrono::steady_clock::now()) {
      std::this_thread::sleep_until(release);
    }

    const size_t tenant = rng.Index(options.tenants);
    const size_t row = next_step[tenant] % preds.rows();
    ++next_step[tenant];
    math::Vec member_preds = scalers[tenant].Inverse(preds.Row(row));
    const double actual_raw = scalers[tenant].Inverse(actuals[row]);

    ++submitted;
    const std::string& name = names[tenant];
    const bool observe = options.observe;
    std::atomic<uint64_t>* observe_shed_ptr = &observe_shed;
    std::atomic<uint64_t>* observe_evicted_ptr = &observe_evicted;
    auto on_predict = [service, name, actual_raw, observe, observe_shed_ptr,
                       observe_evicted_ptr](StatusOr<double> result) {
      if (!result.ok() || !observe) return;
      // Feed the realized value back; runs on the drainer thread, so this
      // is the re-entrant enqueue path BatchingQueue covers.
      Status st = service->ObserveActualAsync(name, actual_raw);
      if (st.code() == StatusCode::kResourceExhausted) {
        observe_shed_ptr->fetch_add(1, std::memory_order_relaxed);
      } else if (st.code() == StatusCode::kNotFound) {
        observe_evicted_ptr->fetch_add(1, std::memory_order_relaxed);
      }
    };
    Status admitted =
        service->PredictAsync(name, std::move(member_preds), on_predict);
    if (admitted.code() == StatusCode::kNotFound && options.create_sessions) {
      // The service evicted the tenant (under a session cap, as the LRU
      // victim): recreate its session with the tenant's own scaler and
      // admit the request once more.
      EADRL_RETURN_IF_ERROR(
          service->CreateSession(name, options.policy_id, &scalers[tenant]));
      ++recreated;
      admitted = service->PredictAsync(
          name, scalers[tenant].Inverse(preds.Row(row)), on_predict);
    }
    if (admitted.ok()) {
      ++accepted;
    } else if (admitted.code() == StatusCode::kResourceExhausted) {
      ++predict_shed;
    } else {
      return admitted;  // NotFound etc. — a driver bug, not load shedding.
    }
  }

  // Wait for every admitted request (and the observes their callbacks
  // spawned) to complete before measuring.
  if (service->config().manual_drain) {
    while (service->DrainOnce()) {
    }
  }
  service->Flush();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const ServeStats after = service->Stats();
  const obs::HistogramSnapshot lat = service->PredictLatencySnapshot();

  ReplayReport report;
  report.submitted = submitted;
  report.accepted = accepted;
  report.predict_shed = predict_shed;
  report.observe_shed = observe_shed.load(std::memory_order_relaxed);
  report.observe_evicted = observe_evicted.load(std::memory_order_relaxed);
  report.sessions_recreated = recreated;
  report.wall_seconds = wall;
  report.offered_qps =
      arrival > 0.0 ? static_cast<double>(submitted) / arrival : 0.0;
  report.achieved_qps =
      wall > 0.0 ? static_cast<double>(accepted) / wall : 0.0;
  // The histogram accumulates across replays in one process; quantiles are
  // reported over the cumulative distribution (exact for a fresh service),
  // max/percentiles still bound this replay from above.
  report.predict_p50_ms = lat.Quantile(0.5) * 1e3;
  report.predict_p99_ms = lat.Quantile(0.99) * 1e3;
  report.predict_max_ms = lat.max * 1e3;
  report.waves = after.batches - before.batches;
  report.act_batches = after.act_batches - before.act_batches;
  report.act_batch_rows = after.act_batch_rows - before.act_batch_rows;
  report.drift_events = after.drift_events - before.drift_events;
  report.sessions = after.sessions;
  return report;
}

}  // namespace eadrl::serve
