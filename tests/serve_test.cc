// Functional tests for the multi-tenant serving layer: session lifecycle,
// admission control / shedding, LRU + TTL eviction, cross-tenant batching
// stats, the drift/window reset contract across session recreation, and the
// per-session serialization guard. Services here run manual_drain so every
// wave is pumped deterministically on the test thread.
#define EADRL_CHK_FORCE_ON 1

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chk/chk.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/vec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "ts/datasets.h"
#include "ts/scaler.h"

namespace eadrl {
namespace {

struct Trained {
  exp::PoolRun pool;
  core::EadrlConfig config;
  std::string policy_path;
};

/// Trains one tiny policy ONCE per test binary and saves it; every test
/// rebuilds a combiner from the saved file (cheap) instead of retraining.
const Trained& GetTrained() {
  static Trained* trained = [] {
    auto* t = new Trained;
    auto series = ts::MakeDataset(2, 42, 160);
    EXPECT_TRUE(series.ok());
    exp::ExperimentOptions opt;
    opt.seed = 42;
    opt.pool.fast_mode = true;
    opt.pool.nn_epochs = 2;
    opt.eadrl.max_episodes = 2;
    opt.eadrl.restarts = 1;
    t->pool = exp::PreparePool(*series, opt);
    t->config = opt.eadrl;
    core::EadrlCombiner combiner(opt.eadrl);
    EXPECT_TRUE(combiner.Initialize(t->pool.val_preds, t->pool.val_actuals).ok());
    t->policy_path = ::testing::TempDir() + "serve_test_policy.eadrl";
    EXPECT_TRUE(combiner.SavePolicy(t->policy_path).ok());
    return t;
  }();
  return *trained;
}

std::unique_ptr<core::EadrlCombiner> NewCombiner() {
  auto combiner = std::make_unique<core::EadrlCombiner>(GetTrained().config);
  EXPECT_TRUE(combiner->LoadPolicy(GetTrained().policy_path).ok());
  return combiner;
}

serve::ServeConfig ManualConfig() {
  serve::ServeConfig config;
  config.manual_drain = true;
  return config;
}

math::Vec Preds(size_t step) {
  const auto& pool = GetTrained().pool;
  return pool.test_preds.Row(step % pool.test_preds.rows());
}

double Actual(size_t step) {
  const auto& pool = GetTrained().pool;
  return pool.test_actuals[step % pool.test_actuals.size()];
}

TEST(ForecastServiceTest, PredictObserveFlow) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  StatusOr<double> out = service.Predict("a", Preds(0));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::isfinite(*out));
  ASSERT_TRUE(service.ObserveActual("a", Actual(0)).ok());

  StatusOr<serve::SessionInfo> info = service.GetSessionInfo("a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->predicts, 1u);
  EXPECT_EQ(info->observes, 1u);
  EXPECT_TRUE(info->has_last_prediction);
  EXPECT_EQ(info->drift_observations, 1u);

  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.predicts, 1u);
  EXPECT_EQ(stats.observes, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.sessions, 1u);
}

TEST(ForecastServiceTest, ErrorCodes) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());

  EXPECT_EQ(service.CreateSession("a", policy_id + 7).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  EXPECT_EQ(service.CreateSession("a", policy_id).code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(service.Predict("ghost", Preds(0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.ObserveActual("ghost", 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.GetSessionInfo("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.EvictSession("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.ResetSession("ghost").code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.EvictSession("a").ok());
  EXPECT_EQ(service.EvictSession("a").code(), StatusCode::kNotFound);
}

double RejectedTotal(const char* reason) {
  return obs::MetricRegistry::Default()
      .GetCounter("eadrl_serve_rejected_total", {{"reason", reason}})
      ->Value();
}

const obs::SpanAttr* FindAttr(const obs::FinishedSpan& span,
                              const char* key) {
  for (const obs::SpanAttr& attr : span.attrs) {
    if (std::strcmp(attr.key, key) == 0) return &attr;
  }
  return nullptr;
}

/// The spans of `name` in `buffer`, in start order.
std::vector<obs::FinishedSpan> SpansNamed(const obs::TraceBuffer& buffer,
                                          const char* name) {
  std::vector<obs::FinishedSpan> out;
  for (obs::FinishedSpan& span : buffer.Snapshot()) {
    if (std::strcmp(span.name, name) == 0) out.push_back(std::move(span));
  }
  return out;
}

/// The `rejected` reasons of the admission spans in `buffer`, each checked
/// to name `tenant`.
std::vector<std::string> RejectedReasons(const obs::TraceBuffer& buffer,
                                         const std::string& tenant) {
  std::vector<std::string> reasons;
  for (const obs::FinishedSpan& span :
       SpansNamed(buffer, "serve_admission")) {
    const obs::SpanAttr* rejected = FindAttr(span, "rejected");
    if (rejected == nullptr) continue;
    reasons.push_back(rejected->str);
    const obs::SpanAttr* who = FindAttr(span, "tenant");
    EXPECT_TRUE(who != nullptr && who->str == tenant);
    EXPECT_NE(FindAttr(span, "kind"), nullptr);
  }
  return reasons;
}

// Malformed payloads are refused at admission with a typed status, counted
// per reason and named on the traced admission span. None reaches the drain
// wave, where a non-finite forecast would trip a contract (aborting the
// server) and a wrong-length one would be indexed out of bounds, and none
// touches the session: it keeps serving exactly as an untouched one does.
TEST(ForecastServiceTest, MalformedPayloadsRejectedAtAdmission) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("untouched", policy_id).ok());
  const double size_before = RejectedTotal("preds_size");
  const double preds_before = RejectedTotal("nonfinite_preds");
  const double actual_before = RejectedTotal("nonfinite_actual");

  const math::Vec good = Preds(0);
  math::Vec short_preds = good;
  short_preds.pop_back();
  math::Vec long_preds = good;
  long_preds.push_back(1.0);
  math::Vec nan_preds = good;
  nan_preds[1] = std::numeric_limits<double>::quiet_NaN();
  math::Vec inf_preds = good;
  inf_preds.back() = std::numeric_limits<double>::infinity();

  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  for (const math::Vec& preds :
       {short_preds, long_preds, math::Vec{}, nan_preds, inf_preds}) {
    EXPECT_EQ(service.Predict("a", preds).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (double actual : {std::numeric_limits<double>::quiet_NaN(),
                        -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(service.ObserveActual("a", actual).code(),
              StatusCode::kInvalidArgument);
  }
  obs::SetTraceBuffer(nullptr);

  EXPECT_EQ(RejectedTotal("preds_size") - size_before, 3.0);
  EXPECT_EQ(RejectedTotal("nonfinite_preds") - preds_before, 2.0);
  EXPECT_EQ(RejectedTotal("nonfinite_actual") - actual_before, 2.0);
  EXPECT_EQ(RejectedReasons(buffer, "a"),
            (std::vector<std::string>{"preds_size", "preds_size", "preds_size",
                                      "nonfinite_preds", "nonfinite_preds",
                                      "nonfinite_actual",
                                      "nonfinite_actual"}));
  serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.predicts, 0u);
  EXPECT_EQ(stats.observes, 0u);

  for (size_t step = 0; step < 3; ++step) {
    StatusOr<double> got = service.Predict("a", Preds(step));
    StatusOr<double> want = service.Predict("untouched", Preds(step));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want);
    ASSERT_TRUE(service.ObserveActual("a", Actual(step)).ok());
    ASSERT_TRUE(service.ObserveActual("untouched", Actual(step)).ok());
  }
  stats = service.Stats();
  EXPECT_EQ(stats.predicts, 6u);
  EXPECT_EQ(stats.observes, 6u);
}

// A finite payload whose tenant scaling overflows is refused at admission
// too. Unchecked, the predict would trip the drain wave's finiteness
// contract (or, with contracts compiled out, return inf and leave it in the
// window), and the observe would turn the drift statistic into NaN.
TEST(ForecastServiceTest, ScaledOverflowRejectedAtAdmission) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  const ts::StandardScaler scaler = ts::StandardScaler::FromMoments(0.0, 0.5);
  ASSERT_TRUE(service.CreateSession("a", policy_id, &scaler).ok());
  ASSERT_TRUE(service.CreateSession("twin", policy_id, &scaler).ok());
  const double overflow_before = RejectedTotal("scaled_overflow");
  constexpr double kHuge = 1.5e308;  // finite; kHuge / 0.5 is not.

  math::Vec huge_preds = Preds(0);
  huge_preds[0] = kHuge;
  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  EXPECT_EQ(service.Predict("a", huge_preds).status().code(),
            StatusCode::kInvalidArgument);
  // A prediction first, so the observe would reach the drift detector.
  StatusOr<double> got = service.Predict("a", Preds(0));
  StatusOr<double> want = service.Predict("twin", Preds(0));
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got, *want);
  EXPECT_EQ(service.ObserveActual("a", kHuge).code(),
            StatusCode::kInvalidArgument);
  obs::SetTraceBuffer(nullptr);

  EXPECT_EQ(RejectedTotal("scaled_overflow") - overflow_before, 2.0);
  EXPECT_EQ(RejectedReasons(buffer, "a"),
            (std::vector<std::string>{"scaled_overflow", "scaled_overflow"}));

  for (size_t step = 1; step <= 3; ++step) {
    ASSERT_TRUE(service.ObserveActual("a", Actual(step - 1)).ok());
    ASSERT_TRUE(service.ObserveActual("twin", Actual(step - 1)).ok());
    got = service.Predict("a", Preds(step));
    want = service.Predict("twin", Preds(step));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want);
  }
  StatusOr<serve::SessionInfo> a = service.GetSessionInfo("a");
  StatusOr<serve::SessionInfo> twin = service.GetSessionInfo("twin");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(a->predicts, 4u);
  EXPECT_EQ(a->observes, 3u);
  EXPECT_TRUE(std::isfinite(a->drift_cumulative));
  EXPECT_EQ(a->drift_cumulative, twin->drift_cumulative);
}

// A finite member forecast large enough to overflow the online window's
// statistics is refused at admission. Unchecked, with no scaler, two such
// predicts are accepted and the third aborts on the actor pass's
// finite-input contract (with contracts compiled out it would serve a
// NaN-driven action and poison the window).
TEST(ForecastServiceTest, WindowOverflowingMagnitudeRejectedAtAdmission) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("twin", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("edge", policy_id).ok());
  const double magnitude_before = RejectedTotal("magnitude");
  const size_t members = Preds(0).size();

  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.Predict("a", math::Vec(members, 1e308)).status().code(),
              StatusCode::kInvalidArgument);
  }
  obs::SetTraceBuffer(nullptr);
  EXPECT_EQ(RejectedTotal("magnitude") - magnitude_before, 3.0);
  EXPECT_EQ(RejectedReasons(buffer, "a"),
            (std::vector<std::string>(3, "magnitude")));

  for (size_t step = 0; step < 3; ++step) {
    StatusOr<double> got = service.Predict("a", Preds(step));
    StatusOr<double> want = service.Predict("twin", Preds(step));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got, *want);
    ASSERT_TRUE(service.ObserveActual("a", Actual(step)).ok());
    ASSERT_TRUE(service.ObserveActual("twin", Actual(step)).ok());
  }

  // Just inside the bound sqrt(DBL_MAX / (4 omega)): accepted, and the
  // window it fills keeps every later state finite.
  const double omega = static_cast<double>(GetTrained().config.omega);
  const double limit =
      std::sqrt(std::numeric_limits<double>::max() / (4.0 * omega));
  const math::Vec edge(members, std::nextafter(limit, 0.0));
  for (int i = 0; i < 3; ++i) {
    StatusOr<double> out = service.Predict("edge", edge);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(std::isfinite(*out));
  }
  // The observe side needs no such bound: extreme finite actuals leave the
  // drift statistic finite.
  ASSERT_TRUE(service.ObserveActual("edge", 1.7e308).ok());
  ASSERT_TRUE(service.Predict("edge", Preds(0)).ok());
  ASSERT_TRUE(service.ObserveActual("edge", -1.7e308).ok());
  StatusOr<serve::SessionInfo> info = service.GetSessionInfo("edge");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(std::isfinite(info->drift_cumulative));
}

TEST(ForecastServiceTest, QueueBoundShedsWithTypedStatus) {
  serve::ServeConfig config = ManualConfig();
  config.max_queue = 3;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  std::atomic<size_t> completed{0};
  auto done = [&completed](StatusOr<double> result) {
    EXPECT_TRUE(result.ok());
    ++completed;
  };
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.PredictAsync("a", Preds(i), done).ok());
  }
  Status shed = service.PredictAsync("a", Preds(3), done);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(service.DrainOnce());
  EXPECT_EQ(completed.load(), 3u);
  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  // The shed request never reached a wave: only 3 predicts completed.
  EXPECT_EQ(stats.predicts, 3u);
}

TEST(ForecastServiceTest, InflightBoundShedsWithTypedStatus) {
  serve::ServeConfig config = ManualConfig();
  config.max_inflight = 2;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  auto done = [](StatusOr<double> result) { EXPECT_TRUE(result.ok()); };
  ASSERT_TRUE(service.PredictAsync("a", Preds(0), done).ok());
  ASSERT_TRUE(service.PredictAsync("a", Preds(1), done).ok());
  EXPECT_EQ(service.PredictAsync("a", Preds(2), done).code(),
            StatusCode::kResourceExhausted);
  // Completion frees the budget.
  while (service.DrainOnce()) {
  }
  ASSERT_TRUE(service.PredictAsync("a", Preds(2), done).ok());
  while (service.DrainOnce()) {
  }
  EXPECT_EQ(service.Stats().inflight, 0u);
}

TEST(ForecastServiceTest, WavesBatchAcrossTenantsButNotWithinOne) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  for (const char* tenant : {"a", "b", "c"}) {
    ASSERT_TRUE(service.CreateSession(tenant, policy_id).ok());
  }
  // Two queued requests per tenant: one drain must process them as two
  // waves (per-session FIFO, one request per session per wave), each wave
  // one 3-row batched actor pass.
  std::vector<double> outputs;
  auto done = [&outputs](StatusOr<double> result) {
    ASSERT_TRUE(result.ok());
    outputs.push_back(*result);
  };
  for (size_t step = 0; step < 2; ++step) {
    for (const char* tenant : {"a", "b", "c"}) {
      ASSERT_TRUE(service.PredictAsync(tenant, Preds(step), done).ok());
    }
  }
  EXPECT_TRUE(service.DrainOnce());
  EXPECT_EQ(outputs.size(), 6u);
  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.act_batches, 2u);
  EXPECT_EQ(stats.act_batch_rows, 6u);
  EXPECT_DOUBLE_EQ(stats.MeanActBatchRows(), 3.0);
}

TEST(ForecastServiceTest, LruEvictionAtCapacity) {
  serve::ServeConfig config = ManualConfig();
  config.shards = 1;
  config.max_sessions = 2;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("b", policy_id).ok());
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(service.GetSessionInfo("a").ok());
  ASSERT_TRUE(service.CreateSession("c", policy_id).ok());

  EXPECT_TRUE(service.GetSessionInfo("a").ok());
  EXPECT_EQ(service.GetSessionInfo("b").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.GetSessionInfo("c").ok());
  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.evictions_lru, 1u);
  EXPECT_EQ(stats.sessions, 2u);
}

// More tenants than the session cap: the replay recreates each session the
// LRU evicted, with the tenant's own scaler, and completes every request.
// The observes of predicts whose session was evicted before they completed
// are counted, not lost.
TEST(ForecastServiceTest, ReplayRecreatesLruEvictedSessions) {
  serve::ServeConfig config = ManualConfig();
  config.shards = 4;
  config.max_sessions = 4;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  serve::ReplayOptions options;
  options.tenants = 16;
  options.requests = 200;
  options.target_qps = 1e6;
  options.policy_id = policy_id;
  const auto& pool = GetTrained().pool;
  StatusOr<serve::ReplayReport> report = serve::RunOpenLoopReplay(
      &service, pool.test_preds, pool.test_actuals, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->submitted, 200u);
  EXPECT_EQ(report->accepted, 200u);
  EXPECT_EQ(report->predict_shed, 0u);
  EXPECT_GT(report->sessions_recreated, 0u);
  EXPECT_LE(report->sessions, 4u);
  const serve::ServeStats stats = service.Stats();
  EXPECT_GT(stats.evictions_lru, 0u);
  EXPECT_EQ(stats.sessions_created, 16u + report->sessions_recreated);
  EXPECT_EQ(stats.predicts, 200u);
  // Every completed predict fed one observe, which either completed or found
  // its session gone.
  EXPECT_EQ(stats.observes + report->observe_evicted + report->observe_shed,
            200u);
  EXPECT_GT(report->observe_evicted, 0u);
}

TEST(ForecastServiceTest, TtlEvictionSweepsIdleSessions) {
  serve::ServeConfig config = ManualConfig();
  config.session_ttl_seconds = 0.02;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("idle", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("hot", policy_id).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Touch "hot" inside the TTL window; "idle" ages out.
  ASSERT_TRUE(service.GetSessionInfo("hot").ok());
  EXPECT_EQ(service.EvictIdleSessions(), 1u);
  EXPECT_EQ(service.GetSessionInfo("idle").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.GetSessionInfo("hot").ok());
  EXPECT_EQ(service.Stats().evictions_ttl, 1u);
}

/// The session-recreation reset contract: NO drift-detector or window state
/// may survive eviction + recreation (or ResetSession). Regression test for
/// the serving layer's statefulness: a recreated session must be
/// indistinguishable from a brand-new one, down to its first prediction.
TEST(ForecastServiceTest, DriftAndWindowStateResetOnRecreation) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  StatusOr<double> first = service.Predict("a", Preds(0));
  ASSERT_TRUE(first.ok());
  for (size_t step = 1; step < 6; ++step) {
    ASSERT_TRUE(service.Predict("a", Preds(step)).ok());
    // Wildly wrong actuals pump the drift detector's state.
    ASSERT_TRUE(service.ObserveActual("a", Actual(step) + 100.0).ok());
  }
  StatusOr<serve::SessionInfo> dirty = service.GetSessionInfo("a");
  ASSERT_TRUE(dirty.ok());
  const uint64_t first_generation = dirty->generation;
  EXPECT_EQ(dirty->predicts, 6u);
  EXPECT_GT(dirty->drift_observations, 0u);
  EXPECT_TRUE(dirty->has_last_prediction);

  // Evict + recreate.
  ASSERT_TRUE(service.EvictSession("a").ok());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  StatusOr<serve::SessionInfo> fresh = service.GetSessionInfo("a");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->generation, first_generation);
  EXPECT_EQ(fresh->predicts, 0u);
  EXPECT_EQ(fresh->observes, 0u);
  EXPECT_EQ(fresh->drift_events, 0u);
  EXPECT_EQ(fresh->drift_observations, 0u);
  EXPECT_DOUBLE_EQ(fresh->drift_cumulative, 0.0);
  EXPECT_FALSE(fresh->has_last_prediction);
  // The strongest leak check: with the window re-cloned from the policy
  // snapshot, the recreated session's first prediction is bit-identical to
  // the original session's first prediction.
  StatusOr<double> refirst = service.Predict("a", Preds(0));
  ASSERT_TRUE(refirst.ok());
  EXPECT_EQ(*refirst, *first);

  // ResetSession gives the same contract without dropping residency.
  for (size_t step = 1; step < 4; ++step) {
    ASSERT_TRUE(service.Predict("a", Preds(step)).ok());
    ASSERT_TRUE(service.ObserveActual("a", Actual(step) - 100.0).ok());
  }
  ASSERT_TRUE(service.ResetSession("a").ok());
  StatusOr<serve::SessionInfo> reset = service.GetSessionInfo("a");
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(reset->predicts, 0u);
  EXPECT_EQ(reset->drift_observations, 0u);
  EXPECT_FALSE(reset->has_last_prediction);
  StatusOr<double> after_reset = service.Predict("a", Preds(0));
  ASSERT_TRUE(after_reset.ok());
  EXPECT_EQ(*after_reset, *first);
}

TEST(ForecastServiceTest, ScalerMapsTenantUnitsAffinely) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  const ts::StandardScaler scaler =
      ts::StandardScaler::FromMoments(250.0, 12.5);
  ASSERT_TRUE(service.CreateSession("raw", policy_id).ok());
  ASSERT_TRUE(service.CreateSession("scaled", policy_id, &scaler).ok());

  for (size_t step = 0; step < 4; ++step) {
    StatusOr<double> raw = service.Predict("raw", Preds(step));
    StatusOr<double> mapped =
        service.Predict("scaled", scaler.Inverse(Preds(step)));
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(mapped.ok());
    // Transform(Inverse(x)) == x exactly for this affine pair, so the two
    // sessions see identical policy-unit inputs and the scaled session's
    // output is exactly the inverse-mapped raw output.
    EXPECT_DOUBLE_EQ(*mapped, scaler.Inverse(*raw));
  }
}

TEST(ForecastServiceTest, ObserveBeforeAnyPredictIsInert) {
  serve::ForecastService service(ManualConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
  ASSERT_TRUE(service.ObserveActual("a", 123.0).ok());
  StatusOr<serve::SessionInfo> info = service.GetSessionInfo("a");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->observes, 1u);
  // No prediction to score against: the drift detector saw nothing.
  EXPECT_EQ(info->drift_observations, 0u);
}

// ---------------------------------------------------------------------------
// Traced serving: sessions, evictions, admissions, waves and drift are
// recorded as spans whose attributes carry what happened.

TEST(ForecastServiceTraceTest, SessionEvictionWaveAndDriftSpans) {
  serve::ServeConfig config = ManualConfig();
  config.shards = 1;
  config.max_sessions = 2;
  config.session_ttl_seconds = 0.02;
  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  {
    serve::ForecastService service(config);
    const size_t policy_id = service.RegisterPolicy(NewCombiner());
    ASSERT_TRUE(service.CreateSession("a", policy_id).ok());
    ASSERT_TRUE(service.CreateSession("b", policy_id).ok());
    // Accurate actuals, then a wildly wrong one: tenant a's detector fires.
    for (size_t step = 0; step < 4; ++step) {
      StatusOr<double> out = service.Predict("a", Preds(step));
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE(
          service.ObserveActual("a", step < 3 ? *out : *out + 1e6).ok());
    }
    StatusOr<serve::SessionInfo> info = service.GetSessionInfo("a");
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->drift_events, 1u);
    ASSERT_TRUE(service.ResetSession("a").ok());
    // "a" was touched last, so creating "c" evicts "b" from the full stripe.
    ASSERT_TRUE(service.CreateSession("c", policy_id).ok());
    ASSERT_TRUE(service.EvictSession("a").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(service.EvictIdleSessions(), 1u);  // "c" aged out.
  }
  obs::SetTraceBuffer(nullptr);

  // serve_session: three creates (generations 1-3) and one reset.
  const std::vector<obs::FinishedSpan> sessions =
      SpansNamed(buffer, "serve_session");
  ASSERT_EQ(sessions.size(), 4u);
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"a", 1}, {"b", 2}, {"a", 1}, {"c", 3}};
  for (size_t i = 0; i < sessions.size(); ++i) {
    const bool reset = i == 2;
    EXPECT_EQ(FindAttr(sessions[i], "tenant")->str, expected[i].first);
    EXPECT_EQ(FindAttr(sessions[i], "generation")->inum, expected[i].second);
    EXPECT_EQ(FindAttr(sessions[i], "reset")->inum, reset ? 1 : 0);
    const obs::SpanAttr* policy = FindAttr(sessions[i], "policy_id");
    if (reset) {
      EXPECT_EQ(policy, nullptr);
    } else {
      ASSERT_NE(policy, nullptr);
      EXPECT_EQ(policy->inum, 0);
    }
  }

  // serve_evict: lru (b), explicit (a), ttl (c).
  const std::vector<obs::FinishedSpan> evictions =
      SpansNamed(buffer, "serve_evict");
  ASSERT_EQ(evictions.size(), 3u);
  const std::vector<std::pair<std::string, std::string>> evicted = {
      {"b", "lru"}, {"a", "explicit"}, {"c", "ttl"}};
  const int64_t generations[] = {2, 1, 3};
  for (size_t i = 0; i < evictions.size(); ++i) {
    EXPECT_EQ(FindAttr(evictions[i], "tenant")->str, evicted[i].first);
    EXPECT_EQ(FindAttr(evictions[i], "reason")->str, evicted[i].second);
    EXPECT_EQ(FindAttr(evictions[i], "generation")->inum, generations[i]);
  }
  // The LRU eviction happens inside the create that forced it.
  EXPECT_EQ(evictions[0].parent_id, sessions[3].span_id);

  // serve_batch: one single-request wave per call, so four predict waves
  // and four observe waves.
  size_t observe_waves = 0;
  const std::vector<obs::FinishedSpan> waves =
      SpansNamed(buffer, "serve_batch");
  ASSERT_EQ(waves.size(), 8u);
  for (const obs::FinishedSpan& wave : waves) {
    EXPECT_EQ(FindAttr(wave, "wave_size")->inum, 1);
    observe_waves += static_cast<size_t>(FindAttr(wave, "observes")->inum);
  }
  EXPECT_EQ(observe_waves, 4u);

  // Drift lands on the observe's serve_request span, with the generation.
  size_t drift_requests = 0;
  for (const obs::FinishedSpan& request :
       SpansNamed(buffer, "serve_request")) {
    const obs::SpanAttr* drift = FindAttr(request, "drift");
    if (drift == nullptr) continue;
    ++drift_requests;
    EXPECT_EQ(drift->inum, 1);
    EXPECT_EQ(FindAttr(request, "kind")->str, "observe");
    EXPECT_EQ(FindAttr(request, "generation")->inum, 1);
  }
  EXPECT_EQ(drift_requests, 1u);
}

TEST(ForecastServiceTraceTest, ShedAdmissionsNameTheirReason) {
  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  auto done = [](StatusOr<double> result) { EXPECT_TRUE(result.ok()); };
  {
    serve::ServeConfig config = ManualConfig();
    config.max_queue = 1;
    serve::ForecastService service(config);
    const size_t policy_id = service.RegisterPolicy(NewCombiner());
    ASSERT_TRUE(service.CreateSession("q", policy_id).ok());
    ASSERT_TRUE(service.PredictAsync("q", Preds(0), done).ok());
    EXPECT_EQ(service.PredictAsync("q", Preds(1), done).code(),
              StatusCode::kResourceExhausted);
    while (service.DrainOnce()) {
    }
  }
  {
    serve::ServeConfig config = ManualConfig();
    config.max_inflight = 1;
    serve::ForecastService service(config);
    const size_t policy_id = service.RegisterPolicy(NewCombiner());
    ASSERT_TRUE(service.CreateSession("i", policy_id).ok());
    ASSERT_TRUE(service.PredictAsync("i", Preds(0), done).ok());
    EXPECT_EQ(service.PredictAsync("i", Preds(1), done).code(),
              StatusCode::kResourceExhausted);
    while (service.DrainOnce()) {
    }
  }
  obs::SetTraceBuffer(nullptr);

  std::vector<std::string> shed;
  for (const obs::FinishedSpan& span :
       SpansNamed(buffer, "serve_admission")) {
    EXPECT_EQ(FindAttr(span, "kind")->str, "predict");
    const obs::SpanAttr* reason = FindAttr(span, "shed");
    if (reason == nullptr) continue;
    shed.push_back(reason->str);
    if (reason->str == "queue_full") {
      EXPECT_EQ(FindAttr(span, "tenant")->str, "q");
      EXPECT_EQ(FindAttr(span, "queue_depth")->inum, 1);
    } else {
      EXPECT_EQ(FindAttr(span, "tenant")->str, "i");
      EXPECT_EQ(FindAttr(span, "inflight")->inum, 1);
    }
  }
  EXPECT_EQ(shed, (std::vector<std::string>{"queue_full", "inflight"}));
}

// ---------------------------------------------------------------------------
// Live observability wiring (PR 10): windowed stats, queue-delay exposure,
// SLO tracking and the bounded per-tenant drill-down.

std::atomic<uint64_t> g_fake_now_ns{0};

uint64_t FakeNow() { return g_fake_now_ns.load(std::memory_order_relaxed); }

void SetFakeNowSeconds(double seconds) {
  g_fake_now_ns.store(static_cast<uint64_t>(seconds * 1e9),
                      std::memory_order_relaxed);
}

serve::ServeConfig FakeClockConfig() {
  serve::ServeConfig config = ManualConfig();
  config.windowed_stats = true;
  config.window.buckets = 4;
  config.window.tick_seconds = 1.0;
  config.window.now_ns = &FakeNow;
  return config;
}

TEST(ForecastServiceObsTest, WindowedStatsAndQueueDelayExposed) {
  SetFakeNowSeconds(1000.0);
  serve::ForecastService service(FakeClockConfig());
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  for (size_t step = 0; step < 3; ++step) {
    ASSERT_TRUE(service.Predict("a", Preds(step)).ok());
  }
  serve::ServeStats stats = service.Stats();
  EXPECT_DOUBLE_EQ(stats.window_seconds, 1.0);  // one resident sub-window.
  EXPECT_DOUBLE_EQ(stats.window_predict_qps, 3.0);
  EXPECT_DOUBLE_EQ(stats.window_shed_rate, 0.0);
  EXPECT_GT(stats.window_predict_p99_s, 0.0);
  EXPECT_GE(stats.window_predict_p99_s, stats.window_predict_p50_s);
  // Admission-to-drain residence was recorded for every drained request —
  // the ROADMAP "SLO-aware admission" signal.
  EXPECT_EQ(stats.queue_delay_count, 3u);
  EXPECT_GT(stats.queue_delay_mean_s, 0.0);
  EXPECT_GE(stats.queue_delay_max_s, stats.queue_delay_p99_s * (1.0 - 1e-9));

  const obs::HistogramSnapshot latency =
      service.PredictLatencyWindowSnapshot();
  EXPECT_EQ(latency.count, 3u);
  EXPECT_EQ(service.QueueDelaySnapshot().count, 3u);

  // The window slides past the burst: live rates drain to zero while the
  // cumulative counters keep the history.
  SetFakeNowSeconds(1100.0);
  stats = service.Stats();
  EXPECT_DOUBLE_EQ(stats.window_predict_qps, 0.0);
  EXPECT_EQ(stats.queue_delay_count, 0u);
  EXPECT_EQ(stats.predicts, 3u);
}

TEST(ForecastServiceObsTest, ShedRateLandsInTheWindow) {
  SetFakeNowSeconds(0.0);
  serve::ServeConfig config = FakeClockConfig();
  config.max_queue = 1;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  auto done = [](StatusOr<double> result) { EXPECT_TRUE(result.ok()); };
  ASSERT_TRUE(service.PredictAsync("a", Preds(0), done).ok());
  EXPECT_EQ(service.PredictAsync("a", Preds(1), done).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(service.PredictAsync("a", Preds(2), done).code(),
            StatusCode::kResourceExhausted);
  while (service.DrainOnce()) {
  }
  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_DOUBLE_EQ(stats.window_shed_rate, 2.0);
}

TEST(ForecastServiceObsTest, SloTracksLatencyAndAvailability) {
  SetFakeNowSeconds(0.0);
  serve::ServeConfig config = FakeClockConfig();
  config.max_queue = 2;
  config.slo.enabled = true;
  // Impossible threshold: every predict is an SLO miss, so the drained
  // batches must drive the latency objective into breach.
  config.slo.latency_threshold_seconds = 1e-9;
  config.slo.latency_target = 0.9;
  serve::ForecastService service(config);
  ASSERT_NE(service.slo_tracker(), nullptr);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  ASSERT_TRUE(service.CreateSession("a", policy_id).ok());

  auto done = [](StatusOr<double> result) { EXPECT_TRUE(result.ok()); };
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(service.PredictAsync("a", Preds(round), done).ok());
    (void)service.PredictAsync("a", Preds(round), done);  // may shed.
    while (service.DrainOnce()) {
    }
  }
  const obs::SloReport report = service.slo_tracker()->Report();
  ASSERT_EQ(report.objectives.size(), 2u);
  const obs::SloObjectiveReport& latency =
      report.objectives[serve::ForecastService::kSloLatencyObjective];
  EXPECT_GT(latency.bad, 0u);
  EXPECT_EQ(latency.good, 0u);
  EXPECT_GE(report.TotalBreaches(), 1u);
  const obs::SloObjectiveReport& availability =
      report.objectives[serve::ForecastService::kSloAvailabilityObjective];
  // Every admitted request recorded a good availability outcome; sheds (if
  // any raced in) recorded bad ones. Totals must cover all submissions.
  EXPECT_GT(availability.good, 0u);
}

TEST(ForecastServiceObsTest, SloDisabledByDefault) {
  serve::ForecastService service(ManualConfig());
  EXPECT_EQ(service.slo_tracker(), nullptr);
}

TEST(ForecastServiceObsTest, TenantDrilldownBoundedUnderChurn) {
  SetFakeNowSeconds(0.0);
  serve::ServeConfig config = FakeClockConfig();
  config.tenant_drilldown = 4;
  config.policy_drilldown = 2;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(
        service.CreateSession("tenant-" + std::to_string(t), policy_id).ok());
  }
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(
        service.Predict("tenant-" + std::to_string(t), Preds(t)).ok());
  }
  const obs::LabeledWindowedFamily* family = service.tenant_drilldown();
  ASSERT_NE(family, nullptr);
  // All 10 tenants predicted inside one (fake-clock) tick: the guard must
  // keep 4 fresh slots and overflow the rest — never grow past the cap.
  EXPECT_EQ(family->TrackedLabels(), 4u);
  EXPECT_EQ(family->Overflow(), 6u);
  // The per-policy drill-down labels by registration id.
  ASSERT_NE(service.policy_drilldown(), nullptr);
  const obs::LabeledWindowedFamilySnapshot policies =
      service.policy_drilldown()->Snapshot();
  ASSERT_EQ(policies.top.size(), 1u);
  EXPECT_EQ(policies.top[0].label, std::to_string(policy_id));
  EXPECT_EQ(policies.top[0].window.count, 10u);
}

TEST(ForecastServiceObsTest, DrilldownDisabledByDefault) {
  // Drill-down is opt-in (cap 0 = off); the default config pays no per-row
  // family-lookup cost.
  serve::ForecastService service(ManualConfig());
  EXPECT_EQ(service.tenant_drilldown(), nullptr);
  EXPECT_EQ(service.policy_drilldown(), nullptr);
}

// ---------------------------------------------------------------------------
// SessionCallGuard: the per-session serialization contract fails loudly.

[[noreturn]] void ThrowHandler(const char* message) {
  throw std::runtime_error(message);
}

class SessionCallGuardTest : public ::testing::Test {
 protected:
  void SetUp() override { chk::SetFailureHandlerForTest(&ThrowHandler); }
  void TearDown() override { chk::SetFailureHandlerForTest(nullptr); }
};

TEST_F(SessionCallGuardTest, SecondEntrantTripsContract) {
  std::atomic<bool> busy{false};
  core::SessionCallGuard outer(&busy, "concurrent call on one session");
  EXPECT_THROW(
      { core::SessionCallGuard inner(&busy, "concurrent call on one session"); },
      std::runtime_error);
  // The violated entry never took ownership: after the outer guard exits the
  // session is reusable (checked by the scope ending without a throw).
}

TEST_F(SessionCallGuardTest, SequentialCallsAreFine) {
  std::atomic<bool> busy{false};
  for (int i = 0; i < 3; ++i) {
    core::SessionCallGuard guard(&busy, "sequential");
    EXPECT_TRUE(busy.load());
  }
  EXPECT_FALSE(busy.load());
}

// The combiner a ReenteringHandler calls back into, once.
core::EadrlCombiner* g_reenter = nullptr;

// A contract failure inside Predict calls back into the same combiner
// before throwing: the same shape as two threads sharing one combiner, but
// deterministic. The nested call's own guard violation throws first.
[[noreturn]] void ReenteringHandler(const char* message) {
  if (core::EadrlCombiner* combiner = std::exchange(g_reenter, nullptr)) {
    combiner->Weights();
  }
  throw std::runtime_error(message);
}

TEST_F(SessionCallGuardTest, CombinerEntryPointsAreGuarded) {
  // This file forces contracts on, so chk::Enabled() is true here; whether
  // the combiner's own guard fires depends on the library's setting.
  if (!EADRL_CHECKS) {
    GTEST_SKIP() << "library compiled with EADRL_CHECKS=OFF";
  }
  auto combiner = NewCombiner();
  math::Vec nan_preds = Preds(0);
  nan_preds[0] = std::numeric_limits<double>::quiet_NaN();
  chk::SetFailureHandlerForTest(&ReenteringHandler);
  g_reenter = combiner.get();
  // Predict's finiteness contract fails while Predict holds the guard; the
  // handler re-enters through Weights, whose guard reports the overlap.
  try {
    combiner->Predict(nan_preds);
    ADD_FAILURE() << "Predict accepted NaN member predictions";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("concurrent EadrlCombiner::Weights"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(g_reenter, nullptr);
  chk::SetFailureHandlerForTest(&ThrowHandler);
  // The guard released on unwind: the combiner is usable again.
  EXPECT_TRUE(std::isfinite(combiner->Predict(Preds(0))));
}

}  // namespace
}  // namespace eadrl
