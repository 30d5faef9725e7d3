// Concurrency test for the serving layer, written to run under
// ThreadSanitizer (check.sh runs the test suite under TSan): producer
// threads hammer blocking Predict/ObserveActual on disjoint tenant sets
// while other threads churn session create/evict, sweep TTLs, and read
// Stats/GetSessionInfo — exercising the striped table locks, per-session
// mutexes, the lock-free shared-policy actor passes, and the queue's drainer
// handoff all at once. The assertions are deliberately coarse (no lost or
// duplicated completions, balanced in-flight accounting); the sanitizer
// provides the real verdict.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/vec.h"
#include "par/thread_pool.h"
#include "serve/service.h"
#include "ts/datasets.h"

namespace eadrl {
namespace {

struct Trained {
  exp::PoolRun pool;
  core::EadrlConfig config;
  std::string policy_path;
};

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
    t->policy_path = ::testing::TempDir() + "serve_race_policy.eadrl";
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

// Built with += (GCC 12 raises a false-positive -Wrestrict on chained
// std::string operator+ under -Werror).
std::string TenantName(size_t producer, size_t index) {
  std::string name = "p";
  name += std::to_string(producer);
  name += '-';
  name += std::to_string(index);
  return name;
}

TEST(ServeRaceTest, ConcurrentTenantsChurnAndIntrospection) {
  constexpr size_t kProducers = 4;
  constexpr size_t kTenantsPerProducer = 2;
  constexpr size_t kOpsPerProducer = 60;
  constexpr size_t kChurnOps = 40;

  const Trained& trained = GetTrained();
  // Declared before the service: the pool must outlive it.
  par::ThreadPool pool(4);
  serve::ServeConfig config;
  config.pool = &pool;
  config.shards = 4;  // fewer stripes than threads → contended shard locks.
  config.max_queue = 4096;
  // Long enough that no session ages out mid-run: the sweeper thread then
  // exercises the sweep's shard-lock path without invalidating the
  // producers' sessions (TTL eviction itself is covered in serve_test.cc).
  config.session_ttl_seconds = 60.0;
  serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(NewCombiner());

  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < kTenantsPerProducer; ++i) {
      ASSERT_TRUE(service.CreateSession(TenantName(p, i), policy_id).ok());
    }
  }

  std::atomic<size_t> predict_ok{0};
  std::atomic<size_t> predict_err{0};
  std::atomic<bool> stop{false};

  // Producers: blocking request streams on disjoint tenant sets. These run
  // on plain std::threads, not pool workers — pool capacity stays free for
  // the drainer.
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const auto& preds = trained.pool.test_preds;
      const auto& actuals = trained.pool.test_actuals;
      for (size_t op = 0; op < kOpsPerProducer; ++op) {
        const std::string tenant = TenantName(p, op % kTenantsPerProducer);
        StatusOr<double> out =
            service.Predict(tenant, preds.Row(op % preds.rows()));
        if (out.ok()) {
          ++predict_ok;
        } else {
          ++predict_err;
        }
        Status obs = service.ObserveActual(tenant, actuals[op % actuals.size()]);
        // Shedding is legal under load; lost sessions are not (this
        // producer owns its tenants and never evicts them).
        if (!obs.ok()) {
          EXPECT_EQ(obs.code(), StatusCode::kResourceExhausted);
        }
      }
    });
  }

  // Churn: create/predict/evict a disjoint tenant namespace, racing evictions
  // against the churn tenants' own in-flight requests.
  threads.emplace_back([&] {
    for (size_t op = 0; op < kChurnOps; ++op) {
      const std::string tenant = "churn-" + std::to_string(op % 4);
      Status created = service.CreateSession(tenant, policy_id);
      if (!created.ok()) {
        EXPECT_EQ(created.code(), StatusCode::kFailedPrecondition);
        (void)service.EvictSession(tenant);
        continue;
      }
      (void)service.PredictAsync(
          tenant, trained.pool.test_preds.Row(op % trained.pool.test_preds.rows()),
          [](StatusOr<double> result) { (void)result; });
      (void)service.EvictSession(tenant);
    }
  });

  // TTL sweeper, racing Lookup's last-activity bumps.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.EvictIdleSessions();
      std::this_thread::yield();
    }
  });

  // Introspection: stats, per-session info and latency quantiles are safe to
  // read at any time.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const serve::ServeStats stats = service.Stats();
      EXPECT_LE(stats.predicts, static_cast<uint64_t>(kProducers) *
                                    kOpsPerProducer +
                                    kChurnOps);
      (void)service.GetSessionInfo("p0-0");
      (void)service.PredictLatencySnapshot();
      std::this_thread::yield();
    }
  });

  for (size_t p = 0; p < kProducers; ++p) threads[p].join();
  threads[kProducers].join();  // churn
  stop.store(true, std::memory_order_release);
  for (size_t i = kProducers + 1; i < threads.size(); ++i) threads[i].join();
  service.Flush();

  // Every producer predict targeted a resident session; with an unbounded
  // in-flight budget none may fail for any reason but shedding, and this
  // queue never filled (blocking callers self-throttle).
  EXPECT_EQ(predict_ok.load(), kProducers * kOpsPerProducer);
  EXPECT_EQ(predict_err.load(), 0u);
  const serve::ServeStats stats = service.Stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.predicts, predict_ok.load());
}

}  // namespace
}  // namespace eadrl
