#include "models/pool.h"

#include <chrono>
#include <utility>

#include "chk/chk.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "models/arima.h"
#include "models/ets.h"
#include "models/gbm.h"
#include "models/gp.h"
#include "models/linear.h"
#include "models/mars.h"
#include "models/nn_regressors.h"
#include "models/pcr.h"
#include "models/ppr.h"
#include "models/random_forest.h"
#include "models/regression_forecaster.h"
#include "models/svr.h"
#include "models/tree.h"
#include "par/parallel.h"

namespace eadrl::models {
namespace {

std::unique_ptr<Forecaster> Wrap(std::string name, size_t k,
                                 std::unique_ptr<Regressor> reg) {
  return std::make_unique<RegressionForecaster>(std::move(name), k,
                                                std::move(reg));
}

}  // namespace

std::vector<std::unique_ptr<Forecaster>> BuildPaperPool(
    const PoolConfig& config) {
  std::vector<std::unique_ptr<Forecaster>> pool;
  const size_t k = config.embedding_dim;
  const uint64_t seed = config.seed;
  NnTrainParams nn;
  nn.epochs = config.nn_epochs;
  nn.seed = seed;

  if (config.fast_mode) {
    // Reduced 10-model pool spanning the main families.
    pool.push_back(std::make_unique<ArimaForecaster>(2, 1, 1));
    pool.push_back(std::make_unique<EtsForecaster>(EtsVariant::kHolt));
    pool.push_back(Wrap("ridge", k, std::make_unique<RidgeRegressor>(1e-3)));
    pool.push_back(Wrap("dt(6)", k,
                        std::make_unique<RegressionTree>(
                            TreeParams{6, 3, 0})));
    {
      RandomForestRegressor::Params p;
      p.num_trees = 10;
      p.seed = seed;
      pool.push_back(Wrap("rf(10,8)", k,
                          std::make_unique<RandomForestRegressor>(p)));
    }
    {
      GbmRegressor::Params p;
      p.num_trees = 30;
      p.seed = seed;
      pool.push_back(Wrap("gbm(30,0.1,3)", k,
                          std::make_unique<GbmRegressor>(p)));
    }
    pool.push_back(Wrap("knn(5)", k, std::make_unique<KnnRegressor>(5)));
    pool.push_back(Wrap("pls(2)", k, std::make_unique<PlsRegressor>(2)));
    pool.push_back(Wrap("mlp(8)", k, std::make_unique<MlpRegressor>(
                                         std::vector<size_t>{8}, nn)));
    pool.push_back(Wrap("lstm(8)", k,
                        std::make_unique<LstmRegressor>(8, nn)));
    return pool;
  }

  // --- ARIMA (3) -----------------------------------------------------------
  pool.push_back(std::make_unique<ArimaForecaster>(1, 0, 0));
  pool.push_back(std::make_unique<ArimaForecaster>(2, 1, 1));
  pool.push_back(std::make_unique<ArimaForecaster>(5, 1, 0));

  // --- ETS (3) --------------------------------------------------------------
  pool.push_back(std::make_unique<EtsForecaster>(EtsVariant::kSimple));
  pool.push_back(std::make_unique<EtsForecaster>(EtsVariant::kHolt));
  pool.push_back(
      std::make_unique<EtsForecaster>(EtsVariant::kHoltWintersAdditive));

  // --- GBM (3) ---------------------------------------------------------------
  {
    GbmRegressor::Params p;
    p.num_trees = 50;
    p.learning_rate = 0.1;
    p.tree.max_depth = 3;
    p.seed = seed;
    pool.push_back(Wrap("gbm(50,0.10,3)", k,
                        std::make_unique<GbmRegressor>(p)));
  }
  {
    GbmRegressor::Params p;
    p.num_trees = 100;
    p.learning_rate = 0.05;
    p.tree.max_depth = 3;
    p.subsample = 0.8;
    p.seed = seed + 1;
    pool.push_back(Wrap("gbm(100,0.05,3)", k,
                        std::make_unique<GbmRegressor>(p)));
  }
  {
    GbmRegressor::Params p;
    p.num_trees = 60;
    p.learning_rate = 0.1;
    p.tree.max_depth = 5;
    p.seed = seed + 2;
    pool.push_back(Wrap("gbm(60,0.10,5)", k,
                        std::make_unique<GbmRegressor>(p)));
  }

  // --- GP (2) ----------------------------------------------------------------
  {
    GaussianProcessRegressor::Params p;
    p.length_scale = 1.0;
    p.noise_variance = 0.1;
    p.seed = seed;
    pool.push_back(Wrap("gp(1.0,0.10)", k,
                        std::make_unique<GaussianProcessRegressor>(p)));
  }
  {
    GaussianProcessRegressor::Params p;
    p.length_scale = 3.0;
    p.noise_variance = 0.05;
    p.seed = seed + 1;
    pool.push_back(Wrap("gp(3.0,0.05)", k,
                        std::make_unique<GaussianProcessRegressor>(p)));
  }

  // --- SVR (3) ---------------------------------------------------------------
  {
    SvrRegressor::Params p;
    p.c = 1.0;
    p.epsilon = 0.01;
    p.seed = seed;
    pool.push_back(Wrap("svr-linear(1.0)", k,
                        std::make_unique<SvrRegressor>(p)));
  }
  {
    SvrRegressor::Params p;
    p.c = 1.0;
    p.epsilon = 0.01;
    p.rff_features = 50;
    p.rff_length_scale = 1.0;
    p.seed = seed + 1;
    pool.push_back(Wrap("svr-rbf(1.0,50)", k,
                        std::make_unique<SvrRegressor>(p)));
  }
  {
    SvrRegressor::Params p;
    p.c = 10.0;
    p.epsilon = 0.005;
    p.rff_features = 100;
    p.rff_length_scale = 2.0;
    p.seed = seed + 2;
    pool.push_back(Wrap("svr-rbf(10.0,100)", k,
                        std::make_unique<SvrRegressor>(p)));
  }

  // --- RF (3) ----------------------------------------------------------------
  {
    RandomForestRegressor::Params p;
    p.num_trees = 25;
    p.tree.max_depth = 8;
    p.seed = seed;
    pool.push_back(Wrap("rf(25,8)", k,
                        std::make_unique<RandomForestRegressor>(p)));
  }
  {
    RandomForestRegressor::Params p;
    p.num_trees = 50;
    p.tree.max_depth = 10;
    p.seed = seed + 1;
    pool.push_back(Wrap("rf(50,10)", k,
                        std::make_unique<RandomForestRegressor>(p)));
  }
  {
    RandomForestRegressor::Params p;
    p.num_trees = 25;
    p.tree.max_depth = 12;
    p.tree.max_features = 5;  // all features with k = 5.
    p.sample_fraction = 0.7;
    p.seed = seed + 2;
    pool.push_back(Wrap("rf(25,12,0.7)", k,
                        std::make_unique<RandomForestRegressor>(p)));
  }

  // --- PPR (2) ---------------------------------------------------------------
  {
    PprRegressor::Params p;
    p.num_terms = 2;
    pool.push_back(Wrap("ppr(2)", k, std::make_unique<PprRegressor>(p)));
  }
  {
    PprRegressor::Params p;
    p.num_terms = 4;
    p.backfit_passes = 2;
    pool.push_back(Wrap("ppr(4)", k, std::make_unique<PprRegressor>(p)));
  }

  // --- MARS (2) --------------------------------------------------------------
  {
    MarsRegressor::Params p;
    p.max_terms = 8;
    pool.push_back(Wrap("mars(8)", k, std::make_unique<MarsRegressor>(p)));
  }
  {
    MarsRegressor::Params p;
    p.max_terms = 12;
    p.prune = false;
    pool.push_back(Wrap("mars(12)", k, std::make_unique<MarsRegressor>(p)));
  }

  // --- PCR (2) ---------------------------------------------------------------
  pool.push_back(Wrap("pcr(2)", k, std::make_unique<PcrRegressor>(2)));
  pool.push_back(Wrap("pcr(3)", k, std::make_unique<PcrRegressor>(3)));

  // --- DT (3) ----------------------------------------------------------------
  pool.push_back(Wrap("dt(4)", k, std::make_unique<RegressionTree>(
                                      TreeParams{4, 5, 0})));
  pool.push_back(Wrap("dt(8)", k, std::make_unique<RegressionTree>(
                                      TreeParams{8, 3, 0})));
  pool.push_back(Wrap("dt(12)", k, std::make_unique<RegressionTree>(
                                       TreeParams{12, 2, 0})));

  // --- PLS (2) ---------------------------------------------------------------
  pool.push_back(Wrap("pls(2)", k, std::make_unique<PlsRegressor>(2)));
  pool.push_back(Wrap("pls(3)", k, std::make_unique<PlsRegressor>(3)));

  // --- kNN (3) ---------------------------------------------------------------
  pool.push_back(Wrap("knn(3)", k, std::make_unique<KnnRegressor>(3)));
  pool.push_back(Wrap("knn(7)", k, std::make_unique<KnnRegressor>(7)));
  pool.push_back(Wrap("knn(15)", k, std::make_unique<KnnRegressor>(15)));

  // --- MLP (3) ---------------------------------------------------------------
  pool.push_back(Wrap("mlp(8)", k,
                      std::make_unique<MlpRegressor>(
                          std::vector<size_t>{8}, nn)));
  pool.push_back(Wrap("mlp(16)", k,
                      std::make_unique<MlpRegressor>(
                          std::vector<size_t>{16}, nn)));
  pool.push_back(Wrap("mlp(16,8)", k,
                      std::make_unique<MlpRegressor>(
                          std::vector<size_t>{16, 8}, nn)));

  // --- LSTM (3) --------------------------------------------------------------
  pool.push_back(Wrap("lstm(8)", k, std::make_unique<LstmRegressor>(8, nn)));
  pool.push_back(Wrap("lstm(16)", k,
                      std::make_unique<LstmRegressor>(16, nn)));
  pool.push_back(Wrap("lstm(24)", k,
                      std::make_unique<LstmRegressor>(24, nn)));

  // --- Bi-LSTM (2) -----------------------------------------------------------
  pool.push_back(Wrap("bilstm(8)", k,
                      std::make_unique<BiLstmRegressor>(8, nn)));
  pool.push_back(Wrap("bilstm(12)", k,
                      std::make_unique<BiLstmRegressor>(12, nn)));

  // --- CNN-LSTM (2) ----------------------------------------------------------
  pool.push_back(Wrap("cnn-lstm(4,2,8)", k,
                      std::make_unique<CnnLstmRegressor>(4, 2, 8, nn)));
  pool.push_back(Wrap("cnn-lstm(8,3,12)", k,
                      std::make_unique<CnnLstmRegressor>(8, 3, 12, nn)));

  // --- Conv-LSTM (2) ---------------------------------------------------------
  pool.push_back(Wrap("conv-lstm(2,8)", k,
                      std::make_unique<ConvLstmRegressor>(2, 8, nn)));
  pool.push_back(Wrap("conv-lstm(3,12)", k,
                      std::make_unique<ConvLstmRegressor>(3, 12, nn)));

  return pool;
}

std::vector<std::unique_ptr<Forecaster>> FitPool(
    std::vector<std::unique_ptr<Forecaster>> pool, const ts::Series& train,
    par::ThreadPool* exec) {
  par::ThreadPool& executor = exec != nullptr ? *exec : par::DefaultPool();
  const size_t n = pool.size();
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  obs::Histogram* fit_hist = registry.GetHistogram("eadrl_pool_fit_seconds");
  obs::Counter* fitted_counter =
      registry.GetCounter("eadrl_pool_models_fitted_total");
  obs::Counter* dropped_counter =
      registry.GetCounter("eadrl_pool_models_dropped_total");

  // Fit concurrently; per-model work is fully independent (slot i only).
  // Warnings are deferred to the ordered scan below so the log does not
  // depend on completion order.
  std::vector<Status> statuses(n);
  std::vector<double> fit_seconds(n, 0.0);
  obs::Span pool_span("pool_fit");
  pool_span.SetAttr("models", n);
  const auto wall_start = std::chrono::steady_clock::now();
  par::ParallelFor(
      0, n,
      [&](size_t i) {
        EADRL_CHK_BOUND(i, n, "FitPool fit slot");
        obs::Span span("model_fit");
        span.SetAttr("model", pool[i]->name());
        {
          obs::ScopedTimer timer(fit_hist, &fit_seconds[i]);
          statuses[i] = pool[i]->Fit(train);
        }
        if (span.armed()) {
          span.SetAttr("seconds", fit_seconds[i]);
          span.SetAttr("ok", statuses[i].ok());
        }
      },
      {/*grain=*/1, &executor});

  std::vector<std::unique_ptr<Forecaster>> fitted;
  fitted.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      dropped_counter->Inc();
      EADRL_LOG(Warning) << "dropping model " << pool[i]->name()
                         << " from pool: " << statuses[i].ToString();
      continue;
    }
    fitted_counter->Inc();
    fitted.push_back(std::move(pool[i]));
  }
  if (pool_span.armed()) {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    double cpu_seconds = 0.0;
    for (double seconds : fit_seconds) cpu_seconds += seconds;
    pool_span.SetAttr("fitted", fitted.size());
    pool_span.SetAttr("wall_seconds", wall_seconds);
    pool_span.SetAttr("cpu_seconds", cpu_seconds);
    pool_span.SetAttr("speedup",
                      wall_seconds > 0.0 ? cpu_seconds / wall_seconds : 1.0);
    pool_span.SetAttr("threads", executor.concurrency());
  }
  return fitted;
}

}  // namespace eadrl::models
