#include "exp/experiment.h"

#include <chrono>
#include <cmath>

#include "baselines/dynamic_selection.h"
#include "baselines/expert_aggregation.h"
#include "baselines/stacking.h"
#include "baselines/static_combiners.h"
#include "common/check.h"
#include "common/logging.h"
#include "models/arima.h"
#include "models/gbm.h"
#include "models/nn_regressors.h"
#include "models/random_forest.h"
#include "models/regression_forecaster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "ts/metrics.h"

namespace eadrl::exp {
namespace {

/// Online-loop latency histogram of one method (Table III's runtime); one
/// labeled family member per method name.
obs::Histogram* MethodRuntimeHist(const std::string& method) {
  return obs::MetricRegistry::Default().GetHistogram(
      "eadrl_method_runtime_seconds", {}, {{"method", method}});
}

}  // namespace

PoolRun PreparePool(const ts::Series& series, const ExperimentOptions& opt) {
  obs::Span span("pool_prepare");
  span.SetAttr("dataset", series.name());
  ts::TrainTestSplit outer = ts::SplitTrainTest(series, opt.train_ratio);
  ts::TrainTestSplit inner =
      ts::SplitTrainTest(outer.train, 1.0 - opt.validation_ratio);

  models::PoolConfig pool_cfg = opt.pool;
  pool_cfg.seed = opt.seed;
  double fit_seconds = 0.0;
  std::vector<std::unique_ptr<models::Forecaster>> pool;
  {
    obs::ScopedTimer timer(nullptr, &fit_seconds);
    pool = models::FitPool(models::BuildPaperPool(pool_cfg), inner.train);
  }
  EADRL_CHECK(!pool.empty());
  if (span.armed()) {
    span.SetAttr("models", pool.size());
    span.SetAttr("fit_seconds", fit_seconds);
    span.SetAttr("val_rows", inner.test.size());
    span.SetAttr("test_rows", outer.test.size());
  }

  PoolRun run;
  run.train_values = outer.train.values();
  run.val_actuals = inner.test.values();
  run.test_actuals = outer.test.values();
  run.val_preds = math::Matrix(inner.test.size(), pool.size());
  run.test_preds = math::Matrix(outer.test.size(), pool.size());

  // Per-model rolling forecasts are independent: model m only touches its
  // own forecaster state, its slot in model_names and column m of the
  // prediction matrices (distinct doubles — safe to fill concurrently).
  run.model_names.resize(pool.size());
  par::ParallelFor(0, pool.size(), [&](size_t m) {
    obs::Span forecast_span("rolling_forecast");
    forecast_span.SetAttr("model", pool[m]->name());
    run.model_names[m] = pool[m]->name();
    // Roll through validation, then (state carried over) through test.
    math::Vec val_p = models::RollingForecast(pool[m].get(), inner.test);
    math::Vec test_p = models::RollingForecast(pool[m].get(), outer.test);
    for (size_t t = 0; t < val_p.size(); ++t) run.val_preds(t, m) = val_p[t];
    for (size_t t = 0; t < test_p.size(); ++t) run.test_preds(t, m) = test_p[t];
  });
  return run;
}

MethodRun RunCombiner(core::Combiner* combiner, const PoolRun& pool) {
  MethodRun result;
  result.name = combiner->name();
  obs::Span span("method_run");
  span.SetAttr("method", result.name);

  Status st = combiner->Initialize(pool.val_preds, pool.val_actuals);
  EADRL_CHECK(st.ok());

  const size_t t_test = pool.test_preds.rows();
  result.predictions.resize(t_test);
  result.squared_errors.resize(t_test);

  {
    obs::ScopedTimer timer(MethodRuntimeHist(result.name),
                           &result.runtime_seconds);
    for (size_t t = 0; t < t_test; ++t) {
      math::Vec preds = pool.test_preds.Row(t);
      double pred = combiner->Predict(preds);
      combiner->Update(preds, pool.test_actuals[t]);
      result.predictions[t] = pred;
    }
  }

  for (size_t t = 0; t < t_test; ++t) {
    double d = result.predictions[t] - pool.test_actuals[t];
    result.squared_errors[t] = d * d;
  }
  result.rmse = ts::Rmse(pool.test_actuals, result.predictions);
  if (span.armed()) {
    span.SetAttr("rmse", result.rmse);
    span.SetAttr("runtime_seconds", result.runtime_seconds);
    span.SetAttr("steps", t_test);
  }
  return result;
}

std::vector<std::unique_ptr<core::Combiner>> MakeCombinerSuite(
    const ExperimentOptions& opt) {
  std::vector<std::unique_ptr<core::Combiner>> suite;
  suite.push_back(std::make_unique<baselines::SimpleAverageCombiner>());
  suite.push_back(std::make_unique<baselines::SlidingWindowCombiner>(
      opt.eadrl.omega));
  suite.push_back(std::make_unique<baselines::EwaCombiner>());
  suite.push_back(std::make_unique<baselines::FixedShareCombiner>());
  suite.push_back(std::make_unique<baselines::OgdCombiner>());
  suite.push_back(std::make_unique<baselines::MlpolCombiner>());
  suite.push_back(std::make_unique<baselines::StackingCombiner>(
      /*num_trees=*/25, opt.seed));
  suite.push_back(std::make_unique<baselines::ClusCombiner>(opt.eadrl.omega));
  suite.push_back(std::make_unique<baselines::TopSelCombiner>(
      /*top_n=*/10, opt.eadrl.omega));
  suite.push_back(std::make_unique<baselines::DemscCombiner>());
  core::EadrlConfig eadrl_cfg = opt.eadrl;
  eadrl_cfg.seed = opt.seed;
  suite.push_back(std::make_unique<core::EadrlCombiner>(eadrl_cfg));
  return suite;
}

std::vector<MethodRun> RunStandaloneModels(const ts::Series& series,
                                           const ExperimentOptions& opt) {
  ts::TrainTestSplit outer = ts::SplitTrainTest(series, opt.train_ratio);

  models::NnTrainParams nn;
  nn.epochs = opt.pool.nn_epochs;
  nn.seed = opt.seed;
  const size_t k = opt.pool.embedding_dim;

  std::vector<std::unique_ptr<models::Forecaster>> singles;
  singles.push_back(std::make_unique<models::ArimaForecaster>(2, 1, 1));
  {
    models::RandomForestRegressor::Params p;
    p.num_trees = 25;
    p.seed = opt.seed;
    singles.push_back(std::make_unique<models::RegressionForecaster>(
        "RF", k, std::make_unique<models::RandomForestRegressor>(p)));
  }
  {
    models::GbmRegressor::Params p;
    p.num_trees = 50;
    p.seed = opt.seed;
    singles.push_back(std::make_unique<models::RegressionForecaster>(
        "GBM", k, std::make_unique<models::GbmRegressor>(p)));
  }
  singles.push_back(std::make_unique<models::RegressionForecaster>(
      "LSTM", k, std::make_unique<models::LstmRegressor>(16, nn)));
  singles.push_back(std::make_unique<models::RegressionForecaster>(
      "StLSTM", k, std::make_unique<models::StackedLstmRegressor>(12, nn)));

  std::vector<MethodRun> results;
  for (auto& model : singles) {
    MethodRun run;
    // Present ARIMA under its family name to match the paper's rows.
    run.name = model->name().rfind("arima", 0) == 0 ? "ARIMA" : model->name();
    Status st = model->Fit(outer.train);
    if (!st.ok()) continue;

    {
      obs::ScopedTimer timer(MethodRuntimeHist(run.name),
                             &run.runtime_seconds);
      run.predictions = models::RollingForecast(model.get(), outer.test);
    }

    run.squared_errors.resize(run.predictions.size());
    for (size_t t = 0; t < run.predictions.size(); ++t) {
      double d = run.predictions[t] - outer.test[t];
      run.squared_errors[t] = d * d;
    }
    run.rmse = ts::Rmse(outer.test.values(), run.predictions);
    results.push_back(std::move(run));
  }
  return results;
}

DatasetResult RunDataset(const ts::Series& series,
                         const ExperimentOptions& opt) {
  DatasetResult result;
  result.dataset = series.name();

  // A concurrent RunSuite interleaves several datasets on the pool workers;
  // every span opened below (down to worker-side restarts, episodes and
  // DDPG updates) reaches this one through its parent chain, so its
  // `dataset` attribute identifies the dataset of all of them.
  obs::Span span("dataset_run");
  span.SetAttr("dataset", series.name());

  PoolRun pool = PreparePool(series, opt);
  for (auto& combiner : MakeCombinerSuite(opt)) {
    result.methods.push_back(RunCombiner(combiner.get(), pool));
  }
  if (opt.include_standalone) {
    for (MethodRun& run : RunStandaloneModels(series, opt)) {
      result.methods.push_back(std::move(run));
    }
  }
  return result;
}

std::vector<DatasetResult> RunSuite(const std::vector<ts::Series>& datasets,
                                    const ExperimentOptions& opt,
                                    par::ThreadPool* exec) {
  par::ThreadPool& executor = exec != nullptr ? *exec : par::DefaultPool();
  std::vector<DatasetResult> results(datasets.size());
  obs::Span span("suite_run");
  span.SetAttr("datasets", datasets.size());
  obs::Counter* done_counter = obs::MetricRegistry::Default().GetCounter(
      "eadrl_suite_datasets_done_total");
  const auto wall_start = std::chrono::steady_clock::now();
  par::ParallelFor(
      0, datasets.size(),
      [&](size_t i) {
        EADRL_LOG(Info) << "suite: running dataset " << datasets[i].name()
                        << " (" << (i + 1) << "/" << datasets.size() << ")";
        results[i] = RunDataset(datasets[i], opt);
        done_counter->Inc();
      },
      {/*grain=*/1, &executor});
  if (span.armed()) {
    size_t methods = 0;
    for (const DatasetResult& r : results) methods += r.methods.size();
    span.SetAttr("methods", methods);
    span.SetAttr("wall_seconds",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count());
    span.SetAttr("threads", executor.concurrency());
  }
  return results;
}

}  // namespace eadrl::exp
