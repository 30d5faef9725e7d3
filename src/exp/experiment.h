#ifndef EADRL_EXP_EXPERIMENT_H_
#define EADRL_EXP_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/combiner.h"
#include "core/eadrl.h"
#include "math/matrix.h"
#include "models/pool.h"
#include "par/thread_pool.h"
#include "ts/series.h"

namespace eadrl::exp {

/// Options shared by the paper-reproduction experiments.
struct ExperimentOptions {
  /// Chronological train fraction (paper: 75% / 25%).
  double train_ratio = 0.75;
  /// Fraction of the training segment held out as the combiner validation
  /// set (pool models are fit on the rest).
  double validation_ratio = 0.3;
  models::PoolConfig pool;
  core::EadrlConfig eadrl;
  uint64_t seed = 42;
  /// Adds the standalone single-model rows of Table II
  /// (ARIMA, RF, GBM, LSTM, StLSTM).
  bool include_standalone = true;
};

/// Fitted pool and its prediction matrices over validation and test.
struct PoolRun {
  std::vector<std::string> model_names;
  math::Matrix val_preds;   ///< T_val x m one-step-ahead predictions.
  math::Vec val_actuals;
  math::Matrix test_preds;  ///< T_test x m.
  math::Vec test_actuals;
  math::Vec train_values;   ///< raw training values (metrics scaling).
};

/// Result of one method (combiner or standalone model) on one dataset.
struct MethodRun {
  std::string name;
  math::Vec predictions;
  math::Vec squared_errors;  ///< per test step, for the Bayesian tests.
  double rmse = 0.0;
  double runtime_seconds = 0.0;  ///< online prediction time over the test set.
};

/// All methods on one dataset.
struct DatasetResult {
  std::string dataset;
  std::vector<MethodRun> methods;
};

/// Fits the pool (on train minus validation), rolls it forward over
/// validation and test, and returns the prediction matrices every combiner
/// consumes.
PoolRun PreparePool(const ts::Series& series, const ExperimentOptions& opt);

/// Initializes the combiner on the validation matrix, then runs the timed
/// online loop over the test matrix.
MethodRun RunCombiner(core::Combiner* combiner, const PoolRun& pool);

/// The paper's combiner suite (Table II): SE, SWE, EWA, FS, OGD, MLpol,
/// Stacking, Clus, Top.sel, DEMSC and EA-DRL.
std::vector<std::unique_ptr<core::Combiner>> MakeCombinerSuite(
    const ExperimentOptions& opt);

/// Standalone single-model baselines fit on the full training segment and
/// rolled over the test segment: ARIMA, RF, GBM, LSTM, StLSTM.
std::vector<MethodRun> RunStandaloneModels(const ts::Series& series,
                                           const ExperimentOptions& opt);

/// Full Table II-style evaluation of one dataset.
DatasetResult RunDataset(const ts::Series& series,
                         const ExperimentOptions& opt);

/// Runs the full dataset x method grid: RunDataset over every series,
/// datasets running concurrently on `exec` (nullptr means the default pool).
/// Results come back in input order regardless of completion order; the
/// `suite_run` span's attributes summarize the grid when tracing is on.
std::vector<DatasetResult> RunSuite(const std::vector<ts::Series>& datasets,
                                    const ExperimentOptions& opt,
                                    par::ThreadPool* exec = nullptr);

}  // namespace eadrl::exp

#endif  // EADRL_EXP_EXPERIMENT_H_
