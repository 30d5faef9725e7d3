#ifndef EADRL_MODELS_POOL_H_
#define EADRL_MODELS_POOL_H_

#include <memory>
#include <vector>

#include "models/forecaster.h"
#include "par/thread_pool.h"

namespace eadrl::models {

/// Configuration of the base-model pool.
struct PoolConfig {
  /// Delay-embedding dimension for the regression models (paper: k = 5).
  size_t embedding_dim = 5;
  /// Seed for the stochastic models (forests, boosting, neural nets).
  uint64_t seed = 42;
  /// Training epochs for the neural regressors; the paper's absolute budget
  /// is hardware-dependent, this scales the experiment cost.
  size_t nn_epochs = 12;
  /// When true builds a reduced 10-model pool (for tests and examples that
  /// need to run quickly); the full pool has the paper's 43 configurations.
  bool fast_mode = false;
};

/// Builds the paper's pool of 43 base models across 16 families (Sec. III,
/// "Single base models set-up"): ARIMA, ETS, GBM, GP, SVR, RF, PPR, MARS,
/// PCR, DT, PLS, k-NN, MLP, LSTM, Bi-LSTM, CNN-LSTM and Conv-LSTM, each in
/// several parameter settings. Exact configurations are documented in
/// DESIGN.md.
std::vector<std::unique_ptr<Forecaster>> BuildPaperPool(
    const PoolConfig& config);

/// Fits every model on the training series; models whose Fit fails (e.g. the
/// series is too short for their configuration) are dropped with a warning.
/// Returns the fitted subset.
///
/// Fits run concurrently on `exec` (nullptr means the process default pool;
/// a serial pool restores the sequential path). Results are deterministic
/// regardless of completion order: the returned models keep their original
/// pool order, and drop warnings are logged after the join, in original pool
/// order.
std::vector<std::unique_ptr<Forecaster>> FitPool(
    std::vector<std::unique_ptr<Forecaster>> pool, const ts::Series& train,
    par::ThreadPool* exec = nullptr);

}  // namespace eadrl::models

#endif  // EADRL_MODELS_POOL_H_
