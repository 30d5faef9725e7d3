#ifndef EADRL_MODELS_NN_REGRESSORS_H_
#define EADRL_MODELS_NN_REGRESSORS_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "models/regressor.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"

namespace eadrl::models {

/// Shared training hyper-parameters for the neural regressors. The inputs are
/// already standardized by RegressionForecaster, so modest learning rates and
/// epoch counts suffice.
struct NnTrainParams {
  size_t epochs = 20;
  double learning_rate = 0.01;
  double grad_clip = 5.0;
  uint64_t seed = 42;
};

/// Multilayer perceptron regressor.
class MlpRegressor : public Regressor {
 public:
  MlpRegressor(std::vector<size_t> hidden_sizes, NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;
  bool PredictBatch(const math::Matrix& x, math::Vec* out) const override;

 private:
  std::vector<size_t> hidden_sizes_;
  NnTrainParams train_;
  std::unique_ptr<nn::Mlp> net_;
};

/// LSTM regressor: the k-lag window is consumed as a length-k sequence of
/// scalars; the final hidden state feeds a linear head.
class LstmRegressor : public Regressor {
 public:
  LstmRegressor(size_t hidden_size, NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;

 private:
  size_t hidden_size_;
  NnTrainParams train_;
  mutable std::unique_ptr<nn::Lstm> lstm_;
  mutable std::unique_ptr<nn::Dense> head_;
};

/// Bidirectional LSTM regressor: forward and backward passes over the window
/// are concatenated before the linear head.
class BiLstmRegressor : public Regressor {
 public:
  BiLstmRegressor(size_t hidden_size, NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;

 private:
  size_t hidden_size_;
  NnTrainParams train_;
  mutable std::unique_ptr<nn::Lstm> fwd_;
  mutable std::unique_ptr<nn::Lstm> bwd_;
  mutable std::unique_ptr<nn::Dense> head_;
};

/// CNN-LSTM regressor (Kim & Cho 2019 style, reduced to 1-D univariate):
/// a Conv1D feature extractor over the window feeds an LSTM, whose final
/// hidden state feeds a linear head.
class CnnLstmRegressor : public Regressor {
 public:
  CnnLstmRegressor(size_t filters, size_t kernel_size, size_t hidden_size,
                   NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;

 private:
  size_t filters_;
  size_t kernel_size_;
  size_t hidden_size_;
  NnTrainParams train_;
  mutable std::unique_ptr<nn::Conv1d> conv_;
  mutable std::unique_ptr<nn::Lstm> lstm_;
  mutable std::unique_ptr<nn::Dense> head_;
};

/// Conv-LSTM regressor (Shi et al. 2015, reduced to 1-D): the input-to-state
/// transition is convolutional — each recurrence step consumes an
/// overlapping patch of the window instead of a single scalar, which is the
/// univariate analogue of ConvLSTM's convolutional gates.
class ConvLstmRegressor : public Regressor {
 public:
  ConvLstmRegressor(size_t patch_size, size_t hidden_size,
                    NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;

 private:
  size_t patch_size_;
  size_t hidden_size_;
  NnTrainParams train_;
  mutable std::unique_ptr<nn::Lstm> lstm_;
  mutable std::unique_ptr<nn::Dense> head_;
};

/// Stacked (two-layer) LSTM regressor — the paper's StLSTM baseline, an
/// ensemble-by-cascading of LSTMs.
class StackedLstmRegressor : public Regressor {
 public:
  StackedLstmRegressor(size_t hidden_size, NnTrainParams train);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;
  double Predict(const math::Vec& x) const override;

 private:
  size_t hidden_size_;
  NnTrainParams train_;
  mutable std::unique_ptr<nn::Lstm> lstm1_;
  mutable std::unique_ptr<nn::Lstm> lstm2_;
  mutable std::unique_ptr<nn::Dense> head_;
};

}  // namespace eadrl::models

#endif  // EADRL_MODELS_NN_REGRESSORS_H_
