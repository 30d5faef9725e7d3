// Learning tests for the neural regressor family used by the pool: every
// variant must fit a simple autoregressive pattern clearly better than
// predicting the mean.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/nn_regressors.h"

namespace eadrl::models {
namespace {

// Supervised data from a noiseless sine: x = 5 lags, y = next value.
void MakeSineData(math::Matrix* x, math::Vec* y) {
  const size_t n = 250, k = 5;
  math::Vec series(n + k);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0);
  }
  *x = math::Matrix(n, k);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) (*x)(i, j) = series[i + j];
    (*y)[i] = series[i + k];
  }
}

double Mse(Regressor& model, const math::Matrix& x, const math::Vec& y) {
  double s = 0.0;
  for (size_t i = 0; i < x.rows(); ++i) {
    double d = model.Predict(x.Row(i)) - y[i];
    s += d * d;
  }
  return s / static_cast<double>(x.rows());
}

class NnRegressorLearning : public ::testing::TestWithParam<int> {
 public:
  static std::unique_ptr<Regressor> Make(int which) {
    NnTrainParams train;
    train.epochs = 30;
    train.seed = 11;
    switch (which) {
      case 0:
        return std::make_unique<MlpRegressor>(std::vector<size_t>{12},
                                              train);
      case 1:
        return std::make_unique<LstmRegressor>(12, train);
      case 2:
        return std::make_unique<BiLstmRegressor>(8, train);
      case 3:
        return std::make_unique<CnnLstmRegressor>(4, 2, 8, train);
      case 4:
        return std::make_unique<ConvLstmRegressor>(2, 8, train);
      default:
        return std::make_unique<StackedLstmRegressor>(8, train);
    }
  }
};

TEST_P(NnRegressorLearning, FitsSinePatternWellBelowVariance) {
  math::Matrix x;
  math::Vec y;
  MakeSineData(&x, &y);
  auto model = Make(GetParam());
  ASSERT_TRUE(model->Fit(x, y).ok());
  // Variance of a sine is 0.5; a trained net should be far below it.
  EXPECT_LT(Mse(*model, x, y), 0.05);
}

TEST_P(NnRegressorLearning, DeterministicForSeed) {
  math::Matrix x;
  math::Vec y;
  MakeSineData(&x, &y);
  auto a = Make(GetParam());
  auto b = Make(GetParam());
  ASSERT_TRUE(a->Fit(x, y).ok());
  ASSERT_TRUE(b->Fit(x, y).ok());
  math::Vec q{0.1, 0.4, 0.8, 0.9, 0.5};
  EXPECT_EQ(a->Predict(q), b->Predict(q));
}

TEST_P(NnRegressorLearning, RejectsEmptyData) {
  auto model = Make(GetParam());
  EXPECT_FALSE(model->Fit(math::Matrix(), {}).ok());
}

const char* const kVariantNames[] = {"Mlp",     "Lstm",     "BiLstm",
                                     "CnnLstm", "ConvLstm", "StackedLstm"};

INSTANTIATE_TEST_SUITE_P(AllVariants, NnRegressorLearning,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::string(kVariantNames[param_info.param]);
                         });

TEST(CnnLstmTest, RejectsWindowShorterThanKernel) {
  NnTrainParams train;
  CnnLstmRegressor model(4, 7, 8, train);
  math::Matrix x(10, 5);  // window 5 < kernel 7.
  math::Vec y(10, 0.0);
  EXPECT_FALSE(model.Fit(x, y).ok());
}

TEST(ConvLstmTest, RejectsWindowShorterThanPatch) {
  NnTrainParams train;
  ConvLstmRegressor model(7, 8, train);
  math::Matrix x(10, 5);
  math::Vec y(10, 0.0);
  EXPECT_FALSE(model.Fit(x, y).ok());
}

}  // namespace
}  // namespace eadrl::models
