#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/linalg.h"
#include "math/stats.h"
#include "math/vec.h"
#include "models/gp.h"
#include "models/svr.h"

namespace eadrl::models {
namespace {

TEST(GpTest, InterpolatesTrainingPointsWithLowNoise) {
  math::Matrix x{{0.0}, {1.0}, {2.0}, {3.0}};
  math::Vec y{0.0, 1.0, 0.0, -1.0};
  GaussianProcessRegressor::Params p;
  p.noise_variance = 1e-6;
  p.length_scale = 0.5;
  GaussianProcessRegressor gp(p);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(gp.Predict(x.Row(i)), y[i], 1e-3);
  }
}

TEST(GpTest, RevertsToMeanFarFromData) {
  math::Matrix x{{0.0}, {1.0}};
  math::Vec y{10.0, 12.0};
  GaussianProcessRegressor::Params p;
  p.length_scale = 0.5;
  GaussianProcessRegressor gp(p);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_NEAR(gp.Predict({100.0}), 11.0, 0.1);  // prior mean = data mean.
}

TEST(GpTest, SubsamplesLargeTrainingSets) {
  Rng rng(1);
  const size_t n = 600;
  math::Matrix x(n, 1);
  math::Vec y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-3, 3);
    y[i] = std::sin(x(i, 0));
  }
  GaussianProcessRegressor::Params p;
  p.max_points = 150;
  p.length_scale = 1.0;
  p.noise_variance = 0.01;
  GaussianProcessRegressor gp(p);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  EXPECT_NEAR(gp.Predict({0.5}), std::sin(0.5), 0.15);
}

// Noisy 3-input data for the reference checks below.
void MakeGpData(size_t n, math::Matrix* x, math::Vec* y) {
  Rng rng(11);
  *x = math::Matrix(n, 3);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) (*x)(i, j) = rng.Uniform(-2, 2);
    (*y)[i] = std::sin((*x)(i, 0)) + 0.5 * (*x)(i, 1) * (*x)(i, 2) +
              0.1 * rng.Normal();
  }
}

double RbfKernel(const GaussianProcessRegressor::Params& p,
                 const math::Vec& a, const math::Vec& b) {
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    d2 += d * d;
  }
  return p.signal_variance *
         std::exp(-0.5 * d2 / (p.length_scale * p.length_scale));
}

// Alg. 2.1's mean spelled out with explicit matrices: the stride-subsampled
// training rows, K built in full and alpha from math::CholeskySolve.
struct ExplicitGp {
  ExplicitGp(const GaussianProcessRegressor::Params& p, const math::Matrix& x,
             const math::Vec& y)
      : params(p) {
    const size_t n = std::min(x.rows(), p.max_points);
    const double stride =
        static_cast<double>(x.rows()) / static_cast<double>(n);
    math::Vec ys(n);
    for (size_t i = 0; i < n; ++i) {
      size_t src = static_cast<size_t>(static_cast<double>(i) * stride);
      rows.push_back(x.Row(src));
      ys[i] = y[src];
    }
    y_mean = math::Mean(ys);
    math::Matrix k(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) k(i, j) = RbfKernel(p, rows[i], rows[j]);
      k(i, i) += p.noise_variance;
    }
    math::Vec centered(n);
    for (size_t i = 0; i < n; ++i) centered[i] = ys[i] - y_mean;
    alpha = math::CholeskySolve(k, centered).value();
  }

  math::Vec KStar(const math::Vec& q) const {
    math::Vec kstar(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      kstar[i] = RbfKernel(params, rows[i], q);
    }
    return kstar;
  }
  double Mean(const math::Vec& q) const {
    return y_mean + math::Dot(KStar(q), alpha);
  }

  GaussianProcessRegressor::Params params;
  std::vector<math::Vec> rows;
  double y_mean = 0.0;
  math::Vec alpha;
};

// max_points below the row count takes the subsampled path (a non-integer
// stride), above it the full one.
class GpReferenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GpReferenceTest, MeanBitIdenticalToExplicitAlgorithm) {
  math::Matrix x;
  math::Vec y;
  MakeGpData(150, &x, &y);
  GaussianProcessRegressor::Params p;
  p.max_points = GetParam();
  p.length_scale = 1.3;
  GaussianProcessRegressor gp(p);
  ASSERT_TRUE(gp.Fit(x, y).ok());
  const ExplicitGp ref(p, x, y);

  Rng rng(29);
  for (int q = 0; q < 20; ++q) {
    math::Vec point{rng.Uniform(-2.5, 2.5), rng.Uniform(-2.5, 2.5),
                    rng.Uniform(-2.5, 2.5)};
    EXPECT_EQ(gp.Predict(point), ref.Mean(point)) << "point " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, GpReferenceTest, ::testing::Values(47, 400),
                         [](const ::testing::TestParamInfo<size_t>& param) {
                           return param.param < 150 ? std::string("Subsampled")
                                                    : std::string("Full");
                         });

TEST(SvrTest, FitsLinearFunction) {
  Rng rng(2);
  math::Matrix x(200, 2);
  math::Vec y(200);
  for (size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = 1.5 * x(i, 0) - 0.5 * x(i, 1) + 0.2;
  }
  SvrRegressor::Params p;
  p.epochs = 80;
  SvrRegressor svr(p);
  ASSERT_TRUE(svr.Fit(x, y).ok());
  double mse = 0.0;
  for (size_t i = 0; i < 200; ++i) {
    double d = svr.Predict(x.Row(i)) - y[i];
    mse += d * d;
  }
  EXPECT_LT(mse / 200.0, 0.02);
}

TEST(SvrTest, RbfFeaturesFitNonlinearFunction) {
  Rng rng(3);
  math::Matrix x(300, 1);
  math::Vec y(300);
  for (size_t i = 0; i < 300; ++i) {
    x(i, 0) = rng.Uniform(-2, 2);
    y[i] = std::sin(2.0 * x(i, 0));
  }
  SvrRegressor::Params lin;
  lin.epochs = 60;
  SvrRegressor linear(lin);
  ASSERT_TRUE(linear.Fit(x, y).ok());

  SvrRegressor::Params rbf = lin;
  rbf.rff_features = 100;
  rbf.rff_length_scale = 0.7;
  SvrRegressor kernelized(rbf);
  ASSERT_TRUE(kernelized.Fit(x, y).ok());

  auto mse = [&](const SvrRegressor& m) {
    double s = 0.0;
    for (size_t i = 0; i < 300; ++i) {
      double d = m.Predict(x.Row(i)) - y[i];
      s += d * d;
    }
    return s / 300.0;
  };
  EXPECT_LT(mse(kernelized), mse(linear) * 0.5);
}

TEST(SvrTest, DeterministicForSeed) {
  Rng rng(4);
  math::Matrix x(50, 1);
  math::Vec y(50);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    y[i] = x(i, 0);
  }
  SvrRegressor::Params p;
  p.rff_features = 20;
  SvrRegressor a(p), b(p);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(a.Predict({0.3}), b.Predict({0.3}));
}

}  // namespace
}  // namespace eadrl::models
