#include "models/gp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "math/linalg.h"
#include "math/stats.h"

namespace eadrl::models {

GaussianProcessRegressor::GaussianProcessRegressor(Params params)
    : params_(params) {
  EADRL_CHECK_GT(params_.length_scale, 0.0);
  EADRL_CHECK_GT(params_.noise_variance, 0.0);
}

double GaussianProcessRegressor::Kernel(const double* a,
                                        const double* b) const {
  double d2 = 0.0;
  for (size_t i = 0; i < train_x_.cols(); ++i) {
    double d = a[i] - b[i];
    d2 += d * d;
  }
  return params_.signal_variance *
         std::exp(-0.5 * d2 / (params_.length_scale * params_.length_scale));
}

Status GaussianProcessRegressor::Fit(const math::Matrix& x,
                                     const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("GP: bad training data");
  }
  // Uniform stride subsampling preserves the temporal spread of embedded
  // windows better than random subsampling. At or below max_points the
  // stride is exactly 1 and every row is kept.
  const size_t n = std::min(x.rows(), params_.max_points);
  const double stride =
      static_cast<double>(x.rows()) / static_cast<double>(n);
  train_x_.Resize(n, x.cols());
  math::Vec centered(n);
  for (size_t i = 0; i < n; ++i) {
    size_t src = static_cast<size_t>(static_cast<double>(i) * stride);
    std::copy(x.RowPtr(src), x.RowPtr(src) + x.cols(), train_x_.RowPtr(i));
    centered[i] = y[src];
  }
  y_mean_ = math::Mean(centered);
  for (size_t i = 0; i < n; ++i) centered[i] -= y_mean_;

  math::Matrix k(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      double v = Kernel(train_x_.RowPtr(i), train_x_.RowPtr(j));
      k(i, j) = v;
      k(j, i) = v;
    }
    k(i, i) += params_.noise_variance;
  }
  StatusOr<math::Matrix> l = math::CholeskyFactor(k);
  EADRL_RETURN_IF_ERROR(l.status());
  alpha_ = math::CholeskySolveFactored(*l, centered);
  fitted_ = true;
  return Status::Ok();
}

math::Vec GaussianProcessRegressor::KernelVector(const math::Vec& x) const {
  EADRL_CHECK(fitted_);
  EADRL_CHECK_EQ(x.size(), train_x_.cols());
  math::Vec kstar(train_x_.rows());
  for (size_t i = 0; i < kstar.size(); ++i) {
    kstar[i] = Kernel(train_x_.RowPtr(i), x.data());
  }
  return kstar;
}

double GaussianProcessRegressor::Predict(const math::Vec& x) const {
  return y_mean_ + math::Dot(KernelVector(x), alpha_);
}

}  // namespace eadrl::models
