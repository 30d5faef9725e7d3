#ifndef EADRL_MODELS_GP_H_
#define EADRL_MODELS_GP_H_

#include "common/rng.h"
#include "models/regressor.h"

namespace eadrl::models {

/// Gaussian-process regression with an RBF kernel and Gaussian noise
/// (Rasmussen & Williams 2006, Alg. 2.1), predictive mean only. Exact
/// inference through one Cholesky factorization K = L L^T, which Fit drops
/// once it has solved for alpha; to bound the O(n^3) cost the training set
/// is uniformly subsampled to `max_points` when larger.
class GaussianProcessRegressor : public Regressor {
 public:
  struct Params {
    double length_scale = 1.0;
    double signal_variance = 1.0;
    double noise_variance = 0.1;
    size_t max_points = 400;
    uint64_t seed = 42;
  };

  explicit GaussianProcessRegressor(Params params);

  Status Fit(const math::Matrix& x, const math::Vec& y) override;

  /// Predictive mean y_mean + k*^T alpha: n kernel evaluations.
  double Predict(const math::Vec& x) const override;

 private:
  double Kernel(const double* a, const double* b) const;
  /// k*: the kernel between each training row and x.
  math::Vec KernelVector(const math::Vec& x) const;

  Params params_;
  math::Matrix train_x_;
  math::Vec alpha_;  // K^{-1} (y - mean)
  double y_mean_ = 0.0;
  bool fitted_ = false;
};

}  // namespace eadrl::models

#endif  // EADRL_MODELS_GP_H_
