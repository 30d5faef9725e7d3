#include "ts/scaler.h"

#include "common/check.h"
#include "math/stats.h"

namespace eadrl::ts {

StandardScaler StandardScaler::FromMoments(double mean, double stddev) {
  EADRL_CHECK_GT(stddev, 0.0);
  StandardScaler scaler;
  scaler.mean_ = mean;
  scaler.stddev_ = stddev;
  scaler.fitted_ = true;
  return scaler;
}

void StandardScaler::Fit(const math::Vec& v) {
  EADRL_CHECK(!v.empty());
  mean_ = math::Mean(v);
  stddev_ = math::Stddev(v);
  fitted_ = true;
}

double StandardScaler::Transform(double x) const {
  EADRL_CHECK(fitted_);
  if (stddev_ <= 0.0) return 0.0;
  return (x - mean_) / stddev_;
}

double StandardScaler::Inverse(double y) const {
  EADRL_CHECK(fitted_);
  return mean_ + y * stddev_;
}

math::Vec StandardScaler::Transform(const math::Vec& v) const {
  math::Vec out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Transform(v[i]);
  return out;
}

math::Vec StandardScaler::Inverse(const math::Vec& v) const {
  math::Vec out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Inverse(v[i]);
  return out;
}

}  // namespace eadrl::ts
