#include "ts/metrics.h"

#include <cmath>

#include "common/check.h"
#include "math/stats.h"

namespace eadrl::ts {

double Rmse(const math::Vec& actual, const math::Vec& predicted) {
  EADRL_CHECK_EQ(actual.size(), predicted.size());
  EADRL_CHECK(!actual.empty());
  double s = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    double d = actual[i] - predicted[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(actual.size()));
}

double Nrmse(const math::Vec& actual, const math::Vec& predicted) {
  double range = math::Max(actual) - math::Min(actual);
  double rmse = Rmse(actual, predicted);
  if (range <= 0.0) return rmse;
  return rmse / range;
}

}  // namespace eadrl::ts
