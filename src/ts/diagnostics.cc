#include "ts/diagnostics.h"

#include <algorithm>

#include "common/check.h"
#include "math/stats.h"

namespace eadrl::ts {

size_t EstimateSeasonalPeriod(const math::Vec& values, size_t min_period,
                              size_t max_period, double threshold) {
  EADRL_CHECK_GE(min_period, 2u);
  if (values.size() < 3 * min_period) return 0;
  size_t limit = std::min(max_period, values.size() / 3);

  size_t best_lag = 0;
  double best_acf = threshold;
  for (size_t lag = min_period; lag <= limit; ++lag) {
    double a = math::Autocorrelation(values, lag);
    if (a > best_acf) {
      best_acf = a;
      best_lag = lag;
    }
  }
  return best_lag;
}

}  // namespace eadrl::ts
