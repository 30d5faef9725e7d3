#ifndef EADRL_TS_DIAGNOSTICS_H_
#define EADRL_TS_DIAGNOSTICS_H_

#include <cstddef>

#include "math/vec.h"

namespace eadrl::ts {

/// Estimates the dominant seasonal period by the highest autocorrelation
/// peak in [min_period, max_period]; returns 0 if no lag exceeds
/// `threshold`.
size_t EstimateSeasonalPeriod(const math::Vec& values, size_t min_period = 2,
                              size_t max_period = 400,
                              double threshold = 0.3);

}  // namespace eadrl::ts

#endif  // EADRL_TS_DIAGNOSTICS_H_
