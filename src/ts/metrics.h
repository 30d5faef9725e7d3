#ifndef EADRL_TS_METRICS_H_
#define EADRL_TS_METRICS_H_

#include "math/vec.h"

namespace eadrl::ts {

/// Root mean squared error between predictions and ground truth.
double Rmse(const math::Vec& actual, const math::Vec& predicted);

/// RMSE normalized by the value range of `actual` (max - min); used by the
/// paper's ablation reward 1 - NRMSE. Returns RMSE if the range is zero.
double Nrmse(const math::Vec& actual, const math::Vec& predicted);

}  // namespace eadrl::ts

#endif  // EADRL_TS_METRICS_H_
