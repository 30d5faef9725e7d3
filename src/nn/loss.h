#ifndef EADRL_NN_LOSS_H_
#define EADRL_NN_LOSS_H_

#include "math/vec.h"

namespace eadrl::nn {

/// Loss value and gradient with respect to the prediction.
struct LossResult {
  double value = 0.0;
  math::Vec grad;
};

/// Mean squared error over the vector: L = mean((pred - target)^2).
LossResult MseLoss(const math::Vec& pred, const math::Vec& target);

}  // namespace eadrl::nn

#endif  // EADRL_NN_LOSS_H_
