#include "nn/loss.h"

#include "common/check.h"

namespace eadrl::nn {

LossResult MseLoss(const math::Vec& pred, const math::Vec& target) {
  EADRL_CHECK_EQ(pred.size(), target.size());
  EADRL_CHECK(!pred.empty());
  LossResult out;
  out.grad.resize(pred.size());
  double n = static_cast<double>(pred.size());
  for (size_t i = 0; i < pred.size(); ++i) {
    double d = pred[i] - target[i];
    out.value += d * d / n;
    out.grad[i] = 2.0 * d / n;
  }
  return out;
}

}  // namespace eadrl::nn
