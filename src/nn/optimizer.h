#ifndef EADRL_NN_OPTIMIZER_H_
#define EADRL_NN_OPTIMIZER_H_

#include <vector>

#include "math/matrix.h"
#include "nn/param.h"

namespace eadrl::nn {

/// Adam (Kingma & Ba, 2015) with bias correction. Moments that fall below
/// the smallest normal double are flushed to +0.0, which keeps dead units
/// off the subnormal slow path without moving any weight (DESIGN.md §8).
/// Per-parameter state is keyed by position in the registered list.
class Adam {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// Registers the parameters this optimizer updates. Must be called once
  /// before the first Step.
  void Register(const std::vector<Param*>& params);

  /// Applies one update using the accumulated gradients, then leaves the
  /// gradients untouched (call ZeroGrads separately, or use StepAndZero).
  void Step();

  /// Convenience: Step followed by zeroing all gradients.
  void StepAndZero();

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

 private:
  std::vector<Param*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  long long t_ = 0;
  std::vector<math::Matrix> m_;
  std::vector<math::Matrix> v_;
};

}  // namespace eadrl::nn

#endif  // EADRL_NN_OPTIMIZER_H_
