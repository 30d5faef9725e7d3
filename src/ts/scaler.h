#ifndef EADRL_TS_SCALER_H_
#define EADRL_TS_SCALER_H_

#include "math/vec.h"

namespace eadrl::ts {

/// Z-score scaler. Degenerate (zero variance) inputs map to 0.
class StandardScaler {
 public:
  /// A scaler with explicit moments (stddev > 0), without fitting data — the
  /// serving layer uses this to give each tenant session the affine map
  /// between its series' units and the policy's training units.
  static StandardScaler FromMoments(double mean, double stddev);

  void Fit(const math::Vec& v);
  double Transform(double x) const;
  double Inverse(double y) const;
  math::Vec Transform(const math::Vec& v) const;
  math::Vec Inverse(const math::Vec& v) const;

  bool fitted() const { return fitted_; }
  double mean() const { return mean_; }
  double stddev() const { return stddev_; }

 private:
  bool fitted_ = false;
  double mean_ = 0.0;
  double stddev_ = 1.0;
};

}  // namespace eadrl::ts

#endif  // EADRL_TS_SCALER_H_
