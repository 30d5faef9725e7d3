#ifndef EADRL_TS_DRIFT_H_
#define EADRL_TS_DRIFT_H_

#include <cstddef>

namespace eadrl::ts {

/// Page–Hinkley test for detecting an increase in the mean of a streamed
/// signal (typically a model's error). Used by the DEMSC baseline to trigger
/// meta-level updates.
class PageHinkley {
 public:
  /// `delta` is the magnitude tolerance, `lambda` the detection threshold,
  /// `alpha` the forgetting factor applied to the running mean.
  PageHinkley(double delta = 0.005, double lambda = 50.0, double alpha = 0.999);

  /// Feeds one observation; returns true if drift is detected. The detector
  /// resets itself after a detection.
  bool Update(double value);

  void Reset();

  size_t num_observations() const { return n_; }
  double cumulative() const { return cumulative_; }

 private:
  double delta_;
  double lambda_;
  double alpha_;
  size_t n_ = 0;
  double mean_ = 0.0;
  double cumulative_ = 0.0;
  double min_cumulative_ = 0.0;
};

}  // namespace eadrl::ts

#endif  // EADRL_TS_DRIFT_H_
