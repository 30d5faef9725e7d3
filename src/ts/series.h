#ifndef EADRL_TS_SERIES_H_
#define EADRL_TS_SERIES_H_

#include <string>
#include <vector>

#include "math/vec.h"

namespace eadrl::ts {

/// A univariate time series: an ordered sequence of real values plus
/// descriptive metadata. Values are equally spaced; the sampling frequency is
/// recorded as a human-readable label and an optional dominant seasonal
/// period (in steps) used by seasonal models.
class Series {
 public:
  Series() = default;
  Series(std::string name, math::Vec values, std::string frequency = "",
         size_t seasonal_period = 0)
      : name_(std::move(name)),
        frequency_(std::move(frequency)),
        seasonal_period_(seasonal_period),
        values_(std::move(values)) {}

  const std::string& name() const { return name_; }
  const std::string& frequency() const { return frequency_; }
  size_t seasonal_period() const { return seasonal_period_; }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](size_t i) const { return values_[i]; }
  const math::Vec& values() const { return values_; }
  math::Vec& values() { return values_; }

  /// Returns the subseries [begin, end) keeping the metadata.
  Series Slice(size_t begin, size_t end) const;

  /// Appends one observation.
  void PushBack(double v) { values_.push_back(v); }

 private:
  std::string name_;
  std::string frequency_;
  size_t seasonal_period_ = 0;
  math::Vec values_;
};

/// Train/test pair produced by a chronological split.
struct TrainTestSplit {
  Series train;
  Series test;
};

/// Chronological split: the first `train_ratio` fraction becomes the training
/// series, the remainder the test series (no shuffling — order matters).
TrainTestSplit SplitTrainTest(const Series& s, double train_ratio);

}  // namespace eadrl::ts

#endif  // EADRL_TS_SERIES_H_
