#include "ts/drift.h"

#include <algorithm>

#include "chk/chk.h"

namespace eadrl::ts {

PageHinkley::PageHinkley(double delta, double lambda, double alpha)
    : delta_(delta), lambda_(lambda), alpha_(alpha) {
  EADRL_CHK(lambda_ > 0.0, "PageHinkley.lambda positive");
  EADRL_CHK(alpha_ > 0.0 && alpha_ <= 1.0, "PageHinkley.alpha in (0, 1]");
}

bool PageHinkley::Update(double value) {
  // One non-finite error observation would stick in the forgetting mean and
  // disarm the detector for the rest of the stream.
  EADRL_CHK_FINITE_VALUE(value, "PageHinkley::Update observation");
  EADRL_CHK_FINITE_VALUE(cumulative_, "PageHinkley cumulative statistic");
  ++n_;
  // Incremental (forgetting) mean.
  mean_ = mean_ + (value - mean_) / static_cast<double>(n_);
  mean_ *= alpha_;
  cumulative_ += value - mean_ - delta_;
  min_cumulative_ = std::min(min_cumulative_, cumulative_);
  if (cumulative_ - min_cumulative_ > lambda_) {
    Reset();
    return true;
  }
  return false;
}

void PageHinkley::Reset() {
  n_ = 0;
  mean_ = 0.0;
  cumulative_ = 0.0;
  min_cumulative_ = 0.0;
}

}  // namespace eadrl::ts
