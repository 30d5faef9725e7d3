#include "ts/series.h"

#include "common/check.h"

namespace eadrl::ts {

Series Series::Slice(size_t begin, size_t end) const {
  EADRL_CHECK_LE(begin, end);
  EADRL_CHECK_LE(end, values_.size());
  math::Vec sub(values_.begin() + begin, values_.begin() + end);
  return Series(name_, std::move(sub), frequency_, seasonal_period_);
}

TrainTestSplit SplitTrainTest(const Series& s, double train_ratio) {
  EADRL_CHECK(train_ratio > 0.0 && train_ratio < 1.0);
  size_t cut = static_cast<size_t>(train_ratio * static_cast<double>(s.size()));
  EADRL_CHECK(cut > 0 && cut < s.size());
  return TrainTestSplit{s.Slice(0, cut), s.Slice(cut, s.size())};
}

}  // namespace eadrl::ts
