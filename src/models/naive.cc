#include "models/naive.h"

#include "common/check.h"

namespace eadrl::models {

Status NaiveForecaster::Fit(const ts::Series& train) {
  if (train.empty()) {
    return Status::InvalidArgument("naive: empty training series");
  }
  last_ = train[train.size() - 1];
  fitted_ = true;
  return Status::Ok();
}

double NaiveForecaster::PredictNext() {
  EADRL_CHECK(fitted_);
  return last_;
}

void NaiveForecaster::Observe(double value) {
  EADRL_CHECK(fitted_);
  last_ = value;
}

}  // namespace eadrl::models
