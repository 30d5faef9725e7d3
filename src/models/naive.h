#ifndef EADRL_MODELS_NAIVE_H_
#define EADRL_MODELS_NAIVE_H_

#include <string>

#include "models/forecaster.h"

namespace eadrl::models {

/// Random-walk forecast: predicts the last observed value. Reference model
/// for sanity tests.
class NaiveForecaster : public Forecaster {
 public:
  NaiveForecaster() : name_("naive") {}

  const std::string& name() const override { return name_; }
  Status Fit(const ts::Series& train) override;
  double PredictNext() override;
  void Observe(double value) override;

 private:
  std::string name_;
  double last_ = 0.0;
  bool fitted_ = false;
};

}  // namespace eadrl::models

#endif  // EADRL_MODELS_NAIVE_H_
