#ifndef EADRL_BASELINES_ERROR_TRACKER_H_
#define EADRL_BASELINES_ERROR_TRACKER_H_

#include <deque>
#include <vector>

#include "math/matrix.h"
#include "math/vec.h"

namespace eadrl::baselines {

/// Tracks each base model's squared error over a sliding window — the common
/// machinery behind SWE, Top.sel, Clus and DEMSC, plus the recent-prediction
/// history used for clustering.
class SlidingErrorTracker {
 public:
  SlidingErrorTracker(size_t num_models, size_t window);

  /// Records one step of base predictions against the realized value.
  void Add(const math::Vec& preds, double actual);

  /// Warms the tracker with a whole validation matrix.
  void Warm(const math::Matrix& preds, const math::Vec& actuals);

  size_t num_models() const { return num_models_; }
  size_t window() const { return window_; }
  size_t steps_seen() const { return steps_seen_; }

  /// RMSE of model i over the current window (infinity until it has data).
  double Rmse(size_t i) const;

  /// SWE weights: inverse window-RMSE, normalized over `subset` (all models
  /// if `subset` is empty). Models outside the subset get zero.
  math::Vec InverseErrorWeights(const std::vector<size_t>& subset = {}) const;

  /// Indices of the `n` lowest-window-RMSE models (stable on ties).
  std::vector<size_t> TopModels(size_t n) const;

  /// m x m Pearson correlations of the models' recent predictions: entry
  /// (a, b) is bit-identical to math::PearsonCorrelation of the two windows,
  /// and 0 while the window holds fewer than 3 steps. Each window is centred
  /// once, so the whole matrix costs m(m+1)/2 dot products.
  math::Matrix PredictionCorrelations() const;

 private:
  size_t num_models_;
  size_t window_;
  size_t steps_seen_ = 0;
  std::vector<std::deque<double>> squared_errors_;
  std::vector<std::deque<double>> recent_preds_;
};

}  // namespace eadrl::baselines

#endif  // EADRL_BASELINES_ERROR_TRACKER_H_
