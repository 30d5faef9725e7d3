#include "baselines/error_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace eadrl::baselines {

SlidingErrorTracker::SlidingErrorTracker(size_t num_models, size_t window)
    : num_models_(num_models),
      window_(window),
      squared_errors_(num_models),
      recent_preds_(num_models) {
  EADRL_CHECK_GT(num_models, 0u);
  EADRL_CHECK_GT(window, 0u);
}

void SlidingErrorTracker::Add(const math::Vec& preds, double actual) {
  EADRL_CHECK_EQ(preds.size(), num_models_);
  for (size_t i = 0; i < num_models_; ++i) {
    double err = preds[i] - actual;
    squared_errors_[i].push_back(err * err);
    if (squared_errors_[i].size() > window_) squared_errors_[i].pop_front();
    recent_preds_[i].push_back(preds[i]);
    if (recent_preds_[i].size() > window_) recent_preds_[i].pop_front();
  }
  ++steps_seen_;
}

void SlidingErrorTracker::Warm(const math::Matrix& preds,
                               const math::Vec& actuals) {
  EADRL_CHECK_EQ(preds.rows(), actuals.size());
  for (size_t t = 0; t < preds.rows(); ++t) Add(preds.Row(t), actuals[t]);
}

double SlidingErrorTracker::Rmse(size_t i) const {
  EADRL_CHECK_LT(i, num_models_);
  if (squared_errors_[i].empty()) {
    return std::numeric_limits<double>::infinity();
  }
  double s = 0.0;
  for (double e : squared_errors_[i]) s += e;
  return std::sqrt(s / static_cast<double>(squared_errors_[i].size()));
}

math::Vec SlidingErrorTracker::InverseErrorWeights(
    const std::vector<size_t>& subset) const {
  std::vector<size_t> models = subset;
  if (models.empty()) {
    models.resize(num_models_);
    std::iota(models.begin(), models.end(), 0u);
  }
  math::Vec w(num_models_, 0.0);
  double sum = 0.0;
  for (size_t i : models) {
    double rmse = Rmse(i);
    double inv = std::isfinite(rmse) ? 1.0 / (rmse + 1e-8) : 0.0;
    w[i] = inv;
    sum += inv;
  }
  if (sum <= 0.0) {
    for (size_t i : models) w[i] = 1.0 / static_cast<double>(models.size());
    return w;
  }
  for (double& v : w) v /= sum;
  return w;
}

std::vector<size_t> SlidingErrorTracker::TopModels(size_t n) const {
  math::Vec rmse(num_models_);
  for (size_t i = 0; i < num_models_; ++i) rmse[i] = Rmse(i);
  std::vector<size_t> order(num_models_);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&rmse](size_t a, size_t b) {
    return rmse[a] < rmse[b];
  });
  order.resize(std::min(n, order.size()));
  return order;
}

math::Matrix SlidingErrorTracker::PredictionCorrelations() const {
  const size_t m = num_models_;
  const size_t n = recent_preds_[0].size();  // every window holds n steps
  math::Matrix corr(m, m, 0.0);
  if (n < 3) return corr;
  // The arithmetic of math::PearsonCorrelation, with each window's mean,
  // deviations and sd computed once: mean = left-to-right sum / n,
  // sd = sqrt(sum of squared deviations / (n - 1)), cov = sum of deviation
  // products / (n - 1), corr = cov / (sa * sb), and 0 if either sd is 0.
  // Both products commute exactly, so the matrix is symmetric bit for bit.
  const double dof = static_cast<double>(n - 1);
  math::Matrix dev(m, n);
  math::Vec sd(m);
  for (size_t i = 0; i < m; ++i) {
    const std::deque<double>& p = recent_preds_[i];
    double sum = 0.0;
    for (double x : p) sum += x;
    const double mean = sum / static_cast<double>(n);
    double* d = dev.RowPtr(i);
    double ss = 0.0;
    for (size_t t = 0; t < n; ++t) {
      d[t] = p[t] - mean;
      ss += d[t] * d[t];
    }
    sd[i] = std::sqrt(ss / dof);
  }
  for (size_t a = 0; a < m; ++a) {
    const double* da = dev.RowPtr(a);
    for (size_t b = a; b < m; ++b) {
      if (sd[a] == 0.0 || sd[b] == 0.0) continue;
      const double* db = dev.RowPtr(b);
      double s = 0.0;
      for (size_t t = 0; t < n; ++t) s += da[t] * db[t];
      corr(a, b) = corr(b, a) = s / dof / (sd[a] * sd[b]);
    }
  }
  return corr;
}

}  // namespace eadrl::baselines
