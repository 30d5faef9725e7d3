#include "stats/bayes_tests.h"

#include <cmath>

#include "math/special.h"
#include "math/stats.h"

namespace eadrl::stats {

StatusOr<ComparisonResult> BayesianCorrelatedTTest(const math::Vec& diffs,
                                                   double correlation,
                                                   double rope) {
  if (diffs.size() < 2) {
    return Status::InvalidArgument("t-test: need at least 2 differences");
  }
  if (correlation < 0.0 || correlation >= 1.0) {
    return Status::InvalidArgument("t-test: correlation must be in [0,1)");
  }
  if (rope < 0.0) {
    return Status::InvalidArgument("t-test: rope must be >= 0");
  }
  const double n = static_cast<double>(diffs.size());
  double mean = math::Mean(diffs);
  double var = math::Variance(diffs);

  ComparisonResult result;
  if (var <= 1e-300) {
    // Degenerate: all differences identical.
    if (mean < -rope) {
      result.p_a_better = 1.0;
    } else if (mean > rope) {
      result.p_b_better = 1.0;
    } else {
      result.p_rope = 1.0;
    }
    return result;
  }

  // Posterior of the mean difference is a Student-t with n-1 dof, location
  // mean, and scale inflated by the correlation heuristic (Nadeau & Bengio):
  // scale^2 = (1/n + rho/(1-rho)) * var.
  double scale =
      std::sqrt((1.0 / n + correlation / (1.0 - correlation)) * var);
  double dof = n - 1.0;

  // A better means negative differences (loss_A < loss_B).
  double t_left = (-rope - mean) / scale;
  double t_right = (rope - mean) / scale;
  result.p_a_better = math::StudentTCdf(t_left, dof);
  result.p_b_better = 1.0 - math::StudentTCdf(t_right, dof);
  result.p_rope = 1.0 - result.p_a_better - result.p_b_better;
  if (result.p_rope < 0.0) result.p_rope = 0.0;
  return result;
}

}  // namespace eadrl::stats
