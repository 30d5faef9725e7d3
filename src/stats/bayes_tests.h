#ifndef EADRL_STATS_BAYES_TESTS_H_
#define EADRL_STATS_BAYES_TESTS_H_

#include "common/status.h"
#include "math/vec.h"

namespace eadrl::stats {

/// Posterior probabilities of a pairwise comparison between methods A and B:
/// `p_a_better` is the posterior mass where A has lower loss, `p_rope` the
/// mass inside the region of practical equivalence, `p_b_better` the rest.
struct ComparisonResult {
  double p_a_better = 0.0;
  double p_rope = 0.0;
  double p_b_better = 0.0;
};

/// Bayesian correlated t-test (Benavoli et al. 2017, Sec. 4.1) on paired
/// loss differences d_i = loss_A(i) - loss_B(i) from one dataset.
/// `correlation` models the dependence between the paired samples (the
/// overlapping-training-data correlation; 0 gives the standard Bayesian
/// t-test). `rope` is the half-width of the region of practical equivalence
/// on the difference scale.
StatusOr<ComparisonResult> BayesianCorrelatedTTest(const math::Vec& diffs,
                                                   double correlation,
                                                   double rope);

}  // namespace eadrl::stats

#endif  // EADRL_STATS_BAYES_TESTS_H_
