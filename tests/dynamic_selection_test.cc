#include "baselines/dynamic_selection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/stats.h"

namespace eadrl::baselines {
namespace {

// m models: model 0 accurate, models 1 and 2 identical to each other (highly
// correlated), model 3 poor.
void MakeClusterableData(size_t t_steps, uint64_t seed, math::Matrix* preds,
                         math::Vec* actuals) {
  Rng rng(seed);
  actuals->resize(t_steps);
  *preds = math::Matrix(t_steps, 4);
  for (size_t t = 0; t < t_steps; ++t) {
    double x = std::sin(0.3 * static_cast<double>(t)) * 3.0 + 10.0;
    (*actuals)[t] = x;
    double shared = rng.Normal(0, 0.5);
    (*preds)(t, 0) = x + rng.Normal(0, 0.05);
    (*preds)(t, 1) = x + shared + 0.3;
    (*preds)(t, 2) = x + shared + 0.31;  // near-duplicate of model 1.
    (*preds)(t, 3) = x + rng.Normal(0, 3.0);
  }
}

TEST(TopSelTest, SelectsTopModelsOnly) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(60, 1, &preds, &actuals);
  TopSelCombiner topsel(/*top_n=*/2, /*window=*/20);
  ASSERT_TRUE(topsel.Initialize(preds, actuals).ok());
  math::Vec w = topsel.Weights();
  // Exactly two nonzero weights; the bad model 3 excluded.
  size_t nonzero = 0;
  for (double v : w) {
    if (v > 0.0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 2u);
  EXPECT_DOUBLE_EQ(w[3], 0.0);
  EXPECT_GT(w[0], 0.0);
}

TEST(TopSelTest, WeightsSumToOne) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(60, 2, &preds, &actuals);
  TopSelCombiner topsel(3, 10);
  ASSERT_TRUE(topsel.Initialize(preds, actuals).ok());
  math::Vec w = topsel.Weights();
  double sum = 0.0;
  for (double v : w) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ClusteringTest, GroupsCorrelatedModels) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(60, 3, &preds, &actuals);
  SlidingErrorTracker tracker(4, 40);
  tracker.Warm(preds, actuals);

  auto clusters = ClusterModelsByCorrelation(tracker, 0.05);
  // Models 1 and 2 are near-duplicates; they must share a cluster.
  bool found_pair = false;
  for (const auto& cluster : clusters) {
    bool has1 = std::find(cluster.begin(), cluster.end(), 1u) != cluster.end();
    bool has2 = std::find(cluster.begin(), cluster.end(), 2u) != cluster.end();
    if (has1 && has2) found_pair = true;
  }
  EXPECT_TRUE(found_pair);
  EXPECT_LT(clusters.size(), 4u);
}

TEST(ClusteringTest, ZeroThresholdKeepsAllSeparate) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(60, 4, &preds, &actuals);
  SlidingErrorTracker tracker(4, 40);
  tracker.Warm(preds, actuals);
  auto clusters = ClusterModelsByCorrelation(tracker, -1.0);
  EXPECT_EQ(clusters.size(), 4u);
}

TEST(ClusCombinerTest, DropsRedundantModelFromCommittee) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(80, 5, &preds, &actuals);
  ClusCombiner clus(/*window=*/40, /*distance_threshold=*/0.05,
                    /*recluster_every=*/10);
  ASSERT_TRUE(clus.Initialize(preds, actuals).ok());
  const auto& reps = clus.representatives();
  // Of the near-duplicates (1, 2), at most one is a representative.
  size_t dup_count = 0;
  for (size_t r : reps) {
    if (r == 1 || r == 2) ++dup_count;
  }
  EXPECT_LE(dup_count, 1u);
}

TEST(ClusCombinerTest, WeightsValid) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(80, 6, &preds, &actuals);
  ClusCombiner clus;
  ASSERT_TRUE(clus.Initialize(preds, actuals).ok());
  math::Vec w = clus.Weights();
  double sum = 0.0;
  for (double v : w) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DemscTest, InitializeBuildsCommittee) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(80, 7, &preds, &actuals);
  DemscCombiner demsc;
  ASSERT_TRUE(demsc.Initialize(preds, actuals).ok());
  EXPECT_FALSE(demsc.committee().empty());
  EXPECT_EQ(demsc.drift_count(), 0u);
}

TEST(DemscTest, DriftTriggersCommitteeRebuild) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(80, 8, &preds, &actuals);
  DemscCombiner::Params params;
  params.ph_lambda = 2.0;  // sensitive detector for the test.
  DemscCombiner demsc(params);
  ASSERT_TRUE(demsc.Initialize(preds, actuals).ok());

  // Feed a sudden large-error regime: every model is far off.
  Rng rng(9);
  for (int t = 0; t < 60; ++t) {
    math::Vec p{100.0, 101.0, 102.0, 103.0};
    demsc.Update(p, 10.0 + rng.Normal(0, 0.1));
  }
  EXPECT_GE(demsc.drift_count(), 1u);
}

TEST(DemscTest, StationaryRegimeNoDrift) {
  math::Matrix preds;
  math::Vec actuals;
  MakeClusterableData(80, 10, &preds, &actuals);
  DemscCombiner demsc;
  ASSERT_TRUE(demsc.Initialize(preds, actuals).ok());
  Rng rng(11);
  for (int t = 0; t < 100; ++t) {
    double x = 10.0 + rng.Normal(0, 0.2);
    math::Vec p{x + rng.Normal(0, 0.05), x + 0.3, x + 0.31,
                x + rng.Normal(0, 3.0)};
    demsc.Update(p, x);
  }
  EXPECT_EQ(demsc.drift_count(), 0u);
}

// --- Parity of the one-matrix re-cluster with the per-pair arithmetic. ---

constexpr size_t kParityMembers = 43;

// Member forecasts shaped like a 43-member pool: members 0-39 fall into ten
// groups around a shared per-group noise stream (members i and i + 10 are
// exact duplicates for i < 10, so correlations reach 1 and RMSEs tie;
// members 20-29 are near-duplicates, 30-39 looser ones). Member 40 mirrors
// the series, so its distance to the rest exceeds 1; member 41 is constant
// (sd 0) and member 42 lives at 1e200 scale (its variance and squared
// errors overflow to infinity). Both sit at distance exactly 1 from every
// cluster, so the last merges at threshold 2 are ties the merge loop must
// break as the reference does.
void MakeParityData(size_t t_steps, uint64_t seed, math::Matrix* preds,
                    math::Vec* actuals) {
  Rng rng(seed);
  *preds = math::Matrix(t_steps, kParityMembers);
  actuals->resize(t_steps);
  for (size_t t = 0; t < t_steps; ++t) {
    const double x = 10.0 + 3.0 * std::sin(0.3 * static_cast<double>(t));
    (*actuals)[t] = x;
    double group[10];
    for (double& g : group) g = rng.Normal(0, 1.0);
    for (size_t i = 0; i < 40; ++i) {
      const double own = i < 20 ? 0.0 : (i < 30 ? 0.05 : 0.3);
      (*preds)(t, i) = x + 0.1 * static_cast<double>(i % 10) + group[i % 10] +
                       (own > 0.0 ? rng.Normal(0, own) : 0.0);
    }
    (*preds)(t, 40) = 20.0 - x + rng.Normal(0, 0.3);
    (*preds)(t, 41) = 7.0;
    (*preds)(t, 42) = 1e200 * (1.0 + rng.Uniform());
  }
}

// The last min(fed, window) rows of member i among the first `fed` rows.
math::Vec Window(const math::Matrix& preds, size_t fed, size_t window,
                 size_t i) {
  const size_t n = std::min(fed, window);
  math::Vec w;
  for (size_t t = fed - n; t < fed; ++t) w.push_back(preds(t, i));
  return w;
}

// The correlation of two members' windows, computed directly from them.
double ReferenceCorrelation(const math::Matrix& preds, size_t fed,
                            size_t window, size_t a, size_t b) {
  if (std::min(fed, window) < 3) return 0.0;
  return math::PearsonCorrelation(Window(preds, fed, window, a),
                                  Window(preds, fed, window, b));
}

// Naive average-link clustering: every merge pass recomputes each pairwise
// correlation from the raw windows.
std::vector<std::vector<size_t>> ReferenceClusters(const math::Matrix& preds,
                                                   size_t fed, size_t window,
                                                   double threshold) {
  std::vector<std::vector<size_t>> clusters;
  for (size_t i = 0; i < preds.cols(); ++i) clusters.push_back({i});
  while (clusters.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        double s = 0.0;
        for (size_t a : clusters[i]) {
          for (size_t b : clusters[j]) {
            s += 1.0 - ReferenceCorrelation(preds, fed, window, a, b);
          }
        }
        const double d =
            s / static_cast<double>(clusters[i].size() * clusters[j].size());
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (best > threshold) break;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + static_cast<long>(bj));
  }
  return clusters;
}

// A tracker of window 10 fed the first `fed` rows.
SlidingErrorTracker FedTracker(const math::Matrix& preds,
                               const math::Vec& actuals, size_t fed) {
  SlidingErrorTracker tracker(preds.cols(), 10);
  for (size_t t = 0; t < fed; ++t) tracker.Add(preds.Row(t), actuals[t]);
  return tracker;
}

TEST(CorrelationMatrixTest, MatchesPearsonCorrelationBitForBit) {
  math::Matrix preds;
  math::Vec actuals;
  MakeParityData(25, 21, &preds, &actuals);
  // Fewer than 3 steps (all zero), exactly 3, a filling and a sliding window.
  for (size_t fed : {0u, 2u, 3u, 7u, 10u, 25u}) {
    SCOPED_TRACE(fed);
    const math::Matrix corr = FedTracker(preds, actuals, fed)
                                  .PredictionCorrelations();
    ASSERT_EQ(corr.rows(), kParityMembers);
    ASSERT_EQ(corr.cols(), kParityMembers);
    // Bit patterns: the sign of zero and the NaN of the 1e200 member's own
    // correlation (inf / inf) must match too.
    for (size_t a = 0; a < kParityMembers; ++a) {
      for (size_t b = 0; b < kParityMembers; ++b) {
        EXPECT_EQ(std::bit_cast<uint64_t>(corr(a, b)),
                  std::bit_cast<uint64_t>(
                      ReferenceCorrelation(preds, fed, 10, a, b)))
            << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST(CorrelationMatrixTest, CoversTheDegenerateMembers) {
  math::Matrix preds;
  math::Vec actuals;
  MakeParityData(25, 22, &preds, &actuals);
  const math::Matrix corr = FedTracker(preds, actuals, 25)
                                .PredictionCorrelations();
  EXPECT_EQ(corr(0, 10), corr(0, 0));  // exact duplicates
  EXPECT_GT(corr(0, 10), 0.999);
  EXPECT_EQ(corr(41, 3), 0.0);         // constant member
  EXPECT_EQ(corr(42, 3), 0.0);         // infinite sd
  EXPECT_TRUE(std::isnan(corr(42, 42)));
}

TEST(ClusteringTest, MatchesNaiveAverageLinkReference) {
  math::Matrix preds;
  math::Vec actuals;
  MakeParityData(25, 23, &preds, &actuals);
  // -1 merges nothing, 0.02 is DEMSC's, 0.3 Clus's, 2.0 merges everything.
  for (size_t fed : {2u, 10u, 25u}) {
    const SlidingErrorTracker tracker = FedTracker(preds, actuals, fed);
    for (double threshold : {-1.0, 0.02, 0.3, 2.0}) {
      SCOPED_TRACE(testing::Message() << "fed " << fed << " threshold "
                                      << threshold);
      EXPECT_EQ(ClusterModelsByCorrelation(tracker, threshold),
                ReferenceClusters(preds, fed, 10, threshold));
    }
  }
  // The data exercises the merge loop: DEMSC's threshold merges some
  // members but not all.
  const auto demsc = ClusterModelsByCorrelation(
      FedTracker(preds, actuals, 25), 0.02);
  EXPECT_LT(demsc.size(), kParityMembers);
  EXPECT_GT(demsc.size(), 1u);
}

TEST(TopModelsTest, MatchesNaiveComparatorSort) {
  math::Matrix preds;
  math::Vec actuals;
  MakeParityData(25, 24, &preds, &actuals);
  // fed 0: every RMSE is infinite; otherwise members i and i + 10 (i < 10)
  // tie and member 42's RMSE is infinite.
  for (size_t fed : {0u, 2u, 25u}) {
    const SlidingErrorTracker tracker = FedTracker(preds, actuals, fed);
    std::vector<size_t> order(kParityMembers);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tracker.Rmse(a) < tracker.Rmse(b);
    });
    for (size_t n : {0u, 1u, 10u, 43u, 100u}) {
      SCOPED_TRACE(testing::Message() << "fed " << fed << " n " << n);
      std::vector<size_t> want(order.begin(),
                               order.begin() + static_cast<long>(std::min(
                                                   n, order.size())));
      EXPECT_EQ(tracker.TopModels(n), want);
    }
  }
  const SlidingErrorTracker tracker = FedTracker(preds, actuals, 25);
  EXPECT_EQ(tracker.Rmse(0), tracker.Rmse(10));
  EXPECT_TRUE(std::isinf(tracker.Rmse(42)));
}

}  // namespace
}  // namespace eadrl::baselines
