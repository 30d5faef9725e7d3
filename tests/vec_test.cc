#include "math/vec.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eadrl::math {
namespace {

TEST(VecTest, DotAndNorm) {
  Vec a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
}

TEST(VecTest, ElementwiseOps) {
  Vec a{1, 2}, b{3, 5};
  EXPECT_EQ(Add(a, b), (Vec{4, 7}));
  EXPECT_EQ(Sub(b, a), (Vec{2, 3}));
  EXPECT_EQ(Scale(a, 2.0), (Vec{2, 4}));
}

TEST(VecTest, SoftmaxSumsToOne) {
  Vec p = Softmax({1.0, 2.0, 3.0});
  double sum = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(VecTest, SoftmaxNumericallyStableForLargeInputs) {
  Vec p = Softmax({1000.0, 1000.0, 999.0});
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0], p[1], 1e-12);
}

TEST(VecTest, ProjectToSimplexAlreadyOnSimplex) {
  Vec w = ProjectToSimplex({0.2, 0.3, 0.5});
  EXPECT_NEAR(w[0], 0.2, 1e-9);
  EXPECT_NEAR(w[1], 0.3, 1e-9);
  EXPECT_NEAR(w[2], 0.5, 1e-9);
}

TEST(VecTest, ProjectToSimplexKnownCase) {
  // Projecting (1,1) onto the simplex gives (0.5, 0.5).
  Vec w = ProjectToSimplex({1.0, 1.0});
  EXPECT_NEAR(w[0], 0.5, 1e-9);
  EXPECT_NEAR(w[1], 0.5, 1e-9);
}

// Property: the projection output is always a valid probability vector and is
// the closest such point (verified against a dense grid for 2-D cases).
class ProjectSimplexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProjectSimplexProperty, OutputOnSimplexAndCloserThanGrid) {
  Rng rng(GetParam());
  Vec a(3);
  for (double& v : a) v = rng.Uniform(-3.0, 3.0);
  Vec w = ProjectToSimplex(a);

  double sum = 0.0;
  for (double v : w) {
    EXPECT_GE(v, -1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Any random point on the simplex must be at least as far from `a`.
  double dist_w = Norm2(Sub(w, a));
  for (int trial = 0; trial < 50; ++trial) {
    Vec q(3);
    for (double& v : q) v = rng.Uniform(0.0, 1.0);
    double qs = q[0] + q[1] + q[2];
    for (double& v : q) v /= qs;
    EXPECT_LE(dist_w, Norm2(Sub(q, a)) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectSimplexProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace eadrl::math
