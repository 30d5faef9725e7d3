#include "chk/chk.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chk_fixtures/chk_fixtures.h"
#include "math/matrix.h"
#include "rl/ddpg.h"
#include "rl/replay_buffer.h"
#include "rl/transition.h"

namespace eadrl {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

[[noreturn]] void ThrowHandler(const char* message) {
  throw std::runtime_error(message);
}

/// Installs the throwing failure handler for the duration of each test, so a
/// violated contract becomes a catchable exception instead of an abort.
class ChkTest : public ::testing::Test {
 protected:
  void SetUp() override { chk::SetFailureHandlerForTest(&ThrowHandler); }
  void TearDown() override { chk::SetFailureHandlerForTest(nullptr); }
};

/// Runs `fn`, expecting a contract violation whose message contains every
/// string in `needles`.
template <typename Fn>
void ExpectViolation(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected a contract violation";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("contract violated"), std::string::npos)
        << message;
    for (const std::string& needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << message;
    }
  }
}

TEST_F(ChkTest, ForcedModesOverrideBuildConfig) {
  EXPECT_TRUE(chk_testing::ForcedOnEnabled());
  EXPECT_FALSE(chk_testing::ForcedOffEnabled());
}

TEST_F(ChkTest, SimplexViolationNamesCheckAndFailure) {
  // Sum is 1.8: a valid-elementwise vector that is off the simplex.
  ExpectViolation([] { chk_testing::ForcedOnSimplex({0.9, 0.9}); },
                  {"forced-on simplex", "sum"});
  // A negative weight is caught element-wise.
  ExpectViolation([] { chk_testing::ForcedOnSimplex({1.5, -0.5}); },
                  {"forced-on simplex", "weight"});
}

TEST_F(ChkTest, FiniteViolationNamesOffendingElement) {
  ExpectViolation([] { chk_testing::ForcedOnFinite({0.0, kNan, 2.0}); },
                  {"forced-on finite", "element 1"});
  ExpectViolation(
      [] {
        chk_testing::ForcedOnFinite(
            {std::numeric_limits<double>::infinity()});
      },
      {"forced-on finite", "element 0"});
}

TEST_F(ChkTest, BoundAndRangeViolations) {
  ExpectViolation([] { chk_testing::ForcedOnBound(5, 5); },
                  {"forced-on bound", "index 5", "[0, 5)"});
  ExpectViolation([] { chk_testing::ForcedOnRange(1.5, 0.0, 1.0); },
                  {"forced-on range"});
  // NaN is outside every range.
  ExpectViolation([] { chk_testing::ForcedOnRange(kNan, 0.0, 1.0); },
                  {"forced-on range"});
}

TEST_F(ChkTest, ValidInputsPassSilently) {
  chk_testing::ForcedOnSimplex({0.25, 0.25, 0.5});
  chk_testing::ForcedOnFinite({1.0, -2.0, 0.0});
  chk_testing::ForcedOnBound(4, 5);
  chk_testing::ForcedOnRange(0.5, 0.0, 1.0);
}

TEST_F(ChkTest, DisabledContractsAreInert) {
  // Garbage input: must be a no-op in the forced-off translation unit.
  chk_testing::ForcedOffSimplex({kNan, -3.0, 7.0});
  // The zero-cost guarantee: a disabled contract never evaluates its
  // argument expressions.
  EXPECT_FALSE(chk_testing::ForcedOffEvaluatesArguments());
}

// ---------------------------------------------------------------------------
// Library integration: the contracts wired through rl/ fire with messages
// naming the offending stage. These depend on how the library itself was
// compiled, so they skip when the build configured EADRL_CHECKS=OFF.
// ---------------------------------------------------------------------------

TEST_F(ChkTest, ReplayBufferRejectsOffSimplexAction) {
  if (!chk::Enabled()) {
    GTEST_SKIP() << "library compiled with EADRL_CHECKS=OFF";
  }
  rl::ReplayBuffer buffer(8);
  const math::Vec off_simplex = {0.9, 0.9};
  ExpectViolation(
      [&] { buffer.Add({0.0}, off_simplex, 0.0, {0.0}, false); },
      {"ReplayBuffer::Add action"});
}

TEST_F(ChkTest, NanPoisonedActorWeightsAbortNamingStage) {
  if (!chk::Enabled()) {
    GTEST_SKIP() << "library compiled with EADRL_CHECKS=OFF";
  }
  rl::DdpgConfig config;
  config.state_dim = 3;
  config.action_dim = 2;
  config.actor_hidden = {4};
  config.critic_hidden = {4};
  rl::DdpgAgent agent(config);

  std::vector<math::Matrix> weights = agent.ActorWeights();
  ASSERT_FALSE(weights.empty());
  ASSERT_NE(weights[0].rows() * weights[0].cols(), 0u);
  weights[0](0, 0) = kNan;  // poison one parameter
  ExpectViolation([&] { agent.SetActorWeights(weights); },
                  {"SetActorWeights actor weights", "nan"});
}

TEST_F(ChkTest, DdpgConfigContractsRejectBadHyperparameters) {
  if (!chk::Enabled()) {
    GTEST_SKIP() << "library compiled with EADRL_CHECKS=OFF";
  }
  rl::DdpgConfig config;
  config.state_dim = 2;
  config.action_dim = 2;
  config.actor_hidden = {4};
  config.critic_hidden = {4};
  config.tau = 0.0;  // outside (0, 1]
  ExpectViolation([&] { rl::DdpgAgent agent(config); }, {"tau"});
}

}  // namespace
}  // namespace eadrl
