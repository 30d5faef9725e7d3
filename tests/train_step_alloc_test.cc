// The training loop's replay traffic and DDPG update, counted at the heap:
// this binary replaces the global operator new with one that counts every
// call, so a test can assert that a warm path allocates nothing at all, not
// just nothing that obs::CountAlloc reports.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/vec.h"
#include "rl/ddpg.h"
#include "rl/replay_buffer.h"
#include "rl/transition.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace eadrl::rl {
namespace {

// One transition's rows at the paper's widths (10-wide states, 43 members)
// with a rank reward k/43.
struct Rows {
  math::Vec state = math::Vec(10);
  math::Vec action = math::Vec(43);
  double reward = 0.0;
  math::Vec next_state = math::Vec(10);
};

void Fill(Rows* rows, Rng& rng) {
  for (double& v : rows->state) v = rng.Normal(0.0, 1.0);
  double sum = 0.0;
  for (double& v : rows->action) {
    v = rng.Uniform(0.01, 1.0);
    sum += v;
  }
  for (double& v : rows->action) v /= sum;
  rows->reward = static_cast<double>(rng.Index(44)) / 43.0;
  for (double& v : rows->next_state) v = rng.Normal(0.0, 1.0);
}

class WarmTrainStep : public ::testing::TestWithParam<SamplingStrategy> {};

// One training step's replay traffic on a full 5 000-row ring — nine Adds,
// one Sample into a warm minibatch — then the DDPG update, at the paper's
// agent shape: after three warm-up steps, it makes no heap allocation.
TEST_P(WarmTrainStep, AddSampleAndUpdateAllocateNothing) {
  const SamplingStrategy strategy = GetParam();
  ReplayBuffer buffer(5000);
  Rng rng(3);
  Rows rows;
  for (size_t i = 0; i < 5000 + 17; ++i) {
    Fill(&rows, rng);
    buffer.Add(rows.state, rows.action, rows.reward, rows.next_state,
               i % 50 == 49);
  }
  DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  DdpgAgent agent(cfg);
  Minibatch batch;
  std::vector<Rows> step_rows(9);
  auto train_step = [&]() {
    for (const Rows& r : step_rows) {
      buffer.Add(r.state, r.action, r.reward, r.next_state, false);
    }
    buffer.Sample(16, strategy, rng, &batch);
    return agent.Update(batch);
  };
  for (int warm = 0; warm < 3; ++warm) {
    for (Rows& r : step_rows) Fill(&r, rng);
    train_step();
  }
  for (Rows& r : step_rows) Fill(&r, rng);

  const size_t before = g_allocations.load(std::memory_order_relaxed);
  const double loss = train_step();
  const size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(buffer.size(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, WarmTrainStep,
                         ::testing::Values(SamplingStrategy::kMedianSplit,
                                           SamplingStrategy::kUniform));

}  // namespace
}  // namespace eadrl::rl
