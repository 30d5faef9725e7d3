// Supporting micro-benchmarks (google-benchmark): the per-step costs behind
// Table III — policy inference, DDPG updates, the Adam step, replay
// sampling, the environment's counterfactual step, drift detection,
// base-model prediction, and DEMSC's calm step and drift re-cluster — and
// the pool-fit costs of the LSTM and GP members.

#include <cmath>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "baselines/dynamic_selection.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/eadrl.h"
#include "math/linalg.h"
#include "models/gp.h"
#include "models/nn_regressors.h"
#include "models/tree.h"
#include "nn/optimizer.h"
#include "nn/param.h"
#include "obs/metrics.h"
#include "rl/ddpg.h"
#include "rl/env.h"
#include "rl/replay_buffer.h"

namespace {

// One deployed-policy step's actor pass: Act packs the actor on its first
// call and runs the pack from then on.
void BM_DdpgActorInference(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = static_cast<size_t>(state.range(0));
  eadrl::rl::DdpgAgent agent(cfg);
  eadrl::math::Vec s(10, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Act(s));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgActorInference)->Arg(10)->Arg(43);

void BM_DdpgUpdate(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  eadrl::rl::DdpgAgent agent(cfg);
  eadrl::Rng rng = eadrl::bench::BenchRng(1);
  std::vector<eadrl::rl::Transition> batch;
  for (int i = 0; i < 16; ++i) {
    eadrl::rl::Transition t;
    t.state.assign(10, rng.Uniform());
    t.action.assign(43, 1.0 / 43.0);
    t.reward = rng.Uniform(0, 44);
    t.next_state.assign(10, rng.Uniform());
    batch.push_back(std::move(t));
  }
  const auto minibatch = eadrl::rl::Minibatch::FromTransitions(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(minibatch));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgUpdate);

// One Adam step over parameters shaped like the 10->64->64->43 actor (7 659
// entries), after 500 untimed live steps. With `dead_every` > 0, every
// dead_every-th entry then becomes a dead unit: its gradient is exactly zero
// for 8 000 untimed steps and the timed ones, long enough for an unflushed
// first moment to turn subnormal.
void AdamStepOverActor(benchmark::State& state, size_t dead_every) {
  eadrl::Rng rng = eadrl::bench::BenchRng(7);
  std::vector<eadrl::nn::Param> params;
  for (const auto& [rows, cols] : std::vector<std::pair<size_t, size_t>>{
           {10, 64}, {1, 64}, {64, 64}, {1, 64}, {64, 43}, {1, 43}}) {
    params.emplace_back(rows, cols);
    for (double& g : params.back().grad.data()) g = rng.Normal(0.0, 0.1);
  }
  std::vector<eadrl::nn::Param*> param_ptrs;
  for (eadrl::nn::Param& p : params) param_ptrs.push_back(&p);
  eadrl::nn::Adam adam(0.01);
  adam.Register(param_ptrs);
  for (int i = 0; i < 500; ++i) adam.Step();
  if (dead_every > 0) {
    for (eadrl::nn::Param& p : params) {
      std::vector<double>& grad = p.grad.data();
      for (size_t j = 0; j < grad.size(); j += dead_every) grad[j] = 0.0;
    }
    for (int i = 0; i < 8000; ++i) adam.Step();
  }
  for (auto _ : state) {
    adam.Step();
    benchmark::DoNotOptimize(params.front().value.data().data());
    benchmark::ClobberMemory();
  }
  eadrl::bench::RegisterThreads(state, 1);
}

void BM_AdamStep(benchmark::State& state) { AdamStepOverActor(state, 0); }
BENCHMARK(BM_AdamStep);

void BM_AdamStepDeadUnits(benchmark::State& state) {
  AdamStepOverActor(state, 4);
}
BENCHMARK(BM_AdamStepDeadUnits);

// Rows at the training loop's widths: 10-wide states and next states, a
// 43-member simplex action. `count` distinct row sets, reused cyclically.
std::vector<eadrl::rl::Transition> ReplayRows(size_t count, eadrl::Rng& rng) {
  std::vector<eadrl::rl::Transition> rows(count);
  for (eadrl::rl::Transition& t : rows) {
    t.state.resize(10);
    for (double& v : t.state) v = rng.Normal(0.0, 1.0);
    t.action.assign(43, 1.0 / 43.0);
    t.next_state.resize(10);
    for (double& v : t.next_state) v = rng.Normal(0.0, 1.0);
  }
  return rows;
}

// A full 5 000-transition ring of training-width rows with the given
// reward draw.
template <typename RewardFn>
eadrl::rl::ReplayBuffer FullReplay(
    const std::vector<eadrl::rl::Transition>& rows, RewardFn reward) {
  eadrl::rl::ReplayBuffer buffer(5000);
  for (size_t i = 0; i < 5000; ++i) {
    const eadrl::rl::Transition& t = rows[i % rows.size()];
    buffer.Add(t.state, t.action, reward(), t.next_state, t.terminal);
  }
  return buffer;
}

void BM_ReplaySampleMedianSplit(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(2);
  const auto rows = ReplayRows(64, rng);
  eadrl::rl::ReplayBuffer buffer =
      FullReplay(rows, [&]() { return rng.Uniform(0, 44); });
  eadrl::rl::Minibatch batch;
  for (auto _ : state) {
    buffer.Sample(16, eadrl::rl::SamplingStrategy::kMedianSplit, rng, &batch);
    benchmark::DoNotOptimize(batch.states.data().data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ReplaySampleMedianSplit);

// The training loop's replay traffic: per DDPG update, the executed
// transition plus eight counterfactual ones go into a full 5 000-transition
// ring of rank rewards (k/43, many ties), then one median-split batch is
// drawn. Unlike BM_ReplaySampleMedianSplit this times the Adds, which keep
// the rewards sorted for the median.
void BM_ReplayAddSampleMedianSplit(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(8);
  const auto rows = ReplayRows(64, rng);
  auto rank_reward = [&]() {
    return static_cast<double>(rng.Index(44)) / 43.0;
  };
  eadrl::rl::ReplayBuffer buffer = FullReplay(rows, rank_reward);
  eadrl::rl::Minibatch batch;
  size_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < 9; ++i) {
      const eadrl::rl::Transition& t = rows[next++ % rows.size()];
      buffer.Add(t.state, t.action, rank_reward(), t.next_state, t.terminal);
    }
    buffer.Sample(16, eadrl::rl::SamplingStrategy::kMedianSplit, rng, &batch);
    benchmark::DoNotOptimize(batch.states.data().data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ReplayAddSampleMedianSplit);

void BM_ReplaySampleUniform(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(3);
  const auto rows = ReplayRows(64, rng);
  eadrl::rl::ReplayBuffer buffer =
      FullReplay(rows, [&]() { return rng.Uniform(0, 44); });
  eadrl::rl::Minibatch batch;
  for (auto _ : state) {
    buffer.Sample(16, eadrl::rl::SamplingStrategy::kUniform, rng, &batch);
    benchmark::DoNotOptimize(batch.states.data().data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ReplaySampleUniform);

// One counterfactual Peek on the paper's environment shape: 270 validation
// steps, 43 members, omega = 10, rank reward, a random simplex weighting.
void BM_EnvPeek(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(9);
  eadrl::math::Vec actuals(270);
  eadrl::math::Matrix preds(270, 43);
  for (size_t t = 0; t < 270; ++t) {
    actuals[t] = 10.0 + std::sin(0.1 * static_cast<double>(t));
    for (size_t i = 0; i < 43; ++i) {
      preds(t, i) = actuals[t] + rng.Normal(0.0, 0.2);
    }
  }
  eadrl::rl::EnsembleEnv env(preds, actuals, 10, eadrl::rl::RewardType::kRank);
  env.Reset();
  eadrl::math::Vec weights(43);
  double sum = 0.0;
  for (double& w : weights) {
    w = rng.Uniform(0.01, 1.0);
    sum += w;
  }
  for (double& w : weights) w /= sum;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.Peek(weights));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_EnvPeek);

void BM_TreePredict(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(4);
  eadrl::math::Matrix x(500, 5);
  eadrl::math::Vec y(500);
  for (size_t i = 0; i < 500; ++i) {
    for (size_t j = 0; j < 5; ++j) x(i, j) = rng.Uniform(-1, 1);
    y[i] = x(i, 0) * x(i, 1);
  }
  eadrl::models::RegressionTree tree(eadrl::models::TreeParams{8, 3, 0});
  (void)tree.Fit(x, y);
  eadrl::math::Vec q{0.1, 0.2, 0.3, 0.4, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(q));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_TreePredict);

void BM_CholeskySolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  eadrl::Rng rng = eadrl::bench::BenchRng(5);
  eadrl::math::Matrix a(n, n);
  for (auto& v : a.data()) v = rng.Uniform(-1, 1);
  eadrl::math::Matrix spd = a.Transpose().MatMul(a);
  for (size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  eadrl::math::Vec b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eadrl::math::CholeskySolve(spd, b));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_CholeskySolve)->Arg(32)->Arg(128);

// --- Pool fit: the two families behind most of its cost. -------------------

// A member's embedded training set: `rows` windows of 5 lags of a
// standardized noisy seasonal series, each labelled with the next value
// (dataset 9's pool trains on 630 such rows).
void PoolWindows(size_t rows, eadrl::math::Matrix* x, eadrl::math::Vec* y) {
  eadrl::Rng rng = eadrl::bench::BenchRng(8);
  const size_t k = 5;
  eadrl::math::Vec series(rows + k);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::sin(0.26 * static_cast<double>(t)) + rng.Normal(0, 0.3);
  }
  *x = eadrl::math::Matrix(rows, k);
  y->resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < k; ++j) (*x)(i, j) = series[i + j];
    (*y)[i] = series[i + k];
  }
}

// One epoch of LstmRegressor::Fit (the pool's lstm(8) and lstm(24)).
void BM_LstmRegressorFit(benchmark::State& state) {
  eadrl::math::Matrix x;
  eadrl::math::Vec y;
  PoolWindows(630, &x, &y);
  eadrl::models::NnTrainParams train;
  train.epochs = 1;
  for (auto _ : state) {
    eadrl::models::LstmRegressor model(static_cast<size_t>(state.range(0)),
                                       train);
    benchmark::DoNotOptimize(model.Fit(x, y));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_LstmRegressorFit)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

// GaussianProcessRegressor::Fit on 400 points (the pool's max_points).
void BM_GpFit(benchmark::State& state) {
  eadrl::math::Matrix x;
  eadrl::math::Vec y;
  PoolWindows(400, &x, &y);
  for (auto _ : state) {
    eadrl::models::GaussianProcessRegressor gp({});
    benchmark::DoNotOptimize(gp.Fit(x, y));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_GpFit)->Unit(benchmark::kMillisecond);

// One rolling-forecast step of a GP fitted on 400 points.
void BM_GpPredict(benchmark::State& state) {
  eadrl::math::Matrix x;
  eadrl::math::Vec y;
  PoolWindows(400, &x, &y);
  eadrl::models::GaussianProcessRegressor gp({});
  (void)gp.Fit(x, y);
  eadrl::math::Vec q{0.1, 0.2, 0.3, 0.4, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.Predict(q));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_GpPredict);

// DEMSC's calm step: Predict + Update at 43 members. The inputs are
// constant, so every window has zero variance, the drift detector stays
// quiet and nothing re-clusters; BM_DemscRecluster times what a drift step
// adds.
void BM_DemscOnlineStep(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(6);
  const size_t m = 43;
  eadrl::math::Matrix preds(60, m);
  eadrl::math::Vec actuals(60);
  for (size_t t = 0; t < 60; ++t) {
    actuals[t] = rng.Uniform(0, 10);
    for (size_t i = 0; i < m; ++i) {
      preds(t, i) =
          actuals[t] + rng.Normal(0, 0.5 + 0.1 * static_cast<double>(i));
    }
  }
  eadrl::baselines::DemscCombiner demsc;
  (void)demsc.Initialize(preds, actuals);
  eadrl::math::Vec step(m, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(demsc.Predict(step));
    demsc.Update(step, 5.0);
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DemscOnlineStep);

// One DEMSC re-cluster, as a drift step runs it: average-link clustering of
// 43 members by the correlation of their last 10 forecasts, at DEMSC's
// threshold. Thirteen groups of near-duplicate forecasts force 30 merge
// passes (the `merges` counter).
void BM_DemscRecluster(benchmark::State& state) {
  eadrl::Rng rng = eadrl::bench::BenchRng(7);
  const size_t m = 43;
  const size_t window = 10;
  const size_t groups = 13;
  eadrl::baselines::SlidingErrorTracker tracker(m, window);
  eadrl::math::Vec shared(groups), row(m);
  for (size_t t = 0; t < window; ++t) {
    for (double& g : shared) g = rng.Normal(0, 1.0);
    for (size_t i = 0; i < m; ++i) {
      row[i] = 5.0 + shared[i % groups] + rng.Normal(0, 0.02);
    }
    tracker.Add(row, 5.0);
  }
  const double threshold =
      eadrl::baselines::DemscCombiner::Params().distance_threshold;
  size_t clusters = 0;
  for (auto _ : state) {
    auto result = eadrl::baselines::ClusterModelsByCorrelation(tracker,
                                                               threshold);
    clusters = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["merges"] = static_cast<double>(m - clusters);
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DemscRecluster);

// --- Observability hot-path overhead (the baseline BENCH_*.json tracks). ---

void BM_ObsCounterInc(benchmark::State& state) {
  eadrl::obs::Counter counter;
  for (auto _ : state) {
    counter.Inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.Value());
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  eadrl::obs::Histogram hist(
      eadrl::obs::Histogram::DefaultLatencyBounds());
  double v = 1e-6;
  for (auto _ : state) {
    hist.Observe(v);
    v = v * 1.1;
    if (v > 1.0) v = 1e-6;
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(hist.Count());
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_ObsHistogramObserve);

}  // namespace

BENCHMARK_MAIN();
