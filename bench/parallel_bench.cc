// Parallel-runtime benchmarks: pool fitting and per-step prediction fan-out
// at 1/2/4/8 threads against the serial baseline. Thread count 1 uses a
// serial ThreadPool (zero workers, inline Submit), so the Arg(1) rows ARE
// the pre-parallel-runtime baseline; speedup at Arg(N) is relative to them.
//
// Note: each benchmark constructs its own ThreadPool so the thread count is
// per-benchmark instead of the process-sticky default pool.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "math/matrix.h"
#include "models/pool.h"
#include "nn/mlp.h"
#include "par/parallel.h"
#include "par/thread_pool.h"
#include "rl/ddpg.h"
#include "ts/datasets.h"

namespace {

// Fitting the paper's full 43-model pool. The acceptance bar for the
// parallel runtime: >= 2.5x over Arg(1) with 4 threads on a 4+-core box.
void BM_ParallelFitPool(benchmark::State& state) {
  const eadrl::ts::Series series = eadrl::bench::BenchSeries();
  eadrl::models::PoolConfig cfg;
  cfg.nn_epochs = 4;  // keep a single iteration tractable.
  eadrl::par::ThreadPool exec(static_cast<size_t>(state.range(0)));
  size_t fitted = 0;
  for (auto _ : state) {
    auto pool = eadrl::models::BuildPaperPool(cfg);
    auto result = eadrl::models::FitPool(std::move(pool), series, &exec);
    fitted = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["models_fitted"] = static_cast<double>(fitted);
  eadrl::bench::RegisterThreads(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ParallelFitPool)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One online step of ensemble prediction: PredictNext across the fitted
// pool, then Observe with the realized value — the fan-out the CLI and the
// experiment loop run per time step.
void BM_ParallelPredictFanout(benchmark::State& state) {
  const eadrl::ts::Series series = eadrl::bench::BenchSeries();
  eadrl::models::PoolConfig cfg;
  cfg.nn_epochs = 4;
  eadrl::par::ThreadPool exec(static_cast<size_t>(state.range(0)));
  auto models =
      eadrl::models::FitPool(eadrl::models::BuildPaperPool(cfg), series,
                             &exec);
  const double next_value = series.values().back();
  for (auto _ : state) {
    eadrl::math::Vec preds = eadrl::par::ParallelMap<double>(
        models.size(), [&](size_t m) { return models[m]->PredictNext(); },
        {1, &exec});
    benchmark::DoNotOptimize(preds);
    eadrl::par::ParallelFor(
        0, models.size(), [&](size_t m) { models[m]->Observe(next_value); },
        {1, &exec});
  }
  state.counters["pool_size"] = static_cast<double>(models.size());
  eadrl::bench::RegisterThreads(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ParallelPredictFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Batched-kernel fan-out across the work-stealing pool: eight nets each
// answer a 64-row batch per step (the batched analogue of the per-member
// predict fan-out above — within a member the batch is one GEMM per layer,
// across members the runtime parallelizes).
void BM_ParallelBatchedForwardFanout(benchmark::State& state) {
  constexpr size_t kNets = 8;
  eadrl::Rng rng = eadrl::bench::BenchRng(20);
  std::vector<std::unique_ptr<eadrl::nn::Mlp>> nets;
  for (size_t m = 0; m < kNets; ++m) {
    nets.push_back(std::make_unique<eadrl::nn::Mlp>(
        std::vector<size_t>{10, 64, 64, 1}, eadrl::nn::Activation::kRelu,
        eadrl::nn::Activation::kIdentity, rng));
  }
  eadrl::math::Matrix x(64, 10);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  std::vector<eadrl::math::Matrix> outs(kNets);
  std::vector<eadrl::math::Matrix> scratch(kNets);
  eadrl::par::ThreadPool exec(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    eadrl::par::ParallelFor(
        0, kNets,
        [&](size_t m) {
          nets[m]->Infer(x, &outs[m], &scratch[m]);
          benchmark::DoNotOptimize(outs[m].data());
        },
        {1, &exec});
  }
  state.counters["nets"] = static_cast<double>(kNets);
  eadrl::bench::RegisterThreads(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ParallelBatchedForwardFanout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Concurrent batch-major DDPG updates: independent agents (one workspace
// each) training in parallel — the multi-seed / multi-dataset training
// fan-out. Within an agent the update is single-threaded by design; the
// scaling here is purely across agents.
void BM_ParallelBatchedDdpgUpdate(benchmark::State& state) {
  constexpr size_t kAgents = 8;
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  std::vector<std::unique_ptr<eadrl::rl::DdpgAgent>> agents;
  for (size_t a = 0; a < kAgents; ++a) {
    cfg.seed = 42 + a;
    agents.push_back(std::make_unique<eadrl::rl::DdpgAgent>(cfg));
  }
  eadrl::Rng rng = eadrl::bench::BenchRng(21);
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
  eadrl::par::ThreadPool exec(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    eadrl::par::ParallelFor(
        0, kAgents,
        [&](size_t a) {
          benchmark::DoNotOptimize(agents[a]->Update(minibatch));
        },
        {1, &exec});
  }
  state.counters["agents"] = static_cast<double>(kAgents);
  eadrl::bench::RegisterThreads(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_ParallelBatchedDdpgUpdate)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
