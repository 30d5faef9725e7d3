// Batch-major kernel benchmarks (google-benchmark): the blocked GEMM and
// fused-transpose products in src/math, the batched MLP forward/backward in
// src/nn, and the batched DDPG update they feed. Paired fused-vs-materialized
// and batched-vs-scalar rows quantify exactly the wins the batch-major
// refactor claims (see DESIGN.md, "Batch-major kernels").

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "math/matrix.h"
#include "nn/mlp.h"
#include "rl/ddpg.h"

namespace {

eadrl::math::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t stream) {
  eadrl::Rng rng = eadrl::bench::BenchRng(stream);
  eadrl::math::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

// Square blocked GEMM at the sizes the MLP layers actually hit.
void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const eadrl::math::Matrix a = RandomMatrix(n, n, 10);
  const eadrl::math::Matrix b = RandomMatrix(n, n, 11);
  eadrl::math::Matrix out;
  for (auto _ : state) {
    a.MatMulInto(b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

// The backprop weight-gradient shape, fused: dW = dZ^T X without ever
// materializing dZ^T.
void BM_MatMulTransposeA(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const eadrl::math::Matrix dz = RandomMatrix(batch, 64, 12);
  const eadrl::math::Matrix x = RandomMatrix(batch, 64, 13);
  eadrl::math::Matrix out;
  for (auto _ : state) {
    dz.MatMulTransposeAInto(x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_MatMulTransposeA)->Arg(16)->Arg(64);

// The same product through the materialized chain the lint rule now flags
// in src/ — the baseline the fused kernel is beating.
void BM_TransposeThenMatMul(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const eadrl::math::Matrix dz = RandomMatrix(batch, 64, 12);
  const eadrl::math::Matrix x = RandomMatrix(batch, 64, 13);
  for (auto _ : state) {
    eadrl::math::Matrix out = dz.Transpose().MatMul(x);
    benchmark::DoNotOptimize(out.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_TransposeThenMatMul)->Arg(16)->Arg(64);

// The batched-forward shape: Z = X W^T with W kept row-major.
void BM_MatMulTransposeB(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const eadrl::math::Matrix x = RandomMatrix(batch, 64, 14);
  const eadrl::math::Matrix w = RandomMatrix(64, 64, 15);
  eadrl::math::Matrix out;
  for (auto _ : state) {
    x.MatMulTransposeBInto(w, &out);
    benchmark::DoNotOptimize(out.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_MatMulTransposeB)->Arg(16)->Arg(64);

// One GEMM per layer over the whole batch...
void BM_MlpForwardBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  eadrl::Rng rng = eadrl::bench::BenchRng(16);
  eadrl::nn::Mlp net({10, 64, 64, 43}, eadrl::nn::Activation::kRelu,
                     eadrl::nn::Activation::kIdentity, rng);
  const eadrl::math::Matrix x = RandomMatrix(batch, 10, 17);
  eadrl::math::Matrix y;
  eadrl::math::Matrix scratch;
  for (auto _ : state) {
    net.Infer(x, &y, &scratch);
    benchmark::DoNotOptimize(y.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_MlpForwardBatch)->Arg(16)->Arg(64);

// ... versus the per-sample walk it replaces (same net, same rows).
void BM_MlpForwardPerSample(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  eadrl::Rng rng = eadrl::bench::BenchRng(16);
  eadrl::nn::Mlp net({10, 64, 64, 43}, eadrl::nn::Activation::kRelu,
                     eadrl::nn::Activation::kIdentity, rng);
  const eadrl::math::Matrix x = RandomMatrix(batch, 10, 17);
  std::vector<eadrl::math::Matrix> rows;
  for (size_t b = 0; b < batch; ++b) {
    rows.push_back(eadrl::math::Matrix::FromRows({x.Row(b)}));
  }
  eadrl::math::Matrix y;
  eadrl::math::Matrix scratch;
  for (auto _ : state) {
    for (const eadrl::math::Matrix& row : rows) {
      net.Infer(row, &y, &scratch);
      benchmark::DoNotOptimize(y.data());
    }
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_MlpForwardPerSample)->Arg(16)->Arg(64);

eadrl::rl::Minibatch MakeBatch(size_t n) {
  eadrl::Rng rng = eadrl::bench::BenchRng(18);
  std::vector<eadrl::rl::Transition> batch;
  for (size_t i = 0; i < n; ++i) {
    eadrl::rl::Transition t;
    t.state.assign(10, rng.Uniform());
    t.action.assign(43, 1.0 / 43.0);
    t.reward = rng.Uniform(0, 44);
    t.next_state.assign(10, rng.Uniform());
    batch.push_back(std::move(t));
  }
  return eadrl::rl::Minibatch::FromTransitions(batch);
}

// The full DDPG update: one batched pass per network over the minibatch.
void BM_DdpgUpdateBatched(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  eadrl::rl::DdpgAgent agent(cfg);
  const auto batch = MakeBatch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(batch));
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgUpdateBatched)->Arg(16)->Arg(64);

// Cross-request serving: B states answered in one ActBatch pass of the
// packed actor, as a deployed policy runs it; 1 and 3 rows are a lone
// request and a wave's leftover rows.
void BM_DdpgActBatch(benchmark::State& state) {
  eadrl::rl::DdpgConfig cfg;
  cfg.state_dim = 10;
  cfg.action_dim = 43;
  eadrl::rl::DdpgAgent agent(cfg);
  agent.PackActor();
  const eadrl::math::Matrix states = RandomMatrix(
      static_cast<size_t>(state.range(0)), 10, 19);
  eadrl::math::Matrix actions;
  eadrl::math::Matrix scratch;
  for (auto _ : state) {
    agent.ActBatch(states, &actions, &scratch);
    benchmark::DoNotOptimize(actions.data());
  }
  eadrl::bench::RegisterThreads(state, 1);
}
BENCHMARK(BM_DdpgActBatch)->Arg(1)->Arg(3)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
