#ifndef EADRL_BENCH_BENCH_UTIL_H_
#define EADRL_BENCH_BENCH_UTIL_H_

// Shared knobs for the paper-reproduction benches. Every bench is sized so
// the whole bench suite completes in minutes on one core; the environment
// variables below scale the experiments up to paper-fidelity sizes.

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "exp/experiment.h"
#include "ts/datasets.h"

namespace eadrl::bench {

/// Non-negative integer knob `name`. Unset or malformed values (anything
/// but decimal digits) give `fallback`; 0 is a value like any other.
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  size_t parsed = 0;
  const std::from_chars_result r = std::from_chars(v, end, parsed);
  return r.ec == std::errc() && r.ptr == end ? parsed : fallback;
}

/// EnvSize for counts that must be positive (episodes, epochs,
/// iterations): 0 falls back too, since EadrlCombiner aborts on
/// max_episodes == 0.
inline size_t EnvCount(const char* name, size_t fallback) {
  const size_t v = EnvSize(name, fallback);
  return v > 0 ? v : fallback;
}

/// Dataset length per series. Paper-scale series are 900-1200 points
/// (EADRL_BENCH_LENGTH=0 keeps each dataset's default length).
inline size_t BenchLength() { return EnvSize("EADRL_BENCH_LENGTH", 400); }

/// The one seed every bench derives from (EADRL_BENCH_SEED overrides, 0
/// included), so the whole suite shifts coherently when re-seeded and BENCH
/// snapshots recorded at the same seed are comparable run to run.
inline uint64_t BenchSeed() { return EnvSize("EADRL_BENCH_SEED", 42); }

/// Deterministic per-benchmark RNG: `stream` keeps benchmarks in the same
/// binary decorrelated without each hardcoding its own magic seed.
inline Rng BenchRng(uint64_t stream) { return Rng(BenchSeed() + stream); }

/// The shared series fixture (synthetic dataset `id` at the bench seed) —
/// every suite that needs "a series" sizes and seeds it the same way.
inline ts::Series BenchSeries(int id = 2, size_t length = 400) {
  auto series = ts::MakeDataset(id, BenchSeed(), length);
  return *series;
}

/// Labels a benchmark with the thread count it ran at. Every suite reports
/// `threads:N` (N=1 for serial benches) so BENCH snapshot consumers can
/// filter or normalize by concurrency without parsing benchmark names.
template <typename State>
inline void RegisterThreads(State& state, size_t threads) {
  state.counters["threads"] = static_cast<double>(threads);
}

/// Standard experiment options used by the table benches.
inline exp::ExperimentOptions BenchOptions() {
  exp::ExperimentOptions opt;
  opt.seed = BenchSeed();
  opt.pool.nn_epochs = EnvCount("EADRL_BENCH_NN_EPOCHS", 6);
  opt.eadrl.omega = 10;  // paper Table II setting.
  opt.eadrl.max_episodes = EnvCount("EADRL_BENCH_EPISODES", 40);
  opt.eadrl.max_iterations = EnvCount("EADRL_BENCH_ITERATIONS", 60);
  opt.eadrl.early_stop_patience = 8;
  return opt;
}

}  // namespace eadrl::bench

#endif  // EADRL_BENCH_BENCH_UTIL_H_
