#ifndef EADRL_COMMON_RNG_H_
#define EADRL_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace eadrl {

/// Deterministic random-number generator used throughout the library.
///
/// Every stochastic component (weight init, replay sampling, exploration
/// noise, dataset generation, bootstrap) takes an `Rng&` so that experiments
/// are reproducible bit-for-bit given a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal scaled to N(mean, stddev^2).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Int(int64_t lo, int64_t hi) {
    EADRL_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform index in [0, n).
  size_t Index(size_t n) {
    EADRL_CHECK_GT(n, 0u);
    return static_cast<size_t>(Int(0, static_cast<int64_t>(n) - 1));
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Exponential with the given rate parameter (lambda).
  double Exponential(double rate) {
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
  }

  /// Poisson variate with the given mean.
  int64_t Poisson(double mean) {
    std::poisson_distribution<int64_t> dist(mean);
    return dist(engine_);
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace eadrl

#endif  // EADRL_COMMON_RNG_H_
