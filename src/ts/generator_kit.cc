#include "ts/generator_kit.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace eadrl::ts {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

math::Vec SeasonalWave(size_t n, double period, double amplitude,
                       double phase) {
  EADRL_CHECK_GT(period, 0.0);
  math::Vec out(n);
  for (size_t t = 0; t < n; ++t) {
    out[t] = amplitude * std::sin(kTwoPi * static_cast<double>(t) / period +
                                  phase);
  }
  return out;
}

math::Vec SeasonalWithHarmonic(size_t n, double period, double amplitude,
                               double harmonic_amplitude, double phase) {
  math::Vec base = SeasonalWave(n, period, amplitude, phase);
  math::Vec harm = SeasonalWave(n, period / 2.0, harmonic_amplitude,
                                phase + 0.7);
  for (size_t t = 0; t < n; ++t) base[t] += harm[t];
  return base;
}

math::Vec LinearTrend(size_t n, double total_rise) {
  math::Vec out(n);
  if (n <= 1) return out;
  for (size_t t = 0; t < n; ++t) {
    out[t] = total_rise * static_cast<double>(t) / static_cast<double>(n - 1);
  }
  return out;
}

math::Vec Ar1Noise(size_t n, double phi, double sigma, Rng& rng) {
  math::Vec out(n);
  double x = 0.0;
  for (size_t t = 0; t < n; ++t) {
    x = phi * x + rng.Normal(0.0, sigma);
    out[t] = x;
  }
  return out;
}

math::Vec GeometricRandomWalk(size_t n, double start, double mu,
                              double base_vol, double vol_persistence,
                              Rng& rng) {
  math::Vec out(n);
  double log_price = std::log(start);
  double var = base_vol * base_vol;
  const double long_run = base_vol * base_vol;
  for (size_t t = 0; t < n; ++t) {
    double eps = rng.Normal(0.0, std::sqrt(var));
    log_price += mu + eps;
    // GARCH(1,1)-style variance recursion.
    var = (1.0 - vol_persistence) * long_run +
          vol_persistence * (0.7 * var + 0.3 * eps * eps);
    out[t] = std::exp(log_price);
  }
  return out;
}

math::Vec LevelShifts(size_t n, size_t num_shifts, double shift_sigma,
                      Rng& rng) {
  math::Vec out(n, 0.0);
  double level = 0.0;
  std::vector<size_t> points;
  for (size_t i = 0; i < num_shifts; ++i) points.push_back(rng.Index(n));
  std::sort(points.begin(), points.end());
  size_t next = 0;
  for (size_t t = 0; t < n; ++t) {
    while (next < points.size() && points[next] == t) {
      level += rng.Normal(0.0, shift_sigma);
      ++next;
    }
    out[t] = level;
  }
  return out;
}

math::Vec SpikeTrain(size_t n, double event_prob, double mean_magnitude,
                     double decay, Rng& rng) {
  math::Vec out(n, 0.0);
  double current = 0.0;
  for (size_t t = 0; t < n; ++t) {
    current *= decay;
    if (rng.Bernoulli(event_prob)) {
      current += rng.Exponential(1.0 / mean_magnitude);
    }
    out[t] = current;
  }
  return out;
}

math::Vec RegimeMultiplier(size_t n, double low, double high,
                           double switch_prob, Rng& rng) {
  math::Vec out(n);
  bool in_high = rng.Bernoulli(0.5);
  for (size_t t = 0; t < n; ++t) {
    if (rng.Bernoulli(switch_prob)) in_high = !in_high;
    out[t] = in_high ? high : low;
  }
  return out;
}

void ClipInPlace(math::Vec* v, double lo, double hi) {
  for (double& x : *v) x = std::clamp(x, lo, hi);
}

math::Vec Mix(const std::vector<math::Vec>& components) {
  EADRL_CHECK(!components.empty());
  math::Vec out(components[0].size(), 0.0);
  for (const auto& c : components) {
    EADRL_CHECK_EQ(c.size(), out.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] += c[i];
  }
  return out;
}

}  // namespace eadrl::ts
