#ifndef EADRL_TS_GENERATOR_KIT_H_
#define EADRL_TS_GENERATOR_KIT_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "math/vec.h"

namespace eadrl::ts {

/// Building blocks for the synthetic dataset generators that stand in for the
/// paper's 20 real-world series (see DESIGN.md, "Substitutions"). Each block
/// produces a length-n component that generators combine additively or
/// multiplicatively.

/// Sinusoidal seasonal component with the given period, amplitude and phase.
math::Vec SeasonalWave(size_t n, double period, double amplitude,
                       double phase = 0.0);

/// Sum of the fundamental and one harmonic — gives asymmetric daily shapes.
math::Vec SeasonalWithHarmonic(size_t n, double period, double amplitude,
                               double harmonic_amplitude, double phase = 0.0);

/// Linear trend from 0 to `total_rise` over the series.
math::Vec LinearTrend(size_t n, double total_rise);

/// Stationary AR(1) noise with coefficient phi and innovation stddev sigma.
math::Vec Ar1Noise(size_t n, double phi, double sigma, Rng& rng);

/// Geometric random walk (log-returns) with GARCH(1,1)-style volatility
/// clustering — models intraday stock indices.
math::Vec GeometricRandomWalk(size_t n, double start, double mu,
                              double base_vol, double vol_persistence,
                              Rng& rng);

/// Piecewise-constant level component: `num_shifts` random change points,
/// each shifting the level by N(0, shift_sigma^2). Models concept drift.
math::Vec LevelShifts(size_t n, size_t num_shifts, double shift_sigma,
                      Rng& rng);

/// Sparse exponential-decay spike train: events arrive with probability
/// `event_prob` per step, magnitude ~ Exp(1/mean_magnitude), decaying with
/// factor `decay`. Models river-flow surges and precipitation bursts.
math::Vec SpikeTrain(size_t n, double event_prob, double mean_magnitude,
                     double decay, Rng& rng);

/// Two-state regime-switching multiplier in {low, high} with per-step switch
/// probability. Models cloudy/clear attenuation regimes.
math::Vec RegimeMultiplier(size_t n, double low, double high,
                           double switch_prob, Rng& rng);

/// Clips all values into [lo, hi].
void ClipInPlace(math::Vec* v, double lo, double hi);

/// Elementwise sum of components (all the same length).
math::Vec Mix(const std::vector<math::Vec>& components);

}  // namespace eadrl::ts

#endif  // EADRL_TS_GENERATOR_KIT_H_
