#ifndef EADRL_NN_INIT_H_
#define EADRL_NN_INIT_H_

#include "common/rng.h"
#include "math/matrix.h"

namespace eadrl::nn {

/// Xavier/Glorot uniform initialization: U(-r, r), r = sqrt(6/(fan_in+fan_out)).
void XavierInit(math::Matrix* w, size_t fan_in, size_t fan_out, Rng& rng);

/// Uniform initialization in [-r, r] (DDPG's final-layer init uses small r).
void UniformInit(math::Matrix* w, double r, Rng& rng);

}  // namespace eadrl::nn

#endif  // EADRL_NN_INIT_H_
