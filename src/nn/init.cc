#include "nn/init.h"

#include <cmath>

namespace eadrl::nn {

void XavierInit(math::Matrix* w, size_t fan_in, size_t fan_out, Rng& rng) {
  double r = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (double& v : w->data()) v = rng.Uniform(-r, r);
}

void UniformInit(math::Matrix* w, double r, Rng& rng) {
  for (double& v : w->data()) v = rng.Uniform(-r, r);
}

}  // namespace eadrl::nn
