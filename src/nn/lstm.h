#ifndef EADRL_NN_LSTM_H_
#define EADRL_NN_LSTM_H_

#include <vector>

#include "common/rng.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "nn/param.h"

namespace eadrl::nn {

/// Single-layer LSTM processing a whole sequence, with full backpropagation
/// through time.
///
/// A sequence is a row-major T x dim `math::Matrix`, one step per row. Gate
/// layout in the stacked parameter blocks is [input, forget, candidate,
/// output], each of size `hidden`. Forward caches the per-step activations
/// the following Backward call needs in flat T-row member matrices, and both
/// passes return references to member matrices, so a warmed-up layer
/// allocates nothing per sequence (see DESIGN.md §8, "LSTM training step").
class Lstm {
 public:
  Lstm(size_t input_size, size_t hidden_size, Rng& rng);

  size_t input_size() const { return input_size_; }
  size_t hidden_size() const { return hidden_size_; }

  /// Runs the T x input_size sequence from zero initial state and returns
  /// the T x hidden_size hidden states h_1..h_T. The reference stays valid,
  /// and its contents unchanged, until the next Forward.
  const math::Matrix& Forward(const math::Matrix& inputs);

  /// BPTT. Row t of the T x hidden_size `grad_hidden` is dL/dh_t (zero rows
  /// for unsupervised steps). Accumulates parameter gradients and returns
  /// the T x input_size dL/dx, valid until the next Backward.
  const math::Matrix& Backward(const math::Matrix& grad_hidden);

  std::vector<Param*> Params();

 private:
  size_t input_size_;
  size_t hidden_size_;
  Param w_;  // (4H) x input
  Param u_;  // (4H) x H
  Param b_;  // (4H) x 1

  // Forward caches, one row per step of the last sequence.
  math::Matrix x_;       // T x input: a copy of the inputs.
  math::Matrix gates_;   // T x 4H: post-activation [i, f, g, o].
  math::Matrix c_;       // T x H: cell states.
  math::Matrix tanh_c_;  // T x H
  math::Matrix h_;       // T x H: hidden states (Forward's result).
  math::Vec zeros_;      // H zeros: h_0 and c_0.

  // Per-step scratch of Forward: x_t, h_{t-1}, W x_t and U h_{t-1}.
  math::Vec x_t_;
  math::Vec h_prev_;
  math::Vec z_;
  math::Vec uz_;

  // Backward's result and its per-step scratch.
  math::Matrix dx_;  // T x input
  math::Vec dz_;     // 4H
  math::Vec dx_t_;
  math::Vec dh_next_;
  math::Vec dc_next_;
};

}  // namespace eadrl::nn

#endif  // EADRL_NN_LSTM_H_
