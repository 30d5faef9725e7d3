#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "chk/chk.h"
#include "common/check.h"
#include "nn/activation.h"
#include "nn/init.h"

namespace eadrl::nn {
namespace {

// out (rows x cols) += a b^T, skipping the rows whose a[r] is exactly zero.
void AddOuterProduct(const double* __restrict a, const double* __restrict b,
                     size_t rows, size_t cols, double* __restrict out) {
  for (size_t r = 0; r < rows; ++r) {
    const double ar = a[r];
    if (ar == 0.0) continue;
    double* o = out + r * cols;
    for (size_t k = 0; k < cols; ++k) o[k] += ar * b[k];
  }
}

}  // namespace

Lstm::Lstm(size_t input_size, size_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      w_(4 * hidden_size, input_size),
      u_(4 * hidden_size, hidden_size),
      b_(4 * hidden_size, 1),
      zeros_(hidden_size, 0.0) {
  XavierInit(&w_.value, input_size + hidden_size, hidden_size, rng);
  XavierInit(&u_.value, input_size + hidden_size, hidden_size, rng);
  // Forget-gate bias of 1.0 helps gradient flow early in training.
  for (size_t i = hidden_size_; i < 2 * hidden_size_; ++i) {
    b_.value(i, 0) = 1.0;
  }
}

const math::Matrix& Lstm::Forward(const math::Matrix& inputs) {
  EADRL_CHK_DIM(inputs.cols(), input_size_, "Lstm::Forward input width");
  EADRL_CHK_FINITE(inputs.data(), "Lstm::Forward input");
  EADRL_CHECK(inputs.rows() > 0 && inputs.cols() == input_size_);
  const size_t steps = inputs.rows();
  const size_t h = hidden_size_;
  x_ = inputs;  // capacity-reusing copy.
  gates_.Resize(steps, 4 * h);
  c_.Resize(steps, h);
  tanh_c_.Resize(steps, h);
  h_.Resize(steps, h);
  h_prev_.assign(h, 0.0);
  const double* b = b_.value.data().data();

  for (size_t t = 0; t < steps; ++t) {
    // z = W x_t + (U h_{t-1} + b), summed in that order.
    x_.RowInto(t, &x_t_);
    w_.value.MatVecInto(x_t_, &z_);
    u_.value.MatVecInto(h_prev_, &uz_);
    for (size_t i = 0; i < 4 * h; ++i) z_[i] += uz_[i] + b[i];

    const double* c_prev = t > 0 ? c_.RowPtr(t - 1) : zeros_.data();
    double* gate = gates_.RowPtr(t);
    double* c = c_.RowPtr(t);
    double* tanh_c = tanh_c_.RowPtr(t);
    double* h_new = h_.RowPtr(t);
    for (size_t j = 0; j < h; ++j) {
      const double ig = SigmoidScalar(z_[j]);
      const double fg = SigmoidScalar(z_[h + j]);
      const double gg = TanhScalar(z_[2 * h + j]);
      const double og = SigmoidScalar(z_[3 * h + j]);
      gate[j] = ig;
      gate[h + j] = fg;
      gate[2 * h + j] = gg;
      gate[3 * h + j] = og;
      c[j] = fg * c_prev[j] + ig * gg;
      tanh_c[j] = TanhScalar(c[j]);
      h_new[j] = og * tanh_c[j];
      h_prev_[j] = h_new[j];
    }
  }
  // A non-finite hidden state here means the recurrent weights diverged —
  // catch it where the stage is still identifiable.
  EADRL_CHK_FINITE(h_prev_, "Lstm::Forward final hidden state");
  return h_;
}

const math::Matrix& Lstm::Backward(const math::Matrix& grad_hidden) {
  const size_t steps = h_.rows();
  const size_t h = hidden_size_;
  const size_t in = input_size_;
  EADRL_CHK_SHAPE(grad_hidden.rows(), grad_hidden.cols(), steps, h,
                  "Lstm::Backward grad_hidden");
  EADRL_CHECK(steps > 0 && grad_hidden.rows() == steps &&
              grad_hidden.cols() == h);
  dx_.Resize(steps, in);
  dz_.resize(4 * h);
  dh_next_.assign(h, 0.0);
  dc_next_.assign(h, 0.0);
  double* b_grad = b_.grad.data().data();

  for (size_t tt = 0; tt < steps; ++tt) {
    const size_t t = steps - 1 - tt;
    const double* dh_t = grad_hidden.RowPtr(t);
    const double* gate = gates_.RowPtr(t);
    const double* tanh_c = tanh_c_.RowPtr(t);
    const double* c_prev = t > 0 ? c_.RowPtr(t - 1) : zeros_.data();
    const double* h_prev = t > 0 ? h_.RowPtr(t - 1) : zeros_.data();
    const double* x = x_.RowPtr(t);

    for (size_t j = 0; j < h; ++j) {
      const double dh = dh_t[j] + dh_next_[j];
      const double ig = gate[j];
      const double fg = gate[h + j];
      const double gg = gate[2 * h + j];
      const double og = gate[3 * h + j];
      const double d_o = dh * tanh_c[j];
      const double dc = dh * og * (1.0 - tanh_c[j] * tanh_c[j]) + dc_next_[j];
      const double d_i = dc * gg;
      const double d_f = dc * c_prev[j];
      const double d_g = dc * ig;
      dz_[j] = d_i * ig * (1.0 - ig);
      dz_[h + j] = d_f * fg * (1.0 - fg);
      dz_[2 * h + j] = d_g * (1.0 - gg * gg);
      dz_[3 * h + j] = d_o * og * (1.0 - og);
      dc_next_[j] = dc * fg;
    }

    // Parameter gradients; a gate row whose dz is exactly zero adds nothing
    // to W or U.
    for (size_t r = 0; r < 4 * h; ++r) b_grad[r] += dz_[r];
    AddOuterProduct(dz_.data(), x, 4 * h, in, w_.grad.data().data());
    AddOuterProduct(dz_.data(), h_prev, 4 * h, h, u_.grad.data().data());

    // dL/dx_t = W^T dz and dL/dh_{t-1} = U^T dz; the latter is dead at t = 0.
    w_.value.TransposeMatVecInto(dz_, &dx_t_);
    std::copy(dx_t_.begin(), dx_t_.end(), dx_.RowPtr(t));
    if (t > 0) u_.value.TransposeMatVecInto(dz_, &dh_next_);
  }
  return dx_;
}

std::vector<Param*> Lstm::Params() { return {&w_, &u_, &b_}; }

}  // namespace eadrl::nn
