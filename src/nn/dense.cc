#include "nn/dense.h"

#include <cmath>

#include "chk/chk.h"
#include "common/check.h"
#include "nn/init.h"
#include "obs/resource.h"

namespace eadrl::nn {

Dense::Dense(size_t in_dim, size_t out_dim, Activation act, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      weight_(out_dim, in_dim),
      bias_(1, out_dim) {
  XavierInit(&weight_.value, in_dim, out_dim, rng);
}

math::Vec Dense::Forward(const math::Vec& input) {
  EADRL_CHK_DIM(input.size(), in_dim_, "Dense::Forward input");
  EADRL_CHK_FINITE(input, "Dense::Forward input");
  EADRL_CHECK_EQ(input.size(), in_dim_);
  obs::CountAlloc(out_dim_ * sizeof(double));  // the returned vector.
  last_input_ = input;  // capacity-reusing copy, not a fresh buffer.
  weight_.value.MatVecInto(input, &last_pre_activation_);
  const math::Vec& b = bias_.value.data();
  for (size_t i = 0; i < out_dim_; ++i) last_pre_activation_[i] += b[i];
  math::Vec out = last_pre_activation_;
  ApplyActivationInPlace(act_, out.data(), out_dim_);
  return out;
}

void Dense::Affine(const math::Matrix& x, math::Matrix* z) const {
  EADRL_CHK_DIM(x.cols(), in_dim_, "Dense batch input width");
  EADRL_CHK_FINITE(x.data(), "Dense batch input");
  EADRL_CHECK_EQ(x.cols(), in_dim_);
  EADRL_CHECK(z != &x);
  // Fused so W is never transposed.
  x.MatMulTransposeBInto(weight_.value, z);
  const math::Vec& b = bias_.value.data();
  for (size_t r = 0; r < x.rows(); ++r) {
    double* zrow = z->RowPtr(r);
    for (size_t i = 0; i < out_dim_; ++i) zrow[i] += b[i];
  }
}

void Dense::Apply(const math::Matrix& x, math::Matrix* out) const {
  Affine(x, out);
  ApplyActivationInPlace(act_, out->data().data(), out->size());
}

void Dense::ForwardBatch(const math::Matrix& batch, math::Matrix* out) {
  EADRL_CHECK(out != &batch);
  Affine(batch, &batch_pre_activation_);
  last_batch_ = &batch;
  *out = batch_pre_activation_;  // capacity-reusing copy.
  ApplyActivationInPlace(act_, out->data().data(), out->size());
}

void Dense::ComputeScalarDz(const math::Vec& grad_output) {
  scratch_dz_.resize(out_dim_);
  const math::Vec& z = last_pre_activation_;
  // Same formulas (and multiplication forms) as ActivationDerivative.
  switch (act_) {
    case Activation::kIdentity:
      for (size_t i = 0; i < out_dim_; ++i) scratch_dz_[i] = grad_output[i];
      break;
    case Activation::kRelu:
      for (size_t i = 0; i < out_dim_; ++i) {
        scratch_dz_[i] = grad_output[i] * (z[i] > 0.0 ? 1.0 : 0.0);
      }
      break;
    case Activation::kTanh:
      for (size_t i = 0; i < out_dim_; ++i) {
        double t = std::tanh(z[i]);
        scratch_dz_[i] = grad_output[i] * (1.0 - t * t);
      }
      break;
    case Activation::kSigmoid:
      for (size_t i = 0; i < out_dim_; ++i) {
        double s = SigmoidScalar(z[i]);
        scratch_dz_[i] = grad_output[i] * (s * (1.0 - s));
      }
      break;
  }
}

math::Vec Dense::Backward(const math::Vec& grad_output) {
  EADRL_CHK_DIM(grad_output.size(), out_dim_, "Dense::Backward grad_output");
  EADRL_CHK_FINITE(grad_output, "Dense::Backward grad_output");
  EADRL_CHECK_EQ(grad_output.size(), out_dim_);
  EADRL_CHECK_EQ(last_input_.size(), in_dim_);

  ComputeScalarDz(grad_output);
  math::Vec& bias_grad = bias_.grad.data();
  for (size_t i = 0; i < out_dim_; ++i) {
    const double dzi = scratch_dz_[i];
    bias_grad[i] += dzi;
    if (dzi == 0.0) continue;
    double* wg = weight_.grad.RowPtr(i);
    for (size_t j = 0; j < in_dim_; ++j) wg[j] += dzi * last_input_[j];
  }
  return weight_.value.TransposeMatVec(scratch_dz_);
}

void Dense::BackwardBatch(const math::Matrix& grad_output,
                          math::Matrix* grad_input) {
  EADRL_CHECK(last_batch_ != nullptr);
  const math::Matrix& x = *last_batch_;
  EADRL_CHK_SHAPE(grad_output.rows(), grad_output.cols(), x.rows(), out_dim_,
                  "Dense::BackwardBatch grad_output");
  EADRL_CHK_FINITE(grad_output.data(), "Dense::BackwardBatch grad_output");
  EADRL_CHECK(grad_output.rows() == x.rows() &&
              grad_output.cols() == out_dim_);
  EADRL_CHECK(grad_input != &grad_output && grad_input != &x);

  // dZ = dY ⊙ act'(Z), into the member so grad_output stays intact.
  batch_dz_ = grad_output;  // capacity-reusing copy.
  MultiplyActivationDerivative(act_, batch_pre_activation_, &batch_dz_);

  // Bias gradient: batch rows accumulate in ascending sample order — the
  // same order as B scalar Backward calls.
  math::Vec& bias_grad = bias_.grad.data();
  for (size_t r = 0; r < batch_dz_.rows(); ++r) {
    const double* dzrow = batch_dz_.RowPtr(r);
    for (size_t i = 0; i < out_dim_; ++i) bias_grad[i] += dzrow[i];
  }
  // Weight gradient: dW += dZ^T X as one fused GEMM; MatMulTransposeAInto's
  // k loop runs over batch rows in ascending order, matching the per-sample
  // accumulation of the scalar path.
  batch_dz_.MatMulTransposeAInto(x, &weight_.grad, /*accumulate=*/true);
  // Input gradient: dX = dZ W (row b matches scalar TransposeMatVec).
  batch_dz_.MatMulInto(weight_.value, grad_input);
}

std::vector<Param*> Dense::Params() { return {&weight_, &bias_}; }

void Dense::ReinitUniform(double r, Rng& rng) {
  UniformInit(&weight_.value, r, rng);
  UniformInit(&bias_.value, r, rng);
}

}  // namespace eadrl::nn
