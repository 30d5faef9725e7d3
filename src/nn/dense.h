#ifndef EADRL_NN_DENSE_H_
#define EADRL_NN_DENSE_H_

#include <vector>

#include "common/rng.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "nn/activation.h"
#include "nn/param.h"

namespace eadrl::nn {

/// Fully connected layer y = act(W x + b) with hand-written backprop.
///
/// Three passes share the parameters: the scalar train-mode Forward/Backward
/// on one sample (the historical reference path), the batched train-mode
/// ForwardBatch/BackwardBatch on a row-major B x dim minibatch (one GEMM per
/// call instead of B MatVecs), and the const no-grad Apply. Batched results
/// match the scalar path bit for bit except for the sign of exact-zero
/// gradients (see DESIGN.md, "Batch-major kernels").
///
/// Train-mode forwards cache what the following Backward needs. Backward
/// accumulates parameter gradients (callers zero them via the optimizer) and
/// returns the gradient with respect to the input.
class Dense {
 public:
  Dense(size_t in_dim, size_t out_dim, Activation act, Rng& rng);

  /// Forward pass for a single sample (train mode).
  math::Vec Forward(const math::Vec& input);

  /// No-grad forward over a row-major B x in_dim batch into the B x out_dim
  /// *out. Reads only the parameters, so concurrent calls on one layer with
  /// distinct outputs are safe.
  void Apply(const math::Matrix& x, math::Matrix* out) const;

  /// Train-mode batched forward into *out. The layer caches `batch` BY
  /// REFERENCE — no copy — so the matrix must outlive and stay unmodified
  /// until the matching BackwardBatch (Mlp::ForwardBatch guarantees this;
  /// see DESIGN.md for the lifetime rule).
  void ForwardBatch(const math::Matrix& batch, math::Matrix* out);

  /// Backward pass: `grad_output` is dL/dy; returns dL/dx and accumulates
  /// dL/dW, dL/db. Must follow a train-mode Forward with the matching input.
  math::Vec Backward(const math::Vec& grad_output);

  /// Batched backward: `grad_output` is dL/dY (B x out_dim); writes dL/dX
  /// into *grad_input and accumulates dL/dW (one fused-transpose GEMM whose
  /// batch-index accumulation order equals B scalar Backward calls) and
  /// dL/db. Must follow a train-mode ForwardBatch with the matching batch.
  void BackwardBatch(const math::Matrix& grad_output,
                     math::Matrix* grad_input);

  /// Trainable parameters: weight (out x in) and bias (1 x out). The bias is
  /// a flat row vector — forward adds contiguous doubles instead of the old
  /// out x 1 strided (i, 0) lookups — and serialization follows this shape.
  std::vector<Param*> Params();

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  Activation activation() const { return act_; }
  /// The out x in weight matrix and the 1 x out bias row.
  const math::Matrix& weight() const { return weight_.value; }
  const math::Matrix& bias() const { return bias_.value; }

  /// Reinitializes the weights uniformly in [-r, r] (DDPG output layers).
  void ReinitUniform(double r, Rng& rng);

 private:
  /// Z = X W^T + b; row b equals the scalar MatVec (same ascending-k dots).
  void Affine(const math::Matrix& x, math::Matrix* z) const;

  /// dz = grad_output ⊙ act'(last_pre_activation_) into scratch_dz_, with
  /// the same per-element formulas as ActivationDerivative.
  void ComputeScalarDz(const math::Vec& grad_output);

  size_t in_dim_;
  size_t out_dim_;
  Activation act_;
  Param weight_;  // out x in
  Param bias_;    // 1 x out (flat row; see Params()).

  // Scalar-path caches from the last train-mode Forward. Capacity-reusing
  // assignments: warm after the first call, no per-call allocation.
  math::Vec last_input_;
  math::Vec last_pre_activation_;
  math::Vec scratch_dz_;

  // Batch-path caches from the last train-mode ForwardBatch. The input is
  // cached by pointer, not copied (see ForwardBatch's lifetime rule).
  const math::Matrix* last_batch_ = nullptr;
  math::Matrix batch_pre_activation_;
  math::Matrix batch_dz_;
};

}  // namespace eadrl::nn

#endif  // EADRL_NN_DENSE_H_
