#ifndef EADRL_NN_MLP_H_
#define EADRL_NN_MLP_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "math/isa.h"
#include "math/matrix.h"
#include "math/vec.h"
#include "nn/dense.h"

namespace eadrl::nn {

/// Multi-layer perceptron: a stack of Dense layers.
///
/// The hidden layers use `hidden_act`; the output layer uses `output_act`.
/// This is the network family used for the DDPG actor and critic (the paper's
/// "policy network" and "value network") and for the MLP forecaster.
///
/// Beyond the train-mode scalar Forward/Backward it exposes the train-mode
/// batch-major ForwardBatch/BackwardBatch (one GEMM per layer for a B-row
/// minibatch, on member workspaces) and the const no-grad Infer, the only
/// inference pass, which writes nothing but the caller's buffers. Batched
/// and Infer results match the scalar path bit for bit except for exact-zero
/// signs (see DESIGN.md, "Batch-major kernels").
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., output}; requires at least 2 entries.
  Mlp(const std::vector<size_t>& layer_sizes, Activation hidden_act,
      Activation output_act, Rng& rng);

  /// Train-mode scalar forward (caches what Backward needs).
  math::Vec Forward(const math::Vec& input);

  /// Backward from dL/d(output); returns dL/d(input).
  math::Vec Backward(const math::Vec& grad_output);

  /// No-grad forward over a row-major B x in_dim batch (row = sample) into
  /// the B x out_dim *out; *scratch holds the hidden activations. Reads only
  /// the weights, so threads sharing one network may call it concurrently,
  /// each with its own buffers, while nothing trains it. Warm buffers make it
  /// allocation-free.
  void Infer(const math::Matrix& x, math::Matrix* out,
             math::Matrix* scratch) const;

  /// Train-mode batched forward. Returns a reference to the internal
  /// B x out_dim output, valid until the next batched call. The layers cache
  /// their inputs by reference into this network's activation workspace, so
  /// `batch` must stay alive and unmodified until the matching BackwardBatch
  /// returns.
  const math::Matrix& ForwardBatch(const math::Matrix& batch);

  /// Batched backward from dL/d(output) (B x out_dim); accumulates parameter
  /// gradients and returns a reference to the internal dL/d(input), valid
  /// until the next batched call.
  const math::Matrix& BackwardBatch(const math::Matrix& grad_output);

  std::vector<Param*> Params();

  size_t in_dim() const { return layers_.front()->in_dim(); }
  size_t out_dim() const { return layers_.back()->out_dim(); }
  size_t num_layers() const { return layers_.size(); }
  const Dense& layer(size_t i) const { return *layers_[i]; }

  /// Reinitializes the final layer uniformly in [-r, r] (DDPG init trick to
  /// keep initial actions/values near zero).
  void ReinitOutputUniform(double r, Rng& rng);

 private:
  std::vector<std::unique_ptr<Dense>> layers_;

  // Batched-path workspace: batch_acts_[i] is layer i's output and layer
  // i+1's cached-by-reference input (which is why it must be a stable member
  // rather than a local). The grad pair ping-pongs through BackwardBatch.
  std::vector<math::Matrix> batch_acts_;
  math::Matrix batch_grad_a_;
  math::Matrix batch_grad_b_;
};

/// A frozen copy of an Mlp's weights laid out for inference: each layer's
/// weights transposed, in x out with the columns zero-padded to a multiple
/// of 4, beside its bias (padded alike) and its activation. `Infer` runs
/// math::AffineRowsInto per layer and so computes Mlp::Infer's bits on the
/// same weights (DESIGN.md §8, "Packed deployed actor"). The copy does not
/// follow later changes to the network: whoever changes the weights must
/// Clear or re-Pack it.
class PackedMlp {
 public:
  /// Packs `net`'s current weights, reusing this object's storage: a repack
  /// at the same shape allocates nothing.
  void Pack(const Mlp& net);

  /// Forgets the packed weights and keeps the storage for the next Pack.
  void Clear() { packed_ = false; }

  bool empty() const { return !packed_; }

  /// Mlp::Infer's contract and result on the packed weights: reads only
  /// this object, so concurrent calls with distinct buffers are safe. `isa`
  /// picks the kernel variant; tests run both.
  void Infer(const math::Matrix& x, math::Matrix* out, math::Matrix* scratch,
             math::Isa isa = math::HostIsa()) const;

 private:
  struct Layer {
    math::Matrix wt;  // in x out_pad, columns past out_dim zero.
    math::Vec bias;   // out_pad entries, zero past out_dim.
    size_t out_dim = 0;
    Activation act = Activation::kIdentity;
  };
  std::vector<Layer> layers_;
  bool packed_ = false;
};

}  // namespace eadrl::nn

#endif  // EADRL_NN_MLP_H_
