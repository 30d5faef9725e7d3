#include "nn/mlp.h"

#include <algorithm>

#include "chk/chk.h"
#include "common/check.h"

namespace eadrl::nn {

Mlp::Mlp(const std::vector<size_t>& layer_sizes, Activation hidden_act,
         Activation output_act, Rng& rng) {
  EADRL_CHECK_GE(layer_sizes.size(), 2u);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    bool is_output = (i + 2 == layer_sizes.size());
    layers_.push_back(std::make_unique<Dense>(
        layer_sizes[i], layer_sizes[i + 1],
        is_output ? output_act : hidden_act, rng));
  }
}

math::Vec Mlp::Forward(const math::Vec& input) {
  math::Vec h = input;
  for (auto& layer : layers_) h = layer->Forward(h);
  // Finite inputs (checked per layer) with a non-finite output pins the
  // corruption on this network's own weights.
  EADRL_CHK_FINITE(h, "Mlp::Forward output");
  return h;
}

math::Vec Mlp::Backward(const math::Vec& grad_output) {
  math::Vec g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Mlp::Infer(const math::Matrix& x, math::Matrix* out,
                math::Matrix* scratch) const {
  EADRL_CHECK(out != scratch && out != &x && scratch != &x);
  // Ping-pong so the last layer lands in *out: a layer writes *out when an
  // even number of layers follow it.
  const math::Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    math::Matrix* next = (layers_.size() - 1 - i) % 2 == 0 ? out : scratch;
    layers_[i]->Apply(*cur, next);
    cur = next;
  }
  EADRL_CHK_FINITE(out->data(), "Mlp::Infer output");
}

const math::Matrix& Mlp::ForwardBatch(const math::Matrix& batch) {
  batch_acts_.resize(layers_.size());
  const math::Matrix* cur = &batch;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardBatch(*cur, &batch_acts_[i]);
    cur = &batch_acts_[i];
  }
  EADRL_CHK_FINITE(cur->data(), "Mlp::ForwardBatch output");
  return *cur;
}

const math::Matrix& Mlp::BackwardBatch(const math::Matrix& grad_output) {
  const math::Matrix* cur = &grad_output;
  math::Matrix* bufs[2] = {&batch_grad_a_, &batch_grad_b_};
  size_t which = 0;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    math::Matrix* next = bufs[which];
    (*it)->BackwardBatch(*cur, next);
    cur = next;
    which ^= 1;
  }
  return *cur;
}

std::vector<Param*> Mlp::Params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->Params()) out.push_back(p);
  }
  return out;
}

void Mlp::ReinitOutputUniform(double r, Rng& rng) {
  layers_.back()->ReinitUniform(r, rng);
}

void PackedMlp::Pack(const Mlp& net) {
  layers_.resize(net.num_layers());
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Dense& dense = net.layer(l);
    const double* w = dense.weight().data().data();  // out x in
    const math::Vec& b = dense.bias().data();
    const size_t in = dense.in_dim();
    const size_t out = dense.out_dim();
    const size_t out_pad = (out + 3) / 4 * 4;
    Layer& layer = layers_[l];
    layer.wt.Resize(in, out_pad);
    double* wt = layer.wt.data().data();
    for (size_t k = 0; k < in; ++k) {
      for (size_t j = out; j < out_pad; ++j) wt[k * out_pad + j] = 0.0;
    }
    for (size_t j = 0; j < out; ++j) {
      for (size_t k = 0; k < in; ++k) wt[k * out_pad + j] = w[j * in + k];
    }
    layer.bias.assign(out_pad, 0.0);
    std::copy(b.begin(), b.end(), layer.bias.begin());
    layer.out_dim = out;
    layer.act = dense.activation();
  }
  packed_ = true;
}

void PackedMlp::Infer(const math::Matrix& x, math::Matrix* out,
                      math::Matrix* scratch, math::Isa isa) const {
  EADRL_CHECK(packed_);
  EADRL_CHECK(out != scratch && out != &x && scratch != &x);
  EADRL_CHK_FINITE(x.data(), "PackedMlp::Infer input");
  // Mlp::Infer's ping-pong: the last layer lands in *out.
  const math::Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = layers_[i];
    math::Matrix* next = (layers_.size() - 1 - i) % 2 == 0 ? out : scratch;
    math::AffineRowsInto(isa, *cur, layer.wt, layer.bias, layer.out_dim,
                         next);
    ApplyActivationInPlace(layer.act, next->data().data(), next->size());
    cur = next;
  }
  EADRL_CHK_FINITE(out->data(), "PackedMlp::Infer output");
}

}  // namespace eadrl::nn
