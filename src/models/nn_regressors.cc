#include "models/nn_regressors.h"

#include <numeric>
#include <utility>

#include "common/check.h"
#include "nn/activation.h"
#include "nn/loss.h"
#include "nn/param.h"

namespace eadrl::models {
namespace {

// Converts a feature row into a sequence of 1-dim inputs.
std::vector<math::Vec> ToScalarSequence(const math::Vec& window) {
  std::vector<math::Vec> seq;
  seq.reserve(window.size());
  for (double v : window) seq.push_back(math::Vec{v});
  return seq;
}

std::vector<size_t> ShuffledOrder(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(&order);
  return order;
}

}  // namespace

// ---------------------------------------------------------------------------
// MlpRegressor

MlpRegressor::MlpRegressor(std::vector<size_t> hidden_sizes,
                           NnTrainParams train)
    : hidden_sizes_(std::move(hidden_sizes)), train_(train) {}

Status MlpRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("MlpRegressor: bad training data");
  }
  Rng rng(train_.seed);
  std::vector<size_t> sizes;
  sizes.push_back(x.cols());
  for (size_t h : hidden_sizes_) sizes.push_back(h);
  sizes.push_back(1);
  net_ = std::make_unique<nn::Mlp>(sizes, nn::Activation::kRelu,
                                   nn::Activation::kIdentity, rng);

  nn::Adam opt(train_.learning_rate);
  auto params = net_->Params();
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      math::Vec pred = net_->Forward(x.Row(idx));
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});
      net_->Backward(loss.grad);
      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double MlpRegressor::Predict(const math::Vec& x) const {
  math::Vec out;
  PredictBatch(math::Matrix::FromRows({x}), &out);
  return out[0];
}

bool MlpRegressor::PredictBatch(const math::Matrix& x, math::Vec* out) const {
  EADRL_CHECK(net_ != nullptr);
  math::Matrix y;
  math::Matrix scratch;
  net_->Infer(x, &y, &scratch);
  *out = std::move(y.data());  // B x 1: the column is the flat data.
  return true;
}

// ---------------------------------------------------------------------------
// LstmRegressor

LstmRegressor::LstmRegressor(size_t hidden_size, NnTrainParams train)
    : hidden_size_(hidden_size), train_(train) {}

Status LstmRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("LstmRegressor: bad training data");
  }
  Rng rng(train_.seed);
  lstm_ = std::make_unique<nn::Lstm>(1, hidden_size_, rng);
  head_ = std::make_unique<nn::Dense>(hidden_size_, 1,
                                      nn::Activation::kIdentity, rng);

  std::vector<nn::Param*> params = lstm_->Params();
  for (nn::Param* p : head_->Params()) params.push_back(p);
  nn::Adam opt(train_.learning_rate);
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      std::vector<math::Vec> seq = ToScalarSequence(x.Row(idx));
      std::vector<math::Vec> hs = lstm_->Forward(seq);
      math::Vec pred = head_->Forward(hs.back());
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});
      math::Vec dh_last = head_->Backward(loss.grad);

      std::vector<math::Vec> grad_hidden(seq.size(),
                                         math::Vec(hidden_size_, 0.0));
      grad_hidden.back() = dh_last;
      lstm_->Backward(grad_hidden);
      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double LstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm_ != nullptr);
  std::vector<math::Vec> hs = lstm_->Forward(ToScalarSequence(x));
  return head_->Forward(hs.back())[0];
}

// ---------------------------------------------------------------------------
// BiLstmRegressor

BiLstmRegressor::BiLstmRegressor(size_t hidden_size, NnTrainParams train)
    : hidden_size_(hidden_size), train_(train) {}

Status BiLstmRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("BiLstmRegressor: bad training data");
  }
  Rng rng(train_.seed);
  fwd_ = std::make_unique<nn::Lstm>(1, hidden_size_, rng);
  bwd_ = std::make_unique<nn::Lstm>(1, hidden_size_, rng);
  head_ = std::make_unique<nn::Dense>(2 * hidden_size_, 1,
                                      nn::Activation::kIdentity, rng);

  std::vector<nn::Param*> params = fwd_->Params();
  for (nn::Param* p : bwd_->Params()) params.push_back(p);
  for (nn::Param* p : head_->Params()) params.push_back(p);
  nn::Adam opt(train_.learning_rate);
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      std::vector<math::Vec> seq = ToScalarSequence(x.Row(idx));
      std::vector<math::Vec> rev(seq.rbegin(), seq.rend());

      std::vector<math::Vec> hf = fwd_->Forward(seq);
      std::vector<math::Vec> hb = bwd_->Forward(rev);
      math::Vec concat(2 * hidden_size_);
      for (size_t j = 0; j < hidden_size_; ++j) {
        concat[j] = hf.back()[j];
        concat[hidden_size_ + j] = hb.back()[j];
      }
      math::Vec pred = head_->Forward(concat);
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});
      math::Vec dconcat = head_->Backward(loss.grad);

      std::vector<math::Vec> gf(seq.size(), math::Vec(hidden_size_, 0.0));
      std::vector<math::Vec> gb(seq.size(), math::Vec(hidden_size_, 0.0));
      for (size_t j = 0; j < hidden_size_; ++j) {
        gf.back()[j] = dconcat[j];
        gb.back()[j] = dconcat[hidden_size_ + j];
      }
      fwd_->Backward(gf);
      bwd_->Backward(gb);
      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double BiLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(fwd_ != nullptr);
  std::vector<math::Vec> seq = ToScalarSequence(x);
  std::vector<math::Vec> rev(seq.rbegin(), seq.rend());
  std::vector<math::Vec> hf = fwd_->Forward(seq);
  std::vector<math::Vec> hb = bwd_->Forward(rev);
  math::Vec concat(2 * hidden_size_);
  for (size_t j = 0; j < hidden_size_; ++j) {
    concat[j] = hf.back()[j];
    concat[hidden_size_ + j] = hb.back()[j];
  }
  return head_->Forward(concat)[0];
}

// ---------------------------------------------------------------------------
// CnnLstmRegressor

CnnLstmRegressor::CnnLstmRegressor(size_t filters, size_t kernel_size,
                                   size_t hidden_size, NnTrainParams train)
    : filters_(filters),
      kernel_size_(kernel_size),
      hidden_size_(hidden_size),
      train_(train) {}

Status CnnLstmRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("CnnLstmRegressor: bad training data");
  }
  if (x.cols() < kernel_size_) {
    return Status::InvalidArgument(
        "CnnLstmRegressor: window shorter than kernel");
  }
  Rng rng(train_.seed);
  conv_ = std::make_unique<nn::Conv1d>(1, filters_, kernel_size_,
                                       nn::Activation::kRelu, rng);
  lstm_ = std::make_unique<nn::Lstm>(filters_, hidden_size_, rng);
  head_ = std::make_unique<nn::Dense>(hidden_size_, 1,
                                      nn::Activation::kIdentity, rng);

  std::vector<nn::Param*> params = conv_->Params();
  for (nn::Param* p : lstm_->Params()) params.push_back(p);
  for (nn::Param* p : head_->Params()) params.push_back(p);
  nn::Adam opt(train_.learning_rate);
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      math::Vec window = x.Row(idx);
      math::Matrix input(window.size(), 1);
      for (size_t t = 0; t < window.size(); ++t) input(t, 0) = window[t];

      math::Matrix feats = conv_->Forward(input);
      std::vector<math::Vec> seq;
      seq.reserve(feats.rows());
      for (size_t t = 0; t < feats.rows(); ++t) seq.push_back(feats.Row(t));

      std::vector<math::Vec> hs = lstm_->Forward(seq);
      math::Vec pred = head_->Forward(hs.back());
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});

      math::Vec dh_last = head_->Backward(loss.grad);
      std::vector<math::Vec> grad_hidden(seq.size(),
                                         math::Vec(hidden_size_, 0.0));
      grad_hidden.back() = dh_last;
      std::vector<math::Vec> dseq = lstm_->Backward(grad_hidden);

      math::Matrix dfeats(feats.rows(), filters_);
      for (size_t t = 0; t < feats.rows(); ++t) dfeats.SetRow(t, dseq[t]);
      conv_->Backward(dfeats);

      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double CnnLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(conv_ != nullptr);
  math::Matrix input(x.size(), 1);
  for (size_t t = 0; t < x.size(); ++t) input(t, 0) = x[t];
  math::Matrix feats = conv_->Forward(input);
  std::vector<math::Vec> seq;
  seq.reserve(feats.rows());
  for (size_t t = 0; t < feats.rows(); ++t) seq.push_back(feats.Row(t));
  std::vector<math::Vec> hs = lstm_->Forward(seq);
  return head_->Forward(hs.back())[0];
}

// ---------------------------------------------------------------------------
// ConvLstmRegressor

ConvLstmRegressor::ConvLstmRegressor(size_t patch_size, size_t hidden_size,
                                     NnTrainParams train)
    : patch_size_(patch_size), hidden_size_(hidden_size), train_(train) {}

std::vector<math::Vec> ConvLstmRegressor::ToPatches(
    const math::Vec& window) const {
  EADRL_CHECK_GE(window.size(), patch_size_);
  std::vector<math::Vec> patches;
  for (size_t t = 0; t + patch_size_ <= window.size(); ++t) {
    patches.emplace_back(window.begin() + t,
                         window.begin() + t + patch_size_);
  }
  return patches;
}

Status ConvLstmRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("ConvLstmRegressor: bad training data");
  }
  if (x.cols() < patch_size_) {
    return Status::InvalidArgument(
        "ConvLstmRegressor: window shorter than patch");
  }
  Rng rng(train_.seed);
  lstm_ = std::make_unique<nn::Lstm>(patch_size_, hidden_size_, rng);
  head_ = std::make_unique<nn::Dense>(hidden_size_, 1,
                                      nn::Activation::kIdentity, rng);

  std::vector<nn::Param*> params = lstm_->Params();
  for (nn::Param* p : head_->Params()) params.push_back(p);
  nn::Adam opt(train_.learning_rate);
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      std::vector<math::Vec> seq = ToPatches(x.Row(idx));
      std::vector<math::Vec> hs = lstm_->Forward(seq);
      math::Vec pred = head_->Forward(hs.back());
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});
      math::Vec dh_last = head_->Backward(loss.grad);

      std::vector<math::Vec> grad_hidden(seq.size(),
                                         math::Vec(hidden_size_, 0.0));
      grad_hidden.back() = dh_last;
      lstm_->Backward(grad_hidden);
      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double ConvLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm_ != nullptr);
  std::vector<math::Vec> hs = lstm_->Forward(ToPatches(x));
  return head_->Forward(hs.back())[0];
}

// ---------------------------------------------------------------------------
// StackedLstmRegressor

StackedLstmRegressor::StackedLstmRegressor(size_t hidden_size,
                                           NnTrainParams train)
    : hidden_size_(hidden_size), train_(train) {}

Status StackedLstmRegressor::Fit(const math::Matrix& x, const math::Vec& y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    return Status::InvalidArgument("StackedLstmRegressor: bad training data");
  }
  Rng rng(train_.seed);
  lstm1_ = std::make_unique<nn::Lstm>(1, hidden_size_, rng);
  lstm2_ = std::make_unique<nn::Lstm>(hidden_size_, hidden_size_, rng);
  head_ = std::make_unique<nn::Dense>(hidden_size_, 1,
                                      nn::Activation::kIdentity, rng);

  std::vector<nn::Param*> params = lstm1_->Params();
  for (nn::Param* p : lstm2_->Params()) params.push_back(p);
  for (nn::Param* p : head_->Params()) params.push_back(p);
  nn::Adam opt(train_.learning_rate);
  opt.Register(params);

  for (size_t epoch = 0; epoch < train_.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(x.rows(), rng)) {
      std::vector<math::Vec> seq = ToScalarSequence(x.Row(idx));
      std::vector<math::Vec> h1 = lstm1_->Forward(seq);
      std::vector<math::Vec> h2 = lstm2_->Forward(h1);
      math::Vec pred = head_->Forward(h2.back());
      nn::LossResult loss = nn::MseLoss(pred, {y[idx]});
      math::Vec dh_last = head_->Backward(loss.grad);

      std::vector<math::Vec> g2(seq.size(), math::Vec(hidden_size_, 0.0));
      g2.back() = dh_last;
      std::vector<math::Vec> dinputs2 = lstm2_->Backward(g2);
      lstm1_->Backward(dinputs2);
      nn::ClipGradNorm(params, train_.grad_clip);
      opt.StepAndZero();
    }
  }
  return Status::Ok();
}

double StackedLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm1_ != nullptr);
  std::vector<math::Vec> h1 = lstm1_->Forward(ToScalarSequence(x));
  std::vector<math::Vec> h2 = lstm2_->Forward(h1);
  return head_->Forward(h2.back())[0];
}

}  // namespace eadrl::models
