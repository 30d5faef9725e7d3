#include "models/nn_regressors.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "nn/activation.h"
#include "nn/loss.h"
#include "nn/param.h"

namespace eadrl::models {
namespace {

std::vector<size_t> ShuffledOrder(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(&order);
  return order;
}

// Adam over `params` for train.epochs passes through the `rows` training
// samples, each pass in a fresh shuffled order: step(idx) runs one sample's
// forward and backward, then the gradients are clipped and applied.
template <typename Step>
void TrainEpochs(const NnTrainParams& train,
                 const std::vector<nn::Param*>& params, size_t rows, Rng& rng,
                 Step step) {
  nn::Adam opt(train.learning_rate);
  opt.Register(params);
  for (size_t epoch = 0; epoch < train.epochs; ++epoch) {
    for (size_t idx : ShuffledOrder(rows, rng)) {
      step(idx);
      nn::ClipGradNorm(params, train.grad_clip);
      opt.StepAndZero();
    }
  }
}

// One sample through `net` (an nn::Dense head or an nn::Mlp) under MSE
// against `target`; accumulates the net's gradients and returns dL/d(input).
template <typename Net>
math::Vec MseStep(Net* net, const math::Vec& input, double target) {
  nn::LossResult loss = nn::MseLoss(net->Forward(input), {target});
  return net->Backward(loss.grad);
}

// Cuts the `len`-value window at `src` into its len - width + 1 overlapping
// `width`-wide steps, one per row of *seq. Width 1 is the window as a
// sequence of scalars.
void WindowSteps(const double* src, size_t len, size_t width,
                 math::Matrix* seq) {
  EADRL_CHECK_GE(len, width);
  seq->Resize(len - width + 1, width);
  for (size_t t = 0; t < seq->rows(); ++t) {
    std::copy(src + t, src + t + width, seq->RowPtr(t));
  }
}

// Overwrites the last row of *m with the m->cols() values at `src`.
void SetLastRow(const double* src, math::Matrix* m) {
  std::copy(src, src + m->cols(), m->RowPtr(m->rows() - 1));
}

void AppendParams(const std::vector<nn::Param*>& more,
                  std::vector<nn::Param*>* params) {
  params->insert(params->end(), more.begin(), more.end());
}

// The LSTM and Conv-LSTM regressors: an LSTM over the window's `width`-wide
// steps, a linear head on its last hidden state.
void FitLstmHead(nn::Lstm* lstm, nn::Dense* head, size_t width,
                 const math::Matrix& x, const math::Vec& y,
                 const NnTrainParams& train, Rng& rng) {
  std::vector<nn::Param*> params = lstm->Params();
  AppendParams(head->Params(), &params);
  // Per-sample buffers; grad_hidden's rows before the last stay zero.
  math::Matrix seq;
  math::Vec last;
  math::Matrix grad_hidden(x.cols() - width + 1, lstm->hidden_size(), 0.0);
  TrainEpochs(train, params, x.rows(), rng, [&](size_t idx) {
    WindowSteps(x.RowPtr(idx), x.cols(), width, &seq);
    const math::Matrix& hs = lstm->Forward(seq);
    hs.RowInto(hs.rows() - 1, &last);
    SetLastRow(MseStep(head, last, y[idx]).data(), &grad_hidden);
    lstm->Backward(grad_hidden);
  });
}

double PredictLstmHead(nn::Lstm* lstm, nn::Dense* head, size_t width,
                       const math::Vec& x) {
  math::Matrix seq;
  WindowSteps(x.data(), x.size(), width, &seq);
  const math::Matrix& hs = lstm->Forward(seq);
  return head->Forward(hs.Row(hs.rows() - 1))[0];
}

// Runs `fwd` over the window at `src` and `bwd` over the window reversed
// (*seq and *rev receive the two sequences); *concat gets their two last
// hidden states, concatenated.
void BiForward(nn::Lstm* fwd, nn::Lstm* bwd, const double* src, size_t len,
               math::Matrix* seq, math::Matrix* rev, math::Vec* concat) {
  WindowSteps(src, len, 1, seq);
  rev->Resize(len, 1);
  std::reverse_copy(src, src + len, rev->RowPtr(0));
  const math::Matrix& hf = fwd->Forward(*seq);
  const math::Matrix& hb = bwd->Forward(*rev);
  const size_t h = fwd->hidden_size();
  concat->resize(2 * h);
  std::copy(hf.RowPtr(len - 1), hf.RowPtr(len - 1) + h, concat->begin());
  std::copy(hb.RowPtr(len - 1), hb.RowPtr(len - 1) + h, concat->begin() + h);
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

  math::Vec row;
  TrainEpochs(train_, net_->Params(), x.rows(), rng, [&](size_t idx) {
    x.RowInto(idx, &row);
    MseStep(net_.get(), row, y[idx]);
  });
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
  FitLstmHead(lstm_.get(), head_.get(), 1, x, y, train_, rng);
  return Status::Ok();
}

double LstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm_ != nullptr);
  return PredictLstmHead(lstm_.get(), head_.get(), 1, x);
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
  AppendParams(bwd_->Params(), &params);
  AppendParams(head_->Params(), &params);
  math::Matrix seq, rev;
  math::Vec concat;
  math::Matrix gf(x.cols(), hidden_size_, 0.0);
  math::Matrix gb(x.cols(), hidden_size_, 0.0);
  TrainEpochs(train_, params, x.rows(), rng, [&](size_t idx) {
    BiForward(fwd_.get(), bwd_.get(), x.RowPtr(idx), x.cols(), &seq, &rev,
              &concat);
    math::Vec dconcat = MseStep(head_.get(), concat, y[idx]);
    SetLastRow(dconcat.data(), &gf);
    SetLastRow(dconcat.data() + hidden_size_, &gb);
    fwd_->Backward(gf);
    bwd_->Backward(gb);
  });
  return Status::Ok();
}

double BiLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(fwd_ != nullptr);
  math::Matrix seq, rev;
  math::Vec concat;
  BiForward(fwd_.get(), bwd_.get(), x.data(), x.size(), &seq, &rev, &concat);
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
  AppendParams(lstm_->Params(), &params);
  AppendParams(head_->Params(), &params);
  math::Matrix input;
  math::Vec last;
  math::Matrix grad_hidden(x.cols() - kernel_size_ + 1, hidden_size_, 0.0);
  TrainEpochs(train_, params, x.rows(), rng, [&](size_t idx) {
    WindowSteps(x.RowPtr(idx), x.cols(), 1, &input);
    const math::Matrix& hs = lstm_->Forward(conv_->Forward(input));
    hs.RowInto(hs.rows() - 1, &last);
    SetLastRow(MseStep(head_.get(), last, y[idx]).data(), &grad_hidden);
    conv_->Backward(lstm_->Backward(grad_hidden));
  });
  return Status::Ok();
}

double CnnLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(conv_ != nullptr);
  math::Matrix input;
  WindowSteps(x.data(), x.size(), 1, &input);
  const math::Matrix& hs = lstm_->Forward(conv_->Forward(input));
  return head_->Forward(hs.Row(hs.rows() - 1))[0];
}

// ---------------------------------------------------------------------------
// ConvLstmRegressor

ConvLstmRegressor::ConvLstmRegressor(size_t patch_size, size_t hidden_size,
                                     NnTrainParams train)
    : patch_size_(patch_size), hidden_size_(hidden_size), train_(train) {}

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
  FitLstmHead(lstm_.get(), head_.get(), patch_size_, x, y, train_, rng);
  return Status::Ok();
}

double ConvLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm_ != nullptr);
  return PredictLstmHead(lstm_.get(), head_.get(), patch_size_, x);
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
  AppendParams(lstm2_->Params(), &params);
  AppendParams(head_->Params(), &params);
  math::Matrix seq;
  math::Vec last;
  math::Matrix g2(x.cols(), hidden_size_, 0.0);
  TrainEpochs(train_, params, x.rows(), rng, [&](size_t idx) {
    WindowSteps(x.RowPtr(idx), x.cols(), 1, &seq);
    const math::Matrix& h2 = lstm2_->Forward(lstm1_->Forward(seq));
    h2.RowInto(h2.rows() - 1, &last);
    SetLastRow(MseStep(head_.get(), last, y[idx]).data(), &g2);
    lstm1_->Backward(lstm2_->Backward(g2));
  });
  return Status::Ok();
}

double StackedLstmRegressor::Predict(const math::Vec& x) const {
  EADRL_CHECK(lstm1_ != nullptr);
  math::Matrix seq;
  WindowSteps(x.data(), x.size(), 1, &seq);
  const math::Matrix& h2 = lstm2_->Forward(lstm1_->Forward(seq));
  return head_->Forward(h2.Row(h2.rows() - 1))[0];
}

}  // namespace eadrl::models
