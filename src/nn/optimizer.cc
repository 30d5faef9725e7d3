#include "nn/optimizer.h"

#include <cmath>
#include <limits>
#include <type_traits>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

#include "common/check.h"

namespace eadrl::nn {

// Two doubles: one 16-byte register, the width of a baseline packed square
// root.
using Lanes2 = double __attribute__((vector_size(2 * sizeof(double))));

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  EADRL_CHECK_GT(lr, 0.0);
}

void Adam::Register(const std::vector<Param*>& params) {
  params_ = params;
  m_.clear();
  v_.clear();
  t_ = 0;
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  EADRL_CHECK(!params_.empty());
  ++t_;
  double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Each element goes through the same operations in the same order as the
  // scalar tail below, two elements per step. A packed square root is
  // correctly rounded like the scalar one and, unlike std::sqrt, never calls
  // into libm to set errno: that call kept the scalar loop from vectorizing.
  //
  // A parameter whose gradient stays exactly zero (a dead ReLU unit) has
  // moments that decay geometrically into the subnormal range and never
  // reach zero; x86 computes on subnormals through slow microcode assists.
  // Flushing them to +0.0 moves no weight: see DESIGN.md §8, "Training-loop
  // numerics", for the bound. The flush is a compare-and-select on the
  // locals before the stores.
  //
  // 1 - beta1^t rounds to exactly 1.0 once beta1^t < 2^-54 (from t = 356 at
  // beta1 = 0.9), and x / 1.0 == x for every double, so from then on the
  // loop uses m in place of m / bc1 without changing a bit. beta2's term
  // stays below 1.0 far longer (until t = 37 412 at 0.999).
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const Lanes2 beta1 = {beta1_, beta1_};
  const Lanes2 beta2 = {beta2_, beta2_};
  const Lanes2 rest1 = {1.0 - beta1_, 1.0 - beta1_};
  const Lanes2 rest2 = {1.0 - beta2_, 1.0 - beta2_};
  const Lanes2 bc1s = {bc1, bc1};
  const Lanes2 bc2s = {bc2, bc2};
  const Lanes2 lr = {lr_, lr_};
  const Lanes2 eps = {eps_, eps_};
  const Lanes2 min_normal = {kMinNormal, kMinNormal};
  const Lanes2 zero = {};
  auto step_all = [&](auto unit_bc1) {
    constexpr bool kUnitBc1 = decltype(unit_bc1)::value;
    for (size_t i = 0; i < params_.size(); ++i) {
      const size_t n = params_[i]->value.size();
      double* val = params_[i]->value.data().data();
      const double* grad = params_[i]->grad.data().data();
      double* m = m_[i].data().data();
      double* v = v_[i].data().data();
      size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        Lanes2 g;
        Lanes2 mj;
        Lanes2 vj;
        Lanes2 w;
        __builtin_memcpy(&g, grad + j, sizeof g);
        __builtin_memcpy(&mj, m + j, sizeof mj);
        __builtin_memcpy(&vj, v + j, sizeof vj);
        __builtin_memcpy(&w, val + j, sizeof w);
        mj = beta1 * mj + rest1 * g;
        vj = beta2 * vj + rest2 * g * g;
        mj = ((mj < min_normal) & (mj > -min_normal)) ? zero : mj;
        vj = vj < min_normal ? zero : vj;  // vj >= 0.
        __builtin_memcpy(m + j, &mj, sizeof mj);
        __builtin_memcpy(v + j, &vj, sizeof vj);
        const Lanes2 mhat = kUnitBc1 ? mj : mj / bc1s;
        const Lanes2 vhat = vj / bc2s;
#if defined(__x86_64__)
        const Lanes2 root = _mm_sqrt_pd(vhat);
#else
        const Lanes2 root = {std::sqrt(vhat[0]), std::sqrt(vhat[1])};
#endif
        w -= lr * mhat / (root + eps);
        __builtin_memcpy(val + j, &w, sizeof w);
      }
      for (; j < n; ++j) {
        double mj = beta1_ * m[j] + (1.0 - beta1_) * grad[j];
        double vj = beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j];
        if (std::fabs(mj) < kMinNormal) mj = 0.0;
        if (vj < kMinNormal) vj = 0.0;  // vj >= 0.
        m[j] = mj;
        v[j] = vj;
        double mhat = kUnitBc1 ? mj : mj / bc1;
        double vhat = vj / bc2;
        val[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
      }
    }
  };
  if (bc1 == 1.0) {
    step_all(std::true_type{});
  } else {
    step_all(std::false_type{});
  }
}

void Adam::StepAndZero() {
  Step();
  ZeroGrads(params_);
}

}  // namespace eadrl::nn
