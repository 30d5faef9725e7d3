#include "math/vec.h"

#include <algorithm>
#include <cmath>

#include "chk/chk.h"
#include "common/check.h"
#include "obs/resource.h"

namespace eadrl::math {

double Dot(const Vec& a, const Vec& b) {
  EADRL_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const Vec& a) { return std::sqrt(Dot(a, a)); }

Vec Add(const Vec& a, const Vec& b) {
  EADRL_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Sub(const Vec& a, const Vec& b) {
  EADRL_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec Scale(const Vec& a, double s) {
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Vec Softmax(const Vec& a) {
  EADRL_CHECK(!a.empty());
  obs::CountAlloc(a.size() * sizeof(double));
  double mx = *std::max_element(a.begin(), a.end());
  Vec out(a.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] = std::exp(a[i] - mx);
    sum += out[i];
  }
  for (double& v : out) v /= sum;
  // Softmax of any finite logits lies on the simplex; a violation means the
  // logits (i.e. the upstream network) were already poisoned.
  EADRL_CHK_SIMPLEX(out, 1e-6, "math::Softmax output");
  return out;
}

Vec ProjectToSimplex(const Vec& a) {
  EADRL_CHECK(!a.empty());
  // Sort descending, find the largest k with u_k + (1 - sum_{i<=k} u_i)/k > 0.
  Vec u = a;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumsum = 0.0;
  double theta = 0.0;
  size_t k = 0;
  for (size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    double candidate = (cumsum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - candidate > 0.0) {
      theta = candidate;
      k = i + 1;
    }
  }
  if (k == 0) {
    return Vec(a.size(), 1.0 / static_cast<double>(a.size()));
  }
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = std::max(0.0, a[i] - theta);
  EADRL_CHK_SIMPLEX(out, 1e-6, "math::ProjectToSimplex output");
  return out;
}

}  // namespace eadrl::math
