#include "math/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace eadrl::math {

StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CholeskyFactor: matrix must be square");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* a_i = a.RowPtr(i);
    double* l_i = l.RowPtr(i);
    for (size_t j = 0; j <= i; ++j) {
      const double* l_j = l.RowPtr(j);
      double s = a_i[j];
      for (size_t k = 0; k < j; ++k) s -= l_i[k] * l_j[k];
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) {
          return Status::InvalidArgument(
              "CholeskyFactor: matrix is not positive definite");
        }
        l_i[j] = std::sqrt(s);
      } else {
        l_i[j] = s / l_j[j];
      }
    }
  }
  return l;
}

Vec SolveLowerTriangular(const Matrix& l, const Vec& b) {
  const size_t n = l.rows();
  EADRL_CHECK(l.cols() == n && b.size() == n);
  Vec y(n);
  for (size_t i = 0; i < n; ++i) {
    const double* l_i = l.RowPtr(i);
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l_i[k] * y[k];
    y[i] = s / l_i[i];
  }
  return y;
}

Vec CholeskySolveFactored(const Matrix& l, const Vec& b) {
  const Vec y = SolveLowerTriangular(l, b);
  const size_t n = l.rows();
  Vec x(n);
  for (size_t ii = 0; ii < n; ++ii) {
    size_t i = n - 1 - ii;
    double s = y[i];
    for (size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

StatusOr<Vec> CholeskySolve(const Matrix& a, const Vec& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("CholeskySolve: dimension mismatch");
  }
  StatusOr<Matrix> l = CholeskyFactor(a);
  if (!l.ok()) return l.status();
  return CholeskySolveFactored(*l, b);
}

StatusOr<Vec> LuSolve(const Matrix& a, const Vec& b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    return Status::InvalidArgument("LuSolve: dimension mismatch");
  }
  const size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);

  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting: pick the largest magnitude in the column.
    size_t pivot = col;
    double best = std::fabs(lu(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::fabs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      return Status::InvalidArgument("LuSolve: matrix is singular");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) std::swap(lu(col, j), lu(pivot, j));
      std::swap(perm[col], perm[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double f = lu(r, col) / lu(col, col);
      lu(r, col) = f;
      for (size_t j = col + 1; j < n; ++j) lu(r, j) -= f * lu(col, j);
    }
  }

  // Apply permutation to b, then forward/backward substitution.
  Vec y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[perm[i]];
    for (size_t k = 0; k < i; ++k) s -= lu(i, k) * y[k];
    y[i] = s;
  }
  Vec x(n);
  for (size_t ii = 0; ii < n; ++ii) {
    size_t i = n - 1 - ii;
    double s = y[i];
    for (size_t k = i + 1; k < n; ++k) s -= lu(i, k) * x[k];
    x[i] = s / lu(i, i);
  }
  return x;
}

StatusOr<Vec> SolveRidge(const Matrix& x, const Vec& y, double lambda) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("SolveRidge: dimension mismatch");
  }
  if (lambda < 0.0) {
    return Status::InvalidArgument("SolveRidge: lambda must be >= 0");
  }
  const size_t p = x.cols();
  // Normal equations: (X^T X + lambda I) w = X^T y.
  Matrix xtx(p, p);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t a = 0; a < p; ++a) {
      double xa = x(i, a);
      if (xa == 0.0) continue;
      for (size_t b = a; b < p; ++b) xtx(a, b) += xa * x(i, b);
    }
  }
  for (size_t a = 0; a < p; ++a) {
    for (size_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);
    xtx(a, a) += lambda + 1e-10;
  }
  Vec xty = x.TransposeMatVec(y);
  return CholeskySolve(xtx, xty);
}

StatusOr<EigenResult> JacobiEigenSymmetric(const Matrix& a, int max_sweeps,
                                           double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("JacobiEigenSymmetric: must be square");
  }
  const size_t n = a.rows();
  Matrix d = a;
  Matrix v = Matrix::Identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) off += d(i, j) * d(i, j);
    }
    if (off < tol) break;

    for (size_t p = 0; p < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        if (std::fabs(d(p, q)) < 1e-300) continue;
        double theta = (d(q, q) - d(p, p)) / (2.0 * d(p, q));
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;

        for (size_t k = 0; k < n; ++k) {
          double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (size_t k = 0; k < n; ++k) {
          double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (size_t k = 0; k < n; ++k) {
          double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by eigenvalue, descending.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  Vec diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = d(i, i);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return diag[x] > diag[y]; });

  EigenResult result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    result.values[j] = diag[order[j]];
    for (size_t i = 0; i < n; ++i) result.vectors(i, j) = v(i, order[j]);
  }
  return result;
}

StatusOr<Matrix> CholeskyInverse(const Matrix& a) {
  StatusOr<Matrix> l = CholeskyFactor(a);
  if (!l.ok()) return l.status();
  const size_t n = a.rows();
  Matrix inv(n, n);
  for (size_t j = 0; j < n; ++j) {
    Vec e(n, 0.0);
    e[j] = 1.0;
    Vec col = CholeskySolveFactored(*l, e);
    for (size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  return inv;
}

}  // namespace eadrl::math
