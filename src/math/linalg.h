#ifndef EADRL_MATH_LINALG_H_
#define EADRL_MATH_LINALG_H_

#include <vector>

#include "common/status.h"
#include "math/matrix.h"
#include "math/vec.h"

namespace eadrl::math {

/// Cholesky factorization A = L * L^T of a symmetric positive-definite
/// matrix. Returns the lower-triangular factor L, or InvalidArgument if A is
/// not (numerically) positive definite.
StatusOr<Matrix> CholeskyFactor(const Matrix& a);

/// Solves A x = b for symmetric positive-definite A via Cholesky:
/// CholeskyFactor, then CholeskySolveFactored.
StatusOr<Vec> CholeskySolve(const Matrix& a, const Vec& b);

/// Solves L y = b for lower-triangular L by forward substitution.
Vec SolveLowerTriangular(const Matrix& l, const Vec& b);

/// Solves A x = b given the Cholesky factor L of A (A = L L^T): L y = b by
/// forward substitution, then L^T x = y by back substitution. Factor once,
/// solve many.
Vec CholeskySolveFactored(const Matrix& l, const Vec& b);

/// Solves A x = b for square A via LU decomposition with partial pivoting.
/// Returns InvalidArgument if A is singular to working precision.
StatusOr<Vec> LuSolve(const Matrix& a, const Vec& b);

/// Ridge-regularized least squares: minimizes |X w - y|^2 + lambda |w|^2.
/// Solved through the normal equations with Cholesky; lambda > 0 guarantees
/// positive-definiteness.
StatusOr<Vec> SolveRidge(const Matrix& x, const Vec& y, double lambda);

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T, with
/// eigenvalues sorted in descending order and eigenvectors as columns of V.
struct EigenResult {
  Vec values;
  Matrix vectors;
};

/// Cyclic Jacobi eigendecomposition for a symmetric matrix.
StatusOr<EigenResult> JacobiEigenSymmetric(const Matrix& a,
                                           int max_sweeps = 100,
                                           double tol = 1e-12);

/// Inverse of a symmetric positive-definite matrix via Cholesky.
StatusOr<Matrix> CholeskyInverse(const Matrix& a);

}  // namespace eadrl::math

#endif  // EADRL_MATH_LINALG_H_
