#ifndef EADRL_MATH_VEC_H_
#define EADRL_MATH_VEC_H_

#include <vector>

namespace eadrl::math {

/// Dense double vector used across the library.
using Vec = std::vector<double>;

/// Dot product of equally sized vectors.
double Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double Norm2(const Vec& a);

/// Elementwise sum a + b.
Vec Add(const Vec& a, const Vec& b);

/// Elementwise difference a - b.
Vec Sub(const Vec& a, const Vec& b);

/// Scalar multiple s * a.
Vec Scale(const Vec& a, double s);

/// Numerically stable softmax.
Vec Softmax(const Vec& a);

/// Euclidean projection onto the probability simplex (Duchi et al. 2008).
/// Used by the OGD expert-aggregation baseline.
Vec ProjectToSimplex(const Vec& a);

}  // namespace eadrl::math

#endif  // EADRL_MATH_VEC_H_
