#ifndef EADRL_MATH_MATRIX_H_
#define EADRL_MATH_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "math/isa.h"
#include "math/vec.h"

namespace eadrl::math {

/// Dense row-major matrix of doubles.
///
/// Designed for the small/medium problems in this library (regression design
/// matrices, network weight blocks, covariance matrices). Copyable and
/// movable.
///
/// Determinism contract (see DESIGN.md, "Batch-major kernels"): every product
/// kernel below — blocked or fused — accumulates each output element over the
/// contraction index in ascending order, so tiling and the fused-transpose
/// variants are bit-identical to the naive loops for finite inputs (the only
/// divergence is the sign of exact-zero results, since `x + 0.0` normalizes
/// `-0.0` to `+0.0`).
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer lists (for tests).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Builds a matrix whose rows are the given vectors (all equal length).
  static Matrix FromRows(const std::vector<Vec>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows x cols without shrinking capacity; contents are
  /// unspecified afterwards. The workhorse of scratch reuse: a warmed-up
  /// buffer resized to the same (or smaller) shape never reallocates.
  void Resize(size_t rows, size_t cols);

  double& operator()(size_t i, size_t j) {
    EADRL_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    EADRL_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Pointer to the start of row i (rows are contiguous).
  const double* RowPtr(size_t i) const { return &data_[i * cols_]; }
  double* RowPtr(size_t i) { return &data_[i * cols_]; }

  /// Copies row i into a vector.
  Vec Row(size_t i) const;
  /// Copies column j into a vector.
  Vec Col(size_t j) const;
  /// Copies row i into *out (resized; no allocation once warm).
  void RowInto(size_t i, Vec* out) const;
  /// Overwrites row i.
  void SetRow(size_t i, const Vec& row);

  Matrix Transpose() const;

  /// Matrix product this * other.
  Matrix MatMul(const Matrix& other) const;
  /// this * other into *out (resized; no allocation once warm).
  void MatMulInto(const Matrix& other, Matrix* out) const;

  /// Fused this^T * other without materializing Transpose(). The batched
  /// backprop weight-gradient kernel: with `accumulate`, adds into *out
  /// instead of overwriting — contributions land per output element in
  /// ascending row order of `this`, exactly like per-sample accumulation.
  Matrix MatMulTransposeA(const Matrix& other) const;
  void MatMulTransposeAInto(const Matrix& other, Matrix* out,
                            bool accumulate = false) const;

  /// Fused this * other^T without materializing Transpose(). The batched
  /// forward kernel (batch-major X times weight W gives X * W^T).
  Matrix MatMulTransposeB(const Matrix& other) const;
  void MatMulTransposeBInto(const Matrix& other, Matrix* out) const;

  /// Matrix-vector product this * x.
  Vec MatVec(const Vec& x) const;
  /// this * x into *out (resized; no allocation once warm).
  void MatVecInto(const Vec& x, Vec* out) const;

  /// x^T * this (i.e. Transpose().MatVec(x) without materializing).
  Vec TransposeMatVec(const Vec& x) const;
  /// x^T * this into *out (resized; no allocation once warm).
  void TransposeMatVecInto(const Vec& x, Vec* out) const;

  /// In-place scalar multiply.
  void Scale(double s);

  /// Fills all entries with v.
  void Fill(double v);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// The three products above on a chosen kernel variant; the members run
/// HostIsa()'s. Every variant computes the same bits, so these exist for the
/// tests that hold each one to the naive loops.
void MatMulInto(Isa isa, const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransposeAInto(Isa isa, const Matrix& a, const Matrix& b,
                          Matrix* out, bool accumulate);
void MatMulTransposeBInto(Isa isa, const Matrix& a, const Matrix& b,
                          Matrix* out);

/// Z = X·Wᵀ + b for weights stored transposed: `wt` is in x n_pad, where
/// n_pad is n rounded up to a multiple of 4 and the columns past n are zero,
/// and `bias` holds n_pad entries. *z becomes x.rows() x n. Each element is
/// the chain a fused-transpose product plus a bias add computes, so row b
/// equals the same row of x.MatMulTransposeB(W) with b added, bit for bit:
/// 0.0, then + x_k · W(j, k) for k ascending, then + b_j. Rows run one at a
/// time with up to 32 output columns held in registers across the k loop
/// (16 on the baseline variant), which is what a 1-row pass needs: the
/// fused-transpose product gives a lone row only four chains at a time.
void AffineRowsInto(Isa isa, const Matrix& x, const Matrix& wt,
                    const Vec& bias, size_t n, Matrix* z);

/// Row-wise softmax in place — each row is mapped through exactly the same
/// max-shift/exp/normalize steps as math::Softmax, so a batched row equals
/// the vector call on that row bit for bit.
void SoftmaxRowsInPlace(Matrix* m);

}  // namespace eadrl::math

#endif  // EADRL_MATH_MATRIX_H_
