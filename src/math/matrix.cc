#include "math/matrix.h"

#include <algorithm>
#include <cmath>

#include "chk/chk.h"
#include "math/isa.h"
#include "obs/resource.h"

namespace eadrl::math {

namespace {
// Matrix/vector results below are the scratch churn on the nn/rl hot paths;
// reporting them lets spans attribute allocation pressure (see
// obs/resource.h). ~1 ns per call, so unconditional is fine. The *Into
// variants deliberately do not report: reusing a warm buffer is not an
// allocation, and the span counters exist to surface exactly that difference.
inline void CountScratch(size_t doubles) {
  obs::CountAlloc(doubles * sizeof(double));
}

// Rows per pass of MatVecInto, TransposeMatVecInto and the dot-form rows of
// MatMulTransposeBInto: four rows share each load of the common operand (and
// in TransposeMatVecInto each store of the output).
constexpr size_t kRowBlock = 4;

// out[j] += sum over i of x[i] * m[i][j] for the rows x cols m, each out[j]
// one chain over i ascending. Four rows per pass share each load and store
// of out; the restrict qualifiers spare the vectorized loop its alias checks.
void TransposeMatVecRows(const double* __restrict m,
                         const double* __restrict x, size_t rows, size_t cols,
                         double* __restrict out) {
  size_t i = 0;
  for (; i + kRowBlock <= rows; i += kRowBlock) {
    const double* r0 = m + i * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    const double x0 = x[i];
    const double x1 = x[i + 1];
    const double x2 = x[i + 2];
    const double x3 = x[i + 3];
    for (size_t j = 0; j < cols; ++j) {
      out[j] =
          (((out[j] + x0 * r0[j]) + x1 * r1[j]) + x2 * r2[j]) + x3 * r3[j];
    }
  }
  for (; i < rows; ++i) {
    const double* row = m + i * cols;
    const double xi = x[i];
    for (size_t j = 0; j < cols; ++j) out[j] += xi * row[j];
  }
}

// ---------------------------------------------------------------------------
// Register-tiled products. Each computes C (+)= A * B, where every output
// element is one chain of rounded multiplies and rounded adds:
//
//   c = accumulate ? C(i, j) : 0.0;  for k ascending: c = c + A(i, k) * B(k, j)
//
// exactly the naive loop's chain. A tile only decides which chains run side
// by side: kTileRows rows times kLanes columns, one vector lane per column,
// so each lane carries exactly one chain. The body is compiled once for
// baseline x86-64 and once for AVX2, never with FMA, whose fused rounding
// would change the bits (DESIGN.md §8, "Kernel ISA variants").

constexpr size_t kTileRows = 4;
constexpr size_t kLanes = 4;
// k extent of a packed B panel: kPanelK x kLanes doubles (8 KiB) on the
// stack, so every call owns its panel and const callers stay reentrant.
constexpr size_t kPanelK = 256;

// Vectors of 4 and 2 doubles, only ever locals of the always-inline bodies:
// passed or returned by value, a 32-byte vector has a different ABI in
// baseline code than in AVX2 code (-Wpsabi).
using Lanes4 = double __attribute__((vector_size(4 * sizeof(double))));
using Lanes2 = double __attribute__((vector_size(2 * sizeof(double))));

// Strided operands of one product over rows [0, m) and columns [0, n).
struct Product {
  const double* a;  // A(i, k) = a[i * a_row + k * a_k]
  size_t a_row;
  size_t a_k;
  const double* b;  // B(k, j) = b[k * b_k + j * b_j]
  size_t b_k;
  size_t b_j;
  double* c;  // C(i, j) = c[i * c_row + j * c_col]
  size_t c_row;
  size_t c_col;
  size_t m;
  size_t n;
  size_t kdim;
  bool accumulate;  // chains start from C instead of 0.0
};

// Rows [i, i + rows) x columns [j, j + cols) of C, rows <= kTileRows and
// cols <= kLanes, over k in [k0, k0 + kn), held in registers throughout as
// kTileRows x kParts vectors V: a tile row is one Lanes4 in the AVX2 variant
// and two Lanes2 in the baseline one. `b` points at B(k0, j) with row stride
// `ldb` and must be readable for kLanes columns (a packed panel is
// zero-padded past `cols`). A short tile re-reads its last row in the unused
// row slots. Only the rows x cols chains are stored. kWhole tiles (full and
// row-major) move C as vectors in place; the others stage it through `t`.
// Every loop over the accumulators is unrolled, so none is indexed by a
// variable, which would pin it to memory.
template <typename V, bool kWhole>
[[gnu::always_inline]] inline void Tile(const Product& p, size_t i,
                                        size_t rows, size_t j, size_t cols,
                                        const double* b, size_t ldb,
                                        size_t k0, size_t kn) {
  constexpr size_t kWidth = sizeof(V) / sizeof(double);
  constexpr size_t kParts = kLanes / kWidth;
  const double* a[kTileRows];
  a[0] = p.a + i * p.a_row + k0 * p.a_k;
#pragma GCC unroll 4
  for (size_t r = 1; r < kTileRows; ++r) {
    a[r] = r < rows ? a[r - 1] + p.a_row : a[r - 1];
  }
  double* c = p.c + i * p.c_row + j * p.c_col;
  V s[kTileRows][kParts] = {};
  if (p.accumulate || k0 > 0) {
    double t[kTileRows][kLanes] = {};
    if constexpr (!kWhole) {
      for (size_t r = 0; r < rows; ++r) {
        for (size_t l = 0; l < cols; ++l) t[r][l] = c[r * p.c_row + l * p.c_col];
      }
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < kTileRows; ++r) {
      const double* from = kWhole ? c + r * p.c_row : t[r];
#pragma GCC unroll 2
      for (size_t q = 0; q < kParts; ++q) {
        __builtin_memcpy(&s[r][q], from + q * kWidth, sizeof(V));
      }
    }
  }
  for (size_t k = 0; k < kn; ++k) {
    V bk[kParts];
#pragma GCC unroll 2
    for (size_t q = 0; q < kParts; ++q) {
      __builtin_memcpy(&bk[q], b + k * ldb + q * kWidth, sizeof(V));
    }
    const size_t ak = k * p.a_k;
#pragma GCC unroll 4
    for (size_t r = 0; r < kTileRows; ++r) {
      const double ar = a[r][ak];
#pragma GCC unroll 2
      for (size_t q = 0; q < kParts; ++q) s[r][q] += ar * bk[q];
    }
  }
  double t[kTileRows][kLanes];
#pragma GCC unroll 4
  for (size_t r = 0; r < kTileRows; ++r) {
    double* to = kWhole ? c + r * p.c_row : t[r];
#pragma GCC unroll 2
    for (size_t q = 0; q < kParts; ++q) {
      __builtin_memcpy(to + q * kWidth, &s[r][q], sizeof(V));
    }
  }
  if constexpr (!kWhole) {
    for (size_t r = 0; r < rows; ++r) {
      for (size_t l = 0; l < cols; ++l) c[r * p.c_row + l * p.c_col] = t[r][l];
    }
  }
}

// One tile, as a vector tile when it is full and row-major.
template <typename V>
[[gnu::always_inline]] inline void AnyTile(const Product& p, size_t i,
                                           size_t j, size_t cols,
                                           const double* b, size_t ldb,
                                           size_t k0, size_t kn) {
  const size_t rows = std::min(kTileRows, p.m - i);
  if (rows == kTileRows && cols == kLanes && p.c_col == 1) {
    Tile<V, true>(p, i, rows, j, cols, b, ldb, k0, kn);
  } else {
    Tile<V, false>(p, i, rows, j, cols, b, ldb, k0, kn);
  }
}

// The whole product, column group by column group. A group of kLanes
// contiguous B columns streams in place; any other group (a strided B, or
// the last n % kLanes columns) is first packed into a zero-padded panel,
// kPanelK rows of k at a time, which every row tile of the group reuses.
template <typename V>
[[gnu::always_inline]] inline void TiledProductBody(const Product& p) {
  double panel[kPanelK * kLanes];
  for (size_t j = 0; j < p.n; j += kLanes) {
    const size_t cols = std::min(kLanes, p.n - j);
    if (p.b_j == 1 && cols == kLanes) {
      for (size_t i = 0; i < p.m; i += kTileRows) {
        AnyTile<V>(p, i, j, kLanes, p.b + j, p.b_k, 0, p.kdim);
      }
      continue;
    }
    for (size_t k0 = 0; k0 < p.kdim; k0 += kPanelK) {
      const size_t kn = std::min(kPanelK, p.kdim - k0);
      for (size_t l = 0; l < kLanes; ++l) {
        if (l >= cols) {
          for (size_t k = 0; k < kn; ++k) panel[k * kLanes + l] = 0.0;
          continue;
        }
        const double* src = p.b + (j + l) * p.b_j + k0 * p.b_k;
        for (size_t k = 0; k < kn; ++k) panel[k * kLanes + l] = src[k * p.b_k];
      }
      for (size_t i = 0; i < p.m; i += kTileRows) {
        AnyTile<V>(p, i, j, cols, panel, kLanes, k0, kn);
      }
    }
  }
}

void TiledProductBaseline(const Product& p) { TiledProductBody<Lanes2>(p); }

// The AVX2 variant inlines the same body as its baseline twin. It enables
// AVX2 alone: enabling FMA would let the compiler contract a * b + c into one
// differently rounded instruction. Off x86-64 it is a plain function that
// HostIsa() never selects.
#if defined(__x86_64__)
[[gnu::target("avx2")]]
#endif
void TiledProductAvx2(const Product& p) {
  TiledProductBody<Lanes4>(p);
}

void TiledProduct(Isa isa, const Product& p) {
  if (p.m == 0 || p.n == 0) return;
  if (p.kdim == 0) {  // an empty sum leaves every chain at its start.
    if (!p.accumulate) {
      for (size_t i = 0; i < p.m; ++i) {
        for (size_t j = 0; j < p.n; ++j) p.c[i * p.c_row + j * p.c_col] = 0.0;
      }
    }
    return;
  }
  if (isa == Isa::kAvx2) {
    TiledProductAvx2(p);
  } else {
    TiledProductBaseline(p);
  }
}

// Rows [r0, r1) of Z = X W^T in dot form: both operands stream along
// contiguous rows, four output columns per pass share each load of the X
// row. Rows of X outside full panels take this path: for one to three rows
// a panel would be mostly zero padding.
void TransposeBDotRows(const Matrix& x, const Matrix& w, Matrix* out,
                       size_t r0, size_t r1) {
  const size_t kdim = x.cols();
  const size_t n = w.rows();
  const double* wd = w.data().data();
  for (size_t i = r0; i < r1; ++i) {
    const double* arow = x.data().data() + i * kdim;
    double* orow = out->data().data() + i * n;
    size_t j = 0;
    for (; j + kRowBlock <= n; j += kRowBlock) {
      const double* b0 = wd + (j + 0) * kdim;
      const double* b1 = wd + (j + 1) * kdim;
      const double* b2 = wd + (j + 2) * kdim;
      const double* b3 = wd + (j + 3) * kdim;
      double s0 = 0.0;
      double s1 = 0.0;
      double s2 = 0.0;
      double s3 = 0.0;
      for (size_t k = 0; k < kdim; ++k) {
        const double a = arow[k];
        s0 += a * b0[k];
        s1 += a * b1[k];
        s2 += a * b2[k];
        s3 += a * b3[k];
      }
      orow[j + 0] = s0;
      orow[j + 1] = s1;
      orow[j + 2] = s2;
      orow[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* brow = wd + j * kdim;
      double s = 0.0;
      for (size_t k = 0; k < kdim; ++k) s += arow[k] * brow[k];
      orow[j] = s;
    }
  }
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EADRL_CHECK_EQ(r.size(), cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vec>& rows) {
  EADRL_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  return m;
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Vec Matrix::Row(size_t i) const {
  EADRL_CHECK_LT(i, rows_);
  CountScratch(cols_);
  return Vec(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
}

Vec Matrix::Col(size_t j) const {
  EADRL_CHECK_LT(j, cols_);
  CountScratch(rows_);
  Vec out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

void Matrix::RowInto(size_t i, Vec* out) const {
  EADRL_CHECK_LT(i, rows_);
  out->assign(data_.begin() + i * cols_, data_.begin() + (i + 1) * cols_);
}

void Matrix::ColInto(size_t j, Vec* out) const {
  EADRL_CHECK_LT(j, cols_);
  out->resize(rows_);
  for (size_t i = 0; i < rows_; ++i) (*out)[i] = data_[i * cols_ + j];
}

void Matrix::SetRow(size_t i, const Vec& row) {
  EADRL_CHECK_LT(i, rows_);
  EADRL_CHECK_EQ(row.size(), cols_);
  for (size_t j = 0; j < cols_; ++j) data_[i * cols_ + j] = row[j];
}

Matrix Matrix::Transpose() const {
  CountScratch(data_.size());
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = data_[i * cols_ + j];
  }
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  CountScratch(rows_ * other.cols_);
  Matrix out;
  MatMulInto(other, &out);
  return out;
}

void Matrix::MatMulInto(const Matrix& other, Matrix* out) const {
  math::MatMulInto(HostIsa(), *this, other, out);
}

Matrix Matrix::MatMulTransposeA(const Matrix& other) const {
  CountScratch(cols_ * other.cols_);
  Matrix out;
  MatMulTransposeAInto(other, &out);
  return out;
}

void Matrix::MatMulTransposeAInto(const Matrix& other, Matrix* out,
                                  bool accumulate) const {
  math::MatMulTransposeAInto(HostIsa(), *this, other, out, accumulate);
}

Matrix Matrix::MatMulTransposeB(const Matrix& other) const {
  CountScratch(rows_ * other.rows_);
  Matrix out;
  MatMulTransposeBInto(other, &out);
  return out;
}

void Matrix::MatMulTransposeBInto(const Matrix& other, Matrix* out) const {
  math::MatMulTransposeBInto(HostIsa(), *this, other, out);
}

Vec Matrix::MatVec(const Vec& x) const {
  CountScratch(rows_);
  Vec out;
  MatVecInto(x, &out);
  return out;
}

void Matrix::MatVecInto(const Vec& x, Vec* out) const {
  EADRL_CHK_DIM(x.size(), cols_, "Matrix::MatVec operand");
  EADRL_CHECK_EQ(x.size(), cols_);
  EADRL_CHECK(out != &x);
  out->resize(rows_);
  // Four rows per pass share each load of x (independent accumulator
  // chains); each output element sums over j in ascending order, identical
  // to the single-row loop.
  size_t i = 0;
  for (; i + kRowBlock <= rows_; i += kRowBlock) {
    const double* r0 = &data_[(i + 0) * cols_];
    const double* r1 = &data_[(i + 1) * cols_];
    const double* r2 = &data_[(i + 2) * cols_];
    const double* r3 = &data_[(i + 3) * cols_];
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    for (size_t j = 0; j < cols_; ++j) {
      const double xj = x[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    (*out)[i + 0] = s0;
    (*out)[i + 1] = s1;
    (*out)[i + 2] = s2;
    (*out)[i + 3] = s3;
  }
  for (; i < rows_; ++i) {
    const double* row = &data_[i * cols_];
    double s = 0.0;
    for (size_t j = 0; j < cols_; ++j) s += row[j] * x[j];
    (*out)[i] = s;
  }
}

Vec Matrix::TransposeMatVec(const Vec& x) const {
  CountScratch(cols_);
  Vec out;
  TransposeMatVecInto(x, &out);
  return out;
}

void Matrix::TransposeMatVecInto(const Vec& x, Vec* out) const {
  EADRL_CHK_DIM(x.size(), rows_, "Matrix::TransposeMatVec operand");
  EADRL_CHECK_EQ(x.size(), rows_);
  EADRL_CHECK(out != &x);
  out->assign(cols_, 0.0);
  // Branch-free, so it vectorizes: a zero x[i] adds exact zeros, which leave
  // a finite sum unchanged.
  TransposeMatVecRows(data_.data(), x.data(), rows_, cols_, out->data());
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  EADRL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

void SoftmaxRowsInPlace(Matrix* m) {
  EADRL_CHECK(m->cols() > 0);
  const size_t cols = m->cols();
  for (size_t i = 0; i < m->rows(); ++i) {
    double* row = m->RowPtr(i);
    // Same max-shift/exp/normalize sequence as math::Softmax, element order
    // included, so each row matches the vector call bit for bit.
    double mx = row[0];
    for (size_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (size_t j = 0; j < cols; ++j) row[j] /= sum;
  }
}

void MatMulInto(Isa isa, const Matrix& a, const Matrix& b, Matrix* out) {
  EADRL_CHK_DIM(b.rows(), a.cols(), "Matrix::MatMul inner dimension");
  EADRL_CHECK_EQ(a.cols(), b.rows());
  EADRL_CHECK(out != &a && out != &b);
  const size_t kdim = a.cols();
  const size_t n = b.cols();
  out->Resize(a.rows(), n);
  TiledProduct(isa, {a.data().data(), kdim, 1, b.data().data(), n, 1,
                     out->data().data(), n, 1, a.rows(), n, kdim, false});
}

void MatMulTransposeAInto(Isa isa, const Matrix& a, const Matrix& b,
                          Matrix* out, bool accumulate) {
  // a is K x M, b is K x N; out = a^T * b is M x N.
  EADRL_CHK_DIM(b.rows(), a.rows(), "Matrix::MatMulTransposeA row count");
  EADRL_CHECK_EQ(a.rows(), b.rows());
  EADRL_CHECK(out != &a && out != &b);
  const size_t m = a.cols();
  const size_t n = b.cols();
  if (accumulate) {
    EADRL_CHECK(out->rows() == m && out->cols() == n);
  } else {
    out->Resize(m, n);
  }
  // A(i, k) = a(k, i): a tile's rows are adjacent doubles of row k of `a`.
  // When k indexes batch samples, the ascending-k chain is per-sample
  // gradient accumulation order.
  TiledProduct(isa, {a.data().data(), 1, m, b.data().data(), n, 1,
                     out->data().data(), n, 1, m, n, a.rows(), accumulate});
}

void MatMulTransposeBInto(Isa isa, const Matrix& a, const Matrix& b,
                          Matrix* out) {
  // a is M x K, b is N x K; out = a * b^T is M x N.
  EADRL_CHK_DIM(b.cols(), a.cols(), "Matrix::MatMulTransposeB column count");
  EADRL_CHECK_EQ(a.cols(), b.cols());
  EADRL_CHECK(out != &a && out != &b);
  const size_t kdim = a.cols();
  const size_t n = b.rows();
  out->Resize(a.rows(), n);
  // Computed as out^T = b * a^T over the rows of `a` in full tiles: the
  // tiles' rows are rows of b (the weights, read in place), and the packed
  // panels hold four rows of `a` (the batch) at a time, which is the smaller
  // operand in every forward pass.
  const size_t tiled = a.rows() - a.rows() % kLanes;
  TiledProduct(isa, {b.data().data(), kdim, 1, a.data().data(), 1, kdim,
                     out->data().data(), 1, n, n, tiled, kdim, false});
  TransposeBDotRows(a, b, out, tiled, a.rows());
}

}  // namespace eadrl::math
