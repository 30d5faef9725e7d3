#include "math/matrix.h"

#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "math/isa.h"

namespace eadrl::math {
namespace {

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix i = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, RowColAccess) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.Row(1), (Vec{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (Vec{3, 6}));
  m.SetRow(0, {7, 8, 9});
  EXPECT_EQ(m.Row(0), (Vec{7, 8, 9}));
}

TEST(MatrixTest, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MatMul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatVecAndTransposeMatVec) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a.MatVec({1, 1, 1}), (Vec{6, 15}));
  EXPECT_EQ(a.TransposeMatVec({1, 1}), (Vec{5, 7, 9}));
}

TEST(MatrixTest, TransposeMatVecMatchesExplicitTranspose) {
  Matrix a{{1, -2, 0.5}, {3, 4, -1}, {0, 2, 2}, {5, -5, 1}};
  Vec x{0.3, -1.2, 2.0, 0.7};
  Vec direct = a.TransposeMatVec(x);
  Vec via = a.Transpose().MatVec(x);
  ASSERT_EQ(direct.size(), via.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct[i], via[i], 1e-12);
  }
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix a{{1, 1}, {1, 1}};
  Matrix b{{1, 2}, {3, 4}};
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 9.0);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.5);
}

TEST(MatrixTest, Norms) {
  Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
}

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

// ---------------------------------------------------------------------------
// Batch-major kernels. Comparisons are exact (EXPECT_EQ, or bit patterns in
// the sweep): the determinism contract in matrix.h promises the tiled and
// fused kernels reproduce the naive loops exactly, not just approximately.

Matrix PseudoRandom(size_t rows, size_t cols, unsigned seed) {
  // Small LCG so the fixtures need no RNG dependency; values in [-1, 1).
  Matrix m(rows, cols);
  unsigned x = seed * 2654435761u + 1u;
  for (double& v : m.data()) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<double>(x % 20000u) / 10000.0 - 1.0;
  }
  return m;
}

// Naive triple loop in the contract's ascending-k order.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

TEST(MatrixKernelTest, BlockedMatMulMatchesNaiveBitwise) {
  // Shapes straddling the 4-row register block, including remainder rows.
  for (size_t m : {1u, 3u, 4u, 5u, 8u, 17u}) {
    Matrix a = PseudoRandom(m, 7, 1);
    Matrix b = PseudoRandom(7, 5, 2);
    Matrix got = a.MatMul(b);
    Matrix want = NaiveMatMul(a, b);
    ASSERT_EQ(got.rows(), want.rows());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], want.data()[i]) << "m=" << m;
    }
  }
}

TEST(MatrixKernelTest, MatMulTransposeAMatchesMaterializedBitwise) {
  Matrix a = PseudoRandom(6, 4, 3);
  Matrix b = PseudoRandom(6, 5, 4);
  Matrix fused = a.MatMulTransposeA(b);
  Matrix chained = a.Transpose().MatMul(b);
  ASSERT_EQ(fused.rows(), 4u);
  ASSERT_EQ(fused.cols(), 5u);
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused.data()[i], chained.data()[i]);
  }
}

TEST(MatrixKernelTest, MatMulTransposeAAccumulatesInAscendingRowOrder) {
  Matrix a = PseudoRandom(5, 3, 5);
  Matrix b = PseudoRandom(5, 2, 6);
  // Per-sample accumulation: out += a_row_k^T b_row_k, k ascending.
  Matrix want(3, 2, 0.25);
  for (size_t k = 0; k < a.rows(); ++k) {
    for (size_t i = 0; i < 3u; ++i) {
      for (size_t j = 0; j < 2u; ++j) want(i, j) += a(k, i) * b(k, j);
    }
  }
  Matrix got(3, 2, 0.25);
  a.MatMulTransposeAInto(b, &got, /*accumulate=*/true);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]);
  }
}

TEST(MatrixKernelTest, MatMulTransposeBMatchesMaterializedBitwise) {
  for (size_t cols : {1u, 3u, 4u, 6u}) {  // straddle the 4-column tile.
    Matrix x = PseudoRandom(5, 7, 7);
    Matrix w = PseudoRandom(cols, 7, 8);
    Matrix fused = x.MatMulTransposeB(w);
    Matrix chained = x.MatMul(w.Transpose());
    ASSERT_EQ(fused.cols(), cols);
    for (size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(fused.data()[i], chained.data()[i]) << "cols=" << cols;
    }
  }
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Index of the first element whose bits differ, or -1 when all agree.
long FirstMismatch(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return -2;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got.data()[i], want.data()[i])) return static_cast<long>(i);
  }
  return -1;
}

// Every product on every kernel variant against the naive ascending-k loop,
// bit for bit, over row, column and contraction sizes that hit full tiles
// and every remainder, plus an empty contraction (k = 0).
TEST(MatrixKernelTest, ProductsMatchNaiveLoopsOnEveryIsa) {
  const size_t sizes[] = {1, 3, 4, 7, 8, 9, 16, 17, 43, 64};
  const size_t contractions[] = {0, 1, 3, 4, 7, 8, 9, 16, 17, 43, 64};
  for (size_t m : sizes) {
    for (size_t n : sizes) {
      for (size_t k : contractions) {
        const Matrix a = PseudoRandom(m, k, 21);     // m x k
        const Matrix b = PseudoRandom(k, n, 22);     // k x n
        const Matrix at = PseudoRandom(k, m, 23);    // k x m
        const Matrix bt = PseudoRandom(n, k, 24);    // n x k
        const Matrix start = PseudoRandom(m, n, 25);
        Matrix mm(m, n);
        Matrix ta(m, n);
        Matrix ta_acc(m, n);
        Matrix tb(m, n);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double s_mm = 0.0;
            double s_ta = 0.0;
            double s_acc = start.data()[i * n + j];
            double s_tb = 0.0;
            for (size_t q = 0; q < k; ++q) {
              s_mm += a.data()[i * k + q] * b.data()[q * n + j];
              s_ta += at.data()[q * m + i] * b.data()[q * n + j];
              s_acc += at.data()[q * m + i] * b.data()[q * n + j];
              s_tb += a.data()[i * k + q] * bt.data()[j * k + q];
            }
            mm.data()[i * n + j] = s_mm;
            ta.data()[i * n + j] = s_ta;
            ta_acc.data()[i * n + j] = s_acc;
            tb.data()[i * n + j] = s_tb;
          }
        }
        for (Isa isa : {Isa::kBaseline, HostIsa()}) {
          const std::string shape = "isa=" +
                                    std::to_string(static_cast<int>(isa)) +
                                    " m=" + std::to_string(m) +
                                    " n=" + std::to_string(n) +
                                    " k=" + std::to_string(k);
          Matrix got;
          MatMulInto(isa, a, b, &got);
          EXPECT_EQ(FirstMismatch(got, mm), -1) << "MatMul " << shape;
          MatMulTransposeAInto(isa, at, b, &got, /*accumulate=*/false);
          EXPECT_EQ(FirstMismatch(got, ta), -1) << "TransposeA " << shape;
          got = start;
          MatMulTransposeAInto(isa, at, b, &got, /*accumulate=*/true);
          EXPECT_EQ(FirstMismatch(got, ta_acc), -1)
              << "TransposeA accumulate " << shape;
          MatMulTransposeBInto(isa, a, bt, &got);
          EXPECT_EQ(FirstMismatch(got, tb), -1) << "TransposeB " << shape;
        }
      }
    }
  }
}

// A contraction longer than one packed panel (256) continues each chain
// across panels without reordering it.
TEST(MatrixKernelTest, LongContractionMatchesNaiveOnEveryIsa) {
  const Matrix x = PseudoRandom(8, 600, 31);
  const Matrix w = PseudoRandom(7, 600, 32);
  Matrix want(8, 7);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 7; ++j) {
      double s = 0.0;
      for (size_t q = 0; q < 600; ++q) s += x(i, q) * w(j, q);
      want(i, j) = s;
    }
  }
  for (Isa isa : {Isa::kBaseline, HostIsa()}) {
    Matrix got;
    MatMulTransposeBInto(isa, x, w, &got);
    EXPECT_EQ(FirstMismatch(got, want), -1) << static_cast<int>(isa);
  }
}

TEST(MatrixKernelTest, TransposeMatVecKeepsExactZeroHandling) {
  // The branch-free kernel must match the old skip-zero loop on values
  // (a skipped term and an added 0.0*row term agree for finite rows).
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  Vec x{2.0, 0.0, -1.0};
  Vec got = a.TransposeMatVec(x);
  EXPECT_EQ(got, (Vec{2.0 * 1 - 5, 2.0 * 2 - 6}));
}

// TransposeMatVec against the naive loop, bit for bit: each output element
// is one chain over the rows in ascending order from 0.0, at row counts that
// hit the four-row passes and every remainder.
TEST(MatrixKernelTest, TransposeMatVecMatchesNaiveLoopBitwise) {
  for (size_t m : {1, 3, 4, 5, 7, 8, 9, 16, 17, 43, 96}) {
    for (size_t n : {1, 3, 4, 7, 24}) {
      const Matrix a = PseudoRandom(m, n, 41);
      const Vec x = PseudoRandom(1, m, 42).data();
      Matrix want(1, n);
      for (size_t j = 0; j < n; ++j) {
        double s = 0.0;
        for (size_t i = 0; i < m; ++i) s += x[i] * a.data()[i * n + j];
        want.data()[j] = s;
      }
      Matrix got(1, n);
      a.TransposeMatVecInto(x, &got.data());
      EXPECT_EQ(FirstMismatch(got, want), -1) << "m=" << m << " n=" << n;
    }
  }
}

TEST(MatrixKernelTest, IntoVariantsReuseCapacityAcrossShapes) {
  Matrix a = PseudoRandom(6, 6, 9);
  Matrix b = PseudoRandom(6, 6, 10);
  Matrix out;
  a.MatMulInto(b, &out);
  const double* warm = out.data().data();
  a.MatMulInto(b, &out);  // same shape: must not reallocate.
  EXPECT_EQ(out.data().data(), warm);
  Vec v;
  a.RowInto(2, &v);
  EXPECT_EQ(v, a.Row(2));
  a.ColInto(3, &v);
  EXPECT_EQ(v, a.Col(3));
  Vec y;
  a.MatVecInto(v, &y);
  EXPECT_EQ(y, a.MatVec(v));
}

TEST(MatrixKernelTest, ResizeKeepsCapacityAndShape) {
  Matrix m(4, 8, 1.0);
  const double* warm = m.data().data();
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  m.Resize(4, 8);
  EXPECT_EQ(m.data().data(), warm);  // never shrank capacity.
}

TEST(MatrixKernelTest, SoftmaxRowsMatchesVectorSoftmaxBitwise) {
  Matrix m = PseudoRandom(5, 9, 11);
  m.Scale(3.0);  // spread the logits a bit.
  Matrix rows = m;
  SoftmaxRowsInPlace(&rows);
  for (size_t r = 0; r < m.rows(); ++r) {
    Vec want = Softmax(m.Row(r));
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(rows(r, j), want[j]);
    }
  }
}

}  // namespace
}  // namespace eadrl::math
