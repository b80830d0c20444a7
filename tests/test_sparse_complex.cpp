// Complex sparse LU (SparseLuZ): correctness against the dense complex
// reference solve, symbolic-pattern reuse across refactors, singularity
// detection, and the transpose (adjoint) solve.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "phys/linalg_complex.h"
#include "phys/require.h"
#include "phys/sparse.h"

namespace {

using carbon::phys::Complex;
using carbon::phys::ComplexMatrix;
using carbon::phys::SparseLuZ;
using carbon::phys::SparseMatrixZ;

/// Deterministic pseudo-random complex value in [-1, 1]^2.
Complex hash_value(int r, int c) {
  const double a = std::sin(12.9898 * (r + 1) + 78.233 * (c + 1)) * 43758.55;
  const double b = std::sin(39.3467 * (r + 1) + 11.135 * (c + 1)) * 24634.62;
  return {a - std::floor(a) - 0.5, b - std::floor(b) - 0.5};
}

/// Tridiagonal-plus-corners test pattern with a dominant diagonal — the
/// shape of an RC-ladder AC matrix.
SparseMatrixZ make_test_matrix(int n) {
  std::vector<std::pair<int, int>> coords;
  for (int i = 0; i < n; ++i) {
    coords.emplace_back(i, i);
    if (i > 0) coords.emplace_back(i, i - 1);
    if (i + 1 < n) coords.emplace_back(i, i + 1);
  }
  coords.emplace_back(0, n - 1);
  coords.emplace_back(n - 1, 0);
  SparseMatrixZ m = SparseMatrixZ::from_coords(n, coords);
  for (int i = 0; i < n; ++i) {
    for (int t = m.row_ptr()[i]; t < m.row_ptr()[i + 1]; ++t) {
      const int j = m.col_idx()[t];
      m.values()[t] = hash_value(i, j) + (i == j ? Complex{4.0, 2.0} : 0.0);
    }
  }
  return m;
}

std::vector<Complex> make_rhs(int n) {
  std::vector<Complex> b(n);
  for (int i = 0; i < n; ++i) b[i] = hash_value(i, 7 * i + 3);
  return b;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(SparseLuZ, MatchesDenseComplexSolve) {
  const int n = 40;
  const SparseMatrixZ a = make_test_matrix(n);
  const std::vector<Complex> b = make_rhs(n);

  SparseLuZ lu;
  lu.factor(a);
  const std::vector<Complex> x_sparse = lu.solve(b);
  const std::vector<Complex> x_dense =
      carbon::phys::solve_dense_complex(a.to_dense(), b);
  EXPECT_LT(max_abs_diff(x_sparse, x_dense), 1e-11);
}

TEST(SparseLuZ, RefactorReusesSymbolicAnalysis) {
  const int n = 64;
  SparseMatrixZ a = make_test_matrix(n);
  SparseLuZ lu;
  lu.factor(a);
  EXPECT_EQ(lu.analyze_count(), 1);

  // Rescale the values (an AC sweep moving in frequency) and refactor: the
  // pattern analysis must be reused, and the solves must stay correct.
  for (int pass = 0; pass < 5; ++pass) {
    for (auto& v : a.values()) v *= Complex{1.0, 0.15};
    lu.factor(a);
    const std::vector<Complex> b = make_rhs(n);
    const std::vector<Complex> x = lu.solve(b);
    const std::vector<Complex> x_ref =
        carbon::phys::solve_dense_complex(a.to_dense(), b);
    EXPECT_LT(max_abs_diff(x, x_ref), 1e-10) << "pass " << pass;
  }
  EXPECT_EQ(lu.analyze_count(), 1);
}

TEST(SparseLuZ, SingularDetected) {
  // Row 1 = 2 * row 0 on a shared pattern.
  SparseMatrixZ m = SparseMatrixZ::from_coords(
      2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  m.values()[0] = {1.0, 1.0};
  m.values()[1] = {2.0, 0.0};
  m.values()[2] = {2.0, 2.0};
  m.values()[3] = {4.0, 0.0};
  SparseLuZ lu;
  EXPECT_THROW(lu.analyze_factor(m), carbon::phys::ConvergenceError);
}

TEST(SparseLuZ, SingularityCarriesTypedRowAndColumn) {
  using carbon::phys::SingularMatrixError;
  SparseMatrixZ m = SparseMatrixZ::from_coords(
      2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  m.values()[0] = {1.0, 1.0};
  m.values()[1] = {2.0, 0.0};
  m.values()[2] = {2.0, 2.0};
  m.values()[3] = {4.0, 0.0};
  SparseLuZ lu;
  try {
    lu.analyze_factor(m);
    FAIL() << "rank-1 complex matrix factored";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.kind(), SingularMatrixError::Kind::kSingular);
    EXPECT_GE(e.row(), 0);
    EXPECT_LT(e.row(), 2);
    EXPECT_GE(e.col(), 0);
    EXPECT_LT(e.col(), 2);
  }
}

TEST(SparseLuZ, TransposeSolveMatchesExplicitTranspose) {
  const int n = 32;
  const SparseMatrixZ a = make_test_matrix(n);
  const std::vector<Complex> b = make_rhs(n);

  SparseLuZ lu;
  lu.factor(a);
  std::vector<Complex> x = b;
  lu.solve_transpose_in_place(x);

  // Reference: solve with the explicitly transposed dense matrix.
  const ComplexMatrix ad = a.to_dense();
  ComplexMatrix at(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) at(r, c) = ad(c, r);
  }
  const std::vector<Complex> x_ref =
      carbon::phys::solve_dense_complex(at, b);
  EXPECT_LT(max_abs_diff(x, x_ref), 1e-11);

  // And A^T x must reproduce b.
  std::vector<Complex> atx(n);
  for (int r = 0; r < n; ++r) {
    Complex s{};
    for (int c = 0; c < n; ++c) s += at(r, c) * x[c];
    atx[r] = s;
  }
  EXPECT_LT(max_abs_diff(atx, b), 1e-11);
}

TEST(SparseMatrixZ, SlotAndDenseRoundTrip) {
  SparseMatrixZ m =
      SparseMatrixZ::from_coords(3, {{0, 0}, {1, 2}, {2, 1}, {1, 2}});
  EXPECT_EQ(m.nnz(), 3);  // duplicate merged
  const int s = m.slot(1, 2);
  ASSERT_GE(s, 0);
  m.values()[s] = {1.5, -2.5};
  EXPECT_EQ(m.at(1, 2), (Complex{1.5, -2.5}));
  EXPECT_EQ(m.at(0, 1), Complex{});
  const ComplexMatrix d = m.to_dense();
  EXPECT_EQ(d(1, 2), (Complex{1.5, -2.5}));
  EXPECT_EQ(d(0, 1), Complex{});
}

}  // namespace
