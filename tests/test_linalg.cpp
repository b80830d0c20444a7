// Dense LU: the reference solve the sparse-engine tests compare against.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "phys/linalg.h"
#include "phys/require.h"

namespace {

using carbon::phys::LuFactorization;
using carbon::phys::Matrix;
using carbon::phys::solve_dense;

TEST(Matrix, StorageAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 0.0);
}

TEST(Lu, Solves2x2Exactly) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const auto x = solve_dense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotsOnZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  const auto x = solve_dense(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingularity) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(LuFactorization{a}, carbon::phys::ConvergenceError);
}

TEST(Lu, SingularityCarriesTypedRowAndColumn) {
  using carbon::phys::SingularMatrixError;
  Matrix a(3, 3);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(0, 2) = 0.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0; a(1, 2) = 0.0;  // row 1 = 2 * row 0
  a(2, 2) = 1.0;
  try {
    LuFactorization lu{a};
    FAIL() << "rank-deficient matrix factored";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.kind(), SingularMatrixError::Kind::kSingular);
    // The collapse happens at elimination step 1 on one of the two
    // dependent original rows.
    EXPECT_EQ(e.col(), 1);
    EXPECT_TRUE(e.row() == 0 || e.row() == 1) << e.row();
  }
}

TEST(Lu, NonFinitePivotIsTypedNotSilent) {
  using carbon::phys::SingularMatrixError;
  Matrix a(2, 2);
  a(0, 0) = std::nan(""); a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0;
  try {
    LuFactorization lu{a};
    FAIL() << "NaN matrix factored";
  } catch (const SingularMatrixError& e) {
    EXPECT_EQ(e.kind(), SingularMatrixError::Kind::kNonFinite);
    EXPECT_GE(e.row(), 0);
  }
}

TEST(Lu, RandomSystemsResidualSmall) {
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 12;
    Matrix a(n, n);
    std::vector<double> b(n);
    for (int i = 0; i < n; ++i) {
      b[i] = u(gen);
      for (int j = 0; j < n; ++j) a(i, j) = u(gen);
      a(i, i) += 4.0;  // diagonally dominant: well conditioned
    }
    const auto x = solve_dense(a, b);
    // residual
    double worst = 0.0;
    for (int i = 0; i < n; ++i) {
      double r = -b[i];
      for (int j = 0; j < n; ++j) r += a(i, j) * x[j];
      worst = std::max(worst, std::abs(r));
    }
    EXPECT_LT(worst, 1e-11);
  }
}

TEST(Lu, FactorizationReusableForManyRhs) {
  Matrix a(3, 3);
  a(0, 0) = 4; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 4; a(1, 2) = 1;
  a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 4;
  const LuFactorization lu(a);
  const auto x1 = lu.solve({1.0, 0.0, 0.0});
  const auto x2 = lu.solve({0.0, 0.0, 1.0});
  // Symmetric matrix: solutions mirror each other.
  EXPECT_NEAR(x1[0], x2[2], 1e-13);
  EXPECT_NEAR(x1[2], x2[0], 1e-13);
  EXPECT_GT(lu.pivot_quality(), 0.0);
}

// ---- the reusable-workspace API the SPICE Newton loop runs on ----

TEST(LuWorkspace, RefactorMatchesSolveDenseAcrossReuses) {
  std::mt19937 gen(21);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  LuFactorization lu;
  EXPECT_FALSE(lu.factored());
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 10;
    Matrix a(n, n);
    std::vector<double> b(n);
    for (int i = 0; i < n; ++i) {
      b[i] = u(gen);
      for (int j = 0; j < n; ++j) a(i, j) = u(gen) + (i == j ? 4.0 : 0.0);
    }
    lu.factor(a);
    EXPECT_TRUE(lu.factored());
    std::vector<double> x = b;
    lu.solve_in_place(x);
    const auto x_ref = solve_dense(a, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-11);
  }
}

TEST(LuWorkspace, HandlesSizeChanges) {
  LuFactorization lu;
  for (int n : {3, 8, 2, 12}) {
    Matrix a(n, n);
    for (int i = 0; i < n; ++i) a(i, i) = 2.0 + i;
    lu.factor(a);
    std::vector<double> x(n, 1.0);
    lu.solve_in_place(x);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0 / (2.0 + i), 1e-13);
  }
}

TEST(LuWorkspace, SingularityThrowsAndWorkspaceRecovers) {
  LuFactorization lu;
  Matrix bad(2, 2);
  bad(0, 0) = 1.0; bad(0, 1) = 2.0;
  bad(1, 0) = 2.0; bad(1, 1) = 4.0;
  EXPECT_THROW(lu.factor(bad), carbon::phys::ConvergenceError);
  EXPECT_FALSE(lu.factored());
  std::vector<double> x{1.0, 1.0};
  EXPECT_THROW(lu.solve_in_place(x), carbon::phys::PreconditionError);

  Matrix good(2, 2);
  good(0, 0) = 2.0; good(0, 1) = 0.0;
  good(1, 0) = 0.0; good(1, 1) = 4.0;
  lu.factor(good);
  x = {2.0, 4.0};
  lu.solve_in_place(x);
  EXPECT_NEAR(x[0], 1.0, 1e-13);
  EXPECT_NEAR(x[1], 1.0, 1e-13);
}

}  // namespace
