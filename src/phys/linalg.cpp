#include "phys/linalg.h"

#include <algorithm>
#include <cmath>

#include "phys/require.h"

namespace carbon::phys {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  CARBON_REQUIRE(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  factor_stored();
  factored_ = true;
}

void LuFactorization::factor(const Matrix& a) {
  factored_ = false;
  lu_ = a;  // reuses lu_'s buffer when the size matches
  factor_stored();
  factored_ = true;
}

void LuFactorization::factor_stored() {
  const int n = lu_.rows();
  CARBON_REQUIRE(n == lu_.cols(), "LU requires a square matrix");
  perm_.resize(n);
  for (int i = 0; i < n; ++i) perm_[i] = i;
  const double amax = std::max(lu_.max_abs(), 1e-300);
  double min_pivot = amax;

  for (int k = 0; k < n; ++k) {
    // Partial pivot: find the largest entry in column k at/below the diagonal.
    int piv = k;
    double best = std::abs(lu_(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) { best = v; piv = i; }
    }
    // NaN compares false against every threshold, so a non-finite pivot
    // candidate must be rejected explicitly or it silently propagates
    // through the elimination into the solution vector.
    if (!std::isfinite(best)) {
      throw SingularMatrixError(
          SingularMatrixError::Kind::kNonFinite, perm_[piv], k,
          "LU: non-finite value in pivot column " + std::to_string(k));
    }
    if (best <= amax * 1e-14) {
      throw SingularMatrixError(
          SingularMatrixError::Kind::kSingular, perm_[piv], k,
          "LU: matrix is numerically singular at column " +
              std::to_string(k));
    }
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
    }
    min_pivot = std::min(min_pivot, best);
    const double inv = 1.0 / lu_(k, k);
    for (int i = k + 1; i < n; ++i) {
      const double factor = lu_(i, k) * inv;
      lu_(i, k) = factor;
      if (factor != 0.0) {
        for (int j = k + 1; j < n; ++j) lu_(i, j) -= factor * lu_(k, j);
      }
    }
  }
  pivot_quality_ = min_pivot / amax;
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  const int n = lu_.rows();
  CARBON_REQUIRE(factored_, "LU: no factorization held");
  CARBON_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) x[i] = b[perm_[i]];
  substitute(x);
  return x;
}

void LuFactorization::solve_in_place(std::vector<double>& bx) const {
  const int n = lu_.rows();
  CARBON_REQUIRE(factored_, "LU: no factorization held");
  CARBON_REQUIRE(static_cast<int>(bx.size()) == n, "rhs size mismatch");
  scratch_.resize(n);
  for (int i = 0; i < n; ++i) scratch_[i] = bx[perm_[i]];
  bx.swap(scratch_);
  substitute(bx);
}

void LuFactorization::substitute(std::vector<double>& x) const {
  const int n = lu_.rows();
  // Forward substitution (unit lower triangle).
  for (int i = 1; i < n; ++i) {
    double s = x[i];
    for (int j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution.
  for (int i = n - 1; i >= 0; --i) {
    double s = x[i];
    for (int j = i + 1; j < n; ++j) s -= lu_(i, j) * x[j];
    x[i] = s / lu_(i, i);
  }
}

std::vector<double> solve_dense(Matrix a, const std::vector<double>& b) {
  return LuFactorization(std::move(a)).solve(b);
}

}  // namespace carbon::phys
