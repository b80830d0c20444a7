#pragma once

/// @file linalg.h
/// Dense linear algebra: a row-major matrix type (SparseMatrix::to_dense)
/// and LU factorization with partial pivoting — the dense reference solve
/// that tests check the circuit solver's sparse engine (phys/sparse.h)
/// against.

#include <vector>

namespace carbon::phys {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0);

  double& operator()(int r, int c) { return data_[r * cols_ + c]; }
  double operator()(int r, int c) const { return data_[r * cols_ + c]; }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Set every entry to @p value.
  void fill(double value);

  /// Max-abs entry (used for convergence diagnostics).
  double max_abs() const;

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
/// Throws SingularMatrixError (a ConvergenceError carrying the failing
/// row/column) on numerical singularity or when a non-finite value reaches
/// the pivot search — NaNs are rejected at the factorization boundary, never
/// propagated into a solution vector.
///
/// Besides the one-shot constructor the class doubles as a reusable
/// workspace: a default-constructed instance can be refactored repeatedly
/// with factor(), which reuses the internal pivot/LU storage — after the
/// first call on a given size, refactor + solve_in_place perform no heap
/// allocation.
class LuFactorization {
 public:
  /// Empty workspace: call factor() before solving.
  LuFactorization() = default;

  /// Factor @p a in-place (a copy is stored).
  explicit LuFactorization(Matrix a);

  /// (Re)factor @p a, reusing the existing storage when the size matches.
  /// Throws SingularMatrixError on singularity or a non-finite pivot
  /// column (factored() stays false).
  void factor(const Matrix& a);

  /// True when a valid factorization is held.
  bool factored() const { return factored_; }

  /// Solve A x = b; returns x.  Safe to call concurrently on a shared
  /// factorization (allocates its own work vector).
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A x = b with b supplied (and x returned) in @p bx — no
  /// allocation (an internal scratch buffer is reused, so concurrent
  /// solve_in_place calls on one instance are NOT safe).
  void solve_in_place(std::vector<double>& bx) const;

  /// Reciprocal pivot-growth estimate: min|pivot| / max|A| (0 = singular).
  double pivot_quality() const { return pivot_quality_; }

 private:
  void factor_stored();
  /// Forward + back substitution on a permuted RHS.
  void substitute(std::vector<double>& x) const;

  Matrix lu_;
  std::vector<int> perm_;
  mutable std::vector<double> scratch_;
  double pivot_quality_ = 0.0;
  bool factored_ = false;
};

/// One-shot solve of A x = b.
std::vector<double> solve_dense(Matrix a, const std::vector<double>& b);

}  // namespace carbon::phys
