#pragma once

/// @file linalg_complex.h
/// Dense complex linear algebra: the Complex scalar of the small-signal
/// engine, a dense complex matrix (SparseMatrixZ::to_dense) and the dense
/// reference solve that tests check the complex sparse LU against.

#include <complex>
#include <vector>

namespace carbon::phys {

using Complex = std::complex<double>;

/// Dense row-major complex matrix.
class ComplexMatrix {
 public:
  ComplexMatrix() = default;
  ComplexMatrix(int rows, int cols, Complex fill = {});

  Complex& operator()(int r, int c) { return data_[r * cols_ + c]; }
  Complex operator()(int r, int c) const { return data_[r * cols_ + c]; }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double max_abs() const;

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<Complex> data_;
};

/// Solve A x = b by Gaussian elimination with partial pivoting (A and b
/// copied).  Throws ConvergenceError on numerical singularity or a
/// non-finite pivot column.
std::vector<Complex> solve_dense_complex(ComplexMatrix a,
                                         std::vector<Complex> b);

}  // namespace carbon::phys
