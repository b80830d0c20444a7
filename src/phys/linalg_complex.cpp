#include "phys/linalg_complex.h"

#include <algorithm>
#include <cmath>

#include "phys/require.h"

namespace carbon::phys {

ComplexMatrix::ComplexMatrix(int rows, int cols, Complex fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * cols, fill) {
  CARBON_REQUIRE(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
}

double ComplexMatrix::max_abs() const {
  double m = 0.0;
  for (const Complex& v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::vector<Complex> solve_dense_complex(ComplexMatrix a,
                                         std::vector<Complex> b) {
  const int n = a.rows();
  CARBON_REQUIRE(n == a.cols(), "LU requires a square matrix");
  CARBON_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
  const double amax = std::max(a.max_abs(), 1e-300);

  for (int k = 0; k < n; ++k) {
    int piv = k;
    double best = std::abs(a(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) { best = v; piv = i; }
    }
    // NaN compares false against every threshold, so a non-finite pivot
    // column is rejected explicitly instead of surviving the search.
    if (!std::isfinite(best) || best <= amax * 1e-14) {
      throw ConvergenceError(
          "complex LU: singular or non-finite pivot at column " +
          std::to_string(k));
    }
    if (piv != k) {
      for (int j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (int i = k + 1; i < n; ++i) {
      const Complex factor = a(i, k) / a(k, k);
      if (factor == Complex{}) continue;
      for (int j = k + 1; j < n; ++j) a(i, j) -= factor * a(k, j);
      b[i] -= factor * b[k];
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    Complex s = b[i];
    for (int j = i + 1; j < n; ++j) s -= a(i, j) * b[j];
    b[i] = s / a(i, i);
  }
  return b;
}

}  // namespace carbon::phys
