// Dense row-major matrix over a numeric scalar.
//
// The circuits in this repository have at most a few dozen MNA unknowns, so a
// simple dense representation is both adequate and the fastest option at this
// size.  The same template instantiates for double (DC Newton iterations, the
// AC pencil) and std::complex<double> (the dense AC reference in tests and
// benches).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace ota::linalg {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  T& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Resizes and zero-fills; existing contents are discarded.
  void reset(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;

/// Matrix-vector product y = A x.
template <typename T>
std::vector<T> matvec(const Matrix<T>& a, const std::vector<T>& x) {
  if (a.cols() != x.size()) throw InvalidArgument("matvec: dimension mismatch");
  std::vector<T> y(a.rows(), T{});
  for (size_t r = 0; r < a.rows(); ++r) {
    T acc{};
    for (size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

}  // namespace ota::linalg
