/// \file matrix.hpp
/// Dense row-major matrix and vector helpers.
///
/// spinsim's dense needs are modest (MNA systems up to a few thousand
/// unknowns, image-sized data), so this is a deliberately small, owning,
/// bounds-checked container rather than a full BLAS wrapper.

#pragma once

#include <cstddef>
#include <vector>

#include "core/error.hpp"

namespace spinsim {

/// Dense row-major matrix of double.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer lists (row by row).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    SPINSIM_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    SPINSIM_ASSERT(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Raw storage (row-major); useful for tight loops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// y = this * x.
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// C = this * B.
  Matrix multiply(const Matrix& b) const;

  Matrix transposed() const;

  /// Elementwise operations; dimensions must match.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scale);

  /// Frobenius norm.
  double norm() const;

  /// Largest absolute element.
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

// --- free vector helpers (std::vector<double> is the vector type) ---

/// Dot product; sizes must match.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm.
double norm2(const std::vector<double>& v);

/// Largest absolute element (0 for empty).
double max_abs(const std::vector<double>& v);

/// y += alpha * x.
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// Elementwise a - b.
std::vector<double> subtract(const std::vector<double>& a, const std::vector<double>& b);

/// Index of the largest element (first on ties). Requires non-empty input.
std::size_t argmax(const std::vector<double>& v);

/// Index of the smallest element (first on ties). Requires non-empty input.
std::size_t argmin(const std::vector<double>& v);

// --- batched operator application (the recognition hot path) ---

/// Applies a cols x rows row-major operator to a micro-batch of inputs:
///
///     c[q * cols + j] = sum_r op[j * rows + r] * x[q * rows + r]
///
/// `x` holds `batch` input vectors of length `rows` back to back; `c`
/// holds `batch` output vectors of length `cols`.
///
/// Register-blocked over (q, j) tiles so each operator row and each input
/// vector is streamed once per tile, but the reduction over r is kept
/// strictly sequential per (q, j) accumulator — the result is
/// bit-identical to the naive per-query loop
/// `acc = 0.0; for r: acc += op[j][r] * x[q][r]`, which is what
/// lets batched recognition reproduce the sequential recognize() path
/// exactly (no floating-point reassociation).
void gemm_operator_batch(const double* op, const double* x, std::size_t rows, std::size_t cols,
                         std::size_t batch, double* c);

}  // namespace spinsim
