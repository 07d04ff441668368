#include "core/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spinsim {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    require(row.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    eye(i, i) = 1.0;
  }
  return eye;
}

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  require(x.size() == cols_, "Matrix::multiply: dimension mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += row[c] * x[c];
    }
    y[r] = acc;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& b) const {
  require(cols_ == b.rows_, "Matrix::multiply: dimension mismatch");
  Matrix out(rows_, b.cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a_rk = (*this)(r, k);
      if (a_rk == 0.0) {
        continue;
      }
      for (std::size_t c = 0; c < b.cols_; ++c) {
        out(r, c) += a_rk * b(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::+=: dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_, "Matrix::-=: dimension mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Matrix& Matrix::operator*=(double scale) {
  for (auto& v : data_) {
    v *= scale;
  }
  return *this;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double v : data_) {
    acc += v * v;
  }
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) {
    best = std::max(best, std::abs(v));
  }
  return best;
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}
Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}
Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}
Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double max_abs(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    best = std::max(best, std::abs(x));
  }
  return best;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  require(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

std::vector<double> subtract(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "subtract: size mismatch");
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

std::size_t argmax(const std::vector<double>& v) {
  require(!v.empty(), "argmax: empty vector");
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) - v.begin());
}

std::size_t argmin(const std::vector<double>& v) {
  require(!v.empty(), "argmin: empty vector");
  return static_cast<std::size_t>(std::min_element(v.begin(), v.end()) - v.begin());
}

namespace {

// Register-tile size for gemm_operator_batch: 4 queries x 4 operator rows
// gives 16 live accumulators plus 8 streamed operands, comfortably inside
// the 16 callee-visible vector registers on x86-64 and well inside
// aarch64's 32.
constexpr std::size_t kGemmTile = 4;

// Queries per r-major input panel: the batch path hands the kernel chunks
// of this many queries (kMinItemsPerThread), so one panel is one chunk.
constexpr std::size_t kGemmPanel = 16;

// In every tile below, the k-loop (over r) stays outermost and strictly
// sequential: each accumulator starts at 0.0, then sees r = 0, 1, ... in order —
// the exact addition sequence of the scalar matvec.

/// Two queries' values of one operator row as a GCC/Clang vector. The
/// arithmetic is element-wise IEEE, so every lane computes exactly what
/// the scalar loop would. Two lanes is SSE2's native width on baseline
/// x86-64 (wider generic vectors are kept in memory there), and spelling
/// the lanes out keeps the compiler from vectorising along r instead.
typedef double QueryPair __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kPairs = kGemmTile / 2;

/// A full kGemmTile x kGemmTile tile with compile-time bounds. `xt` is
/// the panel at the tile's first query: xt[r * kGemmPanel + qi].
void gemm_full_tile(const double* op, const double* xt, std::size_t rows, std::size_t cols,
                    double* c) {
  QueryPair acc[kGemmTile][kPairs] = {};  // lane l of acc[ji][p] is query 2p + l
  for (std::size_t r = 0; r < rows; ++r) {
    QueryPair x_r[kPairs];
    std::memcpy(x_r, xt + r * kGemmPanel, sizeof x_r);
    for (std::size_t ji = 0; ji < kGemmTile; ++ji) {
      const double a = op[ji * rows + r];
      const QueryPair a_jr{a, a};
      for (std::size_t p = 0; p < kPairs; ++p) {
        acc[ji][p] += a_jr * x_r[p];
      }
    }
  }
  double out[kGemmTile][kGemmTile];  // out[ji][qi]; whole-vector stores keep acc in registers
  std::memcpy(out, acc, sizeof out);
  for (std::size_t qi = 0; qi < kGemmTile; ++qi) {
    for (std::size_t ji = 0; ji < kGemmTile; ++ji) {
      c[qi * cols + ji] = out[ji][qi];
    }
  }
}

/// A remainder tile of qn x jn (each <= kGemmTile), runtime bounds.
void gemm_edge_tile(const double* op, const double* xt, std::size_t rows, std::size_t cols,
                    std::size_t qn, std::size_t jn, double* c) {
  double acc[kGemmTile][kGemmTile] = {};
  for (std::size_t r = 0; r < rows; ++r) {
    double a_jr[kGemmTile];
    for (std::size_t ji = 0; ji < jn; ++ji) {
      a_jr[ji] = op[ji * rows + r];
    }
    for (std::size_t qi = 0; qi < qn; ++qi) {
      const double x_qr = xt[r * kGemmPanel + qi];
      for (std::size_t ji = 0; ji < jn; ++ji) {
        acc[qi][ji] += a_jr[ji] * x_qr;
      }
    }
  }
  for (std::size_t qi = 0; qi < qn; ++qi) {
    for (std::size_t ji = 0; ji < jn; ++ji) {
      c[qi * cols + ji] = acc[qi][ji];
    }
  }
}

}  // namespace

void gemm_operator_batch(const double* op, const double* x, std::size_t rows, std::size_t cols,
                         std::size_t batch, double* c) {
  if (batch == 0 || cols == 0) {
    return;
  }
  // Inputs are transposed panel by panel into r-major thread-local
  // scratch, so a tile reads its kGemmTile queries' operands for one r
  // contiguously.
  thread_local std::vector<double> xt;
  xt.resize(rows * kGemmPanel);
  for (std::size_t p0 = 0; p0 < batch; p0 += kGemmPanel) {
    const std::size_t pn = std::min(kGemmPanel, batch - p0);
    for (std::size_t qi = 0; qi < pn; ++qi) {
      const double* x_q = x + (p0 + qi) * rows;
      for (std::size_t r = 0; r < rows; ++r) {
        xt[r * kGemmPanel + qi] = x_q[r];
      }
    }
    for (std::size_t q0 = 0; q0 < pn; q0 += kGemmTile) {
      const std::size_t qn = std::min(kGemmTile, pn - q0);
      for (std::size_t j0 = 0; j0 < cols; j0 += kGemmTile) {
        const std::size_t jn = std::min(kGemmTile, cols - j0);
        const double* op_tile = op + j0 * rows;
        double* c_tile = c + (p0 + q0) * cols + j0;
        if (qn == kGemmTile && jn == kGemmTile) {
          gemm_full_tile(op_tile, xt.data() + q0, rows, cols, c_tile);
        } else {
          gemm_edge_tile(op_tile, xt.data() + q0, rows, cols, qn, jn, c_tile);
        }
      }
    }
  }
}

}  // namespace spinsim
