/// \file cholesky.hpp
/// Sparse LDL^T (Cholesky) factorization for SPD conductance systems.
///
/// The parasitic crossbar produces one fixed SPD matrix per programming
/// state; only the right-hand side (the injection vector) changes between
/// recognitions. Factoring once and back-substituting per query replaces
/// the per-query CG iteration loop with two sparse triangular solves —
/// the numerical core of the direct-solver recognition path.
///
/// The factorization is the classic up-looking LDL^T: an elimination-tree
/// symbolic pass sizes L exactly, then a numeric pass fills it column by
/// column with a sparse triangular solve per row. A reverse Cuthill-McKee
/// pre-ordering keeps fill low on the grid-like crossbar graphs (the
/// natural node order of a rows x cols array already has bandwidth
/// ~min(rows, cols); RCM makes the factor size robust to arbitrary
/// grounded networks as well).
///
/// Besides the single-vector solve, solve_block() runs kBlock right-hand
/// sides interleaved through one forward and one backward sweep, so L is
/// streamed once per block instead of once per vector. That is how a
/// crossbar builds its transfer operator (one unit right-hand side per
/// output column): each block result is bitwise identical to solve_into()
/// on the same vector, because every lane repeats solve_into()'s
/// arithmetic in the same order, and the two places where the block sweep
/// does less work skip only operations that cannot change a bit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sparse.hpp"

namespace spinsim {

/// Fill-reducing ordering computed from the symmetric pattern of `a`:
/// breadth-first levels from a low-degree start node, neighbours visited
/// in degree order, then reversed. Returns `perm` with perm[k] = original
/// index of the k-th node in the new ordering. Handles disconnected
/// patterns (each component is ordered in turn).
std::vector<std::size_t> reverse_cuthill_mckee(const CsrMatrix& a);

/// Options for SparseLdlt::factorize().
struct LdltOptions {
  bool use_rcm_ordering = true;  ///< permute with reverse_cuthill_mckee()
};

/// Sparse LDL^T factorization P A P^T = L D L^T of an SPD matrix.
class SparseLdlt {
 public:
  /// Factors `a` (symmetric positive definite, full pattern stored, as
  /// produced by CooBuilder::compress). Throws NumericalError if a
  /// non-positive pivot appears (matrix not SPD / singular).
  void factorize(const CsrMatrix& a, const LdltOptions& options = {});

  /// False until factorize() completes successfully (a throwing
  /// factorize() leaves the object unusable until the next success).
  bool factorized() const { return factorized_; }

  std::size_t dimension() const { return n_; }

  /// Nonzeros in L (strictly lower triangle), a proxy for solve cost.
  std::size_t factor_nnz() const { return l_values_.size(); }

  /// The fill-reducing permutation used (perm[k] = original index).
  const std::vector<std::size_t>& permutation() const { return perm_; }

  /// Solves A x = b via forward/backward substitution. Throws
  /// InvalidArgument if not factorized or b has the wrong length.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Allocation-free variant; x is resized as needed.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  /// Right-hand sides per solve_block() call (unused lanes hold zeros).
  static constexpr std::size_t kBlock = 16;

  /// Elimination position of original index i (inverse of permutation()).
  std::size_t position(std::size_t i) const { return inv_perm_[i]; }

  /// Solves A x = b in place for kBlock right-hand sides interleaved in
  /// permuted order: `x` (caller-owned, dimension() * kBlock values)
  /// holds entry perm[k] of lane c at x[k * kBlock + c]. Each lane's
  /// result is bitwise identical to solve_into() on that lane, given:
  ///  * `first`: every entry at a position below `first` is +0 and no
  ///    entry is -0 (unit vectors qualify). The forward sweep starts at
  ///    `first`; the columns it skips would only subtract l * (+0) = +-0
  ///    from +0 or a nonzero, which changes nothing (L is finite: every
  ///    pivot passed the SPD check).
  ///  * `stop`: only positions >= stop are wanted. D scaling and the
  ///    backward sweep stop there (row j of L^T reads only positions
  ///    after j); entries below `stop` are left unspecified on return.
  void solve_block(double* x, std::size_t first, std::size_t stop) const;

 private:
  std::size_t n_ = 0;
  bool factorized_ = false;
  std::vector<std::size_t> perm_;      // new -> old
  std::vector<std::size_t> inv_perm_;  // old -> new
  // L in compressed-column form (strictly lower triangle), D diagonal.
  // Row indices are 32-bit (factorize() checks n fits): half the index
  // traffic of every sweep.
  std::vector<std::size_t> l_col_ptr_;
  std::vector<std::uint32_t> l_row_idx_;
  std::vector<double> l_values_;
  std::vector<double> d_;
  mutable std::vector<double> work_;  // permuted rhs / solution scratch
};

}  // namespace spinsim
