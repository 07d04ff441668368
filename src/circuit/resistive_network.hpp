/// \file resistive_network.hpp
/// Fast path for large grounded resistive networks (the parasitic crossbar).
///
/// Compared to the general MNA, ideal voltage sources are handled as
/// *Dirichlet nodes*: their voltage is known, so they are eliminated from
/// the unknown set. What remains is a symmetric positive-definite
/// conductance system with two solvers:
///  * solve_cg(): Jacobi-preconditioned CG, the iterative reference.
///    Consecutive solves of the same topology warm-start from the previous
///    operating point.
///  * solve_factored() / influence(): a sparse LDL^T factor (RCM
///    ordering), computed once per topology; each solve is then two
///    triangular sweeps. The crossbar's transfer operator is built from
///    this factor.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cg.hpp"
#include "core/cholesky.hpp"
#include "core/sparse.hpp"

namespace spinsim {

/// A node in a ResistiveNetwork (dense index space, no ground node; use a
/// fixed node at 0 V instead).
using RNode = std::size_t;

/// Large resistive network with known-voltage (Dirichlet) nodes.
class ResistiveNetwork {
 public:
  /// Adds a floating node; returns its id.
  RNode add_node();

  /// Adds `count` floating nodes; returns the id of the first.
  RNode add_nodes(std::size_t count);

  std::size_t node_count() const { return fixed_voltage_.size(); }

  /// Pins node `n` to `volts` (an ideal voltage source to ground).
  void fix_voltage(RNode n, double volts);

  /// True if the node is pinned.
  bool is_fixed(RNode n) const;

  /// Adds a conductance `g` (= 1/R) between nodes a and b.
  void add_conductance(RNode a, RNode b, double g);

  /// Injects `amps` into node n (from an ideal current source to ground).
  void inject_current(RNode n, double amps);

  /// Replaces the injection at node n.
  void set_injection(RNode n, double amps);

  /// Clears all current injections (conductances and pins stay).
  void clear_injections();

  /// Solves for all node voltages by CG, warm-started from the previous
  /// solution. Re-solving after only injection changes reuses the
  /// assembled system.
  const std::vector<double>& solve_cg(const CgOptions& options = {});

  /// Solves for all node voltages by the LDL^T factor: factorizes lazily
  /// (once per topology), then back-substitutes. Agrees with solve_cg()
  /// to CG tolerance.
  const std::vector<double>& solve_factored();

  /// Eagerly computes the LDL^T factor of the reduced system (no-op if
  /// already current). Called lazily by solve_factored().
  void factorize();

  /// Nonzeros in the cached LDL^T factor (0 before factorize()).
  std::size_t factor_nnz() const { return ldlt_.factor_nnz(); }

  /// Reciprocity slice of A^-1: out[o * at.size() + a] =
  /// d v(observe[o]) / d I(at[a]), zero where either node is pinned.
  /// One unit-vector solve per observe node, run SparseLdlt::kBlock at a
  /// time through SparseLdlt::solve_block() (observe nodes sorted by
  /// elimination position so each block starts as late as it can); every
  /// entry is bitwise identical to set_injection(observe[o], 1.0) +
  /// solve_factored() on the same network with every pin at 0 V. This is
  /// what lets a crossbar build its transfer operator with one solve per
  /// *output* instead of one per input.
  std::vector<double> influence(const std::vector<RNode>& observe, const std::vector<RNode>& at);

  /// Voltage of node n after the last solve.
  double voltage(RNode n) const;

  /// Current flowing a -> b through the conductance element `index`
  /// (in insertion order) after the last solve.
  double element_current(std::size_t index) const;

  /// Total current delivered by the pin on node n (positive out of the
  /// source into the network) after the last solve.
  double pin_current(RNode n) const;

  /// Number of conductance elements.
  std::size_t element_count() const { return elements_.size(); }

  /// Statistics from the last solve.
  const CgResult& last_result() const { return last_result_; }

 private:
  struct Element {
    RNode a;
    RNode b;
    double g;
  };

  void build_system();
  std::vector<double> assemble_rhs() const;
  void scatter_solution(const std::vector<double>& reduced);

  std::vector<std::optional<double>> fixed_voltage_;
  std::vector<Element> elements_;
  std::vector<double> injections_;

  // Cached reduced system.
  bool structure_dirty_ = true;
  std::vector<std::ptrdiff_t> reduced_index_;  // node -> unknown index or -1
  CsrMatrix reduced_a_;
  std::vector<double> dirichlet_rhs_;  // contribution of pinned nodes
  std::vector<double> solution_;       // full node voltages
  std::vector<double> warm_start_;     // previous reduced solution
  CgResult last_result_;
  bool solved_ = false;

  // Per-node incident-element index (CSR over nodes), built with the
  // system so pin_current() stops scanning every element.
  std::vector<std::size_t> node_elem_ptr_;
  std::vector<std::size_t> node_elem_idx_;

  // Direct-solver state.
  SparseLdlt ldlt_;
  bool factor_dirty_ = true;
};

}  // namespace spinsim
