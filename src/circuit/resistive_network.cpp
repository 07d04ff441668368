#include "circuit/resistive_network.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

RNode ResistiveNetwork::add_node() {
  fixed_voltage_.emplace_back(std::nullopt);
  injections_.push_back(0.0);
  structure_dirty_ = true;
  solved_ = false;
  return fixed_voltage_.size() - 1;
}

RNode ResistiveNetwork::add_nodes(std::size_t count) {
  require(count > 0, "ResistiveNetwork::add_nodes: count must be positive");
  const RNode first = fixed_voltage_.size();
  fixed_voltage_.resize(fixed_voltage_.size() + count, std::nullopt);
  injections_.resize(injections_.size() + count, 0.0);
  structure_dirty_ = true;
  solved_ = false;
  return first;
}

void ResistiveNetwork::fix_voltage(RNode n, double volts) {
  require(n < node_count(), "ResistiveNetwork::fix_voltage: unknown node");
  fixed_voltage_[n] = volts;
  structure_dirty_ = true;
  solved_ = false;
}

bool ResistiveNetwork::is_fixed(RNode n) const {
  require(n < node_count(), "ResistiveNetwork::is_fixed: unknown node");
  return fixed_voltage_[n].has_value();
}

void ResistiveNetwork::add_conductance(RNode a, RNode b, double g) {
  require(a < node_count() && b < node_count(), "ResistiveNetwork::add_conductance: unknown node");
  require(a != b, "ResistiveNetwork::add_conductance: self-loop");
  require(g > 0.0, "ResistiveNetwork::add_conductance: conductance must be positive");
  elements_.push_back({a, b, g});
  structure_dirty_ = true;
  solved_ = false;
}

void ResistiveNetwork::inject_current(RNode n, double amps) {
  require(n < node_count(), "ResistiveNetwork::inject_current: unknown node");
  injections_[n] += amps;
  solved_ = false;
}

void ResistiveNetwork::set_injection(RNode n, double amps) {
  require(n < node_count(), "ResistiveNetwork::set_injection: unknown node");
  injections_[n] = amps;
  solved_ = false;
}

void ResistiveNetwork::clear_injections() {
  injections_.assign(injections_.size(), 0.0);
  solved_ = false;
}

void ResistiveNetwork::build_system() {
  const std::size_t n = node_count();

  // Unknowns = nodes without a pinned voltage.
  reduced_index_.assign(n, -1);
  std::size_t n_unknown = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!fixed_voltage_[i].has_value()) {
      reduced_index_[i] = static_cast<std::ptrdiff_t>(n_unknown++);
    }
  }
  require(n_unknown < n || n == 0,
          "ResistiveNetwork: at least one node must be pinned (no ground reference)");

  CooBuilder builder(n_unknown, n_unknown);
  dirichlet_rhs_.assign(n_unknown, 0.0);

  for (const auto& e : elements_) {
    const std::ptrdiff_t ia = reduced_index_[e.a];
    const std::ptrdiff_t ib = reduced_index_[e.b];
    if (ia >= 0) {
      builder.add(static_cast<std::size_t>(ia), static_cast<std::size_t>(ia), e.g);
    }
    if (ib >= 0) {
      builder.add(static_cast<std::size_t>(ib), static_cast<std::size_t>(ib), e.g);
    }
    if (ia >= 0 && ib >= 0) {
      builder.add(static_cast<std::size_t>(ia), static_cast<std::size_t>(ib), -e.g);
      builder.add(static_cast<std::size_t>(ib), static_cast<std::size_t>(ia), -e.g);
    } else if (ia >= 0) {
      // b pinned: conductance to a known voltage becomes a RHS term.
      dirichlet_rhs_[static_cast<std::size_t>(ia)] += e.g * *fixed_voltage_[e.b];
    } else if (ib >= 0) {
      dirichlet_rhs_[static_cast<std::size_t>(ib)] += e.g * *fixed_voltage_[e.a];
    }
  }

  reduced_a_ = builder.compress();
  warm_start_.assign(n_unknown, 0.0);

  // Per-node incident-element index (counting sort over endpoints).
  node_elem_ptr_.assign(n + 1, 0);
  for (const auto& e : elements_) {
    ++node_elem_ptr_[e.a + 1];
    ++node_elem_ptr_[e.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    node_elem_ptr_[i + 1] += node_elem_ptr_[i];
  }
  node_elem_idx_.assign(node_elem_ptr_[n], 0);
  {
    std::vector<std::size_t> fill = node_elem_ptr_;
    for (std::size_t k = 0; k < elements_.size(); ++k) {
      node_elem_idx_[fill[elements_[k].a]++] = k;
      node_elem_idx_[fill[elements_[k].b]++] = k;
    }
  }

  structure_dirty_ = false;
  factor_dirty_ = true;
}

std::vector<double> ResistiveNetwork::assemble_rhs() const {
  std::vector<double> rhs = dirichlet_rhs_;
  for (std::size_t i = 0; i < node_count(); ++i) {
    const std::ptrdiff_t ri = reduced_index_[i];
    if (ri >= 0) {
      rhs[static_cast<std::size_t>(ri)] += injections_[i];
    }
  }
  return rhs;
}

void ResistiveNetwork::scatter_solution(const std::vector<double>& reduced) {
  solution_.assign(node_count(), 0.0);
  for (std::size_t i = 0; i < node_count(); ++i) {
    const std::ptrdiff_t ri = reduced_index_[i];
    solution_[i] = (ri >= 0) ? reduced[static_cast<std::size_t>(ri)] : *fixed_voltage_[i];
  }
  solved_ = true;
}

const std::vector<double>& ResistiveNetwork::solve_cg(const CgOptions& options) {
  if (structure_dirty_) {
    build_system();
  }

  std::vector<double> rhs = assemble_rhs();
  CgResult result =
      conjugate_gradient(reduced_a_, rhs, options, warm_start_.empty() ? nullptr : &warm_start_);
  if (!result.converged) {
    throw NumericalError("ResistiveNetwork: CG failed to converge (residual " +
                         std::to_string(result.residual) + ")");
  }
  warm_start_ = result.x;

  scatter_solution(result.x);
  last_result_ = std::move(result);
  last_result_.x.clear();  // full solution lives in solution_
  return solution_;
}

void ResistiveNetwork::factorize() {
  if (structure_dirty_) {
    build_system();
  }
  if (!factor_dirty_) {
    return;
  }
  ldlt_.factorize(reduced_a_);
  factor_dirty_ = false;
}

const std::vector<double>& ResistiveNetwork::solve_factored() {
  factorize();
  const std::vector<double> rhs = assemble_rhs();
  std::vector<double> x;
  ldlt_.solve_into(rhs, x);

  scatter_solution(x);
  last_result_ = CgResult{};
  last_result_.converged = true;
  last_result_.iterations = 0;
  return solution_;
}

std::vector<double> ResistiveNetwork::influence(const std::vector<RNode>& observe,
                                                const std::vector<RNode>& at) {
  factorize();
  constexpr std::size_t kB = SparseLdlt::kBlock;
  const std::size_t n_at = at.size();
  std::vector<double> out(observe.size() * n_at, 0.0);

  // Elimination positions of the free `at` nodes; the backward sweep
  // stops at the earliest of them.
  constexpr std::size_t kPinned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> at_pos(n_at, kPinned);
  std::size_t stop = reduced_a_.rows();
  for (std::size_t a = 0; a < n_at; ++a) {
    require(at[a] < node_count(), "ResistiveNetwork::influence: unknown node");
    const std::ptrdiff_t ri = reduced_index_[at[a]];
    if (ri >= 0) {
      at_pos[a] = ldlt_.position(static_cast<std::size_t>(ri));
      stop = std::min(stop, at_pos[a]);
    }
  }

  // Free observe nodes by elimination position: the forward sweep of a
  // block starts at its first unit entry. A pinned observe node's voltage
  // is insensitive to any injection, so its row stays zero.
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (position, o)
  for (std::size_t o = 0; o < observe.size(); ++o) {
    require(observe[o] < node_count(), "ResistiveNetwork::influence: unknown node");
    const std::ptrdiff_t ri = reduced_index_[observe[o]];
    if (ri >= 0) {
      order.emplace_back(ldlt_.position(static_cast<std::size_t>(ri)), o);
    }
  }
  std::sort(order.begin(), order.end());

  std::vector<double> block(order.empty() ? 0 : reduced_a_.rows() * kB);
  for (std::size_t b = 0; b < order.size(); b += kB) {
    const std::size_t width = std::min(kB, order.size() - b);
    std::fill(block.begin(), block.end(), 0.0);
    for (std::size_t c = 0; c < width; ++c) {
      block[order[b + c].first * kB + c] = 1.0;
    }
    ldlt_.solve_block(block.data(), order[b].first, stop);
    // A is symmetric, so (A^-1 e_obs)[n] = dv(observe)/dI(n).
    for (std::size_t c = 0; c < width; ++c) {
      double* row = out.data() + order[b + c].second * n_at;
      for (std::size_t a = 0; a < n_at; ++a) {
        if (at_pos[a] != kPinned) {
          row[a] = block[at_pos[a] * kB + c];
        }
      }
    }
  }
  return out;
}

double ResistiveNetwork::voltage(RNode n) const {
  require(solved_, "ResistiveNetwork::voltage: solve first");
  require(n < node_count(), "ResistiveNetwork::voltage: unknown node");
  return solution_[n];
}

double ResistiveNetwork::element_current(std::size_t index) const {
  require(solved_, "ResistiveNetwork::element_current: solve first");
  require(index < elements_.size(), "ResistiveNetwork::element_current: unknown element");
  const auto& e = elements_[index];
  return (solution_[e.a] - solution_[e.b]) * e.g;
}

double ResistiveNetwork::pin_current(RNode n) const {
  require(solved_, "ResistiveNetwork::pin_current: solve first");
  require(n < node_count(), "ResistiveNetwork::pin_current: unknown node");
  require(fixed_voltage_[n].has_value(), "ResistiveNetwork::pin_current: node is not pinned");
  // Sum of currents leaving the pinned node through its incident
  // conductances, minus any injection, equals the source current.
  double out = 0.0;
  for (std::size_t p = node_elem_ptr_[n]; p < node_elem_ptr_[n + 1]; ++p) {
    const auto& e = elements_[node_elem_idx_[p]];
    const RNode other = (e.a == n) ? e.b : e.a;
    out += (solution_[n] - solution_[other]) * e.g;
  }
  return out - injections_[n];
}

}  // namespace spinsim
