/// \file unit_injection.hpp
/// Per-node reference for ResistiveNetwork::influence(): one unit
/// injection and one full factored solve per observe node, the way the
/// transfer operator was built before the blocked multi-RHS solve.

#pragma once

#include <cstring>
#include <vector>

#include "circuit/resistive_network.hpp"

namespace spinsim::testing {

/// out[o * at.size() + a] = voltage of at[a] with 1 A injected at
/// observe[o] and no other injection. Takes the network by value so the
/// caller's injections and cached solution stay untouched. Matches
/// influence() bit for bit when every pin sits at 0 V.
inline std::vector<double> unit_injection_reference(ResistiveNetwork net,
                                                    const std::vector<RNode>& observe,
                                                    const std::vector<RNode>& at) {
  net.clear_injections();
  std::vector<double> out(observe.size() * at.size(), 0.0);
  for (std::size_t o = 0; o < observe.size(); ++o) {
    net.set_injection(observe[o], 1.0);
    net.solve_factored();
    for (std::size_t a = 0; a < at.size(); ++a) {
      out[o * at.size() + a] = net.voltage(at[a]);
    }
    net.set_injection(observe[o], 0.0);
  }
  return out;
}

/// Bitwise equality of two double vectors (memcmp, so -0 != +0 and a
/// one-ulp difference fails).
inline bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

}  // namespace spinsim::testing
