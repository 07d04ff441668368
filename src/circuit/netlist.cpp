#include "circuit/netlist.hpp"

namespace spinsim {

NodeId Netlist::add_node(const std::string& label) {
  labels_.push_back(label);
  return labels_.size();  // node ids start at 1; 0 is ground
}

std::string Netlist::node_label(NodeId n) const {
  if (n == kGround) {
    return "gnd";
  }
  require(n < node_count(), "Netlist::node_label: unknown node");
  return labels_[n - 1];
}

void Netlist::check_node(NodeId n, const char* context) const {
  if (n >= node_count()) {
    throw InvalidArgument(std::string(context) + ": node id out of range");
  }
}

void Netlist::add_resistor(NodeId a, NodeId b, double resistance, std::string name) {
  check_node(a, "add_resistor");
  check_node(b, "add_resistor");
  require(resistance > 0.0, "add_resistor: resistance must be positive");
  require(a != b, "add_resistor: both terminals on the same node");
  resistors_.push_back({a, b, resistance, std::move(name)});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double capacitance, double initial_voltage,
                            std::string name) {
  check_node(a, "add_capacitor");
  check_node(b, "add_capacitor");
  require(capacitance > 0.0, "add_capacitor: capacitance must be positive");
  require(a != b, "add_capacitor: both terminals on the same node");
  capacitors_.push_back({a, b, capacitance, initial_voltage, std::move(name)});
}

void Netlist::add_current_source(NodeId from, NodeId to, double amps, std::string name) {
  check_node(from, "add_current_source");
  check_node(to, "add_current_source");
  current_sources_.push_back({from, to, amps, std::move(name)});
}

std::size_t Netlist::add_voltage_source(NodeId p, NodeId n, double volts, std::string name) {
  check_node(p, "add_voltage_source");
  check_node(n, "add_voltage_source");
  voltage_sources_.push_back({p, n, volts, std::move(name)});
  return voltage_sources_.size() - 1;
}

void Netlist::add_vccs(NodeId a, NodeId b, NodeId cp, NodeId cn, double gm, std::string name) {
  check_node(a, "add_vccs");
  check_node(b, "add_vccs");
  check_node(cp, "add_vccs");
  check_node(cn, "add_vccs");
  vccs_.push_back({a, b, cp, cn, gm, std::move(name)});
}

}  // namespace spinsim
