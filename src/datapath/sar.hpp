/// \file sar.hpp
/// Successive-approximation register (paper Fig. 10, first half).
///
/// Standard SAR control: start at mid-scale (MSB set), and on each cycle
/// keep or clear the bit under test depending on the comparator verdict,
/// then set the next lower bit. After `bits` cycles the register holds
/// the digitised input.

#pragma once

#include <cstdint>

#include "core/error.hpp"

namespace spinsim {

/// Code a conversion of `bits` bits starts from: mid-scale, MSB set.
constexpr std::uint32_t sar_start_code(unsigned bits) { return 1u << (bits - 1u); }

/// One SAR step on a raw code: `bit` is the bit under test (MSB =
/// bits-1). A false verdict clears it; then the next lower bit, if any,
/// is set for testing. SarRegister::feed() and the packed WTA bank both
/// step through here, so the two cannot disagree.
/// Branch-free: the WTA bank calls it on data-dependent verdicts.
constexpr std::uint32_t sar_step(std::uint32_t code, unsigned bit, bool input_above_dac) {
  code &= ~(static_cast<std::uint32_t>(!input_above_dac) << bit);
  return bit > 0 ? code | (1u << (bit - 1u)) : code;
}

/// One SAR instance.
class SarRegister {
 public:
  explicit SarRegister(unsigned bits);

  unsigned bits() const { return bits_; }

  /// Restarts a conversion: code = MSB only, bit under test = MSB.
  void begin();

  /// True while a conversion is in progress.
  bool converting() const { return bit_index_ >= 0; }

  /// Code currently driving the DAC.
  std::uint32_t code() const { return code_; }

  /// Index of the bit decided in the *previous* feed() call (MSB =
  /// bits-1); used by the winner-tracking logic. Valid after first feed.
  int last_decided_bit() const { return last_decided_bit_; }

  /// Value the last feed() assigned to that bit.
  bool last_decision() const { return last_decision_; }

  /// Applies one comparator verdict: `input_above_dac` = true keeps the
  /// bit under test. Returns true if the conversion continues.
  bool feed(bool input_above_dac);

  /// Digitised result; only meaningful once converting() is false.
  std::uint32_t result() const { return code_; }

 private:
  unsigned bits_;
  std::uint32_t code_ = 0;
  int bit_index_ = -1;         // bit currently under test; -1 = idle
  int last_decided_bit_ = -1;
  bool last_decision_ = false;
};

}  // namespace spinsim
