#include "datapath/sar.hpp"

namespace spinsim {

SarRegister::SarRegister(unsigned bits) : bits_(bits) {
  require(bits >= 1 && bits <= 16, "SarRegister: bits must be 1..16");
}

void SarRegister::begin() {
  bit_index_ = static_cast<int>(bits_) - 1;
  code_ = sar_start_code(bits_);
  last_decided_bit_ = -1;
  last_decision_ = false;
}

bool SarRegister::feed(bool input_above_dac) {
  require(converting(), "SarRegister::feed: no conversion in progress (call begin())");
  last_decided_bit_ = bit_index_;
  last_decision_ = input_above_dac;
  code_ = sar_step(code_, static_cast<unsigned>(bit_index_), input_above_dac);
  --bit_index_;
  return bit_index_ >= 0;
}

}  // namespace spinsim
