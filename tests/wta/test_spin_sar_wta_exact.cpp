// Exactness of the table-driven WTA search: every outcome, counters
// included, must equal a reference that replays the devices themselves —
// a reset DomainWallNeuron driven for one cycle, the column's ReadLatch,
// a SarRegister per column and a vector<bool> tracking network.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/random.hpp"
#include "datapath/sar.hpp"
#include "wta/spin_sar_wta.hpp"

namespace spinsim {
namespace {

struct Reference {
  SpinWtaOutcome outcome;
  /// decisions[cycle][column]: the latch verdict of that column-cycle.
  std::vector<std::vector<bool>> decisions;
  /// tested[column][code]: the search compared against that code's sink.
  std::vector<std::vector<bool>> tested;
};

Reference reference_search(const SpinSarWta& wta, const std::vector<double>& currents) {
  const SpinWtaConfig& c = wta.config();
  const std::size_t n = c.columns;
  const double r_reference = c.dwn.mtj.reference_resistance();
  Reference ref;
  ref.tested.assign(n, std::vector<bool>(std::size_t{1} << c.bits, false));
  SpinWtaOutcome& out = ref.outcome;
  out.tracking.assign(n, true);
  std::vector<SarRegister> sars(n, SarRegister(c.bits));
  for (auto& sar : sars) {
    sar.begin();
  }

  for (unsigned cycle = 0; cycle < c.bits; ++cycle) {
    std::vector<bool> bit(n);
    for (std::size_t j = 0; j < n; ++j) {
      ref.tested[j][sars[j].code()] = true;
      DomainWallNeuron neuron(c.dwn);
      neuron.reset(false);
      const double i_net = currents[j] - wta.dac(j).output_current(sars[j].code(), 0.0);
      neuron.apply_current(i_net, c.cycle_time, nullptr);
      bit[j] = wta.latch(j).decide(neuron.mtj_resistance(), r_reference);
      ++out.latch_decisions;
      sars[j].feed(bit[j]);
    }
    ref.decisions.push_back(bit);

    bool dl_discharged = false;
    for (std::size_t j = 0; j < n; ++j) {
      dl_discharged = dl_discharged || (out.tracking[j] && bit[j]);
    }
    if (dl_discharged) {
      ++out.dl_discharges;
      for (std::size_t j = 0; j < n; ++j) {
        const bool next = out.tracking[j] && bit[j];
        if (next != out.tracking[j]) {
          ++out.tr_writes;
        }
        out.tracking[j] = next;
      }
    }
    ++out.cycles;
  }

  std::size_t survivors = 0;
  for (std::size_t j = 0; j < n; ++j) {
    out.dom_codes.push_back(sars[j].result());
    if (out.tracking[j]) {
      if (survivors == 0) {
        out.winner = j;
      }
      ++survivors;
    }
  }
  EXPECT_GT(survivors, 0u);
  out.unique = survivors == 1;
  out.winner_dom = out.dom_codes[out.winner];
  return ref;
}

/// Compares every field, and each column-cycle decision (bit M-1-cycle of
/// a DOM is the verdict of that cycle).
void expect_matches_reference(const SpinWtaOutcome& got, const Reference& ref, unsigned bits,
                              const std::string& where) {
  const SpinWtaOutcome& want = ref.outcome;
  EXPECT_EQ(got.winner, want.winner) << where;
  EXPECT_EQ(got.unique, want.unique) << where;
  EXPECT_EQ(got.winner_dom, want.winner_dom) << where;
  EXPECT_EQ(got.dom_codes, want.dom_codes) << where;
  EXPECT_EQ(got.tracking, want.tracking) << where;
  EXPECT_EQ(got.cycles, want.cycles) << where;
  EXPECT_EQ(got.latch_decisions, want.latch_decisions) << where;
  EXPECT_EQ(got.dl_discharges, want.dl_discharges) << where;
  EXPECT_EQ(got.tr_writes, want.tr_writes) << where;
  ASSERT_EQ(got.dom_codes.size(), want.dom_codes.size()) << where;
  for (unsigned cycle = 0; cycle < bits; ++cycle) {
    for (std::size_t j = 0; j < got.dom_codes.size(); ++j) {
      const bool decided = ((got.dom_codes[j] >> (bits - 1 - cycle)) & 1u) != 0;
      EXPECT_EQ(decided, ref.decisions[cycle][j]) << where << " cycle " << cycle << " column " << j;
    }
  }
}

SpinWtaConfig exact_config(std::size_t columns, unsigned bits, double barrier_kt) {
  SpinWtaConfig c;
  c.columns = columns;
  c.bits = bits;
  c.dwn = DwnParams::from_barrier(barrier_kt);
  c.sample_mismatch = true;  // per-column DAC and latch spread
  c.thermal_noise = false;
  return c;
}

TEST(SpinSarWtaExact, SwitchThresholdIsTheDeviceBoundary) {
  for (const double barrier : {2.0, 10.0, 20.0, 40.0}) {
    for (const double cycle_time : {1e-9, 10e-9, 1e-6}) {
      SpinWtaConfig c = exact_config(2, 5, barrier);
      c.cycle_time = cycle_time;
      const SpinSarWta wta(c);
      const double s = wta.switch_threshold();
      const auto switches = [&](double i_net) {
        DomainWallNeuron neuron(c.dwn);
        neuron.reset(false);
        return neuron.apply_current(i_net, cycle_time, nullptr);
      };
      ASSERT_TRUE(std::isfinite(s));
      EXPECT_GT(s, c.dwn.i_threshold);
      EXPECT_TRUE(switches(s)) << "barrier " << barrier << " cycle " << cycle_time;
      EXPECT_FALSE(switches(std::nextafter(s, 0.0))) << "barrier " << barrier;
      EXPECT_TRUE(switches(std::numeric_limits<double>::infinity()));
      EXPECT_FALSE(switches(std::numeric_limits<double>::quiet_NaN()));
    }
  }
}

// For every column and every SAR code, drive each column at its sink for
// that code plus a net current on the switch boundary: s and its two
// neighbouring doubles, and the two closest currents whose computed net
// current straddles s. The whole outcome must match the device replay.
TEST(SpinSarWtaExact, BoundaryCurrentsForEveryColumnAndCode) {
  // 70 columns: one full 64-column mask word and a partial one.
  const SpinWtaConfig c = exact_config(70, 5, 20.0);
  const SpinSarWta wta(c);
  const double s = wta.switch_threshold();
  const double inf = std::numeric_limits<double>::infinity();
  const std::uint32_t codes = 1u << c.bits;

  std::vector<std::vector<bool>> tested(c.columns, std::vector<bool>(codes, false));
  std::uint64_t slot = 0;
  for (std::uint32_t code = 0; code < codes; ++code) {
    // Variants 0-2: sink + {s-, s, s+}; 3-4: last current below the
    // boundary and first current at or above it.
    for (int variant = 0; variant < 5; ++variant) {
      std::vector<double> currents(c.columns);
      for (std::size_t j = 0; j < c.columns; ++j) {
        const double sink = wta.dac(j).output_current(code, 0.0);
        if (variant < 3) {
          const double delta = variant == 0 ? std::nextafter(s, -inf)
                               : variant == 1 ? s
                                              : std::nextafter(s, inf);
          currents[j] = sink + delta;
        } else {
          double below = sink + s;
          while (below - sink >= s) {
            below = std::nextafter(below, -inf);
          }
          while (std::nextafter(below, inf) - sink < s) {
            below = std::nextafter(below, inf);
          }
          currents[j] = variant == 3 ? below : std::nextafter(below, inf);
          ASSERT_EQ(currents[j] - sink >= s, variant == 4) << "column " << j;
        }
      }
      const Reference ref = reference_search(wta, currents);
      for (std::size_t j = 0; j < c.columns; ++j) {
        for (std::uint32_t k = 0; k < codes; ++k) {
          if (ref.tested[j][k]) {
            tested[j][k] = true;
          }
        }
      }
      expect_matches_reference(wta.run_query(currents, slot++), ref, c.bits,
                               "code " + std::to_string(code) + " variant " +
                                   std::to_string(variant));
    }
  }
  // Every nonzero code is on some conversion's path for every column
  // (the SAR never tests code 0), so each boundary above was exercised.
  for (std::size_t j = 0; j < c.columns; ++j) {
    for (std::uint32_t code = 1; code < codes; ++code) {
      EXPECT_TRUE(tested[j][code]) << "column " << j << " code " << code;
    }
  }
}

struct Shape {
  std::size_t columns;
  unsigned bits;
  double barrier_kt;
  double latch_offset_sigma;  // large values make some latches stuck
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << s.columns << " columns, " << s.bits << " bits, " << s.barrier_kt << " kT, latch sigma "
      << s.latch_offset_sigma;
}

class SpinSarWtaExactRandom : public ::testing::TestWithParam<Shape> {};

TEST_P(SpinSarWtaExactRandom, RandomCurrentsMatchDeviceReplay) {
  const Shape shape = GetParam();
  SpinWtaConfig c = exact_config(shape.columns, shape.bits, shape.barrier_kt);
  c.latch.offset_sigma = shape.latch_offset_sigma;
  const SpinSarWta wta(c);
  Rng rng(shape.columns * 131 + shape.bits);
  const double full_scale = c.full_scale_current();

  for (std::uint64_t q = 0; q < 24; ++q) {
    std::vector<double> currents(c.columns);
    for (auto& i : currents) {
      i = rng.uniform(-0.1 * full_scale, 1.2 * full_scale);
    }
    if (q == 0) {
      // Non-finite and signed-zero inputs go through the same compare.
      const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(), 0.0, -0.0};
      for (std::size_t k = 0; k < std::size(specials) && k < currents.size(); ++k) {
        currents[k] = specials[k];
      }
    }
    expect_matches_reference(wta.run_query(currents, q), reference_search(wta, currents), c.bits,
                             "query " + std::to_string(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpinSarWtaExactRandom,
                         ::testing::Values(Shape{1, 5, 20.0, 0.02}, Shape{8, 1, 20.0, 0.02},
                                           Shape{63, 5, 20.0, 0.02}, Shape{64, 3, 10.0, 0.02},
                                           Shape{65, 8, 20.0, 0.02}, Shape{160, 5, 20.0, 0.02},
                                           Shape{130, 10, 2.0, 0.02}, Shape{40, 5, 20.0, 0.5}));

TEST(SpinSarWtaExact, RunBatchAcrossThreadsMatchesDeviceReplay) {
  const SpinWtaConfig c = exact_config(160, 5, 20.0);
  SpinSarWta wta(c);
  Rng rng(11);
  std::vector<std::vector<double>> batch(64, std::vector<double>(c.columns));
  for (auto& currents : batch) {
    for (auto& i : currents) {
      i = rng.uniform(0.0, c.full_scale_current());
    }
  }
  const std::vector<SpinWtaOutcome> got = wta.run_batch(batch, 4);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    expect_matches_reference(got[q], reference_search(wta, batch[q]), c.bits,
                             "query " + std::to_string(q));
  }
}

}  // namespace
}  // namespace spinsim
