#include "wta/spin_sar_wta.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace spinsim {

namespace {

/// Expands (seed, query index) into an independent thermal substream.
/// splitmix-style finalizer so adjacent indices land far apart; the Rng
/// constructor scrambles further through its own splitmix expansion.
Rng query_stream(std::uint64_t seed, std::uint64_t query_index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (query_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return Rng(z ^ (z >> 31));
}

/// 64-bit mask words needed for one bit per column.
std::size_t mask_words(std::size_t columns) { return (columns + 63) / 64; }

std::size_t popcount64(std::uint64_t m) {
  return static_cast<std::size_t>(__builtin_popcountll(m));
}

/// Index of the lowest set bit; `m` must be nonzero.
std::size_t lowest_bit64(std::uint64_t m) {
  return static_cast<std::size_t>(__builtin_ctzll(m));
}

/// The smallest double `s` such that a reset DWN driven by `s` for one
/// cycle (no thermal noise) ends in state 1; NaN if no current does.
///
/// The end state is `i > 0 && |i| > I_th && dt / switching_delay(|i|) >= 1`.
/// Every step of that expression is a correctly rounded monotone
/// operation, so it is monotone in `i`: false up to some positive double
/// and true from there on. Positive doubles order like their bit
/// patterns, so bisecting over the patterns of [+0, +inf] finds the
/// switch point exactly in at most 63 device evaluations. Then, for every
/// double i (NaN and the negatives included), the device ends in state 1
/// iff `i >= s`: the comparison the noiseless search makes.
double find_switch_threshold(const DwnParams& dwn, double cycle_time) {
  DomainWallNeuron neuron(dwn);
  const auto switches = [&](std::uint64_t pattern) {
    double i_net = 0.0;
    std::memcpy(&i_net, &pattern, sizeof i_net);
    neuron.reset(false);
    return neuron.apply_current(i_net, cycle_time, nullptr);
  };
  const double inf = std::numeric_limits<double>::infinity();
  std::uint64_t hi = 0;  // switches
  std::memcpy(&hi, &inf, sizeof hi);
  if (!switches(hi)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::uint64_t lo = 0;  // +0.0: never switches (the DWN threshold is positive)
  SPINSIM_ASSERT(!switches(lo), "DWN switches at zero current");
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (switches(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  double threshold = 0.0;
  std::memcpy(&threshold, &hi, sizeof threshold);
  return threshold;
}

}  // namespace

double SpinWtaConfig::full_scale_current() const {
  return std::ldexp(dwn.i_threshold, static_cast<int>(bits));
}

SpinSarWta::SpinSarWta(const SpinWtaConfig& config)
    : config_(config), rng_(config.seed), r_reference_(config.dwn.mtj.reference_resistance()) {
  require(config.columns >= 1, "SpinSarWta: need at least one column");
  require(config.bits >= 1 && config.bits <= 10, "SpinSarWta: bits must be 1..10");
  require(config.cycle_time > 0.0, "SpinSarWta: cycle time must be positive");

  DtcsDacDesign dac_design;
  dac_design.bits = config.bits;
  // Top code = (2^M - 1) * I_th so every DAC level lands on an integer
  // multiple of the DWN threshold: the comparator then quantises the
  // column current with LSB = I_th, as the paper's sizing rule requires
  // ("max dot product > 32 uA for 5-bit resolution at I_th = 1 uA").
  dac_design.full_scale_current =
      config.dwn.i_threshold * (std::ldexp(1.0, static_cast<int>(config.bits)) - 1.0);
  dac_design.delta_v = config.delta_v;

  dacs_.reserve(config.columns);
  latches_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    if (config.sample_mismatch) {
      dacs_.emplace_back(dac_design, rng_);
      latches_.emplace_back(config.latch, rng_);
    } else {
      dacs_.emplace_back(dac_design);
      latches_.emplace_back(config.latch);
    }
  }

  const std::size_t codes = std::size_t{1} << config.bits;
  dac_sink_.resize(config.columns * codes);
  for (std::size_t j = 0; j < config.columns; ++j) {
    for (std::size_t code = 0; code < codes; ++code) {
      dac_sink_[j * codes + code] =
          dacs_[j].output_current(static_cast<std::uint32_t>(code), /*g_load=*/0.0);
    }
  }
  switch_threshold_ = find_switch_threshold(config.dwn, config.cycle_time);

  // The DWN carries no sampled mismatch, so one probe device yields the
  // two MTJ read resistances every column's neuron can present; the
  // per-column spread lives entirely in the latch offsets sampled above.
  DomainWallNeuron probe(config.dwn);
  probe.reset(true);
  const double r_one = probe.mtj_resistance();
  probe.reset(false);
  const double r_zero = probe.mtj_resistance();
  latch_verdicts_.reserve(config.columns);
  for (std::size_t j = 0; j < config.columns; ++j) {
    const unsigned above_one = latches_[j].decide(r_one, r_reference_) ? 1u : 0u;
    const unsigned above_zero = latches_[j].decide(r_zero, r_reference_) ? 1u : 0u;
    latch_verdicts_.push_back(static_cast<unsigned char>(above_one << 1 | above_zero));
  }
}

const DtcsDac& SpinSarWta::dac(std::size_t column) const {
  require(column < dacs_.size(), "SpinSarWta::dac: column out of range");
  return dacs_[column];
}

const ReadLatch& SpinSarWta::latch(std::size_t column) const {
  require(column < latches_.size(), "SpinSarWta::latch: column out of range");
  return latches_[column];
}

SpinWtaOutcome SpinSarWta::run(const std::vector<double>& column_currents) {
  return run_query(column_currents, query_counter_++);
}

SpinWtaOutcome SpinSarWta::run_query(const std::vector<double>& column_currents,
                                     std::uint64_t query_index) const {
  require(column_currents.size() == config_.columns,
          "SpinSarWta::run: need one current per column");
  return run_query_span(column_currents.data(), query_index);
}

SpinWtaOutcome SpinSarWta::run_query_span(const double* column_currents,
                                          std::uint64_t query_index) const {
  const std::size_t n = config_.columns;
  const unsigned bits = config_.bits;
  const std::size_t words = mask_words(n);
  const std::size_t codes_per_column = std::size_t{1} << bits;

  SpinWtaOutcome out;
  // The SAR registers: each column's code, converted in place into its DOM.
  out.dom_codes.assign(n, sar_start_code(bits));
  // TRs and one cycle's bit decisions as masks across columns (bit j % 64
  // of word j / 64). Thread-local scratch: the search allocates nothing.
  thread_local std::vector<std::uint64_t> tracking;
  thread_local std::vector<std::uint64_t> decided;
  tracking.assign(words, ~std::uint64_t{0});  // TRs preset high (see header)
  if (n % 64 != 0) {
    tracking[words - 1] = (std::uint64_t{1} << (n % 64)) - 1;
  }
  decided.resize(words);

  // The M-cycle search. `dwn_switches(i_net)` is the analog step: the
  // DWN is preset to 0 each cycle, and reads as a 1 if the net current
  // (column minus SAR-DAC sink) switched it within the cycle.
  const auto search = [&](auto&& dwn_switches) {
    for (unsigned cycle = 0; cycle < bits; ++cycle) {
      const unsigned bit = bits - 1 - cycle;  // bit under test

      // --- analog compare + digitise step (all PEs in parallel) ---
      for (std::size_t w = 0; w < words; ++w) {
        const std::size_t j0 = w * 64;
        const std::size_t jn = std::min<std::size_t>(64, n - j0);
        const double* sink = dac_sink_.data() + j0 * codes_per_column;
        std::uint64_t word = 0;
        for (std::size_t k = 0; k < jn; ++k, sink += codes_per_column) {
          const std::size_t j = j0 + k;
          std::uint32_t& code = out.dom_codes[j];
          const double i_net = column_currents[j] - sink[code];
          const unsigned state = dwn_switches(i_net) ? 1u : 0u;
          // The latch senses the DWN MTJ against the reference junction.
          const unsigned above = (latch_verdicts_[j] >> state) & 1u;
          code = sar_step(code, bit, above != 0);
          word |= static_cast<std::uint64_t>(above) << k;
        }
        decided[w] = word;
      }

      // --- digital winner tracking (Fig. 12) ---
      // DL precharged; DR(j) = TR(j) & bit(j) can pull it low.
      bool dl_discharged = false;
      for (std::size_t w = 0; w < words; ++w) {
        dl_discharged = dl_discharged || (tracking[w] & decided[w]) != 0;
      }
      if (dl_discharged) {
        ++out.dl_discharges;
        for (std::size_t w = 0; w < words; ++w) {
          out.tr_writes += popcount64(tracking[w] & ~decided[w]);
          tracking[w] &= decided[w];
        }
      }
      // If nobody pulled DL, every surviving column had a 0 in this bit:
      // the TRs stay as they are.
    }
  };

  if (!config_.thermal_noise) {
    search([this](double i_net) { return i_net >= switch_threshold_; });
  } else {
    // Thermal flips are sampled from the query's own substream, column by
    // column within each cycle. The neuron is reset before every use and
    // carries no sampled mismatch, so one instance serves every column.
    Rng thermal = query_stream(config_.seed, query_index);
    DomainWallNeuron neuron(config_.dwn);
    search([&](double i_net) {
      neuron.reset(false);
      return neuron.apply_current(i_net, config_.cycle_time, &thermal);
    });
  }
  out.latch_decisions = n * bits;
  out.cycles = bits;

  // Collect the survivors: exactly the columns holding the maximum code.
  // The TRs start high and are only narrowed when some survivor pulled
  // DL, so at least one always remains.
  out.tracking.assign(n, false);
  std::size_t survivor_count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t m = tracking[w]; m != 0; m &= m - 1) {
      const std::size_t j = w * 64 + lowest_bit64(m);
      out.tracking[j] = true;
      if (survivor_count == 0) {
        out.winner = j;
      }
      ++survivor_count;
    }
  }
  SPINSIM_ASSERT(survivor_count > 0, "winner tracking lost every column");
  out.unique = survivor_count == 1;
  out.winner_dom = out.dom_codes[out.winner];
  return out;
}

std::vector<SpinWtaOutcome> SpinSarWta::run_batch(const std::vector<std::vector<double>>& batch,
                                                  std::size_t threads) {
  // Validate before fanning out: a require() thrown on a worker thread
  // would terminate instead of propagating.
  for (const auto& currents : batch) {
    require(currents.size() == config_.columns,
            "SpinSarWta::run_batch: need one current per column");
  }
  std::vector<SpinWtaOutcome> outcomes(batch.size());
  if (batch.empty()) {
    return outcomes;
  }
  const std::uint64_t base = query_counter_;
  query_counter_ += batch.size();

  parallel_for_strided(batch.size(), threads,
                       [&](std::size_t i) { outcomes[i] = run_query(batch[i], base + i); });
  return outcomes;
}

}  // namespace spinsim
