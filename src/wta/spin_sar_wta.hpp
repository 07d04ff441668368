/// \file spin_sar_wta.hpp
/// The paper's contribution: spin-CMOS hybrid WTA (Figs. 10-12).
///
/// Each crossbar column owns a *processing element* (PE): a DWN current
/// comparator, a DTCS SAR-DAC, a dynamic read latch and a SAR register.
/// All PEs digitise their column current in parallel (M cycles), while a
/// fully digital winner-tracking network runs alongside:
///
///   The tracking registers TR(j) are preset high. Every cycle the
///   detection line DL is precharged; any column whose TR is high *and*
///   whose new bit resolved to 1 pulls DL low through its discharge
///   register DR. If DL fell, all TRs are rewritten to TR(j) & bit(j);
///   if nobody pulled, the TRs are left untouched (all survivors had a
///   0 in this bit). With at least one MSB = 1 this reduces exactly to
///   the paper's Fig. 12 sequence; presetting high also keeps the search
///   alive when every column's MSB is 0 (inputs below half scale), which
///   the paper's sizing rule normally prevents but a library must handle.
///
/// After M cycles exactly the columns holding the maximum code keep
/// TR = 1; a unique survivor is the winner and its SAR code is the degree
/// of match (DOM). The logic is static-power-free and scales with column
/// count — the heart of the paper's energy claim.

#pragma once

#include <cstdint>
#include <vector>

#include "core/random.hpp"
#include "datapath/dtcs_dac.hpp"
#include "datapath/read_latch.hpp"
#include "datapath/sar.hpp"
#include "device/dwn.hpp"

namespace spinsim {

/// Configuration of the spin WTA bank.
struct SpinWtaConfig {
  std::size_t columns = 40;
  unsigned bits = 5;
  DwnParams dwn;                   ///< spin-neuron parameters
  ReadLatchDesign latch;           ///< read-latch parameters
  double delta_v = 30e-3;          ///< SAR-DAC terminal drop [V]
  double cycle_time = 10e-9;       ///< conversion clock period [s]
  bool thermal_noise = false;      ///< sample DWN thermal flips
  bool sample_mismatch = true;     ///< sample DAC/latch mismatch
  /// Seeds both the construction-time mismatch sampling and the
  /// counter-based per-query thermal streams (see run_query()).
  std::uint64_t seed = 99;

  /// Full-scale column current 2^M * I_th [A].
  double full_scale_current() const;
};

/// Outcome of one winner search.
struct SpinWtaOutcome {
  std::size_t winner = 0;                 ///< surviving column (first if tied)
  bool unique = true;                     ///< exactly one survivor
  std::uint32_t winner_dom = 0;           ///< winner's degree of match
  std::vector<std::uint32_t> dom_codes;   ///< all SAR results
  std::vector<bool> tracking;             ///< final TR values
  std::size_t cycles = 0;

  // Activity counters for the energy model.
  std::size_t latch_decisions = 0;
  std::size_t dl_discharges = 0;
  std::size_t tr_writes = 0;
};

/// A bank of spin PEs plus the tracking network.
///
/// Thermal noise is drawn from a *counter-based* stream: each query slot
/// `q` owns an independent substream keyed on (seed, q), so the outcome
/// of slot q is a pure function of (configuration, currents, q) — not of
/// how many other queries ran before it on which thread. That is what
/// lets run_batch() fan the stateful WTA search out across threads while
/// staying bit-identical to a sequential loop of run() calls.
class SpinSarWta {
 public:
  explicit SpinSarWta(const SpinWtaConfig& config);

  const SpinWtaConfig& config() const { return config_; }

  /// Runs a full M-cycle winner search over static column currents,
  /// consuming the next query slot of the noise stream.
  SpinWtaOutcome run(const std::vector<double>& column_currents);

  /// Winner search for an explicit query slot. Const and thread-safe:
  /// the mutable PE state (neurons, SAR registers) lives on the caller's
  /// stack, and thermal draws come from the slot's own substream.
  SpinWtaOutcome run_query(const std::vector<double>& column_currents,
                           std::uint64_t query_index) const;

  /// Same winner search over a raw column-current slice
  /// (`column_currents[0 .. columns)`) — the zero-copy entry the GEMM'd
  /// batch path uses. Const and thread-safe; per-query mutable state is
  /// reused from thread-local scratch, so the only heap allocations are
  /// the outcome's dom_codes and tracking vectors (tests/alloc counts
  /// them).
  SpinWtaOutcome run_query_span(const double* column_currents, std::uint64_t query_index) const;

  /// Reserves `count` consecutive query slots of the noise stream and
  /// returns the first. A caller orchestrating its own fan-out (fused
  /// GEMM + WTA chunks) consumes exactly the slots a sequential
  /// run()/run_batch() sequence would, keeping outcomes bit-identical.
  std::uint64_t reserve_query_slots(std::uint64_t count) {
    const std::uint64_t base = query_counter_;
    query_counter_ += count;
    return base;
  }

  /// Batched winner search over `batch.size()` query slots, dispatched
  /// across `threads` workers (0 = hardware concurrency). outcome[i] is
  /// bit-identical to what run() would have returned for batch[i] in a
  /// sequential loop.
  std::vector<SpinWtaOutcome> run_batch(const std::vector<std::vector<double>>& batch,
                                        std::size_t threads = 0);

  /// Query slots consumed so far (the counter behind run()/run_batch()).
  std::uint64_t queries_issued() const { return query_counter_; }

  /// The per-column SAR DAC (exposed for calibration/ablation studies).
  const DtcsDac& dac(std::size_t column) const;

  /// The per-column read latch (its offset is sampled at construction).
  const ReadLatch& latch(std::size_t column) const;

  /// Smallest net current that switches a reset DWN within one cycle:
  /// for every double `i_net` (NaN included), a noiseless
  /// `reset(false)` + `apply_current(i_net, cycle_time)` ends in state 1
  /// iff `i_net >= switch_threshold()`. NaN when no current switches.
  double switch_threshold() const { return switch_threshold_; }

 private:
  SpinWtaConfig config_;
  Rng rng_;  // construction-time mismatch sampling only
  std::vector<DtcsDac> dacs_;
  std::vector<ReadLatch> latches_;
  double r_reference_;
  std::uint64_t query_counter_ = 0;

  // Tables fixed at construction. A cycle's analog step depends on the
  // column only through the SAR-DAC sink and the latch offset, and on the
  // neuron only through its end state (it is reset each cycle, and the
  // MTJ has two resistances). So a column-cycle is a lookup and a
  // subtraction, then one compare against switch_threshold_ without
  // thermal noise:
  //   dac_sink_[column * 2^bits + code] = dacs_[column].output_current(code, 0)
  //   bit s of latch_verdicts_[column] = the latch's verdict on a DWN read
  //   in state s.
  std::vector<double> dac_sink_;
  double switch_threshold_;
  std::vector<unsigned char> latch_verdicts_;
};

}  // namespace spinsim
