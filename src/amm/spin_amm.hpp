/// \file spin_amm.hpp
/// The proposed associative memory module (AMM): RCM + spin neurons.
///
/// End-to-end pipeline of paper Section 4: per-row DTCS input DACs drive
/// the crossbar with the reduced 5-bit input image; each column's dot-
/// product current feeds a spin PE; the SAR + winner-tracking WTA returns
/// the best-matching stored template and its degree of match. This class
/// wires the substrates together and owns the experiment knobs (ideal vs
/// parasitic crossbar, thermal noise, mismatch, dV, DWN threshold).
///
/// SpinAmm implements the unified AssociativeEngine interface (the
/// polymorphic surface the service layer consumes) while keeping its
/// substrate-specific raw API: column_currents(), crossbar access, the
/// power design point.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "amm/engine.hpp"
#include "crossbar/rcm.hpp"
#include "datapath/dtcs_dac.hpp"
#include "energy/power_report.hpp"
#include "energy/spin_power.hpp"
#include "vision/features.hpp"
#include "wta/spin_sar_wta.hpp"

namespace spinsim {

/// Which crossbar evaluation path to use.
enum class CrossbarModel {
  kIdeal,      ///< closed-form current division (fast; no wire parasitics)
  kParasitic,  ///< full nodal solve with Cu bar resistance
};

/// Design/simulation knobs of one SpinAmm instance.
struct SpinAmmConfig {
  FeatureSpec features;          ///< input/template geometry (16x8, 5-bit)
  std::size_t templates = 40;    ///< stored patterns
  MemristorSpec memristor;       ///< crosspoint devices
  unsigned wta_bits = 5;         ///< WTA resolution M
  DwnParams dwn;                 ///< spin neuron (threshold 1 uA @ 20 kT)
  ReadLatchDesign latch;
  double delta_v = 30e-3;        ///< crossbar bias dV [V]
  double clock = 100e6;          ///< conversion clock [Hz]
  CrossbarModel model = CrossbarModel::kIdeal;
  /// Algorithm behind kParasitic (kTransfer amortizes one factorization
  /// across all queries; kCg is the iterative reference path).
  CrossbarSolver parasitic_solver = CrossbarSolver::kTransfer;
  bool thermal_noise = false;
  bool sample_mismatch = true;
  bool dummy_column = true;  ///< per-row G_TS equalisation (Section 4A)
  std::uint32_t accept_threshold = 0;  ///< DOM below this rejects the match

  /// Explicit input-DAC full-scale current [A]; <= 0 self-calibrates
  /// against the stored templates (the default). Shards of one logical
  /// template set must share an explicit value (together with
  /// row_target_conductance) so their DOM codes stay comparable.
  double input_full_scale_override = 0.0;
  /// Explicit per-row G_TS pad target [S]; <= 0 pads to this array's own
  /// largest row sum. See RcmConfig::row_target_conductance.
  double row_target_conductance = 0.0;

  std::uint64_t seed = 1;

  /// Full-scale column current 2^M I_th [A].
  double full_scale_current() const;

  /// Peak input-DAC current so the best match reaches full scale [A]
  /// (paper: ~10 uA for the 128x40, 5-bit design).
  double input_full_scale_current() const;
};

/// Wall-clock breakdown of the last SpinAmm::recognize_batch() call,
/// split by pipeline stage and summed across worker chunks [µs]. What
/// the bench's `pipeline` section reports.
struct SpinBatchTiming {
  double dac_us = 0.0;       ///< input-DAC front end
  double gemm_us = 0.0;      ///< blocked operator product (crossbar)
  double wta_us = 0.0;       ///< SAR + winner-tracking search
  double assemble_us = 0.0;  ///< Recognition assembly (margin, detail)
  std::uint64_t queries = 0;
};

/// The proposed spin-CMOS associative memory module.
class SpinAmm : public AssociativeEngine {
 public:
  explicit SpinAmm(const SpinAmmConfig& config);

  const SpinAmmConfig& config() const { return config_; }

  std::string name() const override { return "spin"; }
  std::size_t template_count() const override { return config_.templates; }

  /// Programs the stored templates (one per column) and calibrates the
  /// input-DAC gain so the best match lands just under the WTA's full
  /// scale — the paper's "required range of DAC output current was found
  /// to be ~10 uA" sizing step, done against the realised row conductance
  /// (dummy padding included). Must be called before recognize().
  void store_templates(const std::vector<FeatureVector>& templates) override;

  /// Analog front end only: per-column dot-product currents for an input.
  std::vector<double> column_currents(const FeatureVector& input);

  /// Full recognition: front end + spin WTA. The result's detail holds
  /// the column currents and the complete WTA outcome.
  Recognition recognize(const FeatureVector& input) override;

  /// Batched recognition: results[i] corresponds to inputs[i], and is
  /// winner-for-winner identical to calling recognize() on each input in
  /// order. The batch flows through flat rows x batch buffers in chunks
  /// of kMinItemsPerThread queries, each chunk a DAC -> blocked-GEMM ->
  /// WTA -> assemble pipeline on one worker: when the crossbar path is
  /// safely shareable (ideal model, or parasitic with the
  /// transfer-operator solver) the crossbar stage is one cache-blocked
  /// matrix product per chunk against the cached operator, and the WTA
  /// stage always fans out because its thermal noise comes from
  /// counter-based per-query streams (SpinSarWta::run_query_span) rather
  /// than one shared sequential draw order. threads == 0 picks hardware
  /// concurrency; last_batch_timing() reports the per-stage wall clock.
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t threads = 0) override;

  /// Per-stage wall-clock breakdown of the most recent recognize_batch()
  /// call (zeroed queries if none ran yet). Written by recognize_batch on
  /// the calling thread — read it from that thread, not concurrently.
  const SpinBatchTiming& last_batch_timing() const { return batch_timing_; }

  /// The realised input-DAC full-scale current [A] (after calibration or
  /// the configured override). Feed this to sibling shards so one logical
  /// template set scores identically wherever its columns live.
  double input_full_scale() const { return input_full_scale_; }

  /// Attaches persistent physical-device state to the crossbar (see
  /// RcmArray::attach_substrate) — how LeafCacheEngine makes reprograms
  /// age real devices and skip unchanged ones. Must be called before
  /// store_templates().
  void attach_substrate(std::shared_ptr<CrossbarSubstrate> substrate,
                        std::vector<std::size_t> column_map, bool delta_writes);

  /// The programmed crossbar (inspection / experiments).
  const RcmArray& crossbar() const;

  /// Mutable crossbar access for in-field experiments (fault injection,
  /// drift studies). The AMM keeps functioning with the altered array.
  RcmArray& mutable_crossbar();

  /// Analytic power breakdown of this design point.
  PowerReport power() const override;

  /// Energy of one recognition: the design's power over one M-cycle WTA
  /// search (the SAR conversion is what paces a recognition) [J].
  EnergyPerQuery energy_per_query() const override;

  /// The design-point parameters fed to the power model.
  SpinAmmDesign power_design() const;

 private:
  void calibrate_input_gain(const std::vector<FeatureVector>& templates);
  void rebuild_input_dacs(double full_scale);
  std::vector<double> input_row_currents(const FeatureVector& input) const;
  /// Allocation-free front end for the batch path: writes the realised
  /// per-row input currents into `out[0 .. dimension)`. Values are
  /// bit-identical to input_row_currents().
  void input_row_currents_into(const FeatureVector& input, double* out) const;
  Recognition assemble(std::vector<double>&& currents, SpinWtaOutcome&& wta) const;

  SpinAmmConfig config_;
  Rng rng_;
  std::unique_ptr<RcmArray> rcm_;
  std::vector<DtcsDac> input_dacs_;  // one per row
  double input_full_scale_ = 0.0;
  std::unique_ptr<SpinSarWta> wta_;
  bool templates_stored_ = false;
  SpinBatchTiming batch_timing_;
};

}  // namespace spinsim
