/// \file rcm.hpp
/// Resistive crossbar memory (RCM) array model.
///
/// `rows` horizontal input bars cross `cols` in-plane output bars with an
/// Ag-Si memristor at every junction (paper Fig. 1). One analog template
/// is programmed per column; driving the rows with input currents makes
/// each column collect a current proportional to the input-template dot
/// product.
///
/// Two evaluation paths:
///  * ideal: current division I(i,j) = I_in(i) g_ij / G_TS(i) summed per
///    column — the closed form the paper's Section 4A derives, exact when
///    wire parasitics vanish.
///  * parasitic: the 2 * rows * cols wire-junction network with
///    per-segment Cu bar resistance (Table 2: 1 Ohm/um), which produces
///    the IR-drop margin degradation of Fig. 9.
///
/// Every column bar ends at the DWN clamp, which is the 0 V reference of
/// the network; the bias dV of Fig. 9b enters only through the DTCS DACs
/// that set the row input currents. With all pins at one potential the
/// network is linear in those currents, so the parasitic path is a
/// rows x cols transfer operator built once from the LDL^T factor and
/// applied as one GEMM per batch.
///
/// A per-row *dummy memristor* pads every row's total conductance G_TS to
/// a common value so the DTCS-DAC sees a data-independent load (Section
/// 4A).

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "circuit/resistive_network.hpp"
#include "core/random.hpp"
#include "crossbar/wear.hpp"
#include "device/memristor.hpp"

namespace spinsim {

/// Geometry and technology of one RCM array.
struct RcmConfig {
  std::size_t rows = 128;        ///< input bars (feature dimension)
  std::size_t cols = 40;         ///< output bars (stored templates)
  MemristorSpec memristor;       ///< crosspoint device spec
  bool dummy_column = true;      ///< equalise G_TS with a dummy device per row

  /// Explicit per-row G_TS pad target [S]; <= 0 pads to the array's own
  /// largest row sum (the default). Setting the same target on several
  /// arrays makes their rows electrically identical regardless of how
  /// many columns each holds — what the service layer uses to keep
  /// sharded column currents equal to a flat array's. Must exceed every
  /// realised row sum.
  double row_target_conductance = 0.0;

  // Cu bar parasitics (paper Table 2: 1 Ohm/um, 0.4 fF/um). The pitch is
  // the high-density nano-crossbar assumption (~2F at F = 50 nm); at
  // coarser pitches the cumulative column IR drop overtakes the
  // per-memristor signal drop and the Fig. 9a optimum shifts to higher
  // resistances.
  double wire_res_per_um = 1.0;  ///< [Ohm/um]
  double cell_pitch_um = 0.1;    ///< junction pitch [um]

  /// Wire resistance of one cell-to-cell segment [Ohm].
  double segment_resistance() const { return wire_res_per_um * cell_pitch_um; }
};

/// Which algorithm evaluates the parasitic network.
enum class CrossbarSolver {
  kCg,        ///< iterative CG per query (reference path)
  kTransfer,  ///< precomputed rows x cols transfer operator, dense matvec
};

/// One programmed crossbar.
class RcmArray {
 public:
  /// Builds an unprogrammed array; `rng` seeds the write-noise stream.
  RcmArray(const RcmConfig& config, Rng rng);

  const RcmConfig& config() const { return config_; }
  std::size_t rows() const { return config_.rows; }
  std::size_t cols() const { return config_.cols; }

  /// Attaches persistent physical-device state: array column `j` models
  /// the substrate's physical column `column_map[j]`. Cell wear, sampled
  /// endurance limits, d2d skew, and recorded faults are restored from
  /// the substrate immediately; every subsequent program writes the aged
  /// state back, drawing write noise from the substrate's keyed
  /// per-device streams instead of this array's sequential rng. With
  /// `delta_writes`, programming skips (and restores) devices whose
  /// recorded target level already matches. Attach before programming.
  void attach_substrate(std::shared_ptr<CrossbarSubstrate> substrate,
                        std::vector<std::size_t> column_map, bool delta_writes);

  bool substrate_attached() const { return substrate_ != nullptr; }

  /// Physical substrate column behind array column `col` (identity
  /// mapping is the common case; repair remaps break it).
  const std::vector<std::size_t>& column_map() const { return column_map_; }

  /// Programs column `col` with `weights` (one value in [0, 1] per row).
  /// Weights are quantised to the memristor level grid; realised
  /// conductances include write noise per the spec.
  void program_column(std::size_t col, const std::vector<double>& weights);

  /// Reprograms the single junction (row, col) to `weight` — the
  /// self-repair rewrite path. Always writes (no delta skip). The caller
  /// re-equalises rows once per repair pass.
  void program_cell(std::size_t row, std::size_t col, double weight);

  /// Programs all columns; `columns[j]` holds column j's weights.
  void program(const std::vector<std::vector<double>>& columns);

  /// Re-pads the per-row dummy conductances so every row's total
  /// conductance equals the largest row sum. Called automatically by
  /// program(); exposed for incremental programming.
  void equalize_rows();

  /// Fault types for yield studies: a stuck-open device loses its
  /// filament (conductance collapses to ~0), a stuck-short device is
  /// pinned at an over-formed low resistance.
  enum class StuckFault { kOpen, kShort };

  /// Injects a permanent device fault at (row, col) and re-equalises the
  /// rows; recognition continues with the damaged array.
  void inject_fault(std::size_t row, std::size_t col, StuckFault fault);

  /// Realised conductance of junction (row, col) [S].
  double conductance(std::size_t row, std::size_t col) const;

  /// Total conductance hanging off input bar `row`, including the dummy
  /// device [S] — the G_TS the DTCS-DAC model needs.
  double row_conductance(std::size_t row) const;

  /// Ideal column dot-product currents for the given per-row input
  /// currents [A]: I_j = sum_i I_in(i) g_ij / G_TS(i).
  std::vector<double> column_currents_ideal(const std::vector<double>& input_currents) const;

  /// Builds (or reuses) the cols x rows ideal operator (the crosspoint
  /// conductances transposed into GEMM layout) and warms the row-sum
  /// cache, so column_currents_ideal_batch() becomes callable from const
  /// contexts (thread-parallel batch dispatch).
  void prepare_ideal();

  /// True once prepare_ideal() has run (and no reprogramming invalidated
  /// the operator since).
  bool ideal_ready() const { return ideal_built_; }

  /// Batched ideal evaluation: `inputs` holds `batch` per-row input
  /// current vectors back to back (batch x rows), `out` receives batch x
  /// cols column currents. One cache-blocked GEMM against the cached
  /// ideal operator; each query's result is bit-identical to
  /// column_currents_ideal() on the same inputs. Requires ideal_ready();
  /// const and thread-safe (callers may partition the batch across
  /// threads via pointer offsets).
  void column_currents_ideal_batch(const double* inputs, std::size_t batch, double* out) const;

  /// Selects the parasitic evaluation algorithm. Both paths agree to CG
  /// tolerance; kTransfer (the default) amortizes one factorization plus
  /// `cols` triangular solves across every subsequent query, which then
  /// costs a dense rows x cols matvec.
  void set_parasitic_solver(CrossbarSolver solver) { solver_ = solver; }
  CrossbarSolver parasitic_solver() const { return solver_; }

  /// Parasitic column currents. Input currents are injected at the left
  /// edge of each row bar; every column bar ends at the 0 V clamp
  /// reference at the bottom edge. Returns the current delivered into
  /// each column termination [A]. Cost depends on the selected solver:
  /// one CG solve over ~2*rows*cols nodes (kCg, warm-started across
  /// calls) or a dense rows x cols matvec (kTransfer).
  std::vector<double> column_currents_parasitic(const std::vector<double>& input_currents);

  /// Builds (or reuses) the parasitic network, its factorization and the
  /// transfer operator, so subsequent kTransfer queries are pure matvecs
  /// — and column_currents_transfer() becomes callable from const
  /// contexts (e.g. thread-parallel batch dispatch).
  void prepare_parasitic();

  /// True once prepare_parasitic() has run (and nothing invalidated the
  /// cache since).
  bool transfer_ready() const { return net_ != nullptr && transfer_built_; }

  /// The cached transfer operator T behind column_currents_transfer():
  /// cols x rows, T[j * rows + r] = dI(column j) / dI_in(row r). Requires
  /// transfer_ready().
  const std::vector<double>& transfer_operator() const;

  /// The cached parasitic network of the last prepare_parasitic() or kCg
  /// evaluation. Node layout: the row-bar junction (i, j) is node
  /// i * cols + j (row i's input is node i * cols), the column-bar
  /// junction (i, j) is node (rows + i) * cols + j, then each column's
  /// pinned termination, then the dummy bar. Throws InvalidArgument if no
  /// network is cached.
  const ResistiveNetwork& parasitic_network() const;

  /// Applies the cached transfer operator: out = T * in. Requires
  /// transfer_ready(); const and thread-safe.
  std::vector<double> column_currents_transfer(const std::vector<double>& input_currents) const;

  /// Batched transfer evaluation: `inputs` holds `batch` per-row input
  /// current vectors back to back (batch x rows), `out` receives batch x
  /// cols column currents. One cache-blocked GEMM against the cached
  /// transfer operator; each query's result is bit-identical to
  /// column_currents_transfer() on the same inputs. Requires
  /// transfer_ready(); const and thread-safe.
  void column_currents_transfer_batch(const double* inputs, std::size_t batch,
                                      double* out) const;

  /// Drops the cached parasitic network (after reprogramming).
  void invalidate_parasitic_cache();

  // Device-write accounting since construction: physical writes
  // performed, writes avoided by delta reprogramming, and columns that
  // saw at least one write (the unit the serial write path's latency
  // scales with).
  std::uint64_t device_writes() const { return device_writes_; }
  std::uint64_t device_write_skips() const { return device_write_skips_; }
  std::uint64_t columns_touched() const { return columns_touched_; }

 private:
  void program_cell_unchecked(std::size_t row, std::size_t col, std::size_t level);
  void ensure_network();
  void ensure_transfer();
  void ensure_row_sums() const;
  std::vector<double> extract_column_currents() const;

  RcmConfig config_;
  Rng rng_;
  std::vector<Memristor> cells_;       // row-major rows x cols
  std::vector<double> dummy_g_;        // per-row pad conductance
  bool programmed_ = false;

  // Persistent physical-device state (leaf-cache endurance mode).
  std::shared_ptr<CrossbarSubstrate> substrate_;
  std::vector<std::size_t> column_map_;
  bool delta_writes_ = false;
  std::uint64_t device_writes_ = 0;
  std::uint64_t device_write_skips_ = 0;
  std::uint64_t columns_touched_ = 0;

  // Per-row sum of crosspoint conductances (dummy pad excluded), kept so
  // row_conductance() and equalize_rows() stop rescanning the cell array.
  mutable std::vector<double> row_sums_;
  mutable bool row_sums_dirty_ = true;

  // Cached parasitic network (topology fixed after programming).
  CrossbarSolver solver_ = CrossbarSolver::kTransfer;
  std::unique_ptr<ResistiveNetwork> net_;
  std::vector<RNode> row_input_nodes_;
  std::vector<RNode> col_last_nodes_;

  // Transfer operator: column currents = T * inputs, with T stored
  // column-major per output (transfer_[j * rows + r]).
  bool transfer_built_ = false;
  std::vector<double> transfer_;

  // Ideal operator in the same GEMM layout (ideal_op_[j * rows + r] =
  // g_rj), built by prepare_ideal() and dropped on any reprogramming.
  bool ideal_built_ = false;
  std::vector<double> ideal_op_;
};

}  // namespace spinsim
