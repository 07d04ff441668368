/// \file engine.hpp
/// The unified associative-memory API.
///
/// The paper's pitch is one associative-memory *function* realised by
/// interchangeable substrates: the spin-neuron RCM (SpinAmm), the
/// MS-CMOS RCM baseline (MsCmosAmm), the digital ASIC baseline
/// (DigitalAmm), and the hierarchically clustered extension
/// (HierarchicalAmm). `AssociativeEngine` is that function as a C++
/// interface: store a template set, recognise inputs one at a time or in
/// batches, and report the design point's power. Every backend fills the
/// same `Recognition` result; substrate-specific extras (column currents,
/// integer score vectors, routing decisions) travel in a tagged detail
/// variant so generic callers never pay for fields they do not use.
///
/// The service layer (src/service/) builds exclusively on this interface,
/// which is what lets one `RecognitionService` shard a template set
/// across replicas of *any* backend. Three hooks with no-op defaults carry
/// what the service needs from specific backends without naming them:
/// idle-time upkeep (maintain), leaf-cache counters (leaf_counters) and
/// the overload controller's verdict (adapt_to_load). Decorators and
/// compositions forward them to the engines they wrap.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "energy/power_report.hpp"
#include "vision/features.hpp"
#include "wta/spin_sar_wta.hpp"

namespace spinsim {

/// Spin-CMOS extras: the analog front end's column currents and the full
/// WTA outcome (all DOM codes, tracking state, activity counters).
struct SpinRecognitionDetail {
  std::vector<double> column_currents;
  SpinWtaOutcome wta;
};

/// MS-CMOS extras: the (mismatch-corrupted) current the tree root saw.
struct MsCmosRecognitionDetail {
  double winning_current = 0.0;  ///< corrupted winner current at the root [A]
};

/// Digital extras: the bit-exact integer dot products.
struct DigitalRecognitionDetail {
  std::uint64_t score = 0;            ///< integer dot product of the winner
  std::vector<std::uint64_t> scores;  ///< all integer dot products
};

/// Hierarchical extras: the routing decision.
struct HierarchicalRecognitionDetail {
  std::size_t cluster = 0;       ///< router decision (engine-local index)
  std::uint32_t router_dom = 0;  ///< centroid degree of match
  /// Best centroid DOM outside the chosen cluster; the router score gap
  /// (router_dom - router_runner_up_dom) / router_dom caps the reported
  /// margin, because the global runner-up template may live in another
  /// cluster than the one the leaf search visited.
  std::uint32_t router_runner_up_dom = 0;
};

/// Tiered extras: which tier served the answer and what the cheap tier
/// reported before any escalation decision.
struct TieredRecognitionDetail {
  std::size_t tier = 0;        ///< 0 = cheap tier answered, 1 = escalated
  double tier0_margin = 0.0;   ///< margin the tier-0 engine reported
  std::uint32_t tier0_dom = 0;
  bool tier0_accepted = true;
};

/// Backend-specific payload of one recognition.
using RecognitionDetail =
    std::variant<std::monostate, SpinRecognitionDetail, MsCmosRecognitionDetail,
                 DigitalRecognitionDetail, HierarchicalRecognitionDetail,
                 TieredRecognitionDetail>;

/// The unified result of one recognition, produced by every backend.
struct Recognition {
  std::size_t winner = 0;  ///< stored-template index of the best match
  bool unique = true;      ///< winner decided without a tie
  /// Backend-native match score: the quantised DOM for the spin designs,
  /// the integer dot product for the digital ASIC, the root current (as a
  /// fraction of full scale) for the MS-CMOS tree. Scores are comparable
  /// *across identically configured engines* — the contract the service's
  /// shard merge relies on — not across different backends.
  double score = 0.0;
  std::uint32_t dom = 0;  ///< degree of match where the backend has one
  /// (best - runner-up) / full scale at the analog stage. Contract (the
  /// randomized conformance suite asserts it for every backend): never
  /// negative, and exactly zero when the winning score is non-positive.
  double margin = 0.0;
  /// dom >= the engine's accept threshold *and* the winner was unique —
  /// accepted implies unique, so escalation/merge can trust it.
  bool accepted = true;
  /// Fraction of the stored template set this answer actually searched.
  /// 1.0 everywhere except a RecognitionService merge that had to skip
  /// ejected/stuck shards: a best-effort answer over the surviving
  /// shards reports the surviving fraction, so the client knows the
  /// winner was only best among `coverage` of the templates.
  double coverage = 1.0;
  /// True when the answer was served in brown-out mode (the overload
  /// controller forced tier-0-only serving to protect the latency SLO):
  /// a valid answer, but from the cheap tier regardless of confidence.
  bool degraded = false;
  RecognitionDetail detail;

  /// Typed accessors: non-null when the detail holds that backend's extras.
  const SpinRecognitionDetail* spin() const { return std::get_if<SpinRecognitionDetail>(&detail); }
  const MsCmosRecognitionDetail* mscmos() const {
    return std::get_if<MsCmosRecognitionDetail>(&detail);
  }
  const DigitalRecognitionDetail* digital() const {
    return std::get_if<DigitalRecognitionDetail>(&detail);
  }
  const HierarchicalRecognitionDetail* hierarchical() const {
    return std::get_if<HierarchicalRecognitionDetail>(&detail);
  }
  const TieredRecognitionDetail* tiered() const {
    return std::get_if<TieredRecognitionDetail>(&detail);
  }
};

/// Running totals of the leaf-cache engines inside one engine (snapshot of
/// atomic counters). LeafCacheEngine fills it; compositions sum their
/// parts with operator+=; every other backend reports all zeros.
struct LeafCacheCounters {
  std::uint64_t queries = 0;      ///< recognitions served
  /// Slot lookups that found the leaf resident. Singleton clusters are
  /// answered by the router without consulting a slot and count neither
  /// as hit nor as miss.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< leaf had to be programmed
  std::uint64_t evictions = 0;    ///< a resident leaf was displaced
  std::uint64_t reprograms = 0;   ///< arrays programmed (== misses)
  Energy reprogram_energy;        ///< total write energy charged
  /// Subset of reprogram_energy spent by self-repair rewrites (priced at
  /// the same per-device write cost as the miss path).
  Energy repair_energy;
  Time reprogram_latency;         ///< total write wall-clock charged

  // Endurance / self-repair accounting:
  std::uint64_t device_writes = 0;        ///< physical device writes performed
  std::uint64_t device_writes_saved = 0;  ///< writes avoided by delta reprogramming
  std::uint64_t repair_device_writes = 0; ///< subset of device_writes from repair rewrites
  std::uint64_t verify_scans = 0;         ///< verify-read passes run
  std::uint64_t devices_checked = 0;      ///< verify-reads performed
  std::uint64_t faults_detected = 0;      ///< verify-reads out of window
  std::uint64_t devices_rewritten = 0;    ///< in-place repairs that restored the window
  std::uint64_t columns_remapped = 0;     ///< physical columns retired to spares
  std::uint64_t repair_reloads = 0;       ///< slot reloads forced by remaps
  std::uint64_t unrepairable = 0;         ///< faults left in service (spares exhausted)
  std::uint64_t worn_out_devices = 0;     ///< devices currently stuck (wear or field faults)
  /// Per-slot cumulative device writes — the pool's wear histogram.
  std::vector<std::uint64_t> slot_write_cycles;

  std::uint64_t max_slot_write_cycles() const {
    std::uint64_t worst = 0;
    for (const std::uint64_t w : slot_write_cycles) {
      worst = std::max(worst, w);
    }
    return worst;
  }

  double hit_rate() const {
    const std::uint64_t looked = hits + misses;
    return looked == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(looked);
  }

  /// Sums every counter; the slot wear histograms are concatenated, so
  /// max_slot_write_cycles() stays the worst slot across all the caches.
  LeafCacheCounters& operator+=(const LeafCacheCounters& other) {
    queries += other.queries;
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    reprograms += other.reprograms;
    reprogram_energy += other.reprogram_energy;
    repair_energy += other.repair_energy;
    reprogram_latency += other.reprogram_latency;
    device_writes += other.device_writes;
    device_writes_saved += other.device_writes_saved;
    repair_device_writes += other.repair_device_writes;
    verify_scans += other.verify_scans;
    devices_checked += other.devices_checked;
    faults_detected += other.faults_detected;
    devices_rewritten += other.devices_rewritten;
    columns_remapped += other.columns_remapped;
    repair_reloads += other.repair_reloads;
    unrepairable += other.unrepairable;
    worn_out_devices += other.worn_out_devices;
    slot_write_cycles.insert(slot_write_cycles.end(), other.slot_write_cycles.begin(),
                             other.slot_write_cycles.end());
    return *this;
  }
};

/// The overload controller's verdict for one period, from least to most
/// loaded. Engines with a cost/quality trade (TieredEngine) act on it.
enum class LoadSignal {
  kRelax,     ///< p99 well under the SLO: stop forcing, walk back to the configured policy
  kHold,      ///< p99 under the SLO: stop forcing, keep the current policy
  kTighten,   ///< p99 over the SLO: trade quality for cost
  kBrownout,  ///< p99 far over the SLO: cheapest serving only, and tighten
};

/// One associative-memory module, whatever its substrate.
///
/// Lifecycle: construct -> store_templates() once -> recognise. Engines
/// are NOT thread-safe; concurrent queries belong either to an engine's
/// own recognize_batch() (which parallelises internally where the physics
/// allows) or to a RecognitionService, which serialises access per shard.
class AssociativeEngine {
 public:
  virtual ~AssociativeEngine();

  /// Human-readable backend identifier ("spin", "mscmos", ...).
  virtual std::string name() const = 0;

  /// Stored patterns this engine was sized for.
  virtual std::size_t template_count() const = 0;

  /// Programs the stored templates. Must be called before recognition.
  virtual void store_templates(const std::vector<FeatureVector>& templates) = 0;

  /// Recognises one input.
  virtual Recognition recognize(const FeatureVector& input) = 0;

  /// Batched recognition: results[i] corresponds to inputs[i] and is
  /// winner-for-winner identical to calling recognize() on each input in
  /// order. `threads` == 0 picks hardware concurrency; backends fall back
  /// to a serial schedule where shared state forbids fan-out.
  virtual std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                                   std::size_t threads = 0) = 0;

  /// Analytic power of this design point.
  virtual PowerReport power() const = 0;

  /// Estimated energy one recognition costs on this design point:
  /// power() over the design's recognition rate (an M-cycle WTA search for
  /// the spin designs, `templates` MAC cycles for the digital ASIC, one
  /// settling clock for the MS-CMOS tree). This is the figure the tiered
  /// router and the service's per-query energy accounting compose, so it
  /// must stay safe to call concurrently with recognition (pure function
  /// of the configuration, or of atomically maintained counters).
  /// Dimensionally typed: extract raw numbers with
  /// `energy_per_query().in(units::pJ / units::query)` or compose with
  /// `Queries` counts — a J-vs-W mixup no longer compiles.
  virtual EnergyPerQuery energy_per_query() const = 0;

  /// Idle-time upkeep (e.g. a leaf cache's verify-read scrub). Runs on
  /// the thread that serves this engine, between batches, after
  /// store_templates(). Default: nothing to do.
  virtual void maintain() {}

  /// Counters of the leaf caches inside this engine, summed. Must stay
  /// safe to call concurrently with recognition. Default: all zeros.
  virtual LeafCacheCounters leaf_counters() const { return {}; }

  /// Applies one overload-controller verdict. Called from another thread
  /// than the serving one, concurrently with recognition, so anything it
  /// changes must be safe against in-flight traffic. Returns true when
  /// the serving policy changed. Default: no load-dependent policy.
  virtual bool adapt_to_load(LoadSignal /*signal*/) { return false; }
};

}  // namespace spinsim
