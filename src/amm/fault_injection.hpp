/// \file fault_injection.hpp
/// Deterministic shard chaos: an AssociativeEngine decorator that throws,
/// stalls, or hangs on a seeded schedule.
///
/// The service edge claims to survive failing shards — retry, eject via
/// circuit breaker, merge best-effort over the survivors — and those
/// claims are only testable if shards can be made to fail *on demand and
/// reproducibly*. FaultInjectingEngine wraps any backend and injects
/// three failure modes at the recognize/recognize_batch boundary (the
/// exact surface a RecognitionService shard worker drives):
///
///   * throws      — ModelError at `throw_rate`, drawn from a seeded Rng,
///                   so the same seed yields the same failure schedule
///                   whatever the wall clock does;
///   * latency     — a real sleep of `spike` at `spike_rate`, for
///     spikes      driving stuck-shard *timeouts* in benches;
///   * hangs       — a FaultSwitch the test holds: stick() blocks the
///                   next call on a condition variable until release(),
///                   which is how a "stuck shard" is simulated without
///                   any racy timing. set_throwing() forces every call to
///                   throw until cleared — the deterministic lever the
///                   circuit-breaker tests script against.
///
/// store_templates is deliberately passed through clean: programming
/// failures are a different layer (see the endurance harness); this
/// decorator models *serving-path* faults.
///
/// The engine hooks (maintain, leaf_counters, adapt_to_load) forward to
/// the inner engine unfaulted: they are not on the serving path.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amm/engine.hpp"
#include "core/random.hpp"
#include "core/sync.hpp"

namespace spinsim {

/// Seeded fault schedule of one FaultInjectingEngine.
struct FaultInjectionConfig {
  /// Probability that a recognize()/recognize_batch() call throws
  /// ModelError before touching the inner engine.
  double throw_rate = 0.0;
  /// Probability that a call is delayed by `spike` (a real sleep on the
  /// calling — i.e. shard worker — thread) before serving.
  double spike_rate = 0.0;
  std::chrono::microseconds spike{0};
  /// Seed of the decision stream: one draw per fault mode per call, so
  /// identical seeds yield identical fault schedules.
  std::uint64_t seed = 0xFA017;
};

/// Manual fault lever a test (or bench) holds alongside the engine.
/// Thread-safe: the engine blocks/reads on the shard worker thread while
/// the test flips the switch from its own.
class FaultSwitch {
 public:
  /// Subsequent calls block inside the engine until release().
  void stick();

  /// Unblocks all stuck calls and clears the stick request.
  void release();

  /// Force (or stop forcing) every call to throw ModelError,
  /// independent of the seeded throw_rate.
  void set_throwing(bool throwing);

  bool throwing() const { return throwing_.load(std::memory_order_acquire); }

  /// Calls currently blocked inside stuck engines (for test sync:
  /// wait_until_stuck spins on it without sleeping).
  std::size_t stuck_calls() const;

  /// Engine side: blocks while a stick is requested. Returns true when
  /// the call actually blocked (the engine counts those as stuck_waits).
  bool wait_if_stuck();

 private:
  mutable Mutex mutex_{LockRank::kFaultSwitch};
  CondVar cv_;
  bool stick_requested_ SPINSIM_GUARDED_BY(mutex_) = false;
  std::size_t stuck_calls_ SPINSIM_GUARDED_BY(mutex_) = 0;
  /// Release/acquire pair: set_throwing() publishes, the shard worker's
  /// throwing() read observes — no lock on the serving path.
  std::atomic<bool> throwing_{false};
};

/// Per-engine totals of injected failures (snapshot of atomics).
struct FaultInjectionCounters {
  std::uint64_t calls = 0;        ///< recognize/recognize_batch entries
  std::uint64_t throws = 0;       ///< injected ModelErrors (seeded + forced)
  std::uint64_t spikes = 0;       ///< injected latency spikes
  std::uint64_t stuck_waits = 0;  ///< calls that blocked on the switch
};

/// Decorator: any backend, plus a seeded fault schedule at the serving
/// boundary. Not thread-safe beyond the AssociativeEngine contract (one
/// serving thread), like every engine.
class FaultInjectingEngine : public AssociativeEngine {
 public:
  FaultInjectingEngine(std::unique_ptr<AssociativeEngine> inner, const FaultInjectionConfig& config,
                       std::shared_ptr<FaultSwitch> control = nullptr);

  std::string name() const override;
  std::size_t template_count() const override { return inner_->template_count(); }

  void store_templates(const std::vector<FeatureVector>& templates) override;
  Recognition recognize(const FeatureVector& input) override;
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t threads = 0) override;

  PowerReport power() const override { return inner_->power(); }
  EnergyPerQuery energy_per_query() const override { return inner_->energy_per_query(); }

  void maintain() override { inner_->maintain(); }
  LeafCacheCounters leaf_counters() const override { return inner_->leaf_counters(); }
  bool adapt_to_load(LoadSignal signal) override { return inner_->adapt_to_load(signal); }

  /// The wrapped engine (inspection).
  const AssociativeEngine& inner() const { return *inner_; }

  FaultInjectionCounters counters() const;

 private:
  /// One fault decision point: stuck wait, then spike, then throw.
  void maybe_fault();

  FaultInjectionConfig config_;
  std::unique_ptr<AssociativeEngine> inner_;
  std::shared_ptr<FaultSwitch> control_;
  Rng rng_;

  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> throws_{0};
  std::atomic<std::uint64_t> spikes_{0};
  std::atomic<std::uint64_t> stuck_waits_{0};
};

}  // namespace spinsim
