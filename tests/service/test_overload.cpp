/// Overload behaviour at the service edge: deadline shedding before
/// dispatch, the bounded queue's retriable refusals, the adaptive
/// controller's brown-out (tier-0-only, `degraded`-flagged) serving, and
/// collector-driven idle scrubs. Time is a FakeClock and stalls are a
/// FaultSwitch, so the tests assert exact counters with no sleeps. The
/// last suite smoke-tests the open-loop Poisson/Zipf load driver the
/// overload bench rows are measured with.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "amm/digital_amm.hpp"
#include "amm/fault_injection.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "core/clock.hpp"
#include "core/error.hpp"
#include "service/load_gen.hpp"
#include "service/recognition_service.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

using std::chrono::microseconds;

FeatureSpec small_spec() {
  FeatureSpec s;
  s.height = 8;
  s.width = 6;
  s.bits = 5;
  return s;
}

std::vector<FeatureVector> all_inputs() {
  std::vector<FeatureVector> inputs;
  for (const auto& sample : testing::small_dataset().all()) {
    inputs.push_back(extract_features(sample.image, small_spec()));
  }
  return inputs;
}

/// Fixed-answer stub backend (file-private copy).
class ScriptedEngine : public AssociativeEngine {
 public:
  struct Answer {
    double score = 0.0;
    double margin = 0.0;
    bool accepted = true;
  };

  explicit ScriptedEngine(Answer answer) : answer_(answer) {}

  std::string name() const override { return "scripted"; }
  std::size_t template_count() const override { return columns_; }
  void store_templates(const std::vector<FeatureVector>& templates) override {
    columns_ = templates.size();
  }
  Recognition recognize(const FeatureVector&) override {
    Recognition r;
    r.winner = 0;
    r.score = answer_.score;
    r.margin = answer_.margin;
    r.accepted = answer_.accepted;
    return r;
  }
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t) override {
    return std::vector<Recognition>(inputs.size(), recognize(inputs.front()));
  }
  PowerReport power() const override { return {}; }
  EnergyPerQuery energy_per_query() const override { return 1e-9 * units::J / units::query; }

 private:
  Answer answer_;
  std::size_t columns_ = 0;
};

std::vector<FeatureVector> scripted_templates() {
  std::vector<FeatureVector> templates(4);
  for (auto& t : templates) {
    t.analog.assign(4, 0.5);
    t.digital.assign(4, 16);
  }
  return templates;
}

RecognitionService::EngineFactory scripted_factory(ScriptedEngine::Answer answer) {
  return [answer](std::size_t, std::size_t) -> std::unique_ptr<AssociativeEngine> {
    return std::make_unique<ScriptedEngine>(answer);
  };
}

/// One scripted shard behind a FaultSwitch, on a FakeClock: stick() wedges
/// the dispatch so queries pile up behind it, advance() ages them.
struct StallRig {
  std::shared_ptr<FaultSwitch> control = std::make_shared<FaultSwitch>();
  std::shared_ptr<FakeClock> clock = std::make_shared<FakeClock>();
  std::unique_ptr<RecognitionService> service;

  explicit StallRig(RecognitionServiceConfig config) {
    config.shards = 1;
    config.max_batch = 1;
    config.admission_window = microseconds(0);
    config.clock = clock;
    service = std::make_unique<RecognitionService>(
        config, [this](std::size_t, std::size_t) -> std::unique_ptr<AssociativeEngine> {
          return std::make_unique<FaultInjectingEngine>(
              std::make_unique<ScriptedEngine>(ScriptedEngine::Answer{1.0, 0.5, true}),
              FaultInjectionConfig{}, control);
        });
    service->store_templates(scripted_templates());
  }

  /// Submits one query and blocks until it is wedged inside the engine.
  std::future<Recognition> wedge() {
    control->stick();
    auto future = service->submit(scripted_templates().front());
    while (control->stuck_calls() == 0) {
      std::this_thread::yield();
    }
    return future;
  }
};

TEST(ServiceOverload, DeadlineShedsQueuedQueriesBeforeDispatch) {
  StallRig rig(RecognitionServiceConfig{});
  auto in_flight = rig.wedge();

  // q2 wants its answer within 100us; q3 is patient. Both queue behind
  // the wedged dispatch while 200us pass.
  auto deadline_100us = rig.service->submit(scripted_templates().front(),
                                            SubmitOptions{microseconds(100)});
  auto patient = rig.service->submit(scripted_templates().front());
  rig.clock->advance(microseconds(200));
  rig.control->release();

  // The collector sheds the expired query at batch formation — shard time
  // is spent only on answers still wanted.
  EXPECT_EQ(in_flight.get().winner, 0u);
  EXPECT_THROW(deadline_100us.get(), DeadlineExceeded);
  EXPECT_EQ(patient.get().winner, 0u);

  const RecognitionServiceStats stats = rig.service->stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.failed, 0u) << "shed is not failure";
}

TEST(ServiceOverload, QueueCapRejectsSubmissionsWithOverloaded) {
  RecognitionServiceConfig config;
  config.max_queue = 2;
  StallRig rig(config);
  auto in_flight = rig.wedge();

  // Two queries fill the bounded queue; the third is refused up front —
  // no future is created for it, the client backs off and retries.
  auto q2 = rig.service->submit(scripted_templates().front());
  auto q3 = rig.service->submit(scripted_templates().front());
  EXPECT_THROW(rig.service->submit(scripted_templates().front()), Overloaded);

  // Batch admission is all-or-nothing: a 2-query batch cannot fit, so
  // nothing from it is enqueued and both its queries count as rejected.
  std::vector<FeatureVector> pair(2, scripted_templates().front());
  EXPECT_THROW(rig.service->submit_batch(pair), Overloaded);

  rig.control->release();
  EXPECT_EQ(in_flight.get().winner, 0u);
  EXPECT_EQ(q2.get().winner, 0u);
  EXPECT_EQ(q3.get().winner, 0u);

  const RecognitionServiceStats stats = rig.service->stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.rejected_overload, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServiceOverload, BrownoutForcesTier0AndFlagsDegraded) {
  // One tiered shard (cheap tier 0 scoring 1.0 at margin 0.2, expensive
  // tier 1 scoring 2.0) behind a FaultSwitch. Margin 0.2 is below the 0.5
  // escalation threshold, so every healthy query normally escalates — the
  // served score tells us which tier answered.
  auto control = std::make_shared<FaultSwitch>();
  auto clock = std::make_shared<FakeClock>();
  TieredEngineConfig tiered;
  tiered.escalation_margin = 0.5;
  tiered.min_escalation_margin = 0.01;
  tiered.margin_step = 0.5;

  RecognitionServiceConfig config;
  config.shards = 1;
  config.max_batch = 1;
  config.admission_window = microseconds(0);
  config.clock = clock;
  config.overload.target_p99_us = 100.0;
  config.overload.period_queries = 1;

  auto tiered_factory = make_tiered_factory(scripted_factory({1.0, 0.2, true}),
                                            scripted_factory({2.0, 0.9, true}), tiered);
  const TieredEngine* tiered_engine = nullptr;
  RecognitionService service(
      config, [&](std::size_t shard, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
        std::unique_ptr<AssociativeEngine> engine = tiered_factory(shard, columns);
        tiered_engine = dynamic_cast<const TieredEngine*>(engine.get());
        return std::make_unique<FaultInjectingEngine>(std::move(engine), FaultInjectionConfig{},
                                                      control);
      });
  service.store_templates(scripted_templates());

  // q1: wedge the shard and let 300us pass — client latency 300us blows
  // straight through the brown-out watermark (2 x 100us).
  control->stick();
  auto slow = service.submit(scripted_templates().front());
  while (control->stuck_calls() == 0) {
    std::this_thread::yield();
  }
  clock->advance(microseconds(300));
  control->release();
  const Recognition q1 = slow.get();
  EXPECT_DOUBLE_EQ(q1.score, 2.0) << "pre-brown-out queries escalate to tier 1";
  EXPECT_FALSE(q1.degraded);

  // q2 dispatches after the controller's q1 period: brown-out is in
  // force, so the answer comes from tier 0 and is flagged degraded.
  const Recognition q2 = service.submit(scripted_templates().front()).get();
  EXPECT_DOUBLE_EQ(q2.score, 1.0);
  EXPECT_TRUE(q2.degraded);

  // q2 itself was fast (no clock advance -> latency 0), so its controller
  // period lifts the brown-out and relaxes the margin before q3: service
  // quality recovers on its own once the latency does.
  const Recognition q3 = service.submit(scripted_templates().front()).get();
  EXPECT_DOUBLE_EQ(q3.score, 2.0);
  EXPECT_FALSE(q3.degraded);

  const RecognitionServiceStats stats = service.stats();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_FALSE(stats.brownout_active);
  EXPECT_GE(stats.controller_adjustments, 2u);  // tighten+brown-out, then relax
  ASSERT_NE(tiered_engine, nullptr);
  EXPECT_DOUBLE_EQ(tiered_engine->escalation_margin(), 0.5) << "servo walked back to its base";
}

TEST(ServiceOverload, IdleScrubRunsDuringIdleWindows) {
  // Leaf-cache shards in endurance mode (delta-writes activates the
  // substrate-backed slots verify-reads check against). With
  // idle_scrub_interval = 1, the collector posts a scrub round as soon as
  // the service goes idle after one delivered query.
  LeafCacheEngineConfig leaf;
  leaf.hierarchy.features = small_spec();
  leaf.hierarchy.clusters = 3;
  leaf.hierarchy.dwn = DwnParams::from_barrier(20.0);
  leaf.hierarchy.seed = 9;
  leaf.leaf_slots = 2;
  leaf.endurance.delta_writes = true;

  RecognitionServiceConfig config;
  config.shards = 2;
  config.admission_window = microseconds(0);
  config.idle_scrub_interval = 1;
  RecognitionService service(config, make_leaf_cache_factory(leaf));
  service.store_templates(build_templates(testing::small_dataset(), small_spec()));

  EXPECT_EQ(service.stats().idle_scrubs, 0u);
  service.submit(all_inputs().front()).get();

  // The scrub round is posted by the collector and runs on the shard
  // workers; wait (yielding, no sleeps) for the counters to land.
  while (service.stats().idle_scrubs < 1 || service.stats().leaf.verify_scans < 1) {
    std::this_thread::yield();
  }
  const RecognitionServiceStats stats = service.stats();
  EXPECT_GE(stats.idle_scrubs, 1u);
  EXPECT_GE(stats.leaf.verify_scans, 1u) << "scrub reached the leaf caches";
}

TEST(ServiceOverload, RepairRateAlarmIsEdgeTriggered) {
  // Leaf-cache shards with verify-on-serve self-repair, and the service's
  // repair-rate alarm armed at 1 repair per 1000 queries. Stuck-short
  // damage injected into shard 0's resident slot forces the verify scans
  // to remap columns to spares — the repair rate jumps far past the
  // threshold, and the collector must raise exactly ONE alarm for the
  // whole excursion (edge-triggered), not one per dispatch.
  LeafCacheEngineConfig leaf;
  leaf.hierarchy.features = small_spec();
  leaf.hierarchy.clusters = 3;
  leaf.hierarchy.dwn = DwnParams::from_barrier(20.0);
  leaf.hierarchy.seed = 9;
  leaf.leaf_slots = 2;
  leaf.endurance.delta_writes = true;
  leaf.endurance.spare_columns = 3;
  leaf.endurance.verify_interval = 1;  // scan on every served query
  leaf.endurance.repair = true;

  RecognitionServiceConfig config;
  config.shards = 2;
  config.admission_window = microseconds(0);
  config.repair_alarm_per_kq = 1.0;

  // Capture the engines the factory builds so the test can damage them
  // directly (the service only exposes a const view).
  std::vector<LeafCacheEngine*> engines;
  const RecognitionService::EngineFactory base = make_leaf_cache_factory(leaf);
  RecognitionService service(
      config, [&engines, base](std::size_t shard, std::size_t columns) {
        std::unique_ptr<AssociativeEngine> engine = base(shard, columns);
        engines.push_back(dynamic_cast<LeafCacheEngine*>(engine.get()));
        return engine;
      });
  service.store_templates(build_templates(testing::small_dataset(), small_spec()));
  ASSERT_EQ(engines.size(), 2u);
  ASSERT_NE(engines[0], nullptr);

  const auto inputs = all_inputs();
  // Warm the leaf pools so slot 0 holds a programmed array to damage.
  service.submit(inputs.front()).get();
  EXPECT_EQ(service.stats().repair_alarms, 0u);

  // Stuck-shorts down the first physical column of shard 0's slot 0: a
  // fault a rewrite cannot clear, so repair must retire the column.
  // The service is idle (no scrubs configured), so no worker touches the
  // engine while the test damages it.
  for (std::size_t row = 0; row < small_spec().height * small_spec().width; row += 4) {
    engines[0]->inject_slot_fault(0, row, 0, RcmArray::StuckFault::kShort);
  }

  // Serve until a verify scan lands a repair; the collector checks the
  // alarm after every dispatch.
  std::size_t queries = 1;
  RecognitionServiceStats stats = service.stats();
  while (stats.leaf.devices_rewritten + stats.leaf.columns_remapped == 0 && queries < 200) {
    service.submit(inputs[queries % inputs.size()]).get();
    ++queries;
    stats = service.stats();
  }
  ASSERT_GT(stats.leaf.devices_rewritten + stats.leaf.columns_remapped, 0u)
      << "injected stuck-shorts never provoked a repair";
  EXPECT_GT(stats.repair_rate_per_kq, config.repair_alarm_per_kq);
  EXPECT_EQ(stats.repair_alarms, 1u) << "one excursion, one alarm";

  // More traffic with the rate still above threshold: the alarm count
  // must hold at one — edge-triggered, not re-raised per dispatch.
  for (int i = 0; i < 5; ++i) {
    service.submit(inputs[static_cast<std::size_t>(i) % inputs.size()]).get();
  }
  const RecognitionServiceStats after = service.stats();
  EXPECT_EQ(after.repair_alarms, 1u);
  EXPECT_GT(after.repair_rate_per_kq, 0.0);
}

TEST(LoadGen, OpenLoopAccountsForEveryOfferedQuery) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  RecognitionServiceConfig config;
  config.shards = 2;
  config.max_batch = 16;
  RecognitionService service(
      config, [](std::size_t, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
        DigitalAmmConfig c;
        c.features = small_spec();
        c.templates = columns;
        return std::make_unique<DigitalAmm>(c);
      });
  service.store_templates(templates);

  LoadGenConfig load;
  load.offered_qps = 50000.0;
  load.queries = 100;
  load.zipf_s = 1.0;
  load.seed = 42;
  const LoadGenReport report = run_open_loop(service, all_inputs(), load);

  // Conservation: every offered query lands in exactly one bucket, and a
  // healthy unbounded service serves all of them at full coverage.
  EXPECT_EQ(report.offered, 100u);
  EXPECT_EQ(report.served + report.shed_deadline + report.rejected_overload + report.failed,
            report.offered);
  EXPECT_EQ(report.served, 100u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_DOUBLE_EQ(report.mean_coverage, 1.0);
  EXPECT_DOUBLE_EQ(report.min_coverage, 1.0);
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_DOUBLE_EQ(report.shed_rate(), 0.0);

  // The service saw the same traffic the report describes.
  EXPECT_EQ(service.stats().queries, 100u);
}

}  // namespace
}  // namespace spinsim
