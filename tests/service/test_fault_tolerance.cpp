/// Shard fault tolerance at the service edge: a throwing shard is
/// retried then skipped (best-effort answers, coverage < 1), repeated
/// failures trip the per-shard circuit breaker (cooldown + exponential
/// backoff + half-open probe), and a stuck shard is abandoned by the
/// watchdog without taking the service down. Failures are scripted
/// through FaultSwitch and time through FakeClock, so every assertion is
/// deterministic and sleep-free.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "amm/fault_injection.hpp"
#include "core/clock.hpp"
#include "core/error.hpp"
#include "service/recognition_service.hpp"

namespace spinsim {
namespace {

using BreakerState = RecognitionServiceStats::BreakerState;
using std::chrono::microseconds;

/// Fixed-answer stub backend (file-private copy; see
/// test_recognition_service.cpp for the merge-semantics original).
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

/// Scripted shards, each behind its own FaultSwitch-controlled injector.
RecognitionService::EngineFactory faulty_scripted_factory(
    std::vector<ScriptedEngine::Answer> answers,
    std::vector<std::shared_ptr<FaultSwitch>> controls) {
  return [answers = std::move(answers), controls = std::move(controls)](
             std::size_t shard, std::size_t) -> std::unique_ptr<AssociativeEngine> {
    return std::make_unique<FaultInjectingEngine>(
        std::make_unique<ScriptedEngine>(answers.at(shard)), FaultInjectionConfig{},
        controls.at(shard));
  };
}

/// Two scripted shards over the 4-template set: shard 0 holds globals
/// {0,1} and scores 5.0, shard 1 holds {2,3} and scores 3.0 — so the
/// winner itself tells us which shards answered. Deadlines, breaker
/// cooldowns and latency reads all go through the rig's FakeClock; cv
/// timed waits (the stuck-shard watchdog) still run on the real clock.
struct TwoShardRig {
  std::vector<std::shared_ptr<FaultSwitch>> controls{std::make_shared<FaultSwitch>(),
                                                     std::make_shared<FaultSwitch>()};
  std::shared_ptr<FakeClock> clock = std::make_shared<FakeClock>();
  std::unique_ptr<RecognitionService> service;

  explicit TwoShardRig(RecognitionServiceConfig config) {
    config.shards = 2;
    config.admission_window = microseconds(0);
    config.clock = clock;
    service = std::make_unique<RecognitionService>(
        config,
        faulty_scripted_factory({{5.0, 0.5, true}, {3.0, 0.4, true}}, controls));
    service->store_templates(scripted_templates());
  }

  Recognition ask() { return service->submit(scripted_templates().front()).get(); }
};

TEST(ServiceFaultTolerance, ThrowingShardIsSkippedAndCoverageDrops) {
  RecognitionServiceConfig config;
  config.shard_retries = 1;
  config.breaker_failure_threshold = 1;
  config.breaker_cooldown = microseconds(1000);
  TwoShardRig rig(config);

  rig.controls[0]->set_throwing(true);
  const Recognition got = rig.ask();

  // Best-effort answer from the surviving shard: its local winner 0 maps
  // to global 2, and coverage says half the template set was searched.
  EXPECT_EQ(got.winner, 2u);
  EXPECT_DOUBLE_EQ(got.coverage, 0.5);
  EXPECT_FALSE(got.degraded);

  const RecognitionServiceStats stats = rig.service->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.failed, 0u) << "a skipped shard is degradation, not failure";
  EXPECT_EQ(stats.best_effort, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_coverage, 0.5);
  EXPECT_EQ(stats.shard_failures, 2u);  // first attempt + one retry
  EXPECT_EQ(stats.shard_retries, 1u);
  EXPECT_EQ(stats.breaker_ejections, 1u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[0].breaker, BreakerState::kOpen);
  EXPECT_FALSE(stats.shards[0].available);
  EXPECT_EQ(stats.shards[1].breaker, BreakerState::kClosed);
}

TEST(ServiceFaultTolerance, BreakerRecoversAfterCooldown) {
  RecognitionServiceConfig config;
  config.breaker_failure_threshold = 1;
  config.breaker_cooldown = microseconds(1000);
  TwoShardRig timed(config);

  timed.controls[0]->set_throwing(true);
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 0.5);  // trips the breaker
  timed.controls[0]->set_throwing(false);

  // The fault is gone but the cooldown has not elapsed: the breaker keeps
  // the shard out of the next dispatch (no probe yet).
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 0.5);
  EXPECT_EQ(timed.service->stats().shards[0].breaker, BreakerState::kOpen);

  // Past the cooldown the half-open probe admits the shard; it answers,
  // and the breaker closes — full coverage and the strong shard's winner.
  timed.clock->advance(microseconds(1500));
  const Recognition recovered = timed.ask();
  EXPECT_DOUBLE_EQ(recovered.coverage, 1.0);
  EXPECT_EQ(recovered.winner, 0u);
  EXPECT_EQ(timed.service->stats().shards[0].breaker, BreakerState::kClosed);
  EXPECT_EQ(timed.service->stats().breaker_ejections, 1u);
}

TEST(ServiceFaultTolerance, HalfOpenProbeFailureReopensWithBackoff) {
  RecognitionServiceConfig config;
  config.breaker_failure_threshold = 1;
  config.breaker_cooldown = microseconds(1000);
  TwoShardRig timed(config);

  timed.controls[0]->set_throwing(true);
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 0.5);  // trip 1: open for 1000us
  EXPECT_EQ(timed.service->stats().breaker_ejections, 1u);

  // Probe after the first cooldown fails -> reopen immediately, and the
  // next cooldown doubles.
  timed.clock->advance(microseconds(1500));
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 0.5);
  EXPECT_EQ(timed.service->stats().breaker_ejections, 2u);

  // 1500us later we are still inside the doubled (2000us) cooldown: the
  // shard is excluded without being probed, so no new ejection.
  timed.clock->advance(microseconds(1500));
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 0.5);
  EXPECT_EQ(timed.service->stats().breaker_ejections, 2u);
  EXPECT_EQ(timed.service->stats().shards[0].breaker, BreakerState::kOpen);

  // Once healthy and past the backoff, the probe succeeds and the shard
  // rejoins for good.
  timed.controls[0]->set_throwing(false);
  timed.clock->advance(microseconds(1000));
  EXPECT_DOUBLE_EQ(timed.ask().coverage, 1.0);
  EXPECT_EQ(timed.service->stats().shards[0].breaker, BreakerState::kClosed);
}

TEST(ServiceFaultTolerance, StuckShardTimesOutAndServiceKeepsAnswering) {
  // Real clock here: the watchdog is a cv timed wait, which a FakeClock
  // cannot wake (see core/clock.hpp).
  RecognitionServiceConfig config;
  config.shard_timeout = std::chrono::milliseconds(50);
  config.breaker_failure_threshold = 100;  // keep the breaker out of this test
  TwoShardRig rig(config);

  rig.controls[0]->stick();
  const Recognition got = rig.ask();

  // The wedged shard was abandoned, not waited on forever: the answer
  // arrives from shard 1 with honest coverage.
  EXPECT_EQ(got.winner, 2u);
  EXPECT_DOUBLE_EQ(got.coverage, 0.5);
  {
    const RecognitionServiceStats stats = rig.service->stats();
    EXPECT_EQ(stats.shard_timeouts, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_FALSE(stats.shards[0].available) << "worker still holds the abandoned job";
  }

  // Unstick the engine: the worker discards the stale (abandoned)
  // results and the shard returns to service.
  rig.controls[0]->release();
  while (!rig.service->stats().shards[0].available) {
    std::this_thread::yield();
  }
  const Recognition recovered = rig.ask();
  EXPECT_DOUBLE_EQ(recovered.coverage, 1.0);
  EXPECT_EQ(recovered.winner, 0u);
}

TEST(ServiceFaultTolerance, ShardServingALiveBatchStaysAvailable) {
  // Regression: stats() used to report every busy shard unavailable, so a
  // healthy shard in the middle of a batch read `available == false`.
  // Only a worker wedged in an *abandoned* job is unavailable.
  RecognitionServiceConfig config;  // no watchdog: the stuck call stays live
  TwoShardRig rig(config);

  rig.controls[0]->stick();
  std::future<Recognition> pending = rig.service->submit(scripted_templates().front());
  while (rig.controls[0]->stuck_calls() == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(rig.service->stats().shards[0].available) << "serving is not wedged";

  rig.controls[0]->release();
  const Recognition got = pending.get();
  EXPECT_DOUBLE_EQ(got.coverage, 1.0);
  EXPECT_EQ(got.winner, 0u);
}

TEST(ServiceFaultTolerance, AbandonedJobInputsOutliveTheDispatch) {
  // Regression: the shard job handoff used to pass a raw pointer to the
  // dispatch frame's input batch. When the watchdog abandoned a wedged
  // shard, the dispatch returned and destroyed that batch while the
  // worker was still stuck *before* reading it — so on release the
  // engine read freed memory (a heap use-after-free ASan catches, and a
  // data race TSan catches). The handoff now shares ownership of the
  // batch, so the inputs live until the last worker lets go. This test
  // scripts exactly that schedule and pumps fresh dispatches through the
  // heap between abandonment and release so the freed allocation is
  // recycled, not just stale.
  RecognitionServiceConfig config;
  config.shard_timeout = std::chrono::milliseconds(50);
  config.breaker_failure_threshold = 100;  // keep the breaker out of this test
  TwoShardRig rig(config);

  rig.controls[0]->stick();
  const Recognition abandoned = rig.ask();
  EXPECT_EQ(abandoned.winner, 2u) << "shard 1 answered alone";

  // The abandoned batch's storage is free (old code) or alive (new
  // code); these dispatches churn the allocator either way, overwriting
  // a freed block with new feature data.
  for (int i = 0; i < 8; ++i) {
    const Recognition churn = rig.ask();
    EXPECT_DOUBLE_EQ(churn.coverage, 0.5) << "wedged shard must stay skipped";
  }

  // Release the wedged worker: it now reads the (shared) abandoned
  // inputs, runs the engine, and discards the stale results.
  rig.controls[0]->release();
  while (!rig.service->stats().shards[0].available) {
    std::this_thread::yield();
  }
  const Recognition recovered = rig.ask();
  EXPECT_DOUBLE_EQ(recovered.coverage, 1.0);
  EXPECT_EQ(recovered.winner, 0u);
  EXPECT_EQ(rig.service->stats().failed, 0u);
}

}  // namespace
}  // namespace spinsim
