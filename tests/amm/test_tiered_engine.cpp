/// TieredEngine: escalation policy, conformance against the flat
/// authoritative engine, counters, and the tier-mix energy estimate.

#include "amm/tiered_engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "amm/digital_amm.hpp"
#include "amm/hierarchical_amm.hpp"
#include "amm/spin_amm.hpp"
#include "core/error.hpp"
#include "support/shared_dataset.hpp"

namespace spinsim {
namespace {

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

/// Deterministic flat spin tier-1 (no thermal noise; mismatch is sampled
/// from the fixed seed, so two engines with this config are identical).
SpinAmmConfig tier1_config(std::size_t columns) {
  SpinAmmConfig c;
  c.features = small_spec();
  c.templates = columns;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 33;
  return c;
}

HierarchicalAmmConfig tier0_config() {
  HierarchicalAmmConfig c;
  c.features = small_spec();
  c.clusters = 3;
  c.dwn = DwnParams::from_barrier(20.0);
  c.seed = 5;
  return c;
}

std::unique_ptr<TieredEngine> make_tiered(const TieredEngineConfig& policy,
                                          std::size_t templates) {
  return std::make_unique<TieredEngine>(std::make_unique<HierarchicalAmm>(tier0_config()),
                                        std::make_unique<SpinAmm>(tier1_config(templates)),
                                        policy);
}

TEST(TieredEngine, RejectsNullTiers) {
  EXPECT_THROW(TieredEngine(nullptr, std::make_unique<DigitalAmm>(DigitalAmmConfig{}), {}),
               InvalidArgument);
}

TEST(TieredEngine, RejectsInvalidServoPolicy) {
  // Rejected at construction: a negative margin that reached the
  // overload controller's first relax step would only fail there, on the
  // service's collector thread, where a throw terminates the process.
  const auto make = [](const TieredEngineConfig& policy) {
    return TieredEngine(std::make_unique<DigitalAmm>(DigitalAmmConfig{}),
                        std::make_unique<DigitalAmm>(DigitalAmmConfig{}), policy);
  };
  TieredEngineConfig negative_margin;
  negative_margin.escalation_margin = -0.1;
  EXPECT_THROW(make(negative_margin), InvalidArgument);
  TieredEngineConfig zero_step;
  zero_step.margin_step = 0.0;
  EXPECT_THROW(make(zero_step), InvalidArgument);
  TieredEngineConfig large_step;
  large_step.margin_step = 1.5;
  EXPECT_THROW(make(large_step), InvalidArgument);
  TieredEngineConfig negative_floor;
  negative_floor.min_escalation_margin = -0.01;
  EXPECT_THROW(make(negative_floor), InvalidArgument);
  TieredEngineConfig unit_step;
  unit_step.margin_step = 1.0;  // the closed end of (0, 1]
  EXPECT_NO_THROW(make(unit_step));
}

TEST(TieredEngine, AdaptToLoadServosMarginAndBrownout) {
  TieredEngineConfig policy;
  policy.escalation_margin = 0.4;
  policy.margin_step = 0.5;
  policy.min_escalation_margin = 0.05;
  auto tiered = make_tiered(policy, 8);

  // Tighten halves the live margin down to the floor, then holds there.
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kTighten));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.2);
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kTighten));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.1);
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kTighten));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.05);
  EXPECT_FALSE(tiered->adapt_to_load(LoadSignal::kTighten)) << "already at the floor";
  EXPECT_FALSE(tiered->force_tier0()) << "tightening alone never browns out";

  // Brown-out forces tier 0 (a change even at the floor), once.
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kBrownout));
  EXPECT_TRUE(tiered->force_tier0());
  EXPECT_FALSE(tiered->adapt_to_load(LoadSignal::kBrownout));
  EXPECT_FALSE(tiered->adapt_to_load(LoadSignal::kTighten));
  EXPECT_TRUE(tiered->force_tier0()) << "tighten keeps a brown-out in force";

  // Hold lifts the forcing and leaves the margin alone.
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kHold));
  EXPECT_FALSE(tiered->force_tier0());
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.05);
  EXPECT_FALSE(tiered->adapt_to_load(LoadSignal::kHold));

  // Relax doubles back up to the construction margin and stops there.
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kRelax));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.1);
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kRelax));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.2);
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kRelax));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.4);
  EXPECT_FALSE(tiered->adapt_to_load(LoadSignal::kRelax)) << "already at the ceiling";

  // Relax also lifts a brown-out, even with nothing left to relax.
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kBrownout));
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.2) << "brown-out also tightens";
  EXPECT_TRUE(tiered->adapt_to_load(LoadSignal::kRelax));
  EXPECT_FALSE(tiered->force_tier0());
  EXPECT_DOUBLE_EQ(tiered->escalation_margin(), 0.4);
}

TEST(TieredEngine, ForcedEscalationMatchesFlatTier1) {
  // escalation_margin above any reachable margin escalates every query,
  // so the tiered engine must answer winner-for-winner like a flat
  // instance of its tier-1 configuration — the conformance contract the
  // service-level test repeats through RecognitionService.
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  SpinAmm flat(tier1_config(templates.size()));
  flat.store_templates(templates);

  TieredEngineConfig policy;
  policy.escalation_margin = 2.0;
  auto tiered = make_tiered(policy, templates.size());
  tiered->store_templates(templates);

  const std::vector<Recognition> got = tiered->recognize_batch(inputs);
  ASSERT_EQ(got.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition expected = flat.recognize(inputs[i]);
    EXPECT_EQ(got[i].winner, expected.winner) << "input " << i;
    EXPECT_EQ(got[i].dom, expected.dom) << "input " << i;
    ASSERT_NE(got[i].tiered(), nullptr);
    EXPECT_EQ(got[i].tiered()->tier, 1u);
  }
  const TieredCounters counters = tiered->counters();
  EXPECT_EQ(counters.queries, inputs.size());
  EXPECT_EQ(counters.escalated, inputs.size());
  EXPECT_DOUBLE_EQ(counters.escalation_rate(), 1.0);
}

TEST(TieredEngine, NeverEscalatingMatchesTier0) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  HierarchicalAmm reference(tier0_config());
  reference.store_templates(templates);

  TieredEngineConfig policy;
  policy.escalation_margin = 0.0;  // margin >= 0 always, strict < never fires
  policy.escalate_rejected = false;
  policy.escalate_ties = false;
  auto tiered = make_tiered(policy, templates.size());
  tiered->store_templates(templates);

  const std::vector<Recognition> expected = reference.recognize_batch(inputs);
  const std::vector<Recognition> got = tiered->recognize_batch(inputs);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].winner, expected[i].winner) << "input " << i;
    EXPECT_DOUBLE_EQ(got[i].margin, expected[i].margin) << "input " << i;
    ASSERT_NE(got[i].tiered(), nullptr);
    EXPECT_EQ(got[i].tiered()->tier, 0u);
    EXPECT_DOUBLE_EQ(got[i].tiered()->tier0_margin, expected[i].margin) << "input " << i;
  }
  EXPECT_EQ(tiered->counters().escalated, 0u);
}

TEST(TieredEngine, BatchMatchesSequentialRecognize) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  TieredEngineConfig policy;
  policy.escalation_margin = 0.05;
  auto batched = make_tiered(policy, templates.size());
  batched->store_templates(templates);
  auto sequential = make_tiered(policy, templates.size());
  sequential->store_templates(templates);

  const std::vector<Recognition> got = batched->recognize_batch(inputs, /*threads=*/2);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Recognition expected = sequential->recognize(inputs[i]);
    EXPECT_EQ(got[i].winner, expected.winner) << "input " << i;
    ASSERT_NE(got[i].tiered(), nullptr);
    ASSERT_NE(expected.tiered(), nullptr);
    EXPECT_EQ(got[i].tiered()->tier, expected.tiered()->tier) << "input " << i;
  }
  EXPECT_EQ(batched->counters().queries, sequential->counters().queries);
  EXPECT_EQ(batched->counters().escalated, sequential->counters().escalated);
}

TEST(TieredEngine, CountersTrackTierDetails) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  TieredEngineConfig policy;
  policy.escalation_margin = 0.05;
  auto tiered = make_tiered(policy, templates.size());
  tiered->store_templates(templates);

  const std::vector<Recognition> got = tiered->recognize_batch(inputs);
  std::size_t escalated = 0;
  std::size_t rejected = 0;
  for (const auto& r : got) {
    ASSERT_NE(r.tiered(), nullptr);
    escalated += r.tiered()->tier == 1 ? 1 : 0;
    rejected += r.accepted ? 0 : 1;
  }
  const TieredCounters counters = tiered->counters();
  EXPECT_EQ(counters.queries, got.size());
  EXPECT_EQ(counters.escalated, escalated);
  EXPECT_EQ(counters.rejected, rejected);
}

TEST(TieredEngine, EnergyEstimateFollowsObservedTierMix) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  const auto inputs = all_inputs();

  TieredEngineConfig policy;
  policy.escalation_margin = 0.0;
  policy.escalate_rejected = false;
  policy.escalate_ties = false;
  auto tiered = make_tiered(policy, templates.size());
  tiered->store_templates(templates);

  const EnergyPerQuery joule_per_query = units::J / units::query;
  const double e0 = tiered->tier0().energy_per_query().in(joule_per_query);
  const double e1 = tiered->tier1().energy_per_query().in(joule_per_query);
  ASSERT_GT(e0, 0.0);
  ASSERT_GT(e1, 0.0);

  // No traffic yet: the estimate assumes full escalation (upper bound).
  EXPECT_NEAR(tiered->energy_per_query().in(joule_per_query), e0 + e1, 1e-12 * (e0 + e1));

  // All of this policy's traffic terminates in tier 0.
  (void)tiered->recognize_batch(inputs);
  EXPECT_NEAR(tiered->energy_per_query().in(joule_per_query), e0, 1e-12 * e0);

  // The tiered active path must undercut the flat authoritative engine
  // when nothing escalates — the Section-5 energy argument, routed.
  EXPECT_LT(tiered->energy_per_query().in(joule_per_query), e1);
}

TEST(TieredEngine, PowerReportCoversBothTiers) {
  const auto templates = build_templates(testing::small_dataset(), small_spec());
  auto tiered = make_tiered({}, templates.size());
  tiered->store_templates(templates);
  const PowerReport report = tiered->power();
  bool saw_tier0 = false;
  bool saw_tier1 = false;
  for (const auto& item : report.items()) {
    saw_tier0 = saw_tier0 || item.name.rfind("tier0: ", 0) == 0;
    saw_tier1 = saw_tier1 || item.name.rfind("tier1: ", 0) == 0;
  }
  EXPECT_TRUE(saw_tier0);
  EXPECT_TRUE(saw_tier1);
  EXPECT_GT(report.total(), Power{});
}

}  // namespace
}  // namespace spinsim
