#include "amm/tiered_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

TieredEngine::TieredEngine(std::unique_ptr<AssociativeEngine> tier0,
                           std::unique_ptr<AssociativeEngine> tier1,
                           const TieredEngineConfig& config)
    : config_(config),
      tier0_(std::move(tier0)),
      tier1_(std::move(tier1)),
      margin_(config.escalation_margin) {
  require(tier0_ != nullptr && tier1_ != nullptr, "TieredEngine: both tiers must be non-null");
  require(config_.escalation_margin >= 0.0,
          "TieredEngine: escalation margin cannot be negative");
  require(config_.margin_step > 0.0 && config_.margin_step <= 1.0,
          "TieredEngine: margin_step must lie in (0, 1]");
  require(config_.min_escalation_margin >= 0.0,
          "TieredEngine: min_escalation_margin cannot be negative");
}

bool TieredEngine::adapt_to_load(LoadSignal signal) {
  bool changed = false;
  if (signal == LoadSignal::kBrownout) {
    changed = !force_tier0_.exchange(true, std::memory_order_relaxed);
  } else if (signal != LoadSignal::kTighten) {
    changed = force_tier0_.exchange(false, std::memory_order_relaxed);
  }
  const double margin = escalation_margin();
  double next = margin;
  if (signal == LoadSignal::kTighten || signal == LoadSignal::kBrownout) {
    next = std::max(config_.min_escalation_margin, margin * config_.margin_step);
  } else if (signal == LoadSignal::kRelax) {
    next = std::min(config_.escalation_margin, margin / config_.margin_step);
  }
  if (next != margin) {
    margin_.store(next, std::memory_order_relaxed);
    changed = true;
  }
  return changed;
}

void TieredEngine::maintain() {
  tier0_->maintain();
  tier1_->maintain();
}

LeafCacheCounters TieredEngine::leaf_counters() const {
  LeafCacheCounters out = tier0_->leaf_counters();
  out += tier1_->leaf_counters();
  return out;
}

std::string TieredEngine::name() const {
  return "tiered(" + tier0_->name() + "->" + tier1_->name() + ")";
}

void TieredEngine::store_templates(const std::vector<FeatureVector>& templates) {
  tier0_->store_templates(templates);
  tier1_->store_templates(templates);
  // Checked after storing: backends like HierarchicalAmm only learn their
  // template count from store_templates().
  require(tier0_->template_count() == tier1_->template_count(),
          "TieredEngine: tiers disagree on the template count");
}

bool TieredEngine::should_escalate(const Recognition& first) const {
  if (force_tier0_.load(std::memory_order_relaxed)) {
    return false;  // brown-out: the cheap tier answers everything
  }
  if (config_.escalate_rejected && !first.accepted) {
    return true;
  }
  if (config_.escalate_ties && !first.unique) {
    return true;
  }
  return first.margin < margin_.load(std::memory_order_relaxed);
}

void TieredEngine::account(const Recognition& final_answer, bool escalated) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (escalated) {
    escalated_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!final_answer.accepted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
}

Recognition TieredEngine::recognize(const FeatureVector& input) {
  Recognition first = tier0_->recognize(input);
  const TieredRecognitionDetail tier0_view{0, first.margin, first.dom, first.accepted};
  if (!should_escalate(first)) {
    first.detail = tier0_view;
    account(first, /*escalated=*/false);
    return first;
  }
  Recognition out = tier1_->recognize(input);
  out.detail = TieredRecognitionDetail{1, tier0_view.tier0_margin, tier0_view.tier0_dom,
                                       tier0_view.tier0_accepted};
  account(out, /*escalated=*/true);
  return out;
}

std::vector<Recognition> TieredEngine::recognize_batch(const std::vector<FeatureVector>& inputs,
                                                       std::size_t threads) {
  std::vector<Recognition> results = tier0_->recognize_batch(inputs, threads);

  std::vector<std::size_t> escalate;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (should_escalate(results[i])) {
      escalate.push_back(i);
    }
  }

  if (!escalate.empty()) {
    std::vector<FeatureVector> tail;
    tail.reserve(escalate.size());
    for (const std::size_t i : escalate) {
      tail.push_back(inputs[i]);
    }
    std::vector<Recognition> authoritative = tier1_->recognize_batch(tail, threads);
    for (std::size_t k = 0; k < escalate.size(); ++k) {
      const std::size_t i = escalate[k];
      authoritative[k].detail =
          TieredRecognitionDetail{1, results[i].margin, results[i].dom, results[i].accepted};
      results[i] = std::move(authoritative[k]);
    }
  }

  std::size_t k = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bool escalated = k < escalate.size() && escalate[k] == i;
    if (escalated) {
      ++k;
    } else {
      results[i].detail = TieredRecognitionDetail{0, results[i].margin, results[i].dom,
                                                  results[i].accepted};
    }
    account(results[i], escalated);
  }
  return results;
}

PowerReport TieredEngine::power() const {
  PowerReport combined;
  combined.add_all_prefixed("tier0: ", tier0_->power());
  combined.add_all_prefixed("tier1: ", tier1_->power());
  return combined;
}

EnergyPerQuery TieredEngine::energy_per_query() const {
  // account() bumps queries_ before escalated_, so reading escalated_
  // first keeps a mid-traffic snapshot at escalated <= queries (a rate
  // above 1 would overstate the documented tier0+tier1 upper bound).
  const std::uint64_t escalated = escalated_.load(std::memory_order_relaxed);
  const std::uint64_t queries = queries_.load(std::memory_order_relaxed);
  const double rate =
      queries == 0 ? 1.0 : static_cast<double>(escalated) / static_cast<double>(queries);
  return tier0_->energy_per_query() + rate * tier1_->energy_per_query();
}

TieredCounters TieredEngine::counters() const {
  // Same read order as energy_per_query(): per-query counters before the
  // total, so escalated/rejected never exceed queries in the snapshot.
  TieredCounters out;
  out.escalated = escalated_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace spinsim
