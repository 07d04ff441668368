/// Larger-than-memory serving demo: a template set several times bigger
/// than the programmed crossbar capacity, served through leaf-cache
/// shards that reprogram leaves on demand.
///
///   $ ./example_leaf_cache_service [--shards <n>] [--slots <n>] [--clusters <n>]
///
/// Each shard holds a k-means router plus `slots` programmable crossbar
/// slots; the router picks the cluster, a resident leaf answers for one
/// cheap search, a miss evicts the LRU slot and pays the write path
/// (priced by CrossbarWriteCost). Batches regroup by cluster, so one
/// reprogram serves every query of the batch headed that way. The demo
/// compares the full-pool baseline against a quarter-size pool, pins the
/// hottest cluster, and prints the service-level hit-rate/energy stats.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "amm/evaluation.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "core/table.hpp"
#include "service/recognition_service.hpp"
#include "vision/dataset.hpp"

int main(int argc, char** argv) {
  using namespace spinsim;

  std::size_t shards = 2;
  std::size_t slots = 1;
  std::size_t clusters = 4;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      shards = std::stoul(argv[++a]);
    } else if (std::strcmp(argv[a], "--slots") == 0 && a + 1 < argc) {
      slots = std::stoul(argv[++a]);
    } else if (std::strcmp(argv[a], "--clusters") == 0 && a + 1 < argc) {
      clusters = std::stoul(argv[++a]);
    }
  }

  std::printf("building the 40-identity dataset (64x48, 4 shots each)...\n");
  FaceGeneratorConfig gen;
  gen.image_height = 64;
  gen.image_width = 48;
  const FaceDataset dataset(40, 4, gen);
  FeatureSpec spec;  // 16x8, 5-bit
  const auto templates = build_templates(dataset, spec);

  LeafCacheEngineConfig base;
  base.hierarchy.features = spec;
  base.hierarchy.clusters = clusters;
  base.hierarchy.dwn = DwnParams::from_barrier(20.0);
  base.hierarchy.seed = 7;

  std::vector<FeatureVector> sweep_probes;
  sweep_probes.reserve(dataset.size());
  for (const auto& sample : dataset.all()) {
    sweep_probes.push_back(extract_features(sample.image, spec));
  }

  // --- pool-size sweep on one engine: what the cache costs and saves ---
  AsciiTable table("leaf cache: " + std::to_string(templates.size()) + " templates, " +
                   std::to_string(clusters) + " clusters, pool sweep");
  table.set_header({"slots", "accuracy", "hit rate", "energy/query", "write share"});
  for (const std::size_t pool : {clusters, slots}) {
    LeafCacheEngineConfig config = base;
    config.leaf_slots = pool;
    LeafCacheEngine engine(config);
    engine.store_templates(templates);
    const double accuracy = evaluate_engine(dataset, spec, engine).accuracy();
    // Steady-state passes: a full pool stops missing after the working
    // set is loaded, an undersized pool keeps paying per-batch reprograms.
    for (int pass = 0; pass < 8; ++pass) {
      (void)engine.recognize_batch(sweep_probes);
    }
    const LeafCacheCounters counters = engine.counters();
    const double energy = engine.energy_per_query().in(units::J / units::query);
    const double write = counters.queries == 0
                             ? 0.0
                             : counters.reprogram_energy.in(units::J) /
                                   static_cast<double>(counters.queries);
    table.add_row({std::to_string(pool), AsciiTable::num(100.0 * accuracy, 4) + " %",
                   AsciiTable::num(100.0 * counters.hit_rate(), 4) + " %",
                   AsciiTable::eng(energy, "J"),
                   AsciiTable::num(100.0 * write / energy, 3) + " %"});
  }
  table.print();

  // --- pinning the hottest cluster (needs a second slot to keep misses
  // serviceable, so the pool is at least two here) ---
  LeafCacheEngineConfig pinned_config = base;
  pinned_config.leaf_slots = std::max<std::size_t>(slots, 2);
  LeafCacheEngine pinned_engine(pinned_config);
  pinned_engine.store_templates(templates);
  std::size_t hottest = 0;
  for (std::size_t c = 0; c < pinned_engine.cluster_count(); ++c) {
    if (pinned_engine.leaf_members(c).size() >
        pinned_engine.leaf_members(hottest).size()) {
      hottest = c;
    }
  }
  const std::vector<FeatureVector>& probes = sweep_probes;
  (void)pinned_engine.recognize_batch(probes);  // load the working set once
  pinned_engine.pin(hottest);
  (void)pinned_engine.recognize_batch(probes);
  const LeafCacheCounters after_pin = pinned_engine.counters();
  std::printf("\npinned cluster %zu (%zu templates): hit rate %.1f %% over two passes, "
              "%llu evictions\n",
              hottest, pinned_engine.leaf_members(hottest).size(),
              100.0 * after_pin.hit_rate(),
              static_cast<unsigned long long>(after_pin.evictions));

  // --- the same engine behind the sharded service edge ---
  std::printf("\nserving through a %zu-shard leaf-cache RecognitionService "
              "(%zu slots per shard)...\n",
              shards, slots);
  LeafCacheEngineConfig service_config = base;
  service_config.leaf_slots = slots;
  RecognitionServiceConfig svc;
  svc.shards = shards;
  svc.max_batch = 64;
  RecognitionService service(svc, make_leaf_cache_factory(service_config));
  service.store_templates(templates);

  std::size_t correct = 0;
  const std::vector<Recognition> served = service.submit_batch(probes).get();
  for (std::size_t i = 0; i < served.size(); ++i) {
    correct += served[i].winner == dataset.all()[i].individual ? 1 : 0;
  }
  const RecognitionServiceStats stats = service.stats();
  std::printf("  %zu/%zu correct | %.0f queries/s | leaf hit rate %.1f %%\n", correct,
              served.size(), stats.queries_per_sec, 100.0 * stats.leaf.hit_rate());
  std::printf("  reprogram energy charged: %.3e J total | energy/query across shards: %.3e J\n",
              stats.leaf.reprogram_energy.in(units::J),
              stats.energy_per_query.in(units::J / units::query));

  // The headline: a pool far smaller than the template set serves with
  // useful accuracy because reprogrammed leaves answer identically.
  const bool ok = correct * 2 > served.size() && stats.leaf.misses > 0;
  std::printf("\n%s: %zu templates served from %zu programmed slots per shard\n",
              ok ? "OK" : "FAILED", templates.size(), slots);
  return ok ? 0 : 1;
}
