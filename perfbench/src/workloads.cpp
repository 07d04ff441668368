#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "amm/hierarchical_amm.hpp"
#include "amm/leaf_cache_engine.hpp"
#include "amm/spin_amm.hpp"
#include "amm/tiered_engine.hpp"
#include "core/parallel.hpp"
#include "core/random.hpp"
#include "open_loop.hpp"
#include "service/recognition_service.hpp"
#include "trace.hpp"
#include "vision/dataset.hpp"

namespace perfbench {
namespace {

using namespace spinsim;

/// Set-up runs at least kSetupRepeats times and until kSetupSeconds
/// have gone (at most kSetupMaxRepeats times), and its median is
/// reported, so one slow set-up does not decide `setup_s`.
constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kSetupMaxRepeats = 15;
constexpr double kSetupSeconds = 1.5;

/// Leaf-sized store_templates calls timed for `crossbar.program_ms`.
constexpr std::size_t kProgramRepeats = 9;

// Stage spans the engine reports through SpinAmm::last_batch_timing().
constexpr const char* kStageDac = "datapath.dac";
constexpr const char* kStageGemm = "crossbar.gemm";
constexpr const char* kStageWta = "wta.search";
constexpr const char* kStageAssemble = "amm.assemble";

/// The per-layer metrics every traced run reports, in BENCHMARK.json
/// order. A layer the workload never reaches reports 0. The workloads
/// BENCHMARK.json leaves out add metrics of their own after these
/// (service_open's tier and load generator figures, leaf_churn's cache
/// and write-path figures).
const std::vector<std::pair<const char*, const char*>>& layer_metric_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"vision.dataset_ms", "ms"},
      {"vision.extract_us_per_image", "us"},
      {"amm.store_templates_ms", "ms"},
      {"datapath.dac_us_per_q", "us"},
      {"crossbar.gemm_us_per_q", "us"},
      {"wta.search_us_per_q", "us"},
      {"amm.assemble_us_per_q", "us"},
      {"amm.batch_other_us_per_q", "us"},
      {"amm.recognize_batch_us_per_q", "us"},
      {"service.submit_us", "us"},
      {"service.mean_batch_size", "count"},
      {"service.shard_batch_p50_us", "us"},
      {"service.shard_batch_p99_us", "us"},
      {"service.edge_p50_us", "us"},
      {"service.shard_busy_fraction", "ratio"},
      {"service.dispatch_overhead_us_per_q", "us"},
      {"energy.rcm_input.pj_per_q", "pJ"},
      {"energy.sar_dac_sink.pj_per_q", "pJ"},
      {"energy.read_latch.pj_per_q", "pJ"},
      {"energy.sar_logic.pj_per_q", "pJ"},
      {"energy.winner_tracking.pj_per_q", "pJ"},
      {"energy.dtcs_gate.pj_per_q", "pJ"},
      {"energy.other.pj_per_q", "pJ"},
      {"trace.overhead.recognitions_per_s", "1/s"},
      {"trace.overhead.latency_p50_us", "us"},
      {"trace.overhead.slo_attainment", "ratio"},
  };
  return names;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 of (seed, salt): independent streams per input kind.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double pj_per_query(EnergyPerQuery e) { return e.in(units::pJ / units::query); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  throw std::runtime_error("peak_rss_mb: VmHWM missing from /proc/self/status");
}

template <typename F>
void in_span(Trace& trace, const char* name, std::size_t items, F&& body) {
  Span s;
  s.name = name;
  s.items = static_cast<std::uint32_t>(items);
  s.start_ns = now_ns();
  body();
  s.end_ns = now_ns();
  trace.record(s);
}

// ------------------------------------------------------------------ inputs

/// The face set of one workload: every image of the dataset as a probe
/// (labelled with its identity) and one stored template per identity, in
/// identity order. The face set is the stored data and stays the same for
/// every seed (the generator's own default seed), so `accuracy` and the
/// engines' calibration repeat exactly across runs; the workload seed
/// draws the traffic sent against it.
struct Faces {
  std::vector<FeatureVector> probes;
  std::vector<std::size_t> labels;
  std::vector<FeatureVector> templates;
};

Faces make_faces(std::size_t identities, std::size_t shots, std::size_t height, std::size_t width,
                 const FeatureSpec& spec, Trace& trace) {
  FaceGeneratorConfig generator;
  generator.image_height = height;
  generator.image_width = width;
  std::unique_ptr<FaceDataset> dataset;
  in_span(trace, "vision.dataset", identities * shots,
          [&] { dataset = std::make_unique<FaceDataset>(identities, shots, generator); });
  Faces faces;
  in_span(trace, "vision.extract", dataset->size(), [&] {
    for (const LabelledImage& sample : dataset->all()) {
      faces.probes.push_back(extract_features(sample.image, spec));
      faces.labels.push_back(sample.individual);
    }
  });
  in_span(trace, "vision.templates", identities,
          [&] { faces.templates = build_templates(*dataset, spec); });
  return faces;
}

/// `count` batches of `size` pool indices: successive slices of a seeded
/// permutation of the pool, so every probe is sent equally often.
std::vector<std::vector<FeatureVector>> permuted_batches(const std::vector<FeatureVector>& pool,
                                                         std::size_t count, std::size_t size,
                                                         std::uint64_t seed,
                                                         std::vector<std::vector<std::size_t>>& ids) {
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng rng(seed);
  rng.shuffle(order);
  std::vector<std::vector<FeatureVector>> batches(count);
  ids.assign(count, {});
  std::size_t cursor = 0;
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t j = 0; j < size; ++j) {
      const std::size_t p = order[cursor++ % order.size()];
      batches[b].push_back(pool[p]);
      ids[b].push_back(p);
    }
  }
  return batches;
}

std::size_t count_mismatches(const std::vector<Recognition>& answers,
                             const std::vector<std::size_t>& probe_ids,
                             const std::vector<std::size_t>& expected) {
  if (answers.size() != probe_ids.size()) {
    return probe_ids.size();
  }
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    wrong += answers[i].winner == expected[probe_ids[i]] ? 0 : 1;
  }
  return wrong;
}

double accuracy_of(const std::vector<std::size_t>& winners, const std::vector<std::size_t>& labels) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < winners.size(); ++i) {
    hits += winners[i] == labels[i] ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(winners.size());
}

std::vector<std::size_t> winners_of(const std::vector<Recognition>& answers) {
  std::vector<std::size_t> out;
  out.reserve(answers.size());
  for (const Recognition& r : answers) {
    out.push_back(r.winner);
  }
  return out;
}

// ------------------------------------------------------------------ energy

/// Short metric name of one PowerReport item, with the composite
/// prefixes ("tier0: ", "router: ", "leaf: ", "write: ") folded away so
/// every workload reports the same blocks.
std::string energy_slug(const std::string& item) {
  const std::size_t cut = item.rfind(": ");
  const std::string base = cut == std::string::npos ? item : item.substr(cut + 2);
  static const std::pair<const char*, const char*> kSlugs[] = {
      {"RCM input currents (I_in x dV)", "rcm_input"},
      {"SAR-DAC sink currents (I_dac x 2dV)", "sar_dac_sink"},
      {"dynamic read latches", "read_latch"},
      {"SAR registers + mux", "sar_logic"},
      {"winner tracking (TR/DR/DL)", "winner_tracking"},
      {"DTCS gate drivers", "dtcs_gate"},
      {"reprogram (amortized)", "leaf_reprogram"},
  };
  for (const auto& [from, to] : kSlugs) {
    if (base == from) {
      return to;
    }
  }
  return "other";
}

/// Adds `weight` x the engine's energy per query, split over its power
/// items in proportion to their power (the engine's recognition rate is
/// one rate for all its items). A tiered engine splits into tier 0 plus
/// tier 1 at its observed escalation rate, which is how it prices a query.
void add_energy_items(const AssociativeEngine& engine, double weight,
                      std::map<std::string, double>& out) {
  if (const auto* tiered = dynamic_cast<const TieredEngine*>(&engine)) {
    const double e0 = pj_per_query(tiered->tier0().energy_per_query());
    const double e1 = pj_per_query(tiered->tier1().energy_per_query());
    const double rate = e1 > 0.0 ? (pj_per_query(tiered->energy_per_query()) - e0) / e1 : 0.0;
    add_energy_items(tiered->tier0(), weight, out);
    add_energy_items(tiered->tier1(), weight * rate, out);
    return;
  }
  const PowerReport report = engine.power();
  const double total_w = report.total().in(units::W);
  const double epq = pj_per_query(engine.energy_per_query());
  for (const PowerItem& item : report.items()) {
    const double share = total_w > 0.0 ? item.power.in(units::W) / total_w : 0.0;
    out[energy_slug(item.name)] += weight * epq * share;
  }
}

std::map<std::string, double> energy_items(const std::vector<const AssociativeEngine*>& engines) {
  std::map<std::string, double> out;
  for (const AssociativeEngine* e : engines) {
    add_energy_items(*e, 1.0, out);
  }
  return out;
}

// ---------------------------------------------------------------- tracing

/// Forwards to an engine and, while the trace is enabled, records one
/// span per recognize_batch call; for a SpinAmm it also records the
/// engine's own per-stage times as children of that span. Installed in
/// both traced and untraced runs so the two execute the same calls.
class TimedEngine final : public AssociativeEngine {
 public:
  TimedEngine(std::unique_ptr<AssociativeEngine> inner, Trace& trace, const char* span,
              const SpinAmm* stages)
      : inner_(std::move(inner)), trace_(trace), span_(span), stages_(stages) {}

  std::string name() const override { return inner_->name(); }
  std::size_t template_count() const override { return inner_->template_count(); }
  void store_templates(const std::vector<FeatureVector>& templates) override {
    inner_->store_templates(templates);
  }
  Recognition recognize(const FeatureVector& input) override { return inner_->recognize(input); }
  std::vector<Recognition> recognize_batch(const std::vector<FeatureVector>& inputs,
                                           std::size_t threads) override {
    if (!trace_.enabled()) {
      return inner_->recognize_batch(inputs, threads);
    }
    Span s;
    s.name = span_;
    s.items = static_cast<std::uint32_t>(inputs.size());
    s.id = batches_++;
    // SpinAmm fans a batch out over resolve_threads(threads, batch)
    // workers and sums its stage times over them.
    s.lanes = stages_ != nullptr ? static_cast<std::uint32_t>(resolve_threads(threads, inputs.size()))
                                 : 1;
    s.start_ns = now_ns();
    std::vector<Recognition> out = inner_->recognize_batch(inputs, threads);
    s.end_ns = now_ns();
    const std::int64_t index = trace_.record(s);
    if (stages_ != nullptr) {
      const SpinBatchTiming& t = stages_->last_batch_timing();
      trace_.record_stages(index, s,
                           {{kStageDac, t.dac_us},
                            {kStageGemm, t.gemm_us},
                            {kStageWta, t.wta_us},
                            {kStageAssemble, t.assemble_us}});
    }
    return out;
  }
  PowerReport power() const override { return inner_->power(); }
  EnergyPerQuery energy_per_query() const override { return inner_->energy_per_query(); }

 private:
  std::unique_ptr<AssociativeEngine> inner_;
  Trace& trace_;
  const char* span_;
  const SpinAmm* stages_;
  std::uint64_t batches_ = 0;  // serving thread only
};

// ------------------------------------------------------------------ loops

/// What one measured phase of a workload observed.
struct Phase {
  std::vector<double> round_qps;   ///< closed loop: one rate per fixed-size round
  std::vector<double> latency_us;  ///< per call (closed) or per query (open)
  std::size_t offered = 0;
  std::size_t within_slo = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  std::int64_t start_ns = 0;
  bool open_loop = false;
  OpenLoopResult open;

  double recognitions_per_s() const {
    if (open_loop) {
      return open.wall_s > 0.0 ? static_cast<double>(open.answered) / open.wall_s : 0.0;
    }
    return median(round_qps);
  }
  double slo_attainment() const {
    return offered == 0 ? 0.0 : static_cast<double>(within_slo) / static_cast<double>(offered);
  }
};

struct CallOutcome {
  std::int64_t end_ns = 0;
  std::size_t failed = 0;
};

/// One caller, each call sent when the previous returned. Runs whole
/// rounds of `calls_per_round` calls until `seconds` have passed. A call
/// is due when it is sent, so its latency is its duration.
/// `call(k, start_ns)` makes the k-th call; `after_round(r)` runs between
/// rounds, outside the timing.
template <typename Call, typename AfterRound>
Phase closed_loop(double seconds, std::size_t calls_per_round, std::size_t per_call,
                  double slo_us, Call&& call, AfterRound&& after_round) {
  Phase p;
  p.start_ns = now_ns();
  const auto stop_ns = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t k = 0;
  std::size_t round = 0;
  do {
    const std::int64_t r0 = now_ns();
    for (std::size_t i = 0; i < calls_per_round; ++i) {
      const std::int64_t t0 = now_ns();
      const CallOutcome o = call(k++, t0);
      const double us = static_cast<double>(o.end_ns - t0) * 1e-3;
      p.latency_us.push_back(us);
      p.offered += per_call;
      p.failed += o.failed;
      if (us <= slo_us) {
        p.within_slo += per_call - std::min(per_call, o.failed);
      }
    }
    const std::int64_t r1 = now_ns();
    p.round_qps.push_back(static_cast<double>(calls_per_round * per_call) /
                          (static_cast<double>(r1 - r0) * 1e-9));
    after_round(round++);
  } while (now_ns() < stop_ns);
  p.wall_s = static_cast<double>(now_ns() - p.start_ns) * 1e-9;
  return p;
}

// ---------------------------------------------------------- layer metrics

bool is_stage(const Span& s) {
  const std::string n = s.name;
  return n == kStageDac || n == kStageGemm || n == kStageWta || n == kStageAssemble;
}

std::vector<double> durations_us(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(s.duration_us());
    }
  }
  return out;
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

/// Everything a traced run reports, filled in by the workload and by
/// layer_metrics_from_spans(); names missing here report 0.
using LayerValues = std::map<std::string, double>;

void set_up_layers(const std::vector<Span>& spans, LayerValues& out) {
  out["vision.dataset_ms"] = median_or_zero(durations_us(spans, "vision.dataset")) * 1e-3;
  std::vector<double> per_image;
  for (const Span& s : spans) {
    if (std::string(s.name) == "vision.extract" && s.items > 0) {
      per_image.push_back(s.duration_us() / s.items);
    }
  }
  out["vision.extract_us_per_image"] = median_or_zero(per_image);
  out["amm.store_templates_ms"] = median_or_zero(durations_us(spans, "amm.store_templates")) * 1e-3;
}

/// Stage, batch-span and service-edge metrics from the measured phase's
/// spans. `shards` and `wall_s` price the shard busy fraction.
void layer_metrics_from_spans(std::vector<Span>& spans, std::size_t shards, double wall_s,
                              LayerValues& out) {
  // Stage self times and what the batch span spends outside them.
  std::map<std::int64_t, std::vector<Span>> stages_of;
  std::map<std::string, double> stage_us;
  std::map<std::string, double> stage_items;
  for (const Span& s : spans) {
    if (is_stage(s) && s.parent >= 0) {
      stages_of[s.parent].push_back(s);
      stage_us[s.name] += s.duration_us();
      stage_items[s.name] += s.items;
    }
  }
  const auto per_q = [&](const char* name) {
    return stage_items[name] > 0.0 ? stage_us[name] / stage_items[name] : 0.0;
  };
  out["datapath.dac_us_per_q"] = per_q(kStageDac);
  out["crossbar.gemm_us_per_q"] = per_q(kStageGemm);
  out["wta.search_us_per_q"] = per_q(kStageWta);
  out["amm.assemble_us_per_q"] = per_q(kStageAssemble);
  double batch_worker_us = 0.0;
  double batch_self_us = 0.0;
  double batch_items = 0.0;
  for (const auto& [parent, children] : stages_of) {
    const Span& batch = spans[static_cast<std::size_t>(parent)];
    batch_worker_us += batch.worker_us();
    batch_self_us += self_time_us(batch, children);
    batch_items += batch.items;
  }
  if (batch_items > 0.0) {
    out["amm.recognize_batch_us_per_q"] = batch_worker_us / batch_items;
    out["amm.batch_other_us_per_q"] = batch_self_us / batch_items;
  }

  // Service edge.
  std::vector<double> shard_us;
  double shard_items = 0.0;
  double shard_total_us = 0.0;
  for (const Span& s : spans) {
    if (std::string(s.name) == "service.shard_batch") {
      shard_us.push_back(s.duration_us());
      shard_items += s.items;
      shard_total_us += s.duration_us();
    }
  }
  if (shard_us.empty()) {
    return;
  }
  const Quantile shard_p50 = quantile(shard_us, 0.50);
  out["service.shard_batch_p50_us"] = shard_p50.value;
  out["service.shard_batch_p99_us"] = quantile(shard_us, 0.99).value;
  out["service.mean_batch_size"] = shard_items / static_cast<double>(shard_us.size());
  out["service.shard_busy_fraction"] = shard_total_us / (static_cast<double>(shards) * wall_s * 1e6);
  out["service.submit_us"] = median_or_zero(durations_us(spans, "load.submit"));

  std::vector<double> client_us = durations_us(spans, "client.query");
  if (client_us.empty()) {
    client_us = durations_us(spans, "client.submit_batch");
  }
  if (!client_us.empty()) {
    out["service.edge_p50_us"] = median(client_us) - shard_p50.value;
  }

  // Closed loop: client time during which no shard was computing.
  link_by_containment(spans, "client.submit_batch", "service.shard_batch");
  std::map<std::int64_t, std::vector<Span>> shard_batches_of;
  for (const Span& s : spans) {
    if (std::string(s.name) == "service.shard_batch" && s.parent >= 0) {
      shard_batches_of[s.parent].push_back(s);
    }
  }
  double client_self_us = 0.0;
  double client_items = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "client.submit_batch") {
      client_self_us += self_time_us(spans[i], shard_batches_of[static_cast<std::int64_t>(i)]);
      client_items += spans[i].items;
    }
  }
  if (client_items > 0.0) {
    out["service.dispatch_overhead_us_per_q"] = client_self_us / client_items;
  }
}

std::vector<Span> spans_since(const std::vector<Span>& spans, std::int64_t start_ns) {
  std::vector<Span> out;
  std::vector<std::int64_t> remap(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].start_ns >= start_ns) {
      remap[i] = static_cast<std::int64_t>(out.size());
      out.push_back(spans[i]);
    }
  }
  for (Span& s : out) {
    s.parent = s.parent >= 0 ? remap[static_cast<std::size_t>(s.parent)] : -1;
  }
  return out;
}

// ------------------------------------------------------------ reporting

struct Outcome {
  std::vector<double> setup_s;
  double accuracy = 0.0;
  double energy_pj = 0.0;
  std::map<std::string, double> energy_items_pj;
  Phase measured;    ///< untraced phase (the whole run when not tracing)
  Phase traced;      ///< traced phase (traced runs only)
  LayerValues layers;
  std::map<std::string, std::string> extra_units;  ///< units of workload-only layer metrics
  std::vector<std::string> problems;
};

RunResult report(const RunOptions& options, Outcome&& o) {
  RunResult r;
  for (const Phase* p : {&o.measured, &o.traced}) {
    r.attempted += p->offered;
    r.failed += p->failed;
  }
  r.notes = o.problems;
  r.correct = r.failed == 0 && o.problems.empty();

  double energy_sum = 0.0;
  for (const auto& [slug, pj] : o.energy_items_pj) {
    energy_sum += pj;
  }
  if (std::abs(energy_sum - o.energy_pj) > 1e-6 * o.energy_pj) {
    r.notes.push_back("energy items sum to " + std::to_string(energy_sum) + " pJ, engine reports " +
                      std::to_string(o.energy_pj) + " pJ");
  }

  if (!options.trace) {
    const Phase& p = o.measured;
    const Quantile p50 = quantile(p.latency_us, 0.50);
    // Tail percentiles are printed, not gated: on a shared virtual machine
    // the host's vCPU stalls hit a share of calls that moves with its load,
    // which moved engine_batch's p95 between 12.4 and 20.1 ms over runs
    // of the same code (see README.md).
    for (const double q : {0.95, 0.99}) {
      const Quantile tail = quantile(p.latency_us, q);
      r.notes.push_back("latency p" + std::to_string(static_cast<int>(q * 100)) + " " +
                        std::to_string(tail.value) + " us over " + std::to_string(tail.samples) +
                        " samples (" + std::to_string(tail.beyond) + " beyond it), not gated");
    }
    r.metrics = {
        {"setup_s", median(o.setup_s), "s", o.setup_s.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", 0},
        {"recognitions_per_s", p.recognitions_per_s(), "1/s",
         p.open_loop ? p.open.answered : p.round_qps.size()},
        {"latency_p50_us", p50.value, "us", p50.samples},
        {"slo_attainment", p.slo_attainment(), "ratio", p.offered},
        {"accuracy", o.accuracy, "ratio", 0},
        {"energy_per_query_pj", o.energy_pj, "pJ", 0},
    };
    return r;
  }

  LayerValues& layers = o.layers;
  for (const auto& [slug, pj] : o.energy_items_pj) {
    layers["energy." + slug + ".pj_per_q"] = pj;
    o.extra_units["energy." + slug + ".pj_per_q"] = "pJ";
  }
  const Phase& a = o.measured;
  const Phase& b = o.traced;
  layers["trace.overhead.recognitions_per_s"] = b.recognitions_per_s() - a.recognitions_per_s();
  layers["trace.overhead.latency_p50_us"] =
      quantile(b.latency_us, 0.50).value - quantile(a.latency_us, 0.50).value;
  layers["trace.overhead.slo_attainment"] = b.slo_attainment() - a.slo_attainment();
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it = layers.find(name);
    r.metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit, 0});
    if (it != layers.end()) {
      layers.erase(it);
    }
  }
  for (const auto& [name, value] : layers) {
    r.metrics.push_back({name, value, o.extra_units[name], 0});
  }
  return r;
}

/// Runs `measure(seconds)` once untraced, or (traced run) half the time
/// untraced and half traced, returning the traced phase's spans.
template <typename Measure>
std::vector<Span> measure_phases(const RunOptions& options, Trace& trace, Outcome& o,
                                 Measure&& measure) {
  trace.set_enabled(false);
  if (!options.trace) {
    o.measured = measure(options.seconds);
    return {};
  }
  o.measured = measure(options.seconds / 2.0);
  trace.set_enabled(true);
  o.traced = measure(options.seconds / 2.0);
  trace.set_enabled(false);
  return spans_since(trace.snapshot(), o.traced.start_ns);
}

/// Traced runs: the set-up and phase layer metrics, and the span file.
void finish_trace(const RunOptions& options, const Trace& trace, std::vector<Span>& spans,
                  std::size_t shards, Outcome& o) {
  if (!options.trace) {
    return;
  }
  set_up_layers(trace.snapshot(), o.layers);
  layer_metrics_from_spans(spans, shards, o.traced.wall_s, o.layers);
  if (!options.trace_path.empty() && !trace.write_json(options.trace_path)) {
    o.problems.push_back("could not write " + options.trace_path);
  }
}

template <typename Setup>
auto repeated_setup(Outcome& o, Setup&& setup) {
  decltype(setup()) state;
  double spent_s = 0.0;
  while (o.setup_s.size() < kSetupRepeats ||
         (spent_s < kSetupSeconds && o.setup_s.size() < kSetupMaxRepeats)) {
    state = nullptr;  // tear the previous set-up down before timing the next
    const std::int64_t t0 = now_ns();
    state = setup();
    o.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    spent_s += o.setup_s.back();
  }
  return state;
}

// -------------------------------------------------------------- workloads

/// The `service` micro-benchmark's 64-row x 160-template parasitic
/// transfer-operator design point.
SpinAmmConfig wide_spin_config(std::size_t templates) {
  SpinAmmConfig c;
  c.features.height = 8;
  c.features.width = 8;
  c.templates = templates;
  c.dwn = DwnParams::from_barrier(20.0);
  c.model = CrossbarModel::kParasitic;
  c.parasitic_solver = CrossbarSolver::kTransfer;
  c.seed = 5;
  return c;
}

Faces wide_faces(Trace& trace) {
  return make_faces(160, 4, 64, 64, wide_spin_config(160).features, trace);
}

constexpr std::size_t kWideBatch = 256;
constexpr std::size_t kWideBatchesPerRound = 8;
constexpr std::size_t kWideDistinctBatches = 5;  // 1280 queries: every probe twice
constexpr std::size_t kEngineThreads = 2;

// engine_batch -----------------------------------------------------------

constexpr double kEngineBatchSloUs = 25000.0;

RunResult run_engine_batch(const RunOptions& options) {
  Trace trace;
  trace.set_enabled(options.trace);
  Outcome o;
  struct State {
    Faces faces;
    SpinAmm* amm = nullptr;  // owned by `engine`
    std::unique_ptr<TimedEngine> engine;
    std::vector<std::vector<FeatureVector>> batches;
    std::vector<std::vector<std::size_t>> batch_ids;
  };
  auto s = repeated_setup(o, [&] {
    auto st = std::make_unique<State>();
    st->faces = wide_faces(trace);
    auto amm = std::make_unique<SpinAmm>(wide_spin_config(st->faces.templates.size()));
    st->amm = amm.get();
    st->engine =
        std::make_unique<TimedEngine>(std::move(amm), trace, "amm.recognize_batch", st->amm);
    in_span(trace, "amm.store_templates", st->faces.templates.size(),
            [&] { st->engine->store_templates(st->faces.templates); });
    st->batches = permuted_batches(st->faces.probes, kWideDistinctBatches, kWideBatch,
                                   derive_seed(options.seed, 2), st->batch_ids);
    (void)st->engine->recognize_batch(st->batches[0], kEngineThreads);
    return st;
  });

  // Reference: sequential recognize() of every distinct probe (untimed).
  std::vector<std::size_t> expected;
  for (const FeatureVector& probe : s->faces.probes) {
    expected.push_back(s->amm->recognize(probe).winner);
  }
  o.accuracy = accuracy_of(expected, s->faces.labels);
  o.energy_pj = pj_per_query(s->amm->energy_per_query());
  o.energy_items_pj = energy_items({s->amm});

  auto spans = measure_phases(options, trace, o, [&](double seconds) {
    return closed_loop(
        seconds, kWideBatchesPerRound, kWideBatch, kEngineBatchSloUs,
        [&](std::uint64_t k, std::int64_t) {
          const std::size_t b = k % s->batches.size();
          const std::vector<Recognition> answers =
              s->engine->recognize_batch(s->batches[b], kEngineThreads);
          CallOutcome out;
          out.end_ns = now_ns();
          out.failed = count_mismatches(answers, s->batch_ids[b], expected);
          return out;
        },
        [](std::size_t) {});
  });
  finish_trace(options, trace, spans, 0, o);
  return report(options, std::move(o));
}

// service_saturate -------------------------------------------------------

constexpr double kServiceSaturateSloUs = 30000.0;

/// The service's own counters must add up: every query submitted since
/// store_templates() is counted once and none failed or was shed.
void check_service_counters(const RecognitionServiceStats& stats, std::uint64_t submitted,
                            std::vector<std::string>& problems) {
  if (stats.queries != submitted || stats.failed != 0 || stats.shed_deadline != 0 ||
      stats.rejected_overload != 0) {
    problems.push_back("service counted " + std::to_string(stats.queries) + " queries (" +
                       std::to_string(stats.failed) + " failed, " +
                       std::to_string(stats.shed_deadline) + " shed, " +
                       std::to_string(stats.rejected_overload) + " refused) for " +
                       std::to_string(submitted) + " submitted");
  }
}

RunResult run_service_saturate(const RunOptions& options) {
  Trace trace;
  trace.set_enabled(options.trace);
  Outcome o;
  struct State {
    Faces faces;
    std::vector<const AssociativeEngine*> engines;
    std::unique_ptr<RecognitionService> service;
    std::vector<std::vector<FeatureVector>> batches;
    std::vector<std::vector<std::size_t>> batch_ids;
    std::uint64_t submitted = 0;
  };
  auto s = repeated_setup(o, [&] {
    auto st = std::make_unique<State>();
    st->faces = wide_faces(trace);
    // Shards share the flat engine's realised sizing so their DOM codes
    // merge (the service's score-comparability contract).
    SpinAmm flat(wide_spin_config(st->faces.templates.size()));
    flat.store_templates(st->faces.templates);
    const double full_scale = flat.input_full_scale();
    const double row_target = flat.crossbar().row_conductance(0);

    RecognitionServiceConfig config;
    config.shards = 2;
    config.max_batch = kWideBatch;
    config.admission_window = std::chrono::microseconds(0);
    config.engine_threads = 1;
    State* raw = st.get();
    st->service = std::make_unique<RecognitionService>(
        config, [raw, &trace, full_scale, row_target](std::size_t, std::size_t columns) {
          SpinAmmConfig c = wide_spin_config(columns);
          c.input_full_scale_override = full_scale;
          c.row_target_conductance = row_target;
          auto spin = std::make_unique<SpinAmm>(c);
          const SpinAmm* stages = spin.get();
          raw->engines.push_back(stages);
          return std::make_unique<TimedEngine>(std::move(spin), trace, "service.shard_batch",
                                               stages);
        });
    in_span(trace, "amm.store_templates", st->faces.templates.size(),
            [&] { st->service->store_templates(st->faces.templates); });
    st->batches = permuted_batches(st->faces.probes, kWideDistinctBatches, kWideBatch,
                                   derive_seed(options.seed, 2), st->batch_ids);
    (void)st->service->submit_batch(st->batches[0]).get();
    st->submitted += kWideBatch;
    return st;
  });

  // Reference: one closed-loop pass over the pool (untimed).
  const std::vector<std::size_t> expected =
      winners_of(s->service->submit_batch(s->faces.probes).get());
  s->submitted += s->faces.probes.size();
  o.accuracy = accuracy_of(expected, s->faces.labels);

  auto spans = measure_phases(options, trace, o, [&](double seconds) {
    return closed_loop(
        seconds, kWideBatchesPerRound, kWideBatch, kServiceSaturateSloUs,
        [&](std::uint64_t k, std::int64_t start_ns) {
          const std::size_t b = k % s->batches.size();
          auto future = s->service->submit_batch(s->batches[b]);
          const std::int64_t submitted_ns = now_ns();
          const std::vector<Recognition> answers = future.get();
          CallOutcome out;
          out.end_ns = now_ns();
          s->submitted += kWideBatch;
          if (trace.enabled()) {
            Span span;
            span.name = "client.submit_batch";
            span.start_ns = start_ns;
            span.end_ns = out.end_ns;
            span.id = k;
            span.items = static_cast<std::uint32_t>(kWideBatch);
            trace.record(span);
            span.name = "load.submit";
            span.end_ns = submitted_ns;
            trace.record(span);
          }
          out.failed = count_mismatches(answers, s->batch_ids[b], expected);
          return out;
        },
        [](std::size_t) {});
  });
  s->service->drain();
  const RecognitionServiceStats stats = s->service->stats();
  check_service_counters(stats, s->submitted, o.problems);
  o.energy_pj = pj_per_query(stats.energy_per_query);
  o.energy_items_pj = energy_items(s->engines);
  finish_trace(options, trace, spans, s->service->shard_count(), o);
  return report(options, std::move(o));
}

// service_open -----------------------------------------------------------

constexpr double kOpenRateQps = 4000.0;
constexpr double kOpenZipf = 1.0;
constexpr double kOpenSloUs = 2000.0;
constexpr std::uint64_t kOpenPopularitySeed = 0x2013;

RunResult run_service_open(const RunOptions& options) {
  Trace trace;
  trace.set_enabled(options.trace);
  Outcome o;
  struct State {
    Faces faces;
    std::vector<const TieredEngine*> tiered;
    std::unique_ptr<RecognitionService> service;
    std::uint64_t submitted = 0;
  };
  const FeatureSpec spec;  // 16x8, 5-bit
  auto s = repeated_setup(o, [&] {
    auto st = std::make_unique<State>();
    st->faces = make_faces(40, 4, 64, 48, spec, trace);

    SpinAmmConfig flat_config;
    flat_config.features = spec;
    flat_config.templates = st->faces.templates.size();
    flat_config.dwn = DwnParams::from_barrier(20.0);
    flat_config.seed = 7;
    SpinAmm flat(flat_config);
    flat.store_templates(st->faces.templates);
    const double full_scale = flat.input_full_scale();
    const double row_target = flat.crossbar().row_conductance(0);

    HierarchicalAmmConfig tier0_config;
    tier0_config.features = spec;
    tier0_config.clusters = 4;
    tier0_config.dwn = DwnParams::from_barrier(20.0);
    tier0_config.seed = 7;
    TieredEngineConfig policy;
    policy.escalation_margin = 0.02;

    RecognitionServiceConfig config;
    config.shards = 2;
    config.max_batch = 8;
    config.admission_window = std::chrono::microseconds(200);
    config.engine_threads = 2;
    State* raw = st.get();
    st->service = std::make_unique<RecognitionService>(
        config, [raw, &trace, tier0_config, flat_config, full_scale, row_target,
                 policy](std::size_t, std::size_t columns) {
          SpinAmmConfig c = flat_config;
          c.templates = columns;
          c.input_full_scale_override = full_scale;
          c.row_target_conductance = row_target;
          auto spin = std::make_unique<SpinAmm>(c);
          const SpinAmm* stages = spin.get();
          auto tiered = std::make_unique<TieredEngine>(
              std::make_unique<HierarchicalAmm>(tier0_config),
              std::make_unique<TimedEngine>(std::move(spin), trace, "amm.recognize_batch", stages),
              policy);
          raw->tiered.push_back(tiered.get());
          return std::make_unique<TimedEngine>(std::move(tiered), trace, "service.shard_batch",
                                               nullptr);
        });
    in_span(trace, "amm.store_templates", st->faces.templates.size(),
            [&] { st->service->store_templates(st->faces.templates); });
    // Warm with serial singles: a warm-up batch would queue behind itself.
    for (std::size_t i = 0; i < 32; ++i) {
      (void)st->service->submit(st->faces.probes[i % st->faces.probes.size()]).get();
    }
    st->submitted += 32;
    return st;
  });

  const std::vector<std::size_t> reference =
      winners_of(s->service->submit_batch(s->faces.probes).get());
  s->submitted += s->faces.probes.size();
  o.accuracy = accuracy_of(reference, s->faces.labels);

  // Zipf rank r sends pool entry order[r]. The popularity order is one
  // fixed shuffle (hot ranks spread over identities and shards), not
  // drawn from the seed: which probes are hot sets the tier-escalation
  // mix, and with it the service time, so a seeded order would make runs
  // of different seeds measure different service costs.
  std::vector<std::size_t> order(s->faces.probes.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  Rng popularity(kOpenPopularitySeed);
  popularity.shuffle(order);
  std::vector<FeatureVector> ranked;
  std::vector<std::size_t> expected;
  for (const std::size_t i : order) {
    ranked.push_back(s->faces.probes[i]);
    expected.push_back(reference[i]);
  }

  const auto escalation_counts = [&] {
    std::pair<std::uint64_t, std::uint64_t> out{0, 0};
    for (const TieredEngine* t : s->tiered) {
      const TieredCounters c = t->counters();
      out.first += c.escalated;
      out.second += c.queries;
    }
    return out;
  };
  std::pair<std::uint64_t, std::uint64_t> escalations_before{0, 0};
  auto spans = measure_phases(options, trace, o, [&](double seconds) {
    const std::vector<Arrival> schedule = poisson_zipf_schedule(
        derive_seed(options.seed, 4), kOpenRateQps, seconds, ranked.size(), kOpenZipf);
    escalations_before = escalation_counts();
    Phase p;
    p.open_loop = true;
    p.start_ns = now_ns();
    p.open = run_open_loop_due(*s->service, ranked, expected, schedule, kOpenSloUs, trace);
    p.latency_us = p.open.latency_us;
    p.offered = p.open.offered;
    p.failed = p.open.failed();
    p.within_slo = p.open.within_slo;
    p.wall_s = p.open.wall_s;
    s->submitted += p.open.offered - p.open.errors;
    return p;
  });
  s->service->drain();
  const RecognitionServiceStats stats = s->service->stats();
  check_service_counters(stats, s->submitted, o.problems);
  o.energy_pj = pj_per_query(stats.energy_per_query);
  o.energy_items_pj = energy_items({s->tiered.begin(), s->tiered.end()});
  finish_trace(options, trace, spans, s->service->shard_count(), o);
  if (options.trace) {
    const auto after = escalation_counts();
    const std::uint64_t queries = after.second - escalations_before.second;
    o.extra_units.insert({{"amm.tiered.escalation_rate", "ratio"},
                          {"load.gen_late_p99_us", "us"},
                          {"load.gen_late_max_us", "us"}});
    o.layers["amm.tiered.escalation_rate"] =
        queries == 0 ? 0.0
                     : static_cast<double>(after.first - escalations_before.first) /
                           static_cast<double>(queries);
    o.layers["load.gen_late_p99_us"] = quantile(o.traced.open.late_us, 0.99).value;
    o.layers["load.gen_late_max_us"] =
        o.traced.open.late_us.empty()
            ? 0.0
            : *std::max_element(o.traced.open.late_us.begin(), o.traced.open.late_us.end());
  }
  return report(options, std::move(o));
}

// leaf_churn -------------------------------------------------------------

constexpr std::size_t kLeafBatch = 32;
constexpr std::size_t kLeafBatchesPerRound = 64;
constexpr std::size_t kLeafDistinctBatches = 256;
constexpr double kLeafChurnSloUs = 20000.0;

LeafCacheEngineConfig leaf_config() {
  LeafCacheEngineConfig c;
  c.hierarchy.clusters = 8;
  c.hierarchy.dwn = DwnParams::from_barrier(20.0);
  c.hierarchy.seed = 7;
  c.leaf_slots = 2;
  return c;
}

RunResult run_leaf_churn(const RunOptions& options) {
  Trace trace;
  trace.set_enabled(options.trace);
  Outcome o;
  const LeafCacheEngineConfig config = leaf_config();
  struct State {
    Faces faces;
    LeafCacheEngine* leaf = nullptr;  // owned by `engine`
    std::unique_ptr<TimedEngine> engine;
    std::vector<std::vector<FeatureVector>> batches;
    std::vector<std::vector<std::size_t>> batch_ids;
  };
  auto s = repeated_setup(o, [&] {
    auto st = std::make_unique<State>();
    st->faces = make_faces(80, 4, 64, 48, config.hierarchy.features, trace);
    auto leaf = std::make_unique<LeafCacheEngine>(config);
    st->leaf = leaf.get();
    st->engine = std::make_unique<TimedEngine>(std::move(leaf), trace, "amm.leaf.recognize_batch",
                                               nullptr);
    in_span(trace, "amm.store_templates", st->faces.templates.size(),
            [&] { st->engine->store_templates(st->faces.templates); });
    // Uniform draws with replacement from the pool.
    Rng rng(derive_seed(options.seed, 2));
    const auto pool = static_cast<std::int64_t>(st->faces.probes.size());
    st->batches.resize(kLeafDistinctBatches);
    st->batch_ids.resize(kLeafDistinctBatches);
    for (std::size_t b = 0; b < kLeafDistinctBatches; ++b) {
      for (std::size_t j = 0; j < kLeafBatch; ++j) {
        const auto p = static_cast<std::size_t>(rng.uniform_int(0, pool - 1));
        st->batches[b].push_back(st->faces.probes[p]);
        st->batch_ids[b].push_back(p);
      }
    }
    (void)st->engine->recognize_batch(st->batches[0], 1);
    return st;
  });

  // Reference: a fully resident hierarchy of the same configuration.
  std::vector<std::size_t> expected;
  {
    HierarchicalAmm resident(config.hierarchy);
    resident.store_templates(s->faces.templates);
    expected = winners_of(resident.recognize_batch(s->faces.probes, 1));
  }
  o.accuracy = accuracy_of(expected, s->faces.labels);

  LeafCacheCounters before;
  bool energy_taken = false;
  auto spans = measure_phases(options, trace, o, [&](double seconds) {
    before = s->leaf->counters();
    return closed_loop(
        seconds, kLeafBatchesPerRound, kLeafBatch, kLeafChurnSloUs,
        [&](std::uint64_t k, std::int64_t) {
          const std::size_t b = k % s->batches.size();
          const std::vector<Recognition> answers = s->engine->recognize_batch(s->batches[b], 1);
          CallOutcome out;
          out.end_ns = now_ns();
          out.failed = count_mismatches(answers, s->batch_ids[b], expected);
          return out;
        },
        [&](std::size_t round) {
          // The reprogram share of energy depends on how many queries
          // have run, so it is read at a fixed point: after the first
          // round of the first phase.
          if (round == 0 && !energy_taken) {
            energy_taken = true;
            o.energy_pj = pj_per_query(s->leaf->energy_per_query());
            o.energy_items_pj = energy_items({s->leaf});
          }
        });
  });
  if (options.trace) {
    o.extra_units.insert({{"amm.leaf.hit_rate", "ratio"},
                          {"amm.leaf.reprograms_per_kq", "count"},
                          {"amm.leaf.device_writes_per_kq", "count"},
                          {"crossbar.program_ms", "ms"}});
    const LeafCacheCounters after = s->leaf->counters();
    const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    const double queries = delta(after.queries, before.queries);
    const double lookups =
        delta(after.hits, before.hits) + delta(after.misses, before.misses);
    o.layers["amm.leaf.hit_rate"] = lookups > 0.0 ? delta(after.hits, before.hits) / lookups : 0.0;
    if (queries > 0.0) {
      o.layers["amm.leaf.reprograms_per_kq"] =
          1000.0 * delta(after.reprograms, before.reprograms) / queries;
      o.layers["amm.leaf.device_writes_per_kq"] =
          1000.0 * delta(after.device_writes, before.device_writes) / queries;
    }

    // One leaf-sized program: the write path a miss pays.
    std::size_t largest = 0;
    for (std::size_t c = 0; c < s->leaf->cluster_count(); ++c) {
      if (s->leaf->leaf_members(c).size() > s->leaf->leaf_members(largest).size()) {
        largest = c;
      }
    }
    std::vector<FeatureVector> leaf_templates;
    for (const std::size_t i : s->leaf->leaf_members(largest)) {
      leaf_templates.push_back(s->faces.templates[i]);
    }
    trace.set_enabled(true);
    for (std::size_t r = 0; r < kProgramRepeats; ++r) {
      SpinAmm leaf(hierarchical_module_config(config.hierarchy, leaf_templates.size(), largest + 1));
      in_span(trace, "crossbar.program", leaf_templates.size(),
              [&] { leaf.store_templates(leaf_templates); });
    }
    trace.set_enabled(false);
    o.layers["crossbar.program_ms"] =
        median(durations_us(trace.snapshot(), "crossbar.program")) * 1e-3;
  }
  finish_trace(options, trace, spans, 0, o);
  return report(options, std::move(o));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"engine_batch", "service_open",
                                                 "service_saturate", "leaf_churn"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "engine_batch") {
    return run_engine_batch(options);
  }
  if (options.workload == "service_open") {
    return run_service_open(options);
  }
  if (options.workload == "service_saturate") {
    return run_service_saturate(options);
  }
  if (options.workload == "leaf_churn") {
    return run_leaf_churn(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
