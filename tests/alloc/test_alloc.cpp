// Allocation contract of the recognition hot path.
//
// This binary replaces the global allocation functions with counting
// wrappers around malloc/free, so every heap allocation anywhere in the
// process (worker threads included) is counted. It is its own test
// binary (one per tests/ subdirectory) so the replacement stays out of
// every other suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "amm/spin_amm.hpp"
#include "core/random.hpp"
#include "service/recognition_service.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) {
    size = 1;
  }
  if (alignment <= alignof(std::max_align_t)) {
    return std::malloc(size);
  }
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t alignment) {
  void* p = counted_alloc(size, alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment, const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace spinsim {
namespace {

template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// The bench's engine-batch design: 64 rows x 160 templates, parasitic
// crossbar through the cached transfer operator.
SpinAmmConfig contract_config() {
  SpinAmmConfig c;
  c.features.height = 8;
  c.features.width = 8;
  c.features.bits = 5;
  c.templates = 160;
  c.dwn = DwnParams::from_barrier(20.0);
  c.model = CrossbarModel::kParasitic;
  c.parasitic_solver = CrossbarSolver::kTransfer;
  c.seed = 5;
  return c;
}

std::vector<FeatureVector> random_features(const FeatureSpec& spec, std::size_t count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t top = (1u << spec.bits) - 1;
  std::vector<FeatureVector> out(count);
  for (auto& f : out) {
    f.spec = spec;
    for (std::size_t r = 0; r < spec.dimension(); ++r) {
      const auto code = static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<int>(top)));
      f.digital.push_back(code);
      f.analog.push_back(static_cast<double>(code) / static_cast<double>(top));
    }
  }
  return out;
}

// The three vectors every Recognition owns: the detail's column currents
// and the WTA outcome's dom_codes and tracking.
constexpr std::size_t kResultAllocationsPerQuery = 3;
// Per call, independent of the batch size: the results vector, the
// chunk_timing vector, and for each fresh worker its std::thread plus the
// thread-local scratch it builds on first use (currents, input, the GEMM
// panel transpose, outcomes, and the WTA's tracking and decided masks).
constexpr std::size_t kPerBatchAllowance = 32;

/// One programmed engine and query batch, built once (the parasitic
/// operator is the expensive part) and shared by every test here.
struct Fixture {
  SpinAmm amm{contract_config()};
  std::vector<FeatureVector> templates = random_features(contract_config().features, 160, 1);
  std::vector<FeatureVector> queries = random_features(contract_config().features, 256, 2);
  Fixture() { amm.store_templates(templates); }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

class AllocationContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllocationContract, RecognizeBatchAllocatesOnlyResultsPerQuery) {
  SpinAmm& amm = fixture().amm;
  const std::vector<FeatureVector>& queries = fixture().queries;
  const std::size_t threads = GetParam();
  // Warm-up: prepares the transfer operator and this thread's scratch.
  (void)amm.recognize_batch(queries, threads);

  std::vector<Recognition> results;
  const std::size_t allocations =
      allocations_during([&] { results = amm.recognize_batch(queries, threads); });
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_LE(allocations, kResultAllocationsPerQuery * queries.size() + kPerBatchAllowance)
      << static_cast<double>(allocations) / static_cast<double>(queries.size())
      << " allocations per query";
}

INSTANTIATE_TEST_SUITE_P(Threads, AllocationContract, ::testing::Values(1, 2));

TEST(AllocationContractSingle, RecognizeAllocatesAtMostFour) {
  SpinAmm& amm = fixture().amm;
  const std::vector<FeatureVector>& queries = fixture().queries;
  (void)amm.recognize(queries[0]);  // warm-up: prepares the transfer operator

  for (std::size_t i = 0; i < 4; ++i) {
    Recognition result;
    // Row currents and column currents (kept as the detail's currents),
    // plus the outcome's dom_codes and tracking.
    const std::size_t allocations = allocations_during([&] { result = amm.recognize(queries[i]); });
    EXPECT_LE(allocations, 4u) << "query " << i;
  }
}

// A service round trip, per query: each shard engine's three result
// vectors (the merge keeps the winner's, frees the rest), the
// std::function that delivers the query (its closure, the client join
// pointer plus an index, outgrows the small buffer), and a quarter of an
// admission-queue block (std::deque<Request> packs four requests into
// each 512-byte block).
constexpr std::size_t kServiceShards = 2;
constexpr std::size_t kServiceAllocationsPerQuery =
    kServiceShards * kResultAllocationsPerQuery + 1;
constexpr std::size_t kRequestsPerQueueBlock = 4;
// Per round trip of 256 queries: the client join (its state, results
// and promise), the request vector, the collector's batch vector (one
// reallocation per doubling), the shared input batch, the per-query fold
// vectors and the per-shard post table, one completion-drain deque per
// collector wake-up (one per shard at most), each shard engine's results
// and chunk_timing vectors, and the merged answers and latencies.
// Measured: 31.
constexpr std::size_t kServicePerBatchAllowance = 40;

TEST(AllocationContractService, SubmitBatchRoundTripAllocatesResultsAndDeliveryPerQuery) {
  const Fixture& f = fixture();
  // The shards share the flat engine's full-scale and row target, the
  // service's score-comparability contract.
  const double full_scale = f.amm.input_full_scale();
  const double row_target = f.amm.crossbar().row_conductance(0);
  RecognitionServiceConfig config;
  config.shards = kServiceShards;
  config.max_batch = f.queries.size();
  config.admission_window = std::chrono::microseconds(0);
  RecognitionService service(config, [full_scale, row_target](std::size_t, std::size_t columns) {
    SpinAmmConfig c = contract_config();
    c.templates = columns;
    c.input_full_scale_override = full_scale;
    c.row_target_conductance = row_target;
    return std::make_unique<SpinAmm>(c);
  });
  service.store_templates(f.templates);
  // Warm-up: prepares each shard's transfer operator and worker scratch.
  (void)service.submit_batch(f.queries).get();

  std::vector<FeatureVector> batch = f.queries;  // the caller's copy, made outside the count
  std::vector<Recognition> results;
  const std::size_t allocations =
      allocations_during([&] { results = service.submit_batch(std::move(batch)).get(); });
  ASSERT_EQ(results.size(), f.queries.size());
  EXPECT_LE(allocations, kServiceAllocationsPerQuery * f.queries.size() +
                             f.queries.size() / kRequestsPerQueueBlock + kServicePerBatchAllowance)
      << static_cast<double>(allocations) / static_cast<double>(f.queries.size())
      << " allocations per query";
}

}  // namespace
}  // namespace spinsim
