// Unit tests of the benchmark's own arithmetic: percentiles with their
// sample counts, span self time, and the open-loop arrival schedule.

#include <gtest/gtest.h>

#include <vector>

#include "open_loop.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

Span make_span(std::int64_t start_us, std::int64_t end_us, std::uint32_t lanes = 1) {
  Span s;
  s.name = "t";
  s.start_ns = start_us * 1000;
  s.end_ns = end_us * 1000;
  s.lanes = lanes;
  return s;
}

TEST(Quantile, ReportsSampleCountAndTailEvidence) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  const Quantile p50 = quantile(v, 0.50);
  EXPECT_DOUBLE_EQ(p50.value, 500.5);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(p50.beyond, 500u);

  const Quantile p99 = quantile(v, 0.99);
  EXPECT_NEAR(p99.value, 990.01, 1e-9);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.resolved());

  v.resize(500);  // a p99 of 500 samples has only 5 beyond it
  EXPECT_FALSE(quantile(v, 0.99).resolved());
}

TEST(Quantile, EmptyAndOutOfRange) {
  const Quantile q = quantile({}, 0.5);
  EXPECT_EQ(q.samples, 0u);
  EXPECT_EQ(q.value, 0.0);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(median({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Span parent = make_span(0, 100);
  // Two overlapping children cover [10, 50); one disjoint covers [60, 70).
  const std::vector<Span> children = {make_span(10, 40), make_span(20, 50), make_span(60, 70)};
  EXPECT_DOUBLE_EQ(self_time_us(parent, children), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self_time_us(parent, {}), 100.0);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  const Span parent = make_span(100, 200);
  const std::vector<Span> children = {make_span(50, 120), make_span(190, 260)};
  EXPECT_DOUBLE_EQ(self_time_us(parent, children), 100.0 - 20.0 - 10.0);
}

TEST(SelfTime, StagesLaidOnTheWorkerAxis) {
  // A 100 µs batch on 2 workers has 200 µs of worker time; stage times
  // summed over workers are laid end to end from its start.
  Trace trace;
  trace.set_enabled(true);
  Span batch = make_span(0, 100, 2);
  batch.items = 4;
  const std::int64_t index = trace.record(batch);
  trace.record_stages(index, batch, {{"a", 30.0}, {"b", 120.0}, {"c", 10.0}});
  const std::vector<Span> spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  const std::vector<Span> stages(spans.begin() + 1, spans.end());
  for (const Span& s : stages) {
    EXPECT_EQ(s.parent, index);
    EXPECT_EQ(s.items, 4u);
  }
  EXPECT_DOUBLE_EQ(self_time_us(spans[0], stages), 200.0 - 160.0);
}

TEST(Trace, DisabledRecordsNothing) {
  Trace trace;
  EXPECT_EQ(trace.record(make_span(0, 1)), -1);
  EXPECT_TRUE(trace.snapshot().empty());
}

TEST(LinkByContainment, AttachesChildToTheEnclosingCall) {
  std::vector<Span> spans = {make_span(0, 100), make_span(200, 300), make_span(10, 50),
                             make_span(250, 260), make_span(150, 160)};
  spans[0].name = spans[1].name = "call";
  spans[2].name = spans[3].name = spans[4].name = "work";
  link_by_containment(spans, "call", "work");
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_EQ(spans[4].parent, -1);  // between calls
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_zipf_schedule(42, 4000.0, 1.0, 160, 1.0);
  const auto b = poisson_zipf_schedule(42, 4000.0, 1.0, 160, 1.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].probe, b[i].probe);
  }
  const auto c = poisson_zipf_schedule(43, 4000.0, 1.0, 160, 1.0);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns || a[i].probe != c[i].probe;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, RateOrderAndPopularity) {
  const auto a = poisson_zipf_schedule(7, 4000.0, 2.0, 160, 1.0);
  // 8000 expected arrivals; Poisson sd ~ 90.
  EXPECT_NEAR(static_cast<double>(a.size()), 8000.0, 500.0);
  std::vector<std::size_t> hits(160, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_LT(a[i].probe, 160u);
    ASSERT_LT(a[i].due_ns, 2'000'000'000);
    if (i > 0) {
      ASSERT_GE(a[i].due_ns, a[i - 1].due_ns);
    }
    hits[a[i].probe] += 1;
  }
  // Zipf(1): rank 0 draws ~1/H(160) ~ 17.6 % of arrivals, rank 1 half that.
  EXPECT_NEAR(static_cast<double>(hits[0]) / static_cast<double>(a.size()), 0.176, 0.02);
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_THROW(poisson_zipf_schedule(1, 0.0, 1.0, 10, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
