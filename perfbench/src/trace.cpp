#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/statistics.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

std::int64_t Trace::record(const Span& span) {
  if (!enabled()) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Trace::record_stages(std::int64_t parent, const Span& parent_span,
                          const std::vector<std::pair<const char*, double>>& stages_us) {
  if (parent < 0) {
    return;
  }
  std::int64_t cursor = parent_span.start_ns;
  for (const auto& [name, us] : stages_us) {
    Span stage;
    stage.name = name;
    stage.start_ns = cursor;
    stage.end_ns = cursor + static_cast<std::int64_t>(us * 1e3);
    stage.parent = parent;
    stage.id = parent_span.id;
    stage.items = parent_span.items;
    cursor = stage.end_ns;
    record(stage);
  }
}

std::vector<Span> Trace::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Trace::write_json(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                 "\"id\": %llu, \"items\": %u, \"lanes\": %u}%s\n",
                 s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.id), s.items,
                 s.lanes, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

double self_time_us(const Span& parent, const std::vector<Span>& children) {
  const std::int64_t lo = parent.start_ns;
  const std::int64_t hi =
      parent.start_ns + (parent.end_ns - parent.start_ns) * static_cast<std::int64_t>(parent.lanes);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(children.size());
  for (const Span& c : children) {
    const std::int64_t a = std::max(lo, c.start_ns);
    const std::int64_t b = std::min(hi, c.end_ns);
    if (b > a) {
      intervals.emplace_back(a, b);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [a, b] : intervals) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return static_cast<double>((hi - lo) - covered) * 1e-3;
}

void link_by_containment(std::vector<Span>& spans, const char* parent_name,
                         const char* child_name) {
  const std::string parent_key = parent_name;
  const std::string child_key = child_name;
  std::vector<std::size_t> parents;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parent_key == spans[i].name) {
      parents.push_back(i);
    }
  }
  std::sort(parents.begin(), parents.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  for (Span& child : spans) {
    if (child_key != child.name) {
      continue;
    }
    // Last parent starting at or before the child; parents of a closed
    // loop never overlap, so that one is the only candidate.
    const auto it = std::upper_bound(
        parents.begin(), parents.end(), child.start_ns,
        [&](std::int64_t t, std::size_t p) { return t < spans[p].start_ns; });
    if (it == parents.begin()) {
      continue;
    }
    const std::size_t p = *(it - 1);
    if (child.start_ns <= spans[p].end_ns) {
      child.parent = static_cast<std::int64_t>(p);
    }
  }
}

Quantile quantile(const std::vector<double>& values, double q) {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("quantile: q must lie in [0, 1]");
  }
  Quantile out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  out.value = spinsim::percentile(values, q * 100.0);
  out.beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > out.value; }));
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("median: empty sample");
  }
  return spinsim::percentile(std::move(values), 50.0);
}

}  // namespace perfbench
