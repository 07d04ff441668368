/// \file trace.hpp
/// In-memory span trace and the order statistics the benchmark reports.
///
/// A span is one timed call into a layer: a name, a start and an end on
/// the benchmark's monotonic clock, the span that caused it, an id (the
/// batch or query it belongs to) and how many queries it carried. Spans
/// are kept in memory while a run measures and written out once it ends,
/// so recording costs one clock read and one locked push_back.
///
/// Time inside a span is counted over `lanes` workers: a batch call that
/// fans out over two engine threads has twice its wall time in worker
/// time. The engine reports its pipeline stages summed over its workers,
/// so those stage spans are laid end to end on the parent's worker-time
/// axis; self time then works the same for them as for wall-clock
/// children.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// lint:allow(bare-clock) the benchmark times wall clock by definition
using WallClock = std::chrono::steady_clock;

/// Nanoseconds on the benchmark's monotonic clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";     ///< static string: the layer and call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 if none
  std::uint64_t id = 0;      ///< batch or query id
  std::uint32_t items = 0;   ///< queries the span carried
  std::uint32_t lanes = 1;   ///< workers its time is counted over

  double duration_us() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
  /// Wall duration times lanes [µs].
  double worker_us() const { return duration_us() * lanes; }
};

/// Thread-safe span sink. Disabled sinks record nothing and return -1.
class Trace {
 public:
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a span and returns its index (-1 when disabled).
  std::int64_t record(const Span& span);

  /// Records the engine's per-stage times (summed over workers [µs]) as
  /// children of `parent`, laid end to end from the parent's start.
  void record_stages(std::int64_t parent, const Span& parent_span,
                     const std::vector<std::pair<const char*, double>>& stages_us);

  std::vector<Span> snapshot() const;

  /// Writes every span as a JSON array; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Worker time of `parent` [µs] not covered by any of `children` (the
/// union of their intervals, clipped to the parent's worker-time axis
/// [start, start + duration * lanes]).
double self_time_us(const Span& parent, const std::vector<Span>& children);

/// Attaches each `child_name` span to the latest `parent_name` span that
/// started at or before the child and had not yet ended. Meant for a
/// closed loop, whose parent spans never overlap.
void link_by_containment(std::vector<Span>& spans, const char* parent_name,
                         const char* child_name);

/// A percentile with the evidence behind it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly above `value`. The guide-line for a tail figure is
  /// at least ten of them.
  std::size_t beyond = 0;
  bool resolved() const { return beyond >= 10; }
};

/// Linear-interpolation percentile (q in [0, 1]) with its sample counts.
Quantile quantile(const std::vector<double>& values, double q);

/// Median of a non-empty sample.
double median(std::vector<double> values);

}  // namespace perfbench
