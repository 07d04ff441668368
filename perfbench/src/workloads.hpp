/// \file workloads.hpp
/// The benchmark's four workloads (see perfbench/README.md for why each
/// exists and which layer metric should move which end-to-end metric).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: half the time untraced, half traced; reports the layer
  /// metrics and the tracing overhead instead of the end-to-end metrics.
  bool trace = false;
  std::string trace_path;  ///< where a traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = one computed figure)
};

struct RunResult {
  bool correct = true;          ///< every output check passed
  std::uint64_t attempted = 0;  ///< queries whose answers were checked
  std::uint64_t failed = 0;     ///< wrong, failed or refused queries
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< check failures and warnings, printed before the result
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
