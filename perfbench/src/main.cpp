/// The benchmark binary: runs one workload and prints its metrics.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-out <path>] [--commit <id>]
///
/// Prints a run record, a table of every metric with its unit and sample
/// count, any check failures, and as the last line one JSON object:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
/// ones. Exits non-zero, printing no result, on bad arguments or an error.

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(value, &used);
  if (used != value.size()) {
    throw std::invalid_argument(flag + ": not a whole number: " + value);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    perfbench::RunOptions options;
    std::string commit = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + ": missing value");
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = parse_u64(flag, value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds >= 0.2 && options.seconds <= 600.0)) {
          throw std::invalid_argument("--seconds must lie in [0.2, 600]");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          throw std::invalid_argument("--trace must be 0 or 1");
        }
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!have_workload) {
      throw std::invalid_argument("--workload is required");
    }

    const perfbench::RunResult result = perfbench::run_workload(options);
    for (const perfbench::Metric& m : result.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
    }

    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d nproc=%u compiler=\"%s\" "
                "build_type=%s commit=%s\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str());
    std::printf("%-40s %18s  %-6s %s\n", "metric", "value", "unit", "samples");
    for (const perfbench::Metric& m : result.metrics) {
      std::printf("%-40s %18.6f  %-6s %zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    }
    std::printf("checked %llu queries, %llu failed\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (const std::string& note : result.notes) {
      std::printf("note: %s\n", note.c_str());
    }

    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const perfbench::Metric& m = result.metrics[i];
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) + "\": {\"value\": " + value +
              ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
