/// \file open_loop.hpp
/// The benchmark's open-loop load generator: a seeded arrival schedule
/// sent to a RecognitionService on time whether or not earlier queries have
/// finished, with every query timed from when it was *due*, not from when
/// the generator got round to sending it. A generator stall therefore
/// shows in the latency of every query it delayed, and the generator's
/// own lateness is reported beside it so a run that could not keep its
/// schedule is visible.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/recognition_service.hpp"
#include "trace.hpp"

namespace perfbench {

/// One scheduled query: when it is due (offset from the run's start) and
/// which pool entry it sends.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t probe = 0;
};

/// Poisson arrivals at `rate_qps` over `seconds`, each drawing a pool
/// entry from Zipf(`zipf_s`) over ranks 0 .. pool_size-1. The same
/// arguments give the same schedule.
std::vector<Arrival> poisson_zipf_schedule(std::uint64_t seed, double rate_qps, double seconds,
                                           std::size_t pool_size, double zipf_s);

struct OpenLoopResult {
  std::size_t offered = 0;
  std::size_t answered = 0;    ///< futures that delivered an answer
  std::size_t wrong = 0;       ///< answers whose winner differs from the reference
  std::size_t errors = 0;      ///< refused at submit or future carried an error
  std::size_t within_slo = 0;  ///< correct answers settled within the limit of their due time
  std::vector<double> latency_us;  ///< due -> settled, answered queries only
  std::vector<double> late_us;     ///< send - due, every arrival
  std::vector<double> submit_us;   ///< duration of each submit() call
  double wall_s = 0.0;             ///< first due time -> last settlement
  std::size_t failed() const { return wrong + errors; }
};

/// Sends `schedule` from the calling thread while one reaper thread
/// blocks on each future in submission order. `expected[probe]` is the
/// reference winner of each pool entry. When `trace` is enabled it
/// receives a `load.submit` span per send and a `client.query` span per
/// query (due -> settled).
OpenLoopResult run_open_loop_due(spinsim::RecognitionService& service,
                                 const std::vector<spinsim::FeatureVector>& pool,
                                 const std::vector<std::size_t>& expected,
                                 const std::vector<Arrival>& schedule, double slo_us,
                                 Trace& trace);

}  // namespace perfbench
