#include "open_loop.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/random.hpp"

namespace perfbench {

std::vector<Arrival> poisson_zipf_schedule(std::uint64_t seed, double rate_qps, double seconds,
                                           std::size_t pool_size, double zipf_s) {
  if (!(rate_qps > 0.0) || !(seconds > 0.0) || pool_size == 0 || zipf_s < 0.0) {
    throw std::invalid_argument("poisson_zipf_schedule: bad rate, length, pool or exponent");
  }
  std::vector<double> cdf(pool_size);
  double total = 0.0;
  for (std::size_t k = 0; k < pool_size; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }

  spinsim::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_qps * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_qps;
    if (t >= seconds) {
      break;
    }
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                               cdf.begin());
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    a.probe = static_cast<std::uint32_t>(std::min(rank, pool_size - 1));
    out.push_back(a);
  }
  return out;
}

namespace {

struct Pending {
  std::future<spinsim::Recognition> future;
  std::size_t query = 0;
};

}  // namespace

OpenLoopResult run_open_loop_due(spinsim::RecognitionService& service,
                                 const std::vector<spinsim::FeatureVector>& pool,
                                 const std::vector<std::size_t>& expected,
                                 const std::vector<Arrival>& schedule, double slo_us,
                                 Trace& trace) {
  const std::size_t n = schedule.size();
  OpenLoopResult out;
  out.offered = n;
  out.late_us.assign(n, 0.0);
  out.submit_us.assign(n, 0.0);
  // Per query, written by the reaper only: settle time, or -1 when the
  // query failed.
  std::vector<std::int64_t> settled_ns(n, -1);
  std::vector<char> correct(n, 0);

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sending_done = false;

  // Due times are offsets from a start a little in the future, so the
  // first arrival is not late because of thread start-up.
  const std::int64_t start_ns = now_ns() + 2'000'000;
  const WallClock::time_point start_tp =
      WallClock::time_point(std::chrono::nanoseconds(start_ns));

  std::thread reaper([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !queue.empty() || sending_done; });
        if (queue.empty()) {
          return;
        }
        p = std::move(queue.front());
        queue.pop_front();
      }
      try {
        const spinsim::Recognition answer = p.future.get();
        settled_ns[p.query] = now_ns();
        correct[p.query] = answer.winner == expected[schedule[p.query].probe] ? 1 : 0;
      } catch (...) {
        settled_ns[p.query] = -1;
      }
    }
  });

  std::vector<char> refused(n, 0);
  try {
    for (std::size_t q = 0; q < n; ++q) {
      const Arrival& a = schedule[q];
      std::this_thread::sleep_until(start_tp + std::chrono::nanoseconds(a.due_ns));
      const std::int64_t send_ns = now_ns();
      out.late_us[q] = static_cast<double>(send_ns - (start_ns + a.due_ns)) * 1e-3;
      Pending p;
      p.query = q;
      try {
        p.future = service.submit(pool[a.probe]);
      } catch (const spinsim::Overloaded&) {
        refused[q] = 1;
      }
      const std::int64_t sent_ns = now_ns();
      out.submit_us[q] = static_cast<double>(sent_ns - send_ns) * 1e-3;
      if (trace.enabled()) {
        Span s;
        s.name = "load.submit";
        s.start_ns = send_ns;
        s.end_ns = sent_ns;
        s.id = q;
        s.items = 1;
        trace.record(s);
      }
      if (refused[q] == 0) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          queue.push_back(std::move(p));
        }
        cv.notify_one();
      }
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      sending_done = true;
    }
    cv.notify_one();
    reaper.join();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    sending_done = true;
  }
  cv.notify_one();
  reaper.join();

  std::int64_t last_ns = start_ns;
  out.latency_us.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    const std::int64_t due_ns = start_ns + schedule[q].due_ns;
    if (refused[q] != 0 || settled_ns[q] < 0) {
      out.errors += 1;
      continue;
    }
    out.answered += 1;
    last_ns = std::max(last_ns, settled_ns[q]);
    const double latency = static_cast<double>(settled_ns[q] - due_ns) * 1e-3;
    out.latency_us.push_back(latency);
    if (correct[q] == 0) {
      out.wrong += 1;
    } else if (latency <= slo_us) {
      out.within_slo += 1;
    }
    if (trace.enabled()) {
      Span s;
      s.name = "client.query";
      s.start_ns = due_ns;
      s.end_ns = settled_ns[q];
      s.id = q;
      s.items = 1;
      trace.record(s);
    }
  }
  const std::int64_t first_due = n == 0 ? start_ns : start_ns + schedule.front().due_ns;
  out.wall_s = static_cast<double>(last_ns - first_due) * 1e-9;
  return out;
}

}  // namespace perfbench
