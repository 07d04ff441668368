#include "service/recognition_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/error.hpp"

namespace spinsim {

namespace {

// Overload-controller watermarks, as multiples of target_p99_us (see
// OverloadControlConfig).
constexpr double kBrownoutFactor = 2.0;
constexpr double kLowWatermark = 0.5;
// Breaker cooldown growth per consecutive ejection, and its cap.
constexpr double kBreakerBackoff = 2.0;
constexpr std::chrono::microseconds kBreakerMaxCooldown{5000000};

}  // namespace

RecognitionService::RecognitionService(const RecognitionServiceConfig& config,
                                       EngineFactory factory)
    : config_(config),
      factory_(std::move(factory)),
      clock_(config.clock ? config.clock : SteadyClock::instance()),
      wall_clock_(SteadyClock::instance()) {
  require(config_.shards >= 1, "RecognitionService: need at least one shard");
  require(config_.max_batch >= 1, "RecognitionService: max_batch must be positive");
  require(static_cast<bool>(factory_), "RecognitionService: empty engine factory");
  require(config_.shard_timeout.count() >= 0,
          "RecognitionService: shard_timeout cannot be negative");
  require(config_.breaker_failure_threshold >= 1,
          "RecognitionService: breaker_failure_threshold must be positive");
  require(config_.breaker_cooldown.count() >= 0,
          "RecognitionService: breaker_cooldown cannot be negative");
  require(config_.breaker_cooldown <= kBreakerMaxCooldown,
          "RecognitionService: breaker_cooldown cannot exceed the 5 s cap");
  if (config_.overload.target_p99_us > 0.0) {
    require(config_.overload.period_queries >= 1,
            "RecognitionService: overload period_queries must be positive");
  }
}

RecognitionService::~RecognitionService() { stop_threads(); }

void RecognitionService::stop_threads() {
  {
    LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // The collector fails everything still queued with ServiceStopped on
  // its way out, so no future is ever silently dropped. A worker wedged
  // *inside* an engine call (FaultSwitch::stick) must be released before
  // this join can finish — the service cannot preempt a hung engine.
  if (collector_.joinable()) {
    collector_.join();
  }
  for (auto& shard : shards_) {
    {
      LockGuard lock(shard->mutex);
      shard->stop = true;
    }
    shard->cv.notify_all();
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

void RecognitionService::reset_stats_locked() {
  stat_queries_ = 0;
  stat_failed_ = 0;
  stat_batches_ = 0;
  stat_dispatched_ = 0;
  stat_escalated_ = 0;
  stat_rejected_ = 0;
  stat_shed_deadline_ = 0;
  stat_rejected_overload_ = 0;
  stat_degraded_ = 0;
  stat_best_effort_ = 0;
  stat_coverage_sum_ = 0.0;
  stat_idle_scrubs_ = 0;
  stat_repair_alarms_ = 0;
  stat_controller_adjustments_ = 0;
  stat_brownout_ = false;
  stat_latency_sum_us_ = 0.0;
  stat_latency_max_us_ = 0.0;
  stat_latency_us_ = GeometricHistogram{};
  health_.clear();
}

void RecognitionService::store_templates(const std::vector<FeatureVector>& templates) {
  require(templates.size() >= 2 * config_.shards,
          "RecognitionService: every shard needs at least two templates");

  bool was_started = false;
  {
    LockGuard lock(queue_mutex_);
    was_started = started_;
  }
  if (was_started) {
    // Re-initialisation: tear the running edge down first. The collector
    // fails every queued future with ServiceStopped, then every counter
    // and controller state resets — the new shard set starts clean.
    stop_threads();
    shards_.clear();
    {
      LockGuard lock(queue_mutex_);
      stopping_ = false;
      started_ = false;
      in_flight_ = 0;
    }
    brownout_ = false;
    window_latency_us_ = GeometricHistogram{};
    window_max_us_ = 0.0;
    window_count_ = 0;
    queries_since_scrub_ = 0;
    repair_alarm_active_ = false;
    {
      // Generations restart with the new shard set, so a completion left
      // over from the old incarnation could alias a fresh one.
      LockGuard lock(done_mutex_);
      completions_.clear();
    }
    {
      LockGuard lock(stats_mutex_);
      reset_stats_locked();
    }
  }

  // Contiguous split, remainder spread over the leading shards, so
  // global index = shard base + local index.
  const std::size_t per_shard = templates.size() / config_.shards;
  const std::size_t remainder = templates.size() % config_.shards;

  // The new shard set is built in a local and committed only once every
  // shard has stored its slice: if a factory or store_templates() throws
  // part-way, a retry starts from a clean slate.
  std::vector<std::unique_ptr<Shard>> shards;
  std::size_t base = 0;
  for (std::size_t s = 0; s < config_.shards; ++s) {
    const std::size_t count = per_shard + (s < remainder ? 1 : 0);
    auto shard = std::make_unique<Shard>();
    shard->base = base;
    shard->columns = count;
    shard->engine = factory_(s, count);
    require(shard->engine != nullptr, "RecognitionService: factory returned null engine");
    const std::vector<FeatureVector> slice(templates.begin() + static_cast<std::ptrdiff_t>(base),
                                           templates.begin() +
                                               static_cast<std::ptrdiff_t>(base + count));
    shard->engine->store_templates(slice);
    // Checked after storing: backends like HierarchicalAmm only learn
    // their template count from store_templates().
    require(shard->engine->template_count() == count,
            "RecognitionService: factory sized the engine for the wrong column count");
    base += count;
    shards.push_back(std::move(shard));
  }
  shards_ = std::move(shards);
  total_columns_ = templates.size();

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->worker = std::thread([this, s] { shard_loop(s); });
  }
  {
    LockGuard lock(stats_mutex_);
    started_at_ = clock_->now();
    health_.assign(shards_.size(), Health{});
  }
  {
    LockGuard lock(queue_mutex_);
    started_ = true;
  }
  collector_ = std::thread([this] { collector_loop(); });
}

void RecognitionService::enqueue(Request&& request) {
  bool rejected = false;
  {
    LockGuard lock(queue_mutex_);
    require(started_, "RecognitionService: store_templates() before submit");
    require(!stopping_, "RecognitionService: service is shutting down");
    if (config_.max_queue > 0 && queue_.size() >= config_.max_queue) {
      rejected = true;
    } else {
      queue_.push_back(std::move(request));
    }
  }
  if (rejected) {
    {
      LockGuard lock(stats_mutex_);
      stat_rejected_overload_ += 1;
    }
    throw Overloaded("RecognitionService: queue full (max_queue pending requests)");
  }
  queue_cv_.notify_one();
}

std::future<Recognition> RecognitionService::submit(FeatureVector input,
                                                    const SubmitOptions& options) {
  auto promise = std::make_shared<std::promise<Recognition>>();
  std::future<Recognition> future = promise->get_future();
  const Clock::TimePoint now = clock_->now();
  Request request;
  request.input = std::move(input);
  request.enqueued = now;
  request.deadline =
      options.deadline.count() > 0 ? now + options.deadline : Clock::TimePoint::max();
  request.deliver = [promise](Recognition&& result, std::exception_ptr error) {
    if (error) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(result));
    }
  };
  enqueue(std::move(request));
  return future;
}

std::future<std::vector<Recognition>> RecognitionService::submit_batch(
    std::vector<FeatureVector> inputs, const SubmitOptions& options) {
  struct Join {
    std::vector<Recognition> results;
    std::size_t remaining = 0;
    bool failed = false;
    // Rank kClientJoin: the deliver callbacks run on the collector thread
    // with no other lock held.
    Mutex mutex{LockRank::kClientJoin};
    std::promise<std::vector<Recognition>> promise;
  };
  auto join = std::make_shared<Join>();
  join->results.resize(inputs.size());
  join->remaining = inputs.size();
  std::future<std::vector<Recognition>> future = join->promise.get_future();
  if (inputs.empty()) {
    join->promise.set_value({});
    return future;
  }

  const Clock::TimePoint now = clock_->now();
  const Clock::TimePoint deadline =
      options.deadline.count() > 0 ? now + options.deadline : Clock::TimePoint::max();
  std::vector<Request> requests;
  requests.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Request request;
    request.input = std::move(inputs[i]);
    request.enqueued = now;
    request.deadline = deadline;
    request.deliver = [join, i](Recognition&& result, std::exception_ptr error) {
      LockGuard lock(join->mutex);
      if (error) {
        if (!join->failed) {
          join->failed = true;
          join->promise.set_exception(error);
        }
        return;
      }
      join->results[i] = std::move(result);
      if (--join->remaining == 0 && !join->failed) {
        join->promise.set_value(std::move(join->results));
      }
    };
    requests.push_back(std::move(request));
  }

  // One lock round-trip for the whole batch so the admission window sees
  // it at once and coalesces it into ceil(n / max_batch) dispatches.
  // Queue-cap admission is all-or-nothing: a batch that does not fit
  // leaves the queue untouched.
  bool rejected = false;
  {
    LockGuard lock(queue_mutex_);
    require(started_, "RecognitionService: store_templates() before submit");
    require(!stopping_, "RecognitionService: service is shutting down");
    if (config_.max_queue > 0 && queue_.size() + requests.size() > config_.max_queue) {
      rejected = true;
    } else {
      for (auto& request : requests) {
        queue_.push_back(std::move(request));
      }
    }
  }
  if (rejected) {
    {
      LockGuard lock(stats_mutex_);
      stat_rejected_overload_ += requests.size();
    }
    throw Overloaded("RecognitionService: queue full (batch exceeds max_queue)");
  }
  queue_cv_.notify_one();
  return future;
}

void RecognitionService::drain() {
  UniqueLock lock(queue_mutex_);
  // TSA cannot follow the cv's unlock/relock; the predicate runs with
  // queue_mutex_ held.
  idle_cv_.wait(lock, [&]() SPINSIM_NO_TSA { return queue_.empty() && in_flight_ == 0; });
}

const AssociativeEngine& RecognitionService::shard(std::size_t index) const {
  require(index < shards_.size(), "RecognitionService::shard: index out of range");
  return *shards_[index]->engine;
}

std::size_t RecognitionService::shard_base(std::size_t index) const {
  require(index < shards_.size(), "RecognitionService::shard_base: index out of range");
  return shards_[index]->base;
}

RecognitionServiceStats RecognitionService::stats() const {
  RecognitionServiceStats out;
  std::vector<Health> health(shards_.size());
  {
    LockGuard lock(stats_mutex_);
    out.queries = stat_queries_;
    out.failed = stat_failed_;
    out.batches = stat_batches_;
    out.escalated = stat_escalated_;
    out.rejected = stat_rejected_;
    out.shed_deadline = stat_shed_deadline_;
    out.rejected_overload = stat_rejected_overload_;
    out.degraded = stat_degraded_;
    out.best_effort = stat_best_effort_;
    out.idle_scrubs = stat_idle_scrubs_;
    out.controller_adjustments = stat_controller_adjustments_;
    out.brownout_active = stat_brownout_;
    out.mean_batch_size = stat_batches_ == 0 ? 0.0
                                             : static_cast<double>(stat_dispatched_) /
                                                   static_cast<double>(stat_batches_);
    // "Successes" are answered futures: delivered minus engine failures
    // minus deadline sheds. Latency/coverage/rate stats cover only them.
    const std::uint64_t successes = stat_queries_ - stat_failed_ - stat_shed_deadline_;
    out.mean_latency_us =
        successes == 0 ? 0.0 : stat_latency_sum_us_ / static_cast<double>(successes);
    out.mean_coverage =
        successes == 0 ? 0.0 : stat_coverage_sum_ / static_cast<double>(successes);
    out.max_latency_us = stat_latency_max_us_;
    // The histogram interpolates to bucket edges (~26 % resolution); the
    // exactly-tracked maximum bounds what a quantile can honestly claim.
    out.p50_latency_us = std::min(stat_latency_us_.percentile(0.50), stat_latency_max_us_);
    out.p95_latency_us = std::min(stat_latency_us_.percentile(0.95), stat_latency_max_us_);
    out.p99_latency_us = std::min(stat_latency_us_.percentile(0.99), stat_latency_max_us_);
    out.escalation_rate =
        successes == 0 ? 0.0 : static_cast<double>(stat_escalated_) / static_cast<double>(successes);
    out.reject_rate =
        successes == 0 ? 0.0 : static_cast<double>(stat_rejected_) / static_cast<double>(successes);
    if (stat_queries_ > 0) {
      const double elapsed = std::chrono::duration<double>(clock_->now() - started_at_).count();
      out.queries_per_sec = elapsed > 0.0 ? static_cast<double>(stat_queries_) / elapsed : 0.0;
    }
    // The delivered-query denominator of the repair rate is pinned here,
    // under the same lock that counted the deliveries, so the rate and
    // the alarm counter below never disagree about "how much traffic".
    if (stat_queries_ > 0) {
      out.repair_rate_per_kq = static_cast<double>(repair_events_total()) * 1000.0 /
                               static_cast<double>(stat_queries_);
    }
    out.repair_alarms = stat_repair_alarms_;
    for (std::size_t s = 0; s < shards_.size() && s < health_.size(); ++s) {
      health[s] = health_[s];
    }
  }
  // Per-shard engine-time quantiles, health, the per-query energy
  // estimate and the leaf-cache counters. Every query visits every
  // (healthy) shard, so the energies add; tiered shard engines fold their
  // observed escalation rate in (energy_per_query and leaf_counters are
  // documented safe to call concurrently with recognition).
  out.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto& shard = shards_[s];
    RecognitionServiceStats::ShardStats ss;
    bool wedged = false;
    {
      LockGuard lock(shard->mutex);
      ss.batches = shard->batches_run;
      ss.p50_batch_us = shard->batch_latency_us.percentile(0.50);
      ss.p95_batch_us = shard->batch_latency_us.percentile(0.95);
      ss.p99_batch_us = shard->batch_latency_us.percentile(0.99);
      wedged = shard->wedged();
    }
    ss.breaker = health[s].state;
    ss.available = health[s].state != RecognitionServiceStats::BreakerState::kOpen && !wedged;
    ss.failures = health[s].failures;
    ss.timeouts = health[s].timeouts;
    ss.retries = health[s].retries;
    ss.ejections = health[s].ejections;
    out.shard_failures += ss.failures;
    out.shard_timeouts += ss.timeouts;
    out.shard_retries += ss.retries;
    out.breaker_ejections += ss.ejections;
    out.shards.push_back(ss);
    out.energy_per_query += shard->engine->energy_per_query();
    out.leaf += shard->engine->leaf_counters();
  }
  return out;
}

void RecognitionService::fail_stopped(std::vector<Request>& doomed) {
  if (doomed.empty()) {
    return;
  }
  const auto stopped = std::make_exception_ptr(
      ServiceStopped("RecognitionService: service stopped before the query was dispatched"));
  for (auto& request : doomed) {
    request.deliver(Recognition{}, stopped);
  }
  LockGuard lock(stats_mutex_);
  stat_queries_ += doomed.size();
  stat_failed_ += doomed.size();
}

void RecognitionService::collector_loop() {
  // One micro-batch in flight: form it, post it, fold the per-shard
  // answers as they stream into completions_ until every post has settled
  // (answered, timed out or out of retries), deliver, and loop.
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> shed;
    {
      UniqueLock lock(queue_mutex_);
      // Block until work or shutdown. (The SPINSIM_NO_TSA predicates run
      // with queue_mutex_ held — TSA cannot follow the cv's unlock/relock
      // around them.)
      queue_cv_.wait(lock, [&]() SPINSIM_NO_TSA { return stopping_ || !queue_.empty(); });
      if (!stopping_ && queue_.size() < config_.max_batch &&
          config_.admission_window.count() > 0) {
        // Admission window: from the moment work is pending, wait a
        // bounded extra beat for more arrivals so they share one dispatch.
        queue_cv_.wait_for(lock, config_.admission_window, [&]() SPINSIM_NO_TSA {
          return stopping_ || queue_.size() >= config_.max_batch;
        });
      }
      if (stopping_) {
        // Shutdown (or re-init), with the last batch already delivered:
        // nothing still queued gets dispatched, nothing gets dropped —
        // every future fails with ServiceStopped.
        std::vector<Request> doomed(std::make_move_iterator(queue_.begin()),
                                    std::make_move_iterator(queue_.end()));
        queue_.clear();
        idle_cv_.notify_all();
        lock.unlock();
        fail_stopped(doomed);
        return;
      }
      // Deadline shedding at batch formation: expired queries never reach
      // a shard. (Expired entries deeper in the queue are shed when they
      // surface — order is preserved, so they surface before anything that
      // could still make its deadline.)
      const Clock::TimePoint now = clock_->now();
      while (batch.size() < config_.max_batch && !queue_.empty()) {
        Request request = std::move(queue_.front());
        queue_.pop_front();
        if (request.deadline <= now) {
          shed.push_back(std::move(request));
        } else {
          batch.push_back(std::move(request));
        }
      }
      in_flight_ += batch.size();
      if (batch.empty() && queue_.empty()) {
        idle_cv_.notify_all();
      }
    }

    if (!shed.empty()) {
      const auto expired = std::make_exception_ptr(
          DeadlineExceeded("RecognitionService: deadline expired before dispatch"));
      for (auto& request : shed) {
        request.deliver(Recognition{}, expired);
      }
      LockGuard lock(stats_mutex_);
      stat_queries_ += shed.size();
      stat_shed_deadline_ += shed.size();
    }
    if (batch.empty()) {
      continue;
    }

    InFlight flight;
    flight.requests = std::move(batch);
    auto inputs = std::make_shared<std::vector<FeatureVector>>();
    inputs->reserve(flight.requests.size());
    for (auto& request : flight.requests) {
      inputs->push_back(std::move(request.input));  // dead after dispatch
    }
    flight.inputs = inputs;
    const std::size_t n = flight.requests.size();
    flight.best.resize(n);
    flight.best_shard.assign(n, 0);
    flight.second.assign(n, -std::numeric_limits<double>::infinity());
    flight.has_best.assign(n, false);
    post_dispatch(flight);

    // A zero-candidate post settles at once and complete_dispatch fails it.
    while (flight.outstanding > 0) {
      // Block until a completion lands, bounded by the nearest watchdog
      // deadline among the outstanding posts.
      Clock::TimePoint nearest = Clock::TimePoint::max();
      for (const auto& pending : flight.pending) {
        if (pending.posted && !pending.settled) {
          nearest = std::min(nearest, pending.deadline);
        }
      }
      std::deque<Completion> ready;
      {
        UniqueLock lock(done_mutex_);
        const auto completed = [&]() SPINSIM_NO_TSA { return !completions_.empty(); };
        if (nearest == Clock::TimePoint::max()) {
          done_cv_.wait(lock, completed);
        } else {
          auto remaining = nearest - wall_clock_->now();
          if (remaining.count() < 0) {
            remaining = remaining.zero();
          }
          done_cv_.wait_for(lock, remaining, completed);
        }
        ready.swap(completions_);
      }
      for (auto& done : ready) {
        handle_completion(flight, std::move(done));
      }
      expire_watchdog(flight);
    }
    complete_dispatch(flight);
  }
}

std::uint64_t RecognitionService::repair_events_total() const {
  // Relaxed atomic counter reads inside the engines — safe against live
  // worker traffic, no lock taken.
  std::uint64_t events = 0;
  for (const auto& shard : shards_) {
    const LeafCacheCounters counters = shard->engine->leaf_counters();
    events += counters.devices_rewritten + counters.columns_remapped;
  }
  return events;
}

void RecognitionService::maybe_raise_repair_alarm() {
  if (config_.repair_alarm_per_kq <= 0.0) {
    return;
  }
  const std::uint64_t events = repair_events_total();
  double rate = 0.0;
  {
    LockGuard lock(stats_mutex_);
    if (stat_queries_ == 0) {
      return;
    }
    rate = static_cast<double>(events) * 1000.0 / static_cast<double>(stat_queries_);
    // Edge-triggered under the same lock that publishes the counter: one
    // alarm per excursion above the threshold, re-armed once the rate
    // decays back under it (traffic grows the denominator).
    if (rate > config_.repair_alarm_per_kq && !repair_alarm_active_) {
      stat_repair_alarms_ += 1;
    }
  }
  repair_alarm_active_ = rate > config_.repair_alarm_per_kq;
}

void RecognitionService::maybe_post_idle_scrub() {
  if (config_.idle_scrub_interval == 0 || queries_since_scrub_ < config_.idle_scrub_interval) {
    return;
  }
  for (auto& shard : shards_) {
    {
      LockGuard lock(shard->mutex);
      shard->scrub = true;
    }
    shard->cv.notify_all();
  }
  queries_since_scrub_ = 0;
  LockGuard lock(stats_mutex_);
  stat_idle_scrubs_ += 1;
}

void RecognitionService::shard_loop(std::size_t index) {
  Shard* shard = shards_[index].get();
  for (;;) {
    // Shared ownership of the batch: if the watchdog abandons this job
    // the collector's InFlight record (and its copy of the batch) may be
    // long gone by the time a wedged engine call returns — this
    // reference keeps the inputs alive until then.
    std::shared_ptr<const std::vector<FeatureVector>> job;
    std::uint64_t gen = 0;
    bool do_scrub = false;
    {
      UniqueLock lock(shard->mutex);
      shard->cv.wait(lock, [&]() SPINSIM_NO_TSA {
        return shard->stop || shard->job || shard->scrub;
      });
      if (shard->stop) {
        return;
      }
      if (shard->job) {
        // Serving beats scrubbing: a pending scrub flag survives to the
        // next wake-up.
        Shard::Job next = std::move(*shard->job);
        shard->job.reset();
        if (next.gen <= shard->abandoned_gen) {
          // Abandoned while still in the slot (e.g. posted behind a
          // maintain() scrub) — drop it without touching `busy`.
          continue;
        }
        job = std::move(next.inputs);
        gen = next.gen;
        shard->busy = true;
        shard->running_gen = gen;
      } else {
        do_scrub = true;
        shard->scrub = false;
      }
    }
    if (do_scrub) {
      // Upkeep out of the serving path (the collector only posts it when
      // the service is idle). This thread is the only one serving the
      // engine, so no lock is held meanwhile.
      shard->engine->maintain();
      continue;
    }
    Completion done;
    done.shard = index;
    done.gen = gen;
    const Clock::TimePoint engine_start = clock_->now();
    try {
      done.results = shard->engine->recognize_batch(*job, config_.engine_threads);
    } catch (...) {
      // Propagate through the collector to the client futures instead of
      // terminating the worker thread.
      done.error = std::current_exception();
    }
    const double engine_us =
        std::chrono::duration<double, std::micro>(clock_->now() - engine_start).count();
    {
      LockGuard lock(shard->mutex);
      // A job the watchdog abandoned already got answered without this
      // shard; its late results must not leak into the next batch. The
      // abandon check and the push are atomic because kServiceDone ranks
      // above kShard: the watchdog cannot abandon between them.
      if (shard->abandoned_gen < gen) {
        shard->batch_latency_us.add(engine_us);
        shard->batches_run += 1;
        LockGuard done_lock(done_mutex_);
        completions_.push_back(std::move(done));
      }
      shard->busy = false;
    }
    done_cv_.notify_all();
  }
}

void RecognitionService::post_to_shard(std::size_t index, InFlight& flight) {
  Shard& shard = *shards_[index];
  InFlight::PendingShard& pending = flight.pending[index];
  std::uint64_t gen = 0;
  {
    LockGuard lock(shard.mutex);
    gen = ++shard.next_gen;
    shard.job = Shard::Job{flight.inputs, gen};
  }
  shard.cv.notify_all();
  if (!pending.posted) {
    pending.posted = true;
    flight.outstanding += 1;
  }
  pending.gen = gen;
  // Watchdog deadlines run on the always-real wall clock: a FakeClock
  // must not make a healthy shard look instantly wedged (or a wedged one
  // look healthy forever).
  pending.deadline = config_.shard_timeout.count() > 0
                         ? wall_clock_->now() + config_.shard_timeout
                         : Clock::TimePoint::max();
}

void RecognitionService::post_dispatch(InFlight& flight) {
  flight.pending.assign(shards_.size(), InFlight::PendingShard{});
  // Shard eligibility: skip workers wedged in an abandoned job, and skip
  // shards whose breaker is open (an elapsed cooldown admits one
  // half-open probe).
  const Clock::TimePoint now = clock_->now();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    bool wedged = false;
    {
      LockGuard lock(shard.mutex);
      wedged = shard.wedged();
    }
    if (wedged) {
      continue;
    }
    bool admit = true;
    {
      LockGuard lock(stats_mutex_);
      Health& health = health_[s];
      if (health.state == RecognitionServiceStats::BreakerState::kOpen) {
        if (now >= health.open_until) {
          health.state = RecognitionServiceStats::BreakerState::kHalfOpen;
        } else {
          admit = false;
        }
      }
    }
    if (!admit) {
      continue;
    }
    flight.pending[s].retries_left = config_.shard_retries;
    post_to_shard(s, flight);
  }
}

void RecognitionService::note_shard_success(std::size_t index) {
  LockGuard lock(stats_mutex_);
  Health& health = health_[index];
  health.state = RecognitionServiceStats::BreakerState::kClosed;
  health.consecutive_failures = 0;
  health.cooldown = std::chrono::microseconds{0};
}

void RecognitionService::note_shard_exclusion(std::size_t index, bool timeout) {
  LockGuard lock(stats_mutex_);
  Health& health = health_[index];
  if (timeout) {
    health.timeouts += 1;
  }
  health.consecutive_failures += 1;
  // A failed half-open probe re-opens immediately; a closed shard needs
  // the full consecutive-failure run. The cooldown backs off
  // exponentially per consecutive ejection, capped.
  if (health.state == RecognitionServiceStats::BreakerState::kHalfOpen ||
      health.consecutive_failures >= config_.breaker_failure_threshold) {
    health.state = RecognitionServiceStats::BreakerState::kOpen;
    if (health.cooldown.count() == 0) {
      health.cooldown = config_.breaker_cooldown;
    }
    health.open_until = clock_->now() + health.cooldown;
    health.cooldown = std::min(
        std::chrono::microseconds{static_cast<std::int64_t>(
            std::llround(static_cast<double>(health.cooldown.count()) * kBreakerBackoff))},
        kBreakerMaxCooldown);
    health.ejections += 1;
  }
}

void RecognitionService::fold_shard_results(InFlight& flight, std::size_t shard_index,
                                            std::vector<Recognition>&& results) {
  // Streamed merge: fold this shard's answers into the running best /
  // runner-up per query. Highest score wins; ties resolve toward the
  // lowest shard index (and with it the lowest global template index) —
  // the rule a flat WTA/argmax applies, which is what makes the sharded
  // service winner-for-winner identical to a flat engine when shard
  // scores are comparable (see header). The runner-up takes the *actual*
  // other-shard scores starting from -inf — backends may score at or
  // below zero, and clamping it to 0 would mis-cap the margin.
  for (std::size_t i = 0; i < results.size(); ++i) {
    Recognition& r = results[i];
    if (!flight.has_best[i]) {
      flight.best[i] = std::move(r);
      flight.best_shard[i] = shard_index;
      flight.has_best[i] = true;
      continue;
    }
    Recognition& best = flight.best[i];
    if (r.score > best.score ||
        (r.score == best.score && shard_index < flight.best_shard[i])) {
      flight.second[i] = std::max(flight.second[i], best.score);
      best = std::move(r);
      flight.best_shard[i] = shard_index;
    } else {
      flight.second[i] = std::max(flight.second[i], r.score);
    }
  }
}

void RecognitionService::handle_completion(InFlight& flight, Completion&& done) {
  // Match the completion against the in-flight batch's latest post to
  // that shard; anything else is a late echo of an abandoned or
  // re-initialised post and is dropped.
  InFlight::PendingShard& pending = flight.pending[done.shard];
  if (!pending.posted || pending.settled || pending.gen != done.gen) {
    return;
  }
  if (!done.error && done.results.size() != flight.requests.size()) {
    // An engine that answers the wrong number of queries is as broken as
    // one that throws — and not worth retrying.
    done.error = std::make_exception_ptr(InvalidArgument(
        "RecognitionService: shard answered a different number of queries than posted"));
    pending.retries_left = 0;
  }
  if (done.error) {
    if (!flight.first_error) {
      flight.first_error = done.error;
    }
    {
      LockGuard lock(stats_mutex_);
      health_[done.shard].failures += 1;
    }
    if (pending.retries_left > 0) {
      pending.retries_left -= 1;
      {
        LockGuard lock(stats_mutex_);
        health_[done.shard].retries += 1;
      }
      post_to_shard(done.shard, flight);  // repost in place
      return;
    }
    note_shard_exclusion(done.shard, /*timeout=*/false);
    pending.settled = true;
    flight.outstanding -= 1;
    return;
  }
  note_shard_success(done.shard);
  fold_shard_results(flight, done.shard, std::move(done.results));
  pending.settled = true;
  flight.outstanding -= 1;
  flight.answered_shards += 1;
  flight.covered_columns += shards_[done.shard]->columns;
}

void RecognitionService::expire_watchdog(InFlight& flight) {
  if (config_.shard_timeout.count() <= 0) {
    return;
  }
  const Clock::TimePoint now = wall_clock_->now();
  for (std::size_t s = 0; s < flight.pending.size(); ++s) {
    InFlight::PendingShard& pending = flight.pending[s];
    if (!pending.posted || pending.settled || now < pending.deadline) {
      continue;
    }
    // Stuck-shard watchdog: abandon the post. Before abandoning, re-scan
    // the completion queue under shard.mutex + done_mutex_ — the worker
    // may have pushed the answer between our drain and this deadline
    // check, and the rank order (kShard < kServiceDone) makes the rescue
    // race-free against the worker's abandon-check+push.
    Shard& shard = *shards_[s];
    bool rescued = false;
    {
      LockGuard lock(shard.mutex);
      LockGuard done_lock(done_mutex_);
      for (const Completion& done : completions_) {
        if (done.shard == s && done.gen == pending.gen) {
          rescued = true;
          break;
        }
      }
      if (!rescued) {
        shard.abandoned_gen = std::max(shard.abandoned_gen, pending.gen);
      }
    }
    if (rescued) {
      continue;  // the drained completion settles it on the next pass
    }
    // The worker keeps running and discards the stale results; `busy`
    // stays set until then, so later dispatches skip this shard instead
    // of posting behind it.
    pending.settled = true;
    flight.outstanding -= 1;
    note_shard_exclusion(s, /*timeout=*/true);
  }
}

void RecognitionService::complete_dispatch(InFlight& flight) {
  std::vector<Request>& batch = flight.requests;
  if (flight.answered_shards == 0) {
    // Nothing served the batch. Propagate the engine's own error when
    // there was one (the single-shard contract); otherwise the refusal
    // is capacity-shaped and retriable.
    std::exception_ptr error = flight.first_error;
    if (!error) {
      error = std::make_exception_ptr(
          Overloaded("RecognitionService: no healthy shard available for the batch"));
    }
    // Failed queries still count: every delivered future shows up in
    // `queries` (and in `failed`), so mean_batch_size keeps meaning
    // dispatched/batches whatever the error rate. Latency stats only
    // track successes — see RecognitionServiceStats.
    {
      LockGuard lock(stats_mutex_);
      stat_queries_ += batch.size();
      stat_failed_ += batch.size();
      stat_dispatched_ += batch.size();
      stat_batches_ += 1;
    }
    maybe_raise_repair_alarm();
    for (auto& request : batch) {
      request.deliver(Recognition{}, error);
    }
    finish_dispatch(batch.size());
    return;
  }

  // Best-effort coverage: the fraction of the stored template set the
  // answering shards actually hold (1.0 in the healthy case).
  const double coverage = total_columns_ == 0
                              ? 1.0
                              : static_cast<double>(flight.covered_columns) /
                                    static_cast<double>(total_columns_);
  const bool degraded_now = brownout_;

  const Clock::TimePoint now = clock_->now();
  std::vector<Recognition> merged;
  merged.reserve(batch.size());
  std::vector<double> latencies_us;
  latencies_us.reserve(batch.size());
  std::uint64_t escalated = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Recognition answer = std::move(flight.best[i]);
    answer.winner += shards_[flight.best_shard[i]]->base;
    if (flight.answered_shards > 1) {
      if (flight.second[i] == answer.score) {
        answer.unique = false;
      }
      // The winning shard's margin only measures its *local* runner-up;
      // the global runner-up may live on another shard. Cap it with the
      // relative cross-shard score gap so the merged margin never
      // overstates the confidence a flat engine would have reported.
      if (answer.score > 0.0) {
        answer.margin = std::min(answer.margin, (answer.score - flight.second[i]) / answer.score);
      } else {
        // Non-positive winner: there is no positive scale to normalise a
        // score gap against, and a best match at or below zero carries
        // no confidence worth reporting — force escalation-grade margin.
        answer.margin = 0.0;
      }
    }
    if (!answer.unique) {
      answer.accepted = false;  // accepted implies unique, across shards too
    }
    answer.coverage = coverage;
    if (degraded_now) {
      answer.degraded = true;
    }
    if (const TieredRecognitionDetail* tiered = answer.tiered()) {
      escalated += tiered->tier == 1 ? 1 : 0;
    }
    rejected += answer.accepted ? 0 : 1;
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(now - batch[i].enqueued).count());
    merged.push_back(std::move(answer));
  }

  // Stats first, the repair alarm included: once a future resolves, a
  // client may read stats() and must see its own query counted.
  {
    LockGuard lock(stats_mutex_);
    stat_queries_ += batch.size();
    stat_dispatched_ += batch.size();
    stat_batches_ += 1;
    stat_escalated_ += escalated;
    stat_rejected_ += rejected;
    if (degraded_now) {
      stat_degraded_ += batch.size();
    }
    if (coverage < 1.0) {
      stat_best_effort_ += batch.size();
    }
    stat_coverage_sum_ += coverage * static_cast<double>(batch.size());
    for (const double latency_us : latencies_us) {
      stat_latency_sum_us_ += latency_us;
      stat_latency_max_us_ = std::max(stat_latency_max_us_, latency_us);
      stat_latency_us_.add(latency_us);
    }
  }
  maybe_raise_repair_alarm();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].deliver(std::move(merged[i]), nullptr);
  }

  controller_step(latencies_us);
  finish_dispatch(batch.size());
}

void RecognitionService::finish_dispatch(std::size_t delivered) {
  // Post-delivery bookkeeping, once per finalised batch: the
  // in-flight/idle accounting drain() waits on, and (when the service
  // went idle) an opportunistic scrub post.
  bool idle = false;
  {
    LockGuard lock(queue_mutex_);
    in_flight_ -= delivered;
    idle = queue_.empty() && in_flight_ == 0;
    if (idle) {
      idle_cv_.notify_all();
    }
  }
  queries_since_scrub_ += delivered;
  if (idle) {
    maybe_post_idle_scrub();
  }
}

void RecognitionService::controller_step(const std::vector<double>& latencies_us) {
  const OverloadControlConfig& oc = config_.overload;
  if (oc.target_p99_us <= 0.0) {
    return;
  }
  for (const double latency : latencies_us) {
    window_latency_us_.add(latency);
    window_max_us_ = std::max(window_max_us_, latency);
  }
  window_count_ += latencies_us.size();
  if (window_count_ < oc.period_queries) {
    return;
  }
  const double p99 = std::min(window_latency_us_.percentile(0.99), window_max_us_);
  // Past the second watermark: brown out and keep tightening for the
  // recovery. Between the target and that watermark: tighten, and a
  // brown-out already in force holds (hysteresis). Back under the SLO:
  // brown-out lifts, and a deep margin walks back once p99 clears the
  // low watermark.
  LoadSignal signal = LoadSignal::kHold;
  if (p99 > kBrownoutFactor * oc.target_p99_us) {
    signal = LoadSignal::kBrownout;
  } else if (p99 > oc.target_p99_us) {
    signal = LoadSignal::kTighten;
  } else if (p99 < kLowWatermark * oc.target_p99_us) {
    signal = LoadSignal::kRelax;
  }
  // The engines are served concurrently on their workers; adapt_to_load
  // is documented safe against in-flight traffic.
  bool changed = false;
  for (auto& shard : shards_) {
    changed = shard->engine->adapt_to_load(signal) || changed;
  }
  if (signal == LoadSignal::kBrownout && changed) {
    brownout_ = true;
  } else if (signal == LoadSignal::kHold || signal == LoadSignal::kRelax) {
    brownout_ = false;
  }
  window_latency_us_ = GeometricHistogram{};
  window_max_us_ = 0.0;
  window_count_ = 0;
  LockGuard lock(stats_mutex_);
  stat_brownout_ = brownout_;
  if (changed) {
    stat_controller_adjustments_ += 1;
  }
}

RecognitionService::EngineFactory make_tiered_factory(RecognitionService::EngineFactory tier0,
                                                      RecognitionService::EngineFactory tier1,
                                                      const TieredEngineConfig& config) {
  require(static_cast<bool>(tier0) && static_cast<bool>(tier1),
          "make_tiered_factory: both tier factories must be non-empty");
  return [tier0 = std::move(tier0), tier1 = std::move(tier1),
          config](std::size_t shard, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    return std::make_unique<TieredEngine>(tier0(shard, columns), tier1(shard, columns), config);
  };
}

RecognitionService::EngineFactory make_leaf_cache_factory(const LeafCacheEngineConfig& config) {
  return [config](std::size_t shard, std::size_t columns) -> std::unique_ptr<AssociativeEngine> {
    LeafCacheEngineConfig c = config;
    // A shard's slice may be much smaller than the logical set the caller
    // sized the clustering for: keep every leaf non-trivial (>= 2
    // templates on average) and the router meaningful (>= 2 clusters).
    const std::size_t max_clusters = std::max<std::size_t>(columns / 2, 2);
    c.hierarchy.clusters = std::min(c.hierarchy.clusters, max_clusters);
    c.leaf_slots = std::max<std::size_t>(std::min(c.leaf_slots, c.hierarchy.clusters), 1);
    // Distinct device noise per replica, like any sharded deployment.
    c.hierarchy.seed = config.hierarchy.seed + 0x9E37 * (shard + 1);
    return std::make_unique<LeafCacheEngine>(c);
  };
}

}  // namespace spinsim
