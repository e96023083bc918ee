#include "core/pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.hpp"

namespace ccsql::core {
namespace {

/// Worker index of the current thread within its owning pool (-1 off-pool).
thread_local int t_worker_id = -1;

std::atomic<std::size_t>& default_jobs_cell() {
  static std::atomic<std::size_t> cell{0};  // 0 = not yet resolved
  return cell;
}

std::size_t resolve_default_jobs() {
  if (const char* env = std::getenv("CCSQL_JOBS");
      env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return std::min(static_cast<std::size_t>(v), Pool::kMaxJobs);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, Pool::kMaxJobs);
}

}  // namespace

struct Pool::Worker {
  std::mutex mu;
  std::deque<Task> queue;
  std::thread thread;
  // Written only by the owning worker thread; read by Pool::stats().
  std::atomic<std::uint64_t> busy_nanos{0};
  std::atomic<std::uint64_t> idle_nanos{0};
};

Pool::Pool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Threads start only after every Worker exists: worker_loop steals from
  // siblings and must never observe a partially-built vector.
  for (std::size_t i = 0; i < threads; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

Pool::~Pool() {
  stop_.store(true, std::memory_order_relaxed);
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Pool& Pool::global() {
  static Pool pool(default_jobs() > 0 ? default_jobs() - 1 : 0);
  return pool;
}

std::size_t Pool::default_jobs() {
  std::size_t v = default_jobs_cell().load(std::memory_order_relaxed);
  if (v == 0) {
    v = resolve_default_jobs();
    default_jobs_cell().store(v, std::memory_order_relaxed);
  }
  return v;
}

void Pool::set_default_jobs(std::size_t jobs) {
  default_jobs_cell().store(std::clamp<std::size_t>(jobs, 1, kMaxJobs),
                            std::memory_order_relaxed);
}

int Pool::worker_id() noexcept { return t_worker_id; }

PoolStats Pool::stats() const {
  PoolStats s;
  s.workers = workers_.size();
  s.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  s.help_runs = help_runs_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.steal_failures = steal_failures_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    s.busy_nanos += w->busy_nanos.load(std::memory_order_relaxed);
    s.idle_nanos += w->idle_nanos.load(std::memory_order_relaxed);
  }
  return s;
}

void Pool::publish_stats(obs::Metrics& metrics) const {
  const PoolStats s = stats();
  metrics.set("pool.workers", s.workers);
  metrics.set("pool.tasks_run", s.tasks_run);
  metrics.set("pool.help_runs", s.help_runs);
  metrics.set("pool.steals", s.steals);
  metrics.set("pool.steal_failures", s.steal_failures);
  metrics.set("pool.queue_high_water", s.queue_high_water);
  metrics.set("pool.busy_nanos", s.busy_nanos);
  metrics.set("pool.idle_nanos", s.idle_nanos);
  metrics.set("pool.utilization_pct",
              static_cast<std::uint64_t>(s.utilization() * 100.0 + 0.5));
}

double PoolStats::utilization() const noexcept {
  const double denom =
      static_cast<double>(busy_nanos) + static_cast<double>(idle_nanos);
  return denom > 0 ? static_cast<double>(busy_nanos) / denom : 0.0;
}

std::string PoolStats::summary() const {
  char util[16];
  std::snprintf(util, sizeof(util), "%.1f%%", utilization() * 100.0);
  std::string out = "pool: " + std::to_string(workers) + " workers, " +
                    std::to_string(tasks_run) + " tasks (" +
                    std::to_string(steals) + " stolen, " +
                    std::to_string(help_runs) + " helped), " +
                    std::to_string(steal_failures) + " empty sweeps, " +
                    "queue high-water " + std::to_string(queue_high_water) +
                    ", utilization " + util;
  return out;
}

bool Pool::try_run_one() {
  const int self = t_worker_id;
  const std::size_t n = workers_.size();
  if (n == 0) return false;
  // Own queue first (back = LIFO), then round the victims (front = FIFO).
  const std::size_t start =
      self >= 0 ? static_cast<std::size_t>(self)
                : next_queue_.load(std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    Worker& w = *workers_[(start + k) % n];
    Task task;
    {
      std::lock_guard<std::mutex> lock(w.mu);
      if (w.queue.empty()) continue;
      if (k == 0 && self >= 0) {
        task = std::move(w.queue.back());
        w.queue.pop_back();
      } else {
        task = std::move(w.queue.front());
        w.queue.pop_front();
      }
    }
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (self < 0) {
      help_runs_.fetch_add(1, std::memory_order_relaxed);
    } else if (k != 0) {
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
    run_task(task);
    return true;
  }
  steal_failures_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Pool::run_task(Task& task) noexcept {
  std::exception_ptr err;
  try {
    task.fn();
  } catch (...) {
    err = std::current_exception();
  }
  if (task.group != nullptr) task.group->finish_one(err);
}

void Pool::worker_loop(std::size_t wid) {
  t_worker_id = static_cast<int>(wid);
  obs::set_current_worker(static_cast<int>(wid));
  Worker& self = *workers_[wid];
  auto mark = std::chrono::steady_clock::now();
  const auto elapsed_nanos = [&mark] {
    const auto now = std::chrono::steady_clock::now();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - mark)
                        .count();
    mark = now;
    return static_cast<std::uint64_t>(ns > 0 ? ns : 0);
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    if (try_run_one()) {
      // The interval covered the queue sweep plus the task body: busy.
      self.busy_nanos.fetch_add(elapsed_nanos(), std::memory_order_relaxed);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
    self.idle_nanos.fetch_add(elapsed_nanos(), std::memory_order_relaxed);
  }
}

// ---- Group ------------------------------------------------------------------

Pool::Group::~Group() {
  try {
    wait();
  } catch (...) {
    // A destructor must not throw; wait() explicitly to observe errors.
  }
}

void Pool::Group::run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  Task task{std::move(fn), this};
  Pool& p = *pool_;
  const std::size_t n = p.workers_.size();
  if (n == 0) {
    // No workers: run through the deferred path — wait() executes it.
    // Queue on a synthetic slot is impossible, so run inline immediately.
    p.run_task(task);
    return;
  }
  const int self = t_worker_id;
  const std::size_t target =
      self >= 0 && static_cast<std::size_t>(self) < n
          ? static_cast<std::size_t>(self)
          : p.next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  std::size_t depth = 0;
  {
    Worker& w = *p.workers_[target];
    std::lock_guard<std::mutex> lock(w.mu);
    w.queue.push_back(std::move(task));
    depth = w.queue.size();
  }
  std::uint64_t hw = p.queue_high_water_.load(std::memory_order_relaxed);
  while (depth > hw && !p.queue_high_water_.compare_exchange_weak(
                           hw, depth, std::memory_order_relaxed)) {
  }
  p.sleep_cv_.notify_one();
}

void Pool::Group::finish_one(std::exception_ptr err) noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (err && !error_) error_ = err;
  if (--pending_ == 0) cv_.notify_all();
}

void Pool::Group::wait() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) break;
    }
    // Help: drain pool work while our tasks are in flight.  When nothing is
    // queued (our tasks are running on other workers), sleep briefly.
    if (pool_->try_run_one()) continue;
    std::unique_lock<std::mutex> lock(mu_);
    if (pending_ == 0) break;
    cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

// ---- parallel loops ---------------------------------------------------------

void Pool::parallel_for(
    std::size_t n, std::size_t grain, std::size_t jobs,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t morsels = (n + grain - 1) / grain;
  auto run_morsel = [&](std::size_t m) {
    const std::size_t begin = m * grain;
    body(begin, std::min(n, begin + grain), m);
  };
  if (jobs <= 1 || morsels <= 1) {
    for (std::size_t m = 0; m < morsels; ++m) run_morsel(m);
    return;
  }
  // Morsel dispenser: lanes claim chunk ordinals until exhausted.  The
  // split depends only on (n, grain), so output assembled per-morsel is
  // identical at any jobs value.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto claim_loop = [next, morsels, run_morsel]() {
    for (;;) {
      const std::size_t m = next->fetch_add(1, std::memory_order_relaxed);
      if (m >= morsels) break;
      run_morsel(m);
    }
  };
  const std::size_t lanes = std::min({jobs, morsels, size() + 1});
  Group group(*this);
  for (std::size_t i = 1; i < lanes; ++i) group.run(claim_loop);
  claim_loop();  // the caller is a lane too
  group.wait();
}

void Pool::parallel_tasks(std::size_t count, std::size_t jobs,
                          const std::function<void(std::size_t)>& body) {
  parallel_for(count, 1, jobs,
               [&](std::size_t begin, std::size_t, std::size_t) {
                 body(begin);
               });
}

}  // namespace ccsql::core
