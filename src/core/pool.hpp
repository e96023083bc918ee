#pragma once

// Shared work-stealing thread pool (ccsql::core::Pool) underpinning the
// parallel execution layer: morsel-driven query operators (src/plan), the
// parallel invariant-suite runner (src/checks) and parallel VCG composition.
//
// Design (after Leis et al.'s morsel-driven parallelism):
//
//  - One process-wide pool (Pool::global()), sized by --jobs / CCSQL_JOBS /
//    std::thread::hardware_concurrency at first use.  Every layer shares it;
//    nested parallel regions never oversubscribe.
//  - Each worker owns a deque: it pushes/pops its own tasks LIFO (cache-warm)
//    and steals FIFO from victims when idle.
//  - Group::wait() *helps*: a thread blocked on a group keeps draining pool
//    tasks, so nested parallelism (a parallel invariant task running a
//    parallel join probe) cannot deadlock and the caller's core is never idle.
//  - parallel_for() hands out fixed-size morsels from an atomic dispenser.
//    Morsel boundaries depend only on (n, grain) — never on the worker count
//    — so callers that write one result slot per morsel and concatenate in
//    morsel order produce bit-identical output at any --jobs value.
//
// Determinism contract: `jobs` decides only *where* morsels run, never how
// the input is split.  jobs <= 1 executes inline on the calling thread.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ccsql::obs {
class Metrics;
}  // namespace ccsql::obs

namespace ccsql::core {

/// Snapshot of pool activity counters, cumulative since pool construction.
/// busy/idle nanoseconds cover worker threads only (helping lanes in
/// Group::wait are accounted in tasks_run/help_runs but keep no clock).
struct PoolStats {
  std::size_t workers = 0;
  std::uint64_t tasks_run = 0;        // tasks executed on any lane
  std::uint64_t help_runs = 0;        // of which: run by off-pool helpers
  std::uint64_t steals = 0;           // worker takes from a sibling's queue
  std::uint64_t steal_failures = 0;   // full sweeps that found every queue empty
  std::uint64_t queue_high_water = 0; // max queue length seen on any worker
  std::uint64_t busy_nanos = 0;       // summed worker time spent running tasks
  std::uint64_t idle_nanos = 0;       // summed worker time spent waiting

  /// busy / (busy + idle) over the worker threads; 0 with no workers.
  [[nodiscard]] double utilization() const noexcept;
  /// One line, e.g. `pool: 3 workers, 128 tasks (41 stolen), util 87.2%`.
  [[nodiscard]] std::string summary() const;
};

class Pool {
 public:
  /// A pool with `threads` worker threads.  Zero is valid: tasks then run
  /// only via Group::wait() helping on the submitting thread.
  explicit Pool(std::size_t threads);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Upper bound on default_jobs(): a larger --jobs, CCSQL_JOBS or
  /// set_default_jobs() value is clamped to it, so no setting can ask the
  /// global pool for an unbounded number of threads.
  static constexpr std::size_t kMaxJobs = 256;

  /// The process-wide pool shared by all subsystems.  Created on first use
  /// with default_jobs() - 1 workers (the calling thread is the extra lane).
  static Pool& global();

  /// Process-wide parallelism default: the last set_default_jobs() value,
  /// else CCSQL_JOBS from the environment, else hardware_concurrency, each
  /// clamped to [1, kMaxJobs].
  [[nodiscard]] static std::size_t default_jobs();

  /// Overrides default_jobs (the CLI's --jobs flag).  Call before the first
  /// parallel region to also size the global pool; later calls still cap
  /// effective parallelism but cannot grow an already-created pool.
  static void set_default_jobs(std::size_t jobs);

  /// Index of the calling pool worker thread, or -1 off-pool.
  [[nodiscard]] static int worker_id() noexcept;

  /// Worker-thread count (the pool supports size()+1 concurrent lanes: the
  /// workers plus the thread waiting in Group::wait).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Snapshot of the activity counters (cheap: relaxed loads only).
  [[nodiscard]] PoolStats stats() const;
  /// Writes the snapshot as pool.* gauges into `metrics` (overwrite
  /// semantics, so repeated publishes do not accumulate).
  void publish_stats(obs::Metrics& metrics) const;

  /// A set of tasks completed together.  wait() (or the destructor) blocks
  /// until every task ran, helping with queued pool work meanwhile, and
  /// rethrows the first exception a task threw.
  class Group {
   public:
    explicit Group(Pool& pool) : pool_(&pool) {}
    ~Group();
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// Schedules `fn` on the pool.
    void run(std::function<void()> fn);
    void wait();

   private:
    friend class Pool;
    void finish_one(std::exception_ptr err) noexcept;

    Pool* pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    std::exception_ptr error_;
  };

  /// Morsel-driven loop over [0, n): body(begin, end, morsel) for each chunk
  /// of at most `grain` indices, claimed dynamically by up to `jobs` lanes
  /// (the caller participates).  Morsel boundaries are a pure function of
  /// (n, grain); `morsel` is the chunk ordinal, for slot-per-morsel output.
  /// body must be thread-safe; exceptions propagate to the caller.
  void parallel_for(std::size_t n, std::size_t grain, std::size_t jobs,
                    const std::function<void(std::size_t begin,
                                             std::size_t end,
                                             std::size_t morsel)>& body);

  /// Runs `count` independent tasks body(i) for i in [0, count) on up to
  /// `jobs` lanes; equivalent to parallel_for(count, 1, jobs, ...).
  void parallel_tasks(std::size_t count, std::size_t jobs,
                      const std::function<void(std::size_t)>& body);

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
  };
  struct Worker;

  /// Pops or steals one task and runs it; false when every queue was empty.
  bool try_run_one();
  void run_task(Task& task) noexcept;
  void worker_loop(std::size_t wid);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};

  // Telemetry (relaxed: counters tolerate torn reads across each other).
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> help_runs_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_failures_{0};
  std::atomic<std::uint64_t> queue_high_water_{0};
};

}  // namespace ccsql::core
