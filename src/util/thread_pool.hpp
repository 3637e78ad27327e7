// Fixed-size work-stealing thread pool.
//
// Every task is submitted to a "home" queue (round-robin across workers);
// a worker drains its own queue in FIFO order and, when empty, steals the
// oldest task from another worker's queue. Stealing keeps all cores busy
// when job durations are uneven (profiling an app takes ~100x longer than
// re-simulating one sweep point) without any shared run queue becoming a
// bottleneck.
//
// The pool itself imposes no ordering between tasks — callers that need
// deterministic results must make every task independent (own engine, own
// RNG stream) and aggregate by submission index, which is exactly what
// sys::BatchRunner does on top of this class.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hybridic {

class ThreadPool {
public:
  /// Sentinel returned by current_worker() on threads not owned by a pool.
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers after draining every submitted task.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw — wrap user code and capture
  /// exceptions before they reach the pool (BatchRunner does).
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t thread_count() const { return queues_.size(); }

  /// Tasks executed by a worker other than the task's home worker.
  [[nodiscard]] std::uint64_t steal_count() const;

  /// Total tasks executed so far.
  [[nodiscard]] std::uint64_t executed_count() const;

  /// Index of the calling pool worker, or kNotAWorker outside the pool.
  [[nodiscard]] static std::size_t current_worker();

private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);

  /// Pop the oldest task from queue `victim`; empty function if none.
  std::function<void()> take_from(std::size_t victim);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex idle_mutex_;
  std::condition_variable work_cv_;  ///< Signals workers: task queued / stop.
  std::condition_variable done_cv_;  ///< Signals drain waiters: pending_ == 0.
  std::uint64_t pending_ = 0;  ///< Submitted, not yet finished (idle_mutex_).
  std::uint64_t queued_ = 0;   ///< Submitted, not yet taken (idle_mutex_).
  bool stop_ = false;          ///< Guarded by idle_mutex_.

  std::uint64_t next_home_ = 0;  ///< Guarded by idle_mutex_ (round-robin).

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> executed_{0};
};

/// Caller-participating scatter/gather over an (optional) ThreadPool.
///
/// Collect tasks with add(), then run_and_wait(). Tasks are claimed from a
/// shared atomic cursor by pool workers *and* by the calling thread, so a
/// group launched from inside a pool job can never deadlock the pool: the
/// caller always makes progress on its own tasks even when every worker is
/// busy. With a null pool (or a 1-thread pool) everything simply runs
/// inline on the caller, in add() order.
///
/// If tasks throw, the exception from the lowest-index throwing task is
/// rethrown from run_and_wait() — deterministic regardless of which
/// thread ran which task.
class TaskGroup {
public:
  /// `pool` may be null (pure serial execution).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}

  /// Collect a task; must be called before run_and_wait().
  void add(std::function<void()> task) { tasks_.push_back(std::move(task)); }

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }

  /// Run every added task, blocking until all complete. One-shot: the
  /// group is empty afterwards and can be reused with fresh add() calls.
  void run_and_wait();

private:
  ThreadPool* pool_ = nullptr;
  std::vector<std::function<void()>> tasks_;
};

}  // namespace hybridic
