#include "util/thread_pool.hpp"

#include <exception>
#include <limits>

namespace hybridic {

namespace {
thread_local std::size_t tls_worker_index = ThreadPool::kNotAWorker;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 1;
    }
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock{idle_mutex_};
    // Drain before stopping so a destructed pool never drops work.
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t home = 0;
  {
    std::unique_lock<std::mutex> lock{idle_mutex_};
    home = next_home_++ % queues_.size();
    ++pending_;
    ++queued_;
  }
  {
    std::unique_lock<std::mutex> lock{queues_[home]->mutex};
    queues_[home]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

std::uint64_t ThreadPool::steal_count() const {
  return steals_.load(std::memory_order_relaxed);
}

std::uint64_t ThreadPool::executed_count() const {
  return executed_.load(std::memory_order_relaxed);
}

std::size_t ThreadPool::current_worker() { return tls_worker_index; }

std::function<void()> ThreadPool::take_from(std::size_t victim) {
  std::unique_lock<std::mutex> lock{queues_[victim]->mutex};
  if (queues_[victim]->tasks.empty()) {
    return {};
  }
  std::function<void()> task = std::move(queues_[victim]->tasks.front());
  queues_[victim]->tasks.pop_front();
  return task;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_worker_index = self;
  const std::size_t n = queues_.size();
  for (;;) {
    // Own queue first (FIFO), then round-robin over the other workers'
    // queues — the steal path.
    std::function<void()> task;
    bool stolen = false;
    for (std::size_t probe = 0; probe < n && !task; ++probe) {
      const std::size_t victim = (self + probe) % n;
      task = take_from(victim);
      stolen = task && victim != self;
    }
    if (task) {
      {
        std::unique_lock<std::mutex> lock{idle_mutex_};
        --queued_;
      }
      task();
      executed_.fetch_add(1, std::memory_order_relaxed);
      if (stolen) {
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
      bool drained = false;
      {
        std::unique_lock<std::mutex> lock{idle_mutex_};
        drained = --pending_ == 0;
      }
      if (drained) {
        // Wake anything blocked on "all work done" (the destructor).
        done_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock{idle_mutex_};
    if (stop_) {
      return;
    }
    // queued_ counts submitted-but-not-yet-taken tasks, so workers sleep
    // here (instead of spinning) while other workers run long tasks.
    work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
  }
}

void TaskGroup::run_and_wait() {
  const std::size_t n = tasks_.size();
  if (n == 0) {
    return;
  }
  if (pool_ == nullptr || pool_->thread_count() <= 1 || n == 1) {
    // Serial fast path: run inline, first throw wins (it is also the
    // lowest index, since we run in order).
    std::vector<std::function<void()>> tasks = std::move(tasks_);
    tasks_.clear();
    for (auto& task : tasks) {
      task();
    }
    return;
  }

  struct State {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t completed = 0;  ///< Guarded by mutex.
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;  ///< From the lowest-index throwing task.
  };
  auto state = std::make_shared<State>();
  state->tasks = std::move(tasks_);
  tasks_.clear();

  auto drain = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->tasks.size()) {
        return;
      }
      std::exception_ptr error;
      try {
        s->tasks[i]();
      } catch (...) {
        error = std::current_exception();
      }
      std::unique_lock<std::mutex> lock{s->mutex};
      if (error && i < s->error_index) {
        s->error_index = i;
        s->error = error;
      }
      if (++s->completed == s->tasks.size()) {
        s->done_cv.notify_all();
      }
    }
  };

  // One helper per extra worker; the caller claims tasks too, so a group
  // launched from a pool job makes progress even if no helper ever runs.
  const std::size_t helpers = std::min(pool_->thread_count() - 1, n - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    pool_->submit([state, drain] { drain(state); });
  }
  drain(state);

  std::unique_lock<std::mutex> lock{state->mutex};
  state->done_cv.wait(lock,
                      [&] { return state->completed == state->tasks.size(); });
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

}  // namespace hybridic
