#include "sys/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace hybridic::sys {

std::string watchdog_expired_message(double timeout_seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wall-clock watchdog (%gs) expired",
                timeout_seconds);
  return std::string{buf};
}

JobStatus probe_supervised(const std::function<void()>& fn,
                           double timeout_seconds) {
  // `fn` is captured by value: an abandoned watchdog thread may still be
  // inside the call after this frame returns.
  const std::function<int(JobContext&)> wrapped = [fn](JobContext&) {
    fn();
    return 0;
  };
  JobContext context{"probe", 0, 0};
  const detail::AttemptOutcome<int> outcome =
      timeout_seconds > 0.0
          ? detail::attempt_with_watchdog<int>(wrapped, std::move(context),
                                               nullptr, timeout_seconds)
          : detail::run_attempt<int>(wrapped, context, nullptr);
  return outcome.status;
}

std::uint64_t job_seed(std::string_view key) {
  // The splitmix64 output mix without its increment decorrelates keys
  // differing in few bits.
  return util::mix64(util::fnv1a64(key));
}

BatchRunner::BatchRunner(std::size_t threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1U, std::thread::hardware_concurrency())) {}

void BatchRunner::run_erased(
    const std::vector<std::string>& keys,
    const std::function<void(std::size_t, const JobContext&)>& invoke) {
  using Clock = std::chrono::steady_clock;

  last_ = BatchReport{};
  last_.thread_count = threads_;
  last_.jobs.resize(keys.size());
  const auto batch_start = Clock::now();

  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t worker) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < keys.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      JobReport& report = last_.jobs[i];  // Slot is private to this job.
      report.key = keys[i];
      report.index = i;
      report.worker = worker;
      const auto start = Clock::now();
      try {
        invoke(i, JobContext{keys[i], job_seed(keys[i]), i});
      } catch (const std::exception& e) {
        report.ok = false;
        report.error = e.what();
      } catch (...) {
        report.ok = false;
        report.error = "unknown exception";
      }
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      report.wall_seconds = elapsed.count();
    }
  };
  const std::size_t worker_count = std::min(threads_, keys.size());
  std::vector<std::thread> workers;
  workers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back(work, w);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  const std::chrono::duration<double> batch_elapsed =
      Clock::now() - batch_start;
  last_.wall_seconds = batch_elapsed.count();
  for (const JobReport& job : last_.jobs) {
    if (job.worker != job.index % threads_) {
      ++last_.steals;
    }
  }
}

void BatchRunner::rethrow_first_failure() const {
  for (const JobReport& job : last_.jobs) {
    if (!job.ok) {
      throw ConfigError{"batch job '" + job.key + "' failed: " + job.error +
                        (last_.failed_count() > 1
                             ? " (+" +
                                   std::to_string(last_.failed_count() - 1) +
                                   " more failed jobs, see last_report())"
                             : "")};
    }
  }
}

}  // namespace hybridic::sys
