#include "sys/batch_runner.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>

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
  JobContext context{"probe", 0, Rng{0}, 0};
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

void BatchRunner::run_erased(
    const std::vector<std::string>& keys,
    const std::function<void(std::size_t, JobContext&)>& invoke) {
  using Clock = std::chrono::steady_clock;

  last_ = BatchReport{};
  last_.thread_count = pool_.thread_count();
  last_.jobs.resize(keys.size());
  if (keys.empty()) {
    return;
  }

  const std::uint64_t steals_before = pool_.steal_count();
  const auto batch_start = Clock::now();

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = keys.size();

  for (std::size_t i = 0; i < keys.size(); ++i) {
    pool_.submit([this, &keys, &invoke, &done_mutex, &done_cv, &remaining,
                  i] {
      JobReport& report = last_.jobs[i];  // Slot is private to this job.
      report.key = keys[i];
      report.seed = job_seed(keys[i]);
      report.index = i;
      report.worker = ThreadPool::current_worker();
      const auto start = Clock::now();
      try {
        JobContext context{keys[i], report.seed, Rng{report.seed}, i};
        invoke(i, context);
      } catch (const std::exception& e) {
        report.ok = false;
        report.error = e.what();
      } catch (...) {
        report.ok = false;
        report.error = "unknown exception";
      }
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      report.wall_seconds = elapsed.count();
      {
        std::unique_lock<std::mutex> lock{done_mutex};
        --remaining;
        // Notify under the lock: the waiter may destroy done_cv the moment
        // it observes remaining == 0, so the signal must not outlive the
        // critical section.
        done_cv.notify_one();
      }
    });
  }

  std::unique_lock<std::mutex> lock{done_mutex};
  done_cv.wait(lock, [&remaining] { return remaining == 0; });

  const std::chrono::duration<double> batch_elapsed =
      Clock::now() - batch_start;
  last_.wall_seconds = batch_elapsed.count();
  last_.steals = pool_.steal_count() - steals_before;
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
