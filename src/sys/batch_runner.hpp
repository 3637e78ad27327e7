// Parallel experiment engine: runs a batch of independent, keyed jobs (one
// AppExperiment, one sweep point, one synthetic shape) on worker threads
// started for that batch and returns the results in submission order.
// The workers claim job indices from one shared cursor and are joined
// before the batch returns; the calling thread only waits.
//
// Determinism contract — results are bit-identical regardless of thread
// count and scheduling order because:
//  * every job owns its state: executors build their own Platform (and
//    therefore their own sim::Engine and stats), nothing is shared mutably;
//  * every job gets its own seed, a stable hash of the job key (never of
//    time, thread id, or submission interleaving);
//  * results land in a slot fixed by submission index, and callers iterate
//    slots in order — reduction order never depends on completion order.
//
// A job that throws is recorded (key + message) without poisoning the
// batch: every other job still runs to completion, and the runner stays
// usable for further batches. run() rethrows the first failure afterwards;
// inspect last_report() for the full picture.
//
// Every batch is supervised (docs/MODEL.md §17), and run() is a supervised
// batch with default options. Supervision can add a per-job wall-clock
// watchdog (the attempt runs on its own thread and is abandoned when the
// budget expires), bounded retry with exponential backoff for failures a
// caller-supplied predicate classifies as transient, and an admission gate
// that skips not-yet-started jobs once a stop flag is raised. Every job
// ends in exactly one of ok / crashed / timeout / skipped.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace hybridic::sys {

/// Terminal state of one supervised job.
enum class JobStatus : std::uint8_t {
  kOk = 0,
  kCrashed,  ///< Threw: non-transient, or the transient retry budget ran out.
  kTimeout,  ///< The wall-clock watchdog expired; the attempt was abandoned.
  kSkipped,  ///< Never started: stop was requested before admission.
};

/// Deterministic watchdog-expiry message ("%g"-formatted budget, no
/// measured times) so a quarantined row's text is identical across runs.
[[nodiscard]] std::string watchdog_expired_message(double timeout_seconds);

/// Run `fn` to completion under an optional wall-clock watchdog and
/// report how it ended (kOk / kCrashed / kTimeout). `timeout_seconds` == 0
/// runs inline with no watchdog. Used for quarantine-shrink probes, where
/// a candidate config may itself wedge.
[[nodiscard]] JobStatus probe_supervised(const std::function<void()>& fn,
                                         double timeout_seconds);

struct SuperviseOptions {
  /// Per-attempt wall-clock budget in seconds; 0 disables the watchdog
  /// (attempts then run inline on the batch worker).
  double job_timeout_seconds = 0.0;
  /// Extra attempts granted when `is_transient` classifies a thrown
  /// failure as retryable (a flaky filesystem, not a logic bug).
  std::uint32_t transient_retries = 0;
  /// Delay before the first retry; doubles on each subsequent retry.
  double backoff_initial_seconds = 0.005;
  /// Classifies a thrown exception as transient (retryable). Empty =
  /// nothing is transient. Called on the attempt thread.
  std::function<bool(const std::exception&)> is_transient;
  /// Admission gate: when set and true, jobs (and retries) that have not
  /// started yet finish as kSkipped; in-flight attempts still run to
  /// completion (bounded by the watchdog when one is configured).
  const std::atomic<bool>* stop_requested = nullptr;
};

template <typename R>
struct SupervisedResult {
  JobStatus status = JobStatus::kSkipped;
  std::optional<R> value;      ///< Present exactly when status == kOk.
  std::string error;           ///< Failure/timeout/skip message otherwise.
  std::uint32_t attempts = 0;  ///< Attempts actually started.
};

/// Handed to each job; everything a job may depend on beyond its inputs.
struct JobContext {
  std::string key;        ///< The job's unique key.
  std::uint64_t seed;     ///< job_seed(key) — stable across runs/threads.
  std::size_t index = 0;  ///< Submission index (== result slot).
};

/// Per-job execution record (submission order in BatchReport::jobs).
struct JobReport {
  std::string key;
  std::size_t index = 0;
  std::size_t worker = 0;      ///< Batch worker (0 .. thread_count-1).
  double wall_seconds = 0.0;
  bool ok = true;
  std::string error;           ///< Exception message when !ok.
  /// Terminal state and the number of attempts started.
  JobStatus status = JobStatus::kOk;
  std::uint32_t attempts = 1;
};

/// Metrics for the last batch.
struct BatchReport {
  std::size_t thread_count = 0;  ///< The runner's configured thread count.
  double wall_seconds = 0.0;     ///< Start of the batch to its last join.
  /// Jobs that ran on a worker other than index % thread_count (0 at one
  /// thread).
  std::uint64_t steals = 0;
  std::vector<JobReport> jobs;

  [[nodiscard]] double total_job_seconds() const {
    double sum = 0.0;
    for (const JobReport& job : jobs) {
      sum += job.wall_seconds;
    }
    return sum;
  }
  [[nodiscard]] std::size_t failed_count() const {
    std::size_t n = 0;
    for (const JobReport& job : jobs) {
      n += job.ok ? 0 : 1;
    }
    return n;
  }
};

/// Deterministic RNG seed for a job key: FNV-1a 64 over the key bytes,
/// finalized with a splitmix-style mix so near-identical keys get
/// uncorrelated streams.
[[nodiscard]] std::uint64_t job_seed(std::string_view key);

namespace detail {

/// Blocks template deduction on a parameter so callers can pass a lambda
/// where a std::function of an already-deduced R is expected.
template <typename T>
struct NonDeduced {
  using type = T;
};
template <typename T>
using non_deduced_t = typename NonDeduced<T>::type;

template <typename R>
struct AttemptOutcome {
  JobStatus status = JobStatus::kCrashed;
  std::optional<R> value;
  std::string error;
  bool transient = false;
};

/// One attempt body: run the job, classify any failure. Never throws.
template <typename R>
AttemptOutcome<R> run_attempt(
    const std::function<R(JobContext&)>& fn, JobContext& context,
    const std::function<bool(const std::exception&)>& classify) {
  AttemptOutcome<R> outcome;
  try {
    outcome.value.emplace(fn(context));
    outcome.status = JobStatus::kOk;
  } catch (const std::exception& e) {
    outcome.status = JobStatus::kCrashed;
    outcome.error = e.what();
    outcome.transient = classify && classify(e);
  } catch (...) {
    outcome.status = JobStatus::kCrashed;
    outcome.error = "unknown exception";
  }
  return outcome;
}

/// One attempt on a dedicated thread, abandoned (detached) when the
/// wall-clock budget expires. The attempt thread owns copies of
/// everything it touches — the job function, its context, and the shared
/// completion state — so abandoning it leaks no references into the
/// caller's frame; a late completion writes only into state the thread
/// itself keeps alive.
template <typename R>
AttemptOutcome<R> attempt_with_watchdog(
    std::function<R(JobContext&)> fn, JobContext context,
    std::function<bool(const std::exception&)> classify,
    double timeout_seconds) {
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    AttemptOutcome<R> outcome;
  };
  auto shared = std::make_shared<Shared>();
  std::thread worker{[shared, fn = std::move(fn), classify = std::move(classify),
                      context = std::move(context)]() mutable {
    AttemptOutcome<R> outcome = run_attempt<R>(fn, context, classify);
    std::lock_guard<std::mutex> lock{shared->mutex};
    shared->outcome = std::move(outcome);
    shared->done = true;
    // Notify under the lock: the supervisor may stop referencing `shared`
    // the moment it observes done (it holds its own shared_ptr, but the
    // cv must not be signalled outside the critical section).
    shared->cv.notify_all();
  }};
  std::unique_lock<std::mutex> lock{shared->mutex};
  const bool finished = shared->cv.wait_for(
      lock, std::chrono::duration<double>{timeout_seconds},
      [&shared] { return shared->done; });
  if (finished) {
    AttemptOutcome<R> outcome = std::move(shared->outcome);
    lock.unlock();
    worker.join();
    return outcome;
  }
  lock.unlock();
  worker.detach();
  AttemptOutcome<R> timeout;
  timeout.status = JobStatus::kTimeout;
  timeout.error = watchdog_expired_message(timeout_seconds);
  return timeout;
}

}  // namespace detail

class BatchRunner {
public:
  /// One unit of work producing an R.
  template <typename R>
  struct Job {
    std::string key;
    std::function<R(JobContext&)> run;
  };

  /// `threads` == 0 means hardware concurrency (at least 1).
  explicit BatchRunner(std::size_t threads = 0);

  /// Run all jobs to completion; results in submission order. If any job
  /// threw, rethrows the first failure (by submission index) as
  /// ConfigError after the whole batch has drained.
  template <typename R>
  std::vector<R> run(std::vector<Job<R>> jobs) {
    std::vector<SupervisedResult<R>> slots =
        run_supervised(std::move(jobs), SuperviseOptions{});
    rethrow_first_failure();
    std::vector<R> results;
    results.reserve(slots.size());
    for (SupervisedResult<R>& slot : slots) {
      results.push_back(std::move(*slot.value));
    }
    return results;
  }

  /// Run all jobs to completion under supervision: a per-attempt
  /// wall-clock watchdog, bounded transient retry with exponential
  /// backoff, and a stop-flag admission gate, as `options` configure.
  /// Every slot reports exactly one terminal status; nothing is rethrown.
  /// Results stay in submission order and a retry replays the job's key
  /// and seed, so supervision never perturbs the determinism contract.
  ///
  /// `on_settled`, when set, fires on the worker thread the moment a
  /// job's terminal status is known — before the batch drains — so a
  /// caller can checkpoint completions incrementally (a crash then loses
  /// at most the in-flight jobs). It fires exactly once per job; an
  /// exception it throws is recorded against the job like a job failure.
  template <typename R>
  std::vector<SupervisedResult<R>> run_supervised(
      std::vector<Job<R>> jobs, const SuperviseOptions& options,
      const detail::non_deduced_t<
          std::function<void(std::size_t, const SupervisedResult<R>&)>>&
          on_settled = nullptr) {
    // An abandoned watchdog attempt holds copies of what it runs, so the
    // jobs and slots need not outlive this frame.
    std::vector<SupervisedResult<R>> slots(jobs.size());
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    for (const Job<R>& job : jobs) {
      keys.push_back(job.key);
    }
    run_erased(keys, [&](std::size_t i, const JobContext& context) {
      supervise_one<R>(jobs[i], context, options, slots[i]);
      if (on_settled) {
        on_settled(i, slots[i]);
      }
    });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      JobReport& report = last_.jobs[i];
      report.status = slots[i].status;
      report.attempts = slots[i].attempts;
      if (slots[i].status != JobStatus::kOk) {
        report.ok = false;
        report.error = slots[i].error;
      }
    }
    return slots;
  }

  /// Metrics of the most recent batch.
  [[nodiscard]] const BatchReport& last_report() const { return last_; }

private:
  /// Supervision loop for one job: admission gate, backoff, bounded
  /// retry. Runs on the batch worker that claimed the job; never throws.
  template <typename R>
  static void supervise_one(const Job<R>& job, const JobContext& context,
                            const SuperviseOptions& options,
                            SupervisedResult<R>& slot) {
    const std::uint32_t max_attempts = 1 + options.transient_retries;
    double backoff = options.backoff_initial_seconds;
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (options.stop_requested != nullptr &&
          options.stop_requested->load(std::memory_order_relaxed)) {
        slot.status = JobStatus::kSkipped;
        slot.error = "skipped: stop requested before the job started";
        return;
      }
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>{backoff});
        backoff *= 2.0;
      }
      ++slot.attempts;
      // Every attempt replays the identical inputs (same key, same seed),
      // so a retried job cannot observe its own retry.
      JobContext fresh = context;
      detail::AttemptOutcome<R> outcome =
          options.job_timeout_seconds > 0.0
              ? detail::attempt_with_watchdog<R>(
                    job.run, std::move(fresh), options.is_transient,
                    options.job_timeout_seconds)
              : detail::run_attempt<R>(job.run, fresh, options.is_transient);
      slot.status = outcome.status;
      slot.error = std::move(outcome.error);
      if (outcome.status == JobStatus::kOk) {
        slot.value = std::move(outcome.value);
        return;
      }
      if (outcome.status == JobStatus::kTimeout || !outcome.transient) {
        // A wedge is deterministic (retrying burns another full budget for
        // the same answer) and a logic bug is not transient: both go
        // straight to the caller's quarantine path.
        return;
      }
    }
  }

  /// Run one keyed invocation per index on min(threads, jobs) worker
  /// threads that claim indices from one cursor; returns once every
  /// worker is joined. Fills last_.
  void run_erased(
      const std::vector<std::string>& keys,
      const std::function<void(std::size_t, const JobContext&)>& invoke);

  /// Throw ConfigError for the lowest-index failed job, if any.
  void rethrow_first_failure() const;

  std::size_t threads_;
  BatchReport last_;
};

}  // namespace hybridic::sys
