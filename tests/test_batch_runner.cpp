// Batch runner + profile cache: the PR-2 determinism and memoization
// contract.
//  (a) N-thread results are bit-identical to 1-thread results for all four
//      paper applications (every timing, resource, and energy field, plus
//      the serialized design).
//  (b) A profile-cache hit returns the same CommGraph as the cold run and
//      performs zero shadow-memory scans.
//  (c) An exception in one job doesn't poison the batch: every other job
//      completes and the runner stays usable.
// Plus batch-worker and seeding basics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hpp"
#include "apps/profile_cache.hpp"
#include "core/json_export.hpp"
#include "sys/batch_runner.hpp"
#include "sys/experiment.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

/// Run all four paper experiments through a BatchRunner with `threads`
/// workers and a cold cache, keyed by app name.
std::map<std::string, sys::AppExperiment> run_batch(std::size_t threads,
                                                    apps::ProfileCache& cache) {
  sys::BatchRunner runner{threads};
  const std::vector<std::string> names = apps::paper_app_names();
  std::vector<sys::BatchRunner::Job<sys::AppExperiment>> jobs;
  for (const std::string& name : names) {
    jobs.push_back({"experiment/" + name, [&cache, name](sys::JobContext&) {
                      const auto app = cache.paper_app(name);
                      return sys::run_experiment(app->schedule(),
                                                 sys::PlatformConfig{},
                                                 app->environment);
                    }});
  }
  std::vector<sys::AppExperiment> results = runner.run(std::move(jobs));
  std::map<std::string, sys::AppExperiment> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.emplace(names[i], std::move(results[i]));
  }
  return out;
}

void expect_identical_runs(const sys::RunResult& a, const sys::RunResult& b) {
  EXPECT_EQ(a.system_name, b.system_name);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.host_seconds, b.host_seconds);
  EXPECT_EQ(a.kernel_compute_seconds, b.kernel_compute_seconds);
  EXPECT_EQ(a.kernel_comm_seconds, b.kernel_comm_seconds);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].name, b.steps[i].name);
    EXPECT_EQ(a.steps[i].start_seconds, b.steps[i].start_seconds);
    EXPECT_EQ(a.steps[i].done_seconds, b.steps[i].done_seconds);
    EXPECT_EQ(a.steps[i].compute_seconds, b.steps[i].compute_seconds);
    EXPECT_EQ(a.steps[i].comm_seconds, b.steps[i].comm_seconds);
  }
}

TEST(BatchRunner, FourThreadResultsBitIdenticalToOneThread) {
  apps::ProfileCache cache_1t;
  apps::ProfileCache cache_4t;
  const auto serial = run_batch(1, cache_1t);
  const auto parallel = run_batch(4, cache_4t);

  ASSERT_EQ(serial.size(), 4U);
  ASSERT_EQ(parallel.size(), 4U);
  for (const std::string& name : apps::paper_app_names()) {
    SCOPED_TRACE(name);
    const sys::AppExperiment& a = serial.at(name);
    const sys::AppExperiment& b = parallel.at(name);
    expect_identical_runs(a.sw, b.sw);
    expect_identical_runs(a.baseline, b.baseline);
    expect_identical_runs(a.proposed, b.proposed);
    expect_identical_runs(a.noc_only, b.noc_only);
    EXPECT_EQ(a.baseline_resources.luts, b.baseline_resources.luts);
    EXPECT_EQ(a.baseline_resources.regs, b.baseline_resources.regs);
    EXPECT_EQ(a.proposed_resources.luts, b.proposed_resources.luts);
    EXPECT_EQ(a.proposed_resources.regs, b.proposed_resources.regs);
    EXPECT_EQ(a.noc_only_resources.luts, b.noc_only_resources.luts);
    EXPECT_EQ(a.noc_only_resources.regs, b.noc_only_resources.regs);
    EXPECT_EQ(a.baseline_power_watts, b.baseline_power_watts);
    EXPECT_EQ(a.proposed_power_watts, b.proposed_power_watts);
    EXPECT_EQ(a.baseline_energy_joules, b.baseline_energy_joules);
    EXPECT_EQ(a.proposed_energy_joules, b.proposed_energy_joules);
    // The full serialized design must match byte for byte.
    const auto specs = cache_1t.paper_app(name)->schedule().specs;
    EXPECT_EQ(core::to_json(a.proposed_design, specs),
              core::to_json(b.proposed_design, specs));
    EXPECT_EQ(a.proposed_design.solution_tag(),
              b.proposed_design.solution_tag());
  }
}

TEST(ProfileCache, HitReturnsSameGraphWithZeroShadowScans) {
  apps::ProfileCache cache;
  const auto cold = cache.paper_app("jpeg");
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 0U);

  const std::uint64_t scans_after_cold = cold->profiler->shadow().scan_count();
  EXPECT_GT(scans_after_cold, 0U);  // Profiling itself scanned.

  const auto hit = cache.paper_app("jpeg");
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 1U);

  // Hit path: the very same entry, and not one additional shadow pass.
  EXPECT_EQ(hit.get(), cold.get());
  EXPECT_EQ(hit->profiler->shadow().scan_count(), scans_after_cold);

  // Same CommGraph as an independent cold run.
  apps::ProfileCache other;
  const auto fresh = other.paper_app("jpeg");
  const auto edges_hit = hit->graph().edges();
  const auto edges_fresh = fresh->graph().edges();
  ASSERT_EQ(edges_hit.size(), edges_fresh.size());
  for (std::size_t i = 0; i < edges_hit.size(); ++i) {
    EXPECT_EQ(edges_hit[i].producer, edges_fresh[i].producer);
    EXPECT_EQ(edges_hit[i].consumer, edges_fresh[i].consumer);
    EXPECT_EQ(edges_hit[i].bytes.count(), edges_fresh[i].bytes.count());
    EXPECT_EQ(edges_hit[i].unique_addresses, edges_fresh[i].unique_addresses);
  }
  EXPECT_EQ(hit->graph().function_count(), fresh->graph().function_count());
}

TEST(ProfileCache, ConcurrentRequestsProfileOnce) {
  apps::ProfileCache cache;
  sys::BatchRunner runner{4};
  std::vector<sys::BatchRunner::Job<std::uint64_t>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({"probe/" + std::to_string(i),
                    [&cache](sys::JobContext&) {
                      return cache.paper_app("canny")->graph().total_out(0)
                          .count();
                    }});
  }
  const auto totals = runner.run(std::move(jobs));
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 7U);
  for (const std::uint64_t total : totals) {
    EXPECT_EQ(total, totals.front());
  }
}

TEST(BatchRunner, ExceptionInOneJobDoesNotPoisonPool) {
  sys::BatchRunner runner{4};
  std::atomic<int> completed{0};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({"job/" + std::to_string(i),
                    [i, &completed](sys::JobContext&) {
                      if (i == 3) {
                        throw ConfigError{"job three exploded"};
                      }
                      completed.fetch_add(1);
                      return i * 10;
                    }});
  }
  // run() surfaces the failure as an exception — after the batch drained.
  try {
    (void)runner.run(std::move(jobs));
    ADD_FAILURE() << "run() did not rethrow the failed job";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string{e.what()}.find("'job/3' failed: job three exploded"),
              std::string::npos)
        << e.what();
  }

  // Every other job ran to completion.
  EXPECT_EQ(completed.load(), 7);
  const sys::BatchReport& report = runner.last_report();
  ASSERT_EQ(report.jobs.size(), 8U);
  EXPECT_EQ(report.failed_count(), 1U);
  EXPECT_FALSE(report.jobs[3].ok);
  EXPECT_NE(report.jobs[3].error.find("job three exploded"),
            std::string::npos);
  // run() is a supervised batch with default options: one attempt, and
  // the thrown job settles as crashed.
  EXPECT_EQ(report.jobs[3].status, sys::JobStatus::kCrashed);
  EXPECT_EQ(report.jobs[3].attempts, 1U);
  EXPECT_EQ(report.jobs[2].status, sys::JobStatus::kOk);

  // The runner is still fully usable afterwards.
  std::vector<sys::BatchRunner::Job<int>> follow_up;
  for (int i = 0; i < 4; ++i) {
    follow_up.push_back({"ok/" + std::to_string(i),
                         [i](sys::JobContext&) { return i + 1; }});
  }
  const auto values = runner.run(std::move(follow_up));
  EXPECT_EQ(values, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(runner.last_report().failed_count(), 0U);
}

TEST(BatchRunner, JobSeedsAreStableAndPerKey) {
  // Seeds depend only on the key: stable across runs, distinct across keys.
  EXPECT_EQ(sys::job_seed("experiment/jpeg"), sys::job_seed("experiment/jpeg"));
  EXPECT_NE(sys::job_seed("experiment/jpeg"), sys::job_seed("experiment/klt"));

  sys::BatchRunner runner{4};
  std::vector<sys::BatchRunner::Job<std::uint64_t>> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({"seeded/" + std::to_string(i),
                    [](sys::JobContext& context) { return context.seed; }});
  }
  const auto seeds = runner.run(std::move(jobs));
  const std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], sys::job_seed("seeded/" + std::to_string(i)));
  }
}

TEST(BatchRunner, EveryJobRunsOnceInItsSlotAtAnyBatchSize) {
  // One runner reused across batches: each batch starts its own workers
  // and joins them before returning, so an empty batch, one job, fewer
  // jobs than threads and many more all run every job exactly once, in
  // its own slot, on a worker thread rather than the caller.
  sys::BatchRunner runner{4};
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t count : {0U, 1U, 3U, 64U}) {
    SCOPED_TRACE(count);
    std::vector<std::atomic<int>> runs(count);
    std::vector<sys::BatchRunner::Job<std::size_t>> jobs;
    for (std::size_t i = 0; i < count; ++i) {
      jobs.push_back({"slot/" + std::to_string(i),
                      [&runs, caller, i](sys::JobContext& context) {
                        runs[i].fetch_add(1);
                        EXPECT_NE(std::this_thread::get_id(), caller);
                        EXPECT_EQ(context.index, i);
                        return i;
                      }});
    }
    const std::vector<std::size_t> values = runner.run(std::move(jobs));
    const sys::BatchReport& report = runner.last_report();
    EXPECT_EQ(report.thread_count, 4U);
    ASSERT_EQ(values.size(), count);
    ASSERT_EQ(report.jobs.size(), count);
    std::uint64_t steals = 0;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1);
      EXPECT_EQ(values[i], i);
      EXPECT_EQ(report.jobs[i].index, i);
      EXPECT_LT(report.jobs[i].worker, 4U);
      if (report.jobs[i].worker != i % 4) {
        ++steals;
      }
    }
    EXPECT_EQ(report.steals, steals);
  }

  // At one thread every job runs on worker 0, which is its own slot's
  // worker: nothing counts as stolen.
  sys::BatchRunner serial{1};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({"serial/" + std::to_string(i),
                    [i](sys::JobContext&) { return i; }});
  }
  (void)serial.run(std::move(jobs));
  EXPECT_EQ(serial.last_report().thread_count, 1U);
  EXPECT_EQ(serial.last_report().steals, 0U);
  for (const sys::JobReport& job : serial.last_report().jobs) {
    EXPECT_EQ(job.worker, 0U);
  }
}

TEST(BatchRunner, ReportCarriesPerJobMetrics) {
  sys::BatchRunner runner{2};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back({"metrics/" + std::to_string(i),
                    [i](sys::JobContext& context) {
                      EXPECT_EQ(context.index, static_cast<std::size_t>(i));
                      return i;
                    }});
  }
  (void)runner.run(std::move(jobs));
  const sys::BatchReport& report = runner.last_report();
  EXPECT_EQ(report.thread_count, 2U);
  ASSERT_EQ(report.jobs.size(), 5U);
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].index, i);
    EXPECT_EQ(report.jobs[i].key, "metrics/" + std::to_string(i));
    EXPECT_TRUE(report.jobs[i].ok);
    EXPECT_GE(report.jobs[i].wall_seconds, 0.0);
    EXPECT_LT(report.jobs[i].worker, 2U);
  }
  EXPECT_GE(report.wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Supervised batches (docs/MODEL.md §17): watchdog, retry, quarantine,
// admission gate.

TEST(Supervised, OkJobsSettleWithValueAndOneAttempt) {
  sys::BatchRunner runner{2};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back({"ok/" + std::to_string(i),
                    [i](sys::JobContext&) { return i * 10; }});
  }
  const auto slots =
      runner.run_supervised(std::move(jobs), sys::SuperviseOptions{});
  ASSERT_EQ(slots.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(slots[i].status, sys::JobStatus::kOk);
    ASSERT_TRUE(slots[i].value.has_value());
    EXPECT_EQ(*slots[i].value, static_cast<int>(i) * 10);
    EXPECT_EQ(slots[i].attempts, 1U);
    EXPECT_EQ(runner.last_report().jobs[i].status, sys::JobStatus::kOk);
  }
}

TEST(Supervised, TransientFailureRetriesUntilSuccess) {
  sys::BatchRunner runner{1};
  auto failures_left = std::make_shared<std::atomic<int>>(2);
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"flaky", [failures_left](sys::JobContext&) {
                    if (failures_left->fetch_sub(1) > 0) {
                      throw std::runtime_error("transient blip");
                    }
                    return 7;
                  }});
  sys::SuperviseOptions options;
  options.transient_retries = 3;
  options.backoff_initial_seconds = 0.001;
  options.is_transient = [](const std::exception&) { return true; };
  const auto slots = runner.run_supervised(std::move(jobs), options);
  ASSERT_EQ(slots.size(), 1U);
  EXPECT_EQ(slots[0].status, sys::JobStatus::kOk);
  EXPECT_EQ(*slots[0].value, 7);
  EXPECT_EQ(slots[0].attempts, 3U);  // Two blips + the success.
}

TEST(Supervised, NonTransientFailureIsNeverRetried) {
  sys::BatchRunner runner{1};
  auto calls = std::make_shared<std::atomic<int>>(0);
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"bug", [calls](sys::JobContext&) -> int {
                    calls->fetch_add(1);
                    throw std::logic_error("deterministic bug");
                  }});
  sys::SuperviseOptions options;
  options.transient_retries = 5;
  options.is_transient = [](const std::exception&) { return false; };
  const auto slots = runner.run_supervised(std::move(jobs), options);
  EXPECT_EQ(slots[0].status, sys::JobStatus::kCrashed);
  EXPECT_EQ(slots[0].error, "deterministic bug");
  EXPECT_EQ(slots[0].attempts, 1U);
  EXPECT_EQ(calls->load(), 1);
}

TEST(Supervised, RetryBudgetExhaustionEndsInCrashed) {
  sys::BatchRunner runner{1};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"always-flaky", [](sys::JobContext&) -> int {
                    throw std::runtime_error("still flaky");
                  }});
  sys::SuperviseOptions options;
  options.transient_retries = 2;
  options.backoff_initial_seconds = 0.001;
  options.is_transient = [](const std::exception&) { return true; };
  const auto slots = runner.run_supervised(std::move(jobs), options);
  EXPECT_EQ(slots[0].status, sys::JobStatus::kCrashed);
  EXPECT_EQ(slots[0].attempts, 3U);
}

TEST(Supervised, WatchdogExpiryQuarantinesWithoutRetry) {
  sys::BatchRunner runner{2};
  // The wedge job polls a cancel flag so the abandoned thread drains
  // promptly once the test is done (a real wedge would sleep until
  // process exit).
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  auto attempts = std::make_shared<std::atomic<int>>(0);
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"wedged", [cancel, attempts](sys::JobContext&) {
                    attempts->fetch_add(1);
                    while (!cancel->load()) {
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(1));
                    }
                    return 0;
                  }});
  jobs.push_back({"fine", [](sys::JobContext&) { return 42; }});
  sys::SuperviseOptions options;
  options.job_timeout_seconds = 0.05;
  options.transient_retries = 3;  // Must NOT apply to timeouts.
  options.is_transient = [](const std::exception&) { return true; };
  const auto slots = runner.run_supervised(std::move(jobs), options);
  EXPECT_EQ(slots[0].status, sys::JobStatus::kTimeout);
  EXPECT_EQ(slots[0].error, sys::watchdog_expired_message(0.05));
  EXPECT_EQ(slots[0].attempts, 1U);
  EXPECT_EQ(attempts->load(), 1);
  EXPECT_EQ(slots[1].status, sys::JobStatus::kOk);
  EXPECT_EQ(*slots[1].value, 42);
  cancel->store(true);
  // Give the abandoned thread a beat to observe the flag and exit before
  // the test's shared state unwinds.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(Supervised, StopFlagSkipsNotYetStartedJobs) {
  sys::BatchRunner runner{1};
  std::atomic<bool> stop{false};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  jobs.push_back({"first", [&stop](sys::JobContext&) {
                    stop.store(true);  // Raised while the batch runs.
                    return 1;
                  }});
  jobs.push_back({"second", [](sys::JobContext&) { return 2; }});
  sys::SuperviseOptions options;
  options.stop_requested = &stop;
  const auto slots = runner.run_supervised(std::move(jobs), options);
  EXPECT_EQ(slots[0].status, sys::JobStatus::kOk);
  EXPECT_EQ(slots[1].status, sys::JobStatus::kSkipped);
  EXPECT_EQ(slots[1].attempts, 0U);
  EXPECT_FALSE(slots[1].value.has_value());
}

TEST(Supervised, OnSettledFiresOncePerJobBeforeBatchEnd) {
  sys::BatchRunner runner{2};
  std::vector<sys::BatchRunner::Job<int>> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({"settle/" + std::to_string(i),
                    [i](sys::JobContext&) -> int {
                      if (i == 3) {
                        throw std::runtime_error("boom");
                      }
                      return i;
                    }});
  }
  std::mutex mutex;
  std::map<std::size_t, sys::JobStatus> settled;
  const auto slots = runner.run_supervised(
      std::move(jobs), sys::SuperviseOptions{},
      [&mutex, &settled](std::size_t i,
                         const sys::SupervisedResult<int>& r) {
        const std::lock_guard<std::mutex> lock{mutex};
        EXPECT_EQ(settled.count(i), 0U);
        settled[i] = r.status;
      });
  ASSERT_EQ(settled.size(), 6U);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(settled[i], i == 3 ? sys::JobStatus::kCrashed
                                 : sys::JobStatus::kOk);
  }
  EXPECT_EQ(slots[3].status, sys::JobStatus::kCrashed);
}

TEST(Supervised, ProbeSupervisedClassifiesOkCrashAndTimeout) {
  EXPECT_EQ(sys::probe_supervised([] {}, 0.0), sys::JobStatus::kOk);
  EXPECT_EQ(sys::probe_supervised(
                [] { throw std::runtime_error("nope"); }, 0.0),
            sys::JobStatus::kCrashed);
  EXPECT_EQ(sys::probe_supervised([] {}, 5.0), sys::JobStatus::kOk);
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  EXPECT_EQ(sys::probe_supervised(
                [cancel] {
                  while (!cancel->load()) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                  }
                },
                0.05),
            sys::JobStatus::kTimeout);
  cancel->store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

}  // namespace
}  // namespace hybridic
