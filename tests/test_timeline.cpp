#include "sys/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hybridic::sys {
namespace {

RunResult sample_run() {
  RunResult result;
  result.system_name = "demo";
  result.total_seconds = 10e-3;
  StepTiming host;
  host.name = "host_prep";
  host.is_kernel = false;
  host.start_seconds = 0.0;
  host.done_seconds = 2e-3;
  host.compute_seconds = 2e-3;
  StepTiming kernel;
  kernel.name = "kernel_a";
  kernel.is_kernel = true;
  kernel.start_seconds = 2e-3;
  kernel.done_seconds = 10e-3;
  kernel.compute_seconds = 5e-3;
  kernel.comm_seconds = 3e-3;
  result.steps = {host, kernel};
  result.host_seconds = 2e-3;
  result.kernel_compute_seconds = 5e-3;
  result.kernel_comm_seconds = 3e-3;
  return result;
}

TEST(Timeline, RendersAllSteps) {
  const std::string out = render_timeline(sample_run());
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("host_prep"), std::string::npos);
  EXPECT_NE(out.find("kernel_a"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);  // kernel compute
  EXPECT_NE(out.find('='), std::string::npos);  // host work
  EXPECT_NE(out.find('.'), std::string::npos);  // exposed communication
}

TEST(Timeline, EmptyRunDoesNotCrash) {
  RunResult empty;
  empty.system_name = "empty";
  const std::string out = render_timeline(empty);
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(Timeline, BarsReflectDurations) {
  const std::string out = render_timeline(sample_run());
  // The kernel occupies 80% of the run: its bar must be much longer than
  // the host's 20% bar.
  std::istringstream lines{out};
  std::string line;
  std::size_t host_marks = 0;
  std::size_t kernel_marks = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("host_prep", 0) == 0) {
      host_marks = static_cast<std::size_t>(
          std::count(line.begin(), line.end(), '='));
    }
    if (line.rfind("kernel_a", 0) == 0) {
      kernel_marks = static_cast<std::size_t>(
          std::count(line.begin(), line.end(), '#') +
          std::count(line.begin(), line.end(), '.'));
    }
  }
  EXPECT_GT(kernel_marks, 3 * host_marks);
}

TEST(Timeline, WorksOnRealRun) {
  // Smoke test on a real baseline run.
  prof::CommGraph graph;
  const auto host = graph.add_function("host");
  const auto kernel = graph.add_function("k");
  graph.function_mutable(kernel).work_units = 10'000;
  graph.add_transfer(host, kernel, Bytes{10'000}, 10'000);
  const AppSchedule schedule = build_schedule(
      "t", graph, {{"k", 8.0, 1.0, 100, 100, true, false, false}});
  const RunResult run = run_baseline(schedule, PlatformConfig{});
  const std::string out = render_timeline(run);
  EXPECT_NE(out.find("k "), std::string::npos);
}

}  // namespace
}  // namespace hybridic::sys
