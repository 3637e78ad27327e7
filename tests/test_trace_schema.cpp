// Golden-schema tests for the machine-readable trace export: the
// Chrome-trace/Perfetto JSON (engine::chrome_trace_json), which carries
// every event field (kind as "cat", fabric as "tid", step, start, end,
// bytes and label).
//
// Downstream tooling (Perfetto) parses this format, so its JSON framing
// is a contract. The golden pins the full byte-exact output of one small
// deterministic run; regenerate after an intentional format change with
//   HYBRIDIC_UPDATE_TRACE_GOLDENS=1 ctest -R TraceSchema
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "apps/synthetic.hpp"
#include "sys/engine/chrome_trace.hpp"
#include "sys/executor.hpp"

namespace hybridic::sys {
namespace {

std::string goldens_dir() {
  return std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/trace";
}

bool update_mode() {
  const char* flag = std::getenv("HYBRIDIC_UPDATE_TRACE_GOLDENS");
  return flag != nullptr && std::string{flag} == "1";
}

/// One small, fully deterministic run shared by every schema test.
RunResult golden_run() {
  apps::SyntheticConfig config;
  config.kernel_count = 3;
  config.kernel_edge_probability = 0.8;
  config.min_edge_bytes = 256;
  config.max_edge_bytes = 1024;
  config.min_work_units = 500;
  config.max_work_units = 2000;
  config.seed = 11;
  apps::ProfiledApp app = apps::make_synthetic_app(config);
  return run_baseline(app.schedule(), PlatformConfig{});
}

void check_against_golden(const std::string& file_name,
                          const std::string& produced) {
  const std::string path = goldens_dir() + "/" + file_name;
  if (update_mode()) {
    std::filesystem::create_directories(goldens_dir());
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with HYBRIDIC_UPDATE_TRACE_GOLDENS=1";
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(produced, golden)
      << file_name
      << " drifted; if the format change is intentional, regenerate the "
         "golden and update any consumers";
}

TEST(TraceSchema, ChromeTraceJsonMatchesGolden) {
  const RunResult run = golden_run();
  check_against_golden("baseline_chrome_trace.json",
                       engine::chrome_trace_json(run.trace, run.system_name));
}

TEST(TraceSchema, ChromeTraceJsonCarriesPerfettoFraming) {
  const RunResult run = golden_run();
  const std::string json =
      engine::chrome_trace_json(run.trace, run.system_name);
  // The pieces Perfetto / chrome://tracing require to load the file.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find(run.system_name), std::string::npos);
  // One complete event per trace event.
  std::size_t complete_events = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\"");
       pos != std::string::npos; pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, run.trace.events().size());
}

}  // namespace
}  // namespace hybridic::sys
