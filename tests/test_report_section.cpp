// bench::patch_report_section: each campaign owns one "## " section of
// bench_results/REPORT.md, and re-running it replaces that section alone.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.hpp"

namespace hybridic::bench {
namespace {

/// Runs the test body in a fresh temporary directory: patch_report_section
/// writes bench_results/REPORT.md relative to the working directory.
class ReportSection : public ::testing::Test {
protected:
  void SetUp() override {
    home_ = std::filesystem::current_path();
    dir_ = std::filesystem::temp_directory_path() /
           ("report_section_" +
            std::string{::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()});
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ / "bench_results");
    std::filesystem::current_path(dir_);
  }
  void TearDown() override {
    std::filesystem::current_path(home_);
    std::filesystem::remove_all(dir_);
  }

  static void write_report(const std::string& text) {
    std::ofstream{"bench_results/REPORT.md"} << text;
  }
  static std::string report() {
    std::stringstream buffer;
    buffer << std::ifstream{"bench_results/REPORT.md"}.rdbuf();
    return buffer.str();
  }

private:
  std::filesystem::path home_;
  std::filesystem::path dir_;
};

const char kMain[] = "# Report\n\n## Fig. 4\n\nmain body\n";

TEST_F(ReportSection, AppendsAfterTheMainReport) {
  write_report(kMain);
  patch_report_section("## DSE", "## DSE\n\nfirst\n");
  EXPECT_EQ(report(), std::string{kMain} + "\n## DSE\n\nfirst\n");
}

TEST_F(ReportSection, CreatesTheReportWhenAbsent) {
  patch_report_section("## DSE", "## DSE\n\nfirst\n");
  EXPECT_EQ(report(), "## DSE\n\nfirst\n");
}

TEST_F(ReportSection, RerunReplacesOnlyItsOwnSection) {
  write_report(kMain);
  patch_report_section("## DSE", "## DSE\n\nfirst\n");
  patch_report_section("## Topology", "## Topology\n\ntopo\n");
  patch_report_section("## DSE", "## DSE\n\nsecond\n### detail\n\nmore\n");
  // Same bytes as running the campaigns once each, in that order.
  EXPECT_EQ(report(), std::string{kMain} +
                          "\n## DSE\n\nsecond\n### detail\n\nmore\n"
                          "\n## Topology\n\ntopo\n");
  patch_report_section("## Topology", "## Topology\n\ntopo again\n");
  EXPECT_EQ(report(), std::string{kMain} +
                          "\n## DSE\n\nsecond\n### detail\n\nmore\n"
                          "\n## Topology\n\ntopo again\n");
}

}  // namespace
}  // namespace hybridic::bench
