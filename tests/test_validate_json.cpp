// Tests of design validation and JSON export.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/design_validate.hpp"
#include "core/interconnect_design.hpp"
#include "core/json_export.hpp"
#include "sys/experiment.hpp"

namespace hybridic::core {
namespace {

/// A minimal valid design with one instance.
struct Minimal {
  Minimal() {
    KernelSpec spec;
    spec.name = "k";
    spec.function = 0;
    spec.hw_compute_cycles = Cycles{1000};
    specs.push_back(spec);
    KernelInstance inst;
    inst.name = "k";
    inst.spec_index = 0;
    inst.work_share = 1.0;
    inst.mapping = InterconnectClass{KernelConn::kK1, MemConn::kM1};
    design.instances.push_back(inst);
  }
  std::vector<KernelSpec> specs;
  DesignResult design;
};

TEST(Validate, CleanDesignHasNoIssues) {
  Minimal m;
  const auto issues = validate_design(m.design, m.specs);
  EXPECT_TRUE(issues.empty()) << format_issues(issues);
  EXPECT_TRUE(is_valid(issues));
}

TEST(Validate, MissingSpecIsError) {
  Minimal m;
  m.design.instances[0].spec_index = 7;
  const auto issues = validate_design(m.design, m.specs);
  EXPECT_FALSE(is_valid(issues));
  EXPECT_NE(format_issues(issues).find("references spec"),
            std::string::npos);
}

TEST(Validate, InfeasibleMappingIsError) {
  Minimal m;
  m.design.instances[0].mapping =
      InterconnectClass{KernelConn::kK1, MemConn::kM2};
  EXPECT_FALSE(is_valid(validate_design(m.design, m.specs)));
}

TEST(Validate, BadWorkSharesAreError) {
  Minimal m;
  KernelInstance copy = m.design.instances[0];
  copy.name = "k#1";
  copy.work_share = 0.25;  // 1.0 + 0.25 != 1
  m.design.instances.push_back(copy);
  EXPECT_FALSE(is_valid(validate_design(m.design, m.specs)));
}

TEST(Validate, OversizedInputIsWarningNotError) {
  Minimal m;
  m.design.instances[0].quantities.host_in = Bytes{1 << 20};
  const auto issues = validate_design(m.design, m.specs);
  ASSERT_EQ(issues.size(), 1U);
  EXPECT_EQ(issues[0].severity, Severity::kWarning);
  EXPECT_TRUE(is_valid(issues));
  EXPECT_NE(issues[0].message.find("chunking"), std::string::npos);
}

TEST(Validate, DirectSharingWithHostTrafficIsError) {
  Minimal m;
  KernelInstance consumer = m.design.instances[0];
  consumer.name = std::string{"c"};
  consumer.quantities.host_out = Bytes{100};
  m.design.instances.push_back(consumer);
  m.design.shared_pairs.push_back(
      SharedMemoryPairing{0, 1, Bytes{10}, mem::SharingStyle::kDirect});
  const auto issues = validate_design(m.design, m.specs);
  EXPECT_FALSE(is_valid(issues));
  EXPECT_NE(format_issues(issues).find("crossbar is required"),
            std::string::npos);
}

TEST(Validate, NocAttachmentChecks) {
  Minimal m;
  NocPlan plan;
  plan.mesh_width = 2;
  plan.mesh_height = 1;
  plan.attachments = {
      NocAttachment{0, NocNodeKind::kKernel, 5},  // off mesh
      NocAttachment{0, NocNodeKind::kLocalMemory, 0},
      NocAttachment{0, NocNodeKind::kKernel, 0},  // duplicate router
  };
  m.design.noc = plan;
  const auto issues = validate_design(m.design, m.specs);
  EXPECT_FALSE(is_valid(issues));
  const std::string text = format_issues(issues);
  EXPECT_NE(text.find("off the mesh"), std::string::npos);
  EXPECT_NE(text.find("share router"), std::string::npos);
}

TEST(Validate, AlgorithmOutputsAreAlwaysClean) {
  // Every design Algorithm 1 produces for the paper apps must validate.
  for (const auto& name : apps::paper_app_names()) {
    const apps::ProfiledApp app = apps::run_paper_app(name);
    const sys::AppSchedule schedule = app.schedule();
    const DesignResult design = design_interconnect(
        sys::make_design_input(schedule, sys::PlatformConfig{}));
    const auto issues = validate_design(design, schedule.specs);
    EXPECT_TRUE(is_valid(issues)) << name << "\n"
                                  << format_issues(issues);
  }
}

TEST(JsonExport, ContainsAllSections) {
  const apps::ProfiledApp app = apps::run_paper_app("jpeg");
  const sys::AppSchedule schedule = app.schedule();
  const DesignResult design = design_interconnect(
      sys::make_design_input(schedule, sys::PlatformConfig{}));
  const std::string json = to_json(design, schedule.specs);
  EXPECT_NE(json.find("\"solution\": \"NoC, SM, P\""), std::string::npos);
  EXPECT_NE(json.find("\"huff_ac_dec#0\""), std::string::npos);
  EXPECT_NE(json.find("\"crossbar\""), std::string::npos);
  EXPECT_NE(json.find("\"mesh\": {\"width\": 3, \"height\": 2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"duplicated_specs\""), std::string::npos);
  EXPECT_NE(json.find("\"estimate\""), std::string::npos);
}

TEST(JsonExport, NoNocSerializesNull) {
  const apps::ProfiledApp app = apps::run_paper_app("klt");
  const sys::AppSchedule schedule = app.schedule();
  const DesignResult design = design_interconnect(
      sys::make_design_input(schedule, sys::PlatformConfig{}));
  const std::string json = to_json(design, schedule.specs);
  EXPECT_NE(json.find("\"noc\": null"), std::string::npos);
  // KLT's pair consumer (corner_response) talks to the host: crossbar.
  EXPECT_NE(json.find("\"crossbar\""), std::string::npos);
}

TEST(JsonExport, DirectStyleAppearsForCanny) {
  const apps::ProfiledApp app = apps::run_paper_app("canny");
  const sys::AppSchedule schedule = app.schedule();
  const DesignResult design = design_interconnect(
      sys::make_design_input(schedule, sys::PlatformConfig{}));
  const std::string json = to_json(design, schedule.specs);
  EXPECT_NE(json.find("\"direct\""), std::string::npos);
  EXPECT_NE(json.find("\"crossbar\""), std::string::npos);
}

TEST(JsonExport, BalancedBracesAndQuotes) {
  Minimal m;
  const std::string json = to_json(m.design, m.specs);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

}  // namespace
}  // namespace hybridic::core
