// Byte-exact goldens of QUAD profiling: the store::encode_profile bytes of
// the four paper apps at their default configs, of each app at one
// held-out config, and of two sampled synthetic designs.
//
// A profile pins everything Algorithm 1 reads from profiling: every
// function's work, raw and unique read/write bytes and call count, every
// producer→consumer edge's bytes and unique addresses, the observed call
// order and the calibration. Any change to attribution, coalescing or
// footprint accounting moves at least one of these numbers. Regenerate
// after an intentional model change with
//   HYBRIDIC_UPDATE_PROFILE_GOLDENS=1 ctest -R ProfileGolden
// and review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "apps/canny.hpp"
#include "apps/fluid.hpp"
#include "apps/jpeg.hpp"
#include "apps/klt.hpp"
#include "apps/synthetic.hpp"
#include "dse/campaign.hpp"
#include "store/codec.hpp"

namespace hybridic::apps {
namespace {

std::string goldens_dir() {
  return std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/prof";
}

bool update_mode() {
  const char* flag = std::getenv("HYBRIDIC_UPDATE_PROFILE_GOLDENS");
  return flag != nullptr && std::string{flag} == "1";
}

struct Profile {
  std::string name;
  std::function<ProfiledApp()> run;
};

/// gtest prints a parameter beside its test name; the name alone keeps
/// the listed ctest names free of object bytes.
void PrintTo(const Profile& profile, std::ostream* os) { *os << profile.name; }

std::vector<Profile> profiles() {
  std::vector<Profile> all;
  for (const std::string& name : paper_app_names()) {
    all.push_back({name + "_default", [name] { return run_paper_app(name); }});
  }
  all.push_back({"canny_96x64_seed7", [] {
                   CannyConfig config;
                   config.width = 96;
                   config.height = 64;
                   config.seed = 7;
                   return run_canny(config);
                 }});
  all.push_back({"fluid_grid48_steps2", [] {
                   FluidConfig config;
                   config.grid = 48;
                   config.steps = 2;
                   return run_fluid(config);
                 }});
  all.push_back({"jpeg_48x48_seed3", [] {
                   JpegConfig config;
                   config.width = 48;
                   config.height = 48;
                   config.seed = 3;
                   return run_jpeg(config);
                 }});
  all.push_back({"klt_seed12", [] {
                   KltConfig config;
                   config.seed = 12;
                   return run_klt(config);
                 }});
  for (const std::uint64_t index : {0U, 1U}) {
    all.push_back({"synthetic_seed1_design" + std::to_string(index), [index] {
                     return make_synthetic_app(
                         dse::sample_config(dse::SweepSpace{}, 1, index));
                   }});
  }
  return all;
}

class ProfileGolden : public ::testing::TestWithParam<Profile> {};

TEST_P(ProfileGolden, MatchesRecordedProfile) {
  const Profile& profile = GetParam();
  const std::string produced = store::encode_profile(profile.run());
  const std::string path = goldens_dir() + "/" + profile.name + ".txt";
  if (update_mode()) {
    std::filesystem::create_directories(goldens_dir());
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << produced;
    return;
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good())
      << path << " missing; regenerate with HYBRIDIC_UPDATE_PROFILE_GOLDENS=1";
  const std::string golden{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
  EXPECT_EQ(produced, golden)
      << profile.name
      << " drifted: profiling no longer attributes every byte as it did "
         "when the golden was recorded";
}

INSTANTIATE_TEST_SUITE_P(
    Apps, ProfileGolden, ::testing::ValuesIn(profiles()),
    [](const ::testing::TestParamInfo<Profile>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace hybridic::apps
