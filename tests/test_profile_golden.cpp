// Byte-exact goldens of QUAD profiling: the store::encode_profile bytes of
// the four paper apps at their default configs, of each app at one
// held-out config, and of two sampled synthetic designs; and the digests
// of ten synthetic designs whose 1-4 MiB edges cross many 256 KiB chunks.
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
#include "util/hash.hpp"
#include "util/text.hpp"

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

/// A synthetic shape with 1-4 MiB edges and the FNV-1a digest of its
/// encode_profile bytes, recorded with one hash node per 4 KiB page.
struct LargeEdgeDesign {
  std::uint32_t kernels;
  double edge_probability;
  std::uint64_t min_edge_bytes;
  std::uint64_t max_edge_bytes;
  std::uint64_t seed;
  const char* digest;
};

TEST(SyntheticProfileDigest, MultiChunkEdgesMatchRecordedDigests) {
  constexpr std::uint64_t kMiB = 1024 * 1024;
  // Odd sizes put runs' ends mid-page, so their first and last pages stay
  // partial while the pages between them fill.
  const LargeEdgeDesign designs[] = {
      {2, 1.0, 1 * kMiB, 4 * kMiB, 1, "950f8a658eeac1c3"},
      {3, 0.5, 1 * kMiB + 17, 2 * kMiB, 2, "89164eafb5537824"},
      {4, 0.35, 3 * kMiB, 4 * kMiB, 3, "bb7f0caa47121e68"},
      {5, 0.8, 1 * kMiB, 1 * kMiB + 4095, 4, "cbe31a34dc304448"},
      {6, 0.2, 2 * kMiB - 1, 3 * kMiB + 1, 5, "df822a1feae713b2"},
      {6, 0.35, 1 * kMiB, 4 * kMiB, 6, "99668c513c4bb251"},
      {7, 0.6, 1 * kMiB + 262143, 4 * kMiB - 262145, 7, "2790740c08a91098"},
      {8, 0.3, 1 * kMiB, 2 * kMiB, 8, "f61a8eec3c8b44e0"},
      {9, 0.15, 4 * kMiB - 8, 4 * kMiB, 9, "a406cdbbc30bac8e"},
      {10, 0.4, 1 * kMiB + 4096, 3 * kMiB - 4096, 10, "f7950b51a677efe9"},
  };
  for (const LargeEdgeDesign& design : designs) {
    SyntheticConfig config;
    config.kernel_count = design.kernels;
    config.kernel_edge_probability = design.edge_probability;
    config.min_edge_bytes = design.min_edge_bytes;
    config.max_edge_bytes = design.max_edge_bytes;
    config.seed = design.seed;
    EXPECT_EQ(util::hex16(util::fnv1a64(
                  store::encode_profile(make_synthetic_app(config)))),
              design.digest)
        << "seed " << design.seed;
  }
}

}  // namespace
}  // namespace hybridic::apps
