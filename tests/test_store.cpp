// Robustness tests for the persistent content-addressed store
// (docs/MODEL.md §15): damaged entries must degrade to misses, never to
// wrong data or a crash; concurrent multi-process writers must leave every
// key readable; and a fresh process must reproduce byte-identical
// profiles from the store.
#include "store/store.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "dse/campaign.hpp"
#include "store/adapters.hpp"
#include "store/codec.hpp"
#include "tiers/analytic.hpp"
#include "util/hash.hpp"
#include "util/text.hpp"

namespace hybridic::store {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty store root unique to `name` under the gtest temp dir.
std::string store_root(const std::string& name) {
  const fs::path root = fs::path{::testing::TempDir()} / ("store_" + name);
  fs::remove_all(root);
  return root.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << path;
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Key/payload for the multi-process writer test. Built with += (GCC 12's
/// -Wrestrict false-positives on const char* + std::string&& chains).
std::string writer_key(int w, int i) {
  std::string key = "w";
  key += std::to_string(w);
  key += "-k";
  key += std::to_string(i);
  return key;
}

std::string writer_payload(int w, int i) {
  std::string payload = "payload-";
  payload += std::to_string(w * 1000 + i);
  return payload;
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

TEST(StoreBasics, PutGetRoundTripAndStats) {
  Store store{store_root("roundtrip")};
  EXPECT_FALSE(store.get("absent").has_value());
  store.put("key-a", "payload bytes\nwith a newline and \0 inside");
  const auto got = store.get("key-a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, std::string{"payload bytes\nwith a newline and \0 inside"});
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.puts, 1U);
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.corrupt_entries, 0U);
}

TEST(StoreBasics, ObjectNamesAreStableAndDistinct) {
  EXPECT_EQ(Store::object_name("k"), Store::object_name("k"));
  EXPECT_NE(Store::object_name("k"), Store::object_name("l"));
  EXPECT_EQ(Store::object_name("k").size(), 32U);
  Store store{store_root("paths")};
  EXPECT_EQ(store.object_path("k").rfind(store.root(), 0), 0U);
}

TEST(StoreBasics, TruncatedEntryReadsAsMiss) {
  Store store{store_root("truncated")};
  store.put("key", std::string(4096, 'x'));
  const std::string path = store.object_path("key");
  const std::string blob = read_file(path);
  write_file(path, blob.substr(0, blob.size() / 2));
  EXPECT_FALSE(store.get("key").has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1U);
}

TEST(StoreBasics, TamperedPayloadFailsChecksum) {
  Store store{store_root("tampered")};
  store.put("key", "sensitive-payload-0123456789");
  const std::string path = store.object_path("key");
  std::string blob = read_file(path);
  const std::size_t at = blob.find("payload-0123");
  ASSERT_NE(at, std::string::npos);
  blob[at] = 'P';
  write_file(path, blob);
  EXPECT_FALSE(store.get("key").has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1U);
}

TEST(StoreBasics, WrongMagicReadsAsMiss) {
  Store store{store_root("magic")};
  store.put("key", "payload");
  write_file(store.object_path("key"), "not-a-store-entry\njunk\n");
  EXPECT_FALSE(store.get("key").has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1U);
}

TEST(StoreBasics, WrongRevisionIsStaleNotCorrupt) {
  Store store{store_root("revision")};
  store.put("key", "payload");
  const std::string path = store.object_path("key");
  std::string blob = read_file(path);
  const std::string rev_line =
      "\nrev " + std::to_string(kEngineRevision) + "\n";
  const std::size_t at = blob.find(rev_line);
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, rev_line.size(), "\nrev 999999\n");
  write_file(path, blob);
  EXPECT_FALSE(store.get("key").has_value());
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.corrupt_entries, 0U);  // Stale, not damaged.
}

TEST(StoreBasics, HashCollisionDegradesToMiss) {
  // Simulate a collision by planting key-a's (valid!) entry at key-b's
  // object path: the embedded-key check must reject it.
  Store store{store_root("collision")};
  store.put("key-a", "payload-a");
  const std::string entry_a = read_file(store.object_path("key-a"));
  const fs::path path_b{store.object_path("key-b")};
  fs::create_directories(path_b.parent_path());
  write_file(path_b.string(), entry_a);
  EXPECT_FALSE(store.get("key-b").has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1U);
  EXPECT_EQ(store.get("key-a").value_or(""), "payload-a");
}

TEST(StoreBasics, UnusableRootThrowsStoreError) {
  EXPECT_THROW(Store{"/proc/hybridic-no-such-root/store"}, StoreError);
}

TEST(StoreProcesses, TwoConcurrentWritersLeaveEveryKeyReadable) {
  const std::string root = store_root("two_writers");
  Store{root};  // Create the layout before forking.
  constexpr int kWriters = 2;
  constexpr int kKeysPerWriter = 24;
  pid_t children[kWriters];
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own Store handle on the shared root, racing puts.
      Store mine{root};
      for (int i = 0; i < kKeysPerWriter; ++i) {
        mine.put(writer_key(w, i), writer_payload(w, i));
      }
      ::_exit(0);
    }
    children[w] = pid;
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  Store reader{root};
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      EXPECT_EQ(reader.get(writer_key(w, i)).value_or("MISS"),
                writer_payload(w, i));
    }
  }
}

TEST(StoreCodec, ProfileEncodeDecodeEncodeIsByteIdentical) {
  apps::SyntheticConfig config;
  config.kernel_count = 5;
  config.seed = 42;
  const apps::ProfiledApp original = apps::make_synthetic_app(config);
  const std::string encoded = encode_profile(original);
  const std::shared_ptr<const apps::ProfiledApp> decoded =
      decode_profile(encoded);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(encode_profile(*decoded), encoded);
}

/// FNV-1a of encode_profile for the four paper apps and the first 20
/// designs of dse campaign seed 1, recorded before profiles were sealed:
/// sealing must not move a single byte of what the store persists.
TEST(StoreCodec, EncodedProfilesMatchRecordedDigests) {
  const std::vector<std::pair<std::string, std::string>> paper = {
      {"canny", "8da2cad78f753f51"},
      {"jpeg", "3101e115617124be"},
      {"klt", "21f356df51bcfe57"},
      {"fluid", "f3fb28a7aa0e0f27"},
  };
  for (const auto& [name, digest] : paper) {
    EXPECT_EQ(util::hex16(util::fnv1a64(
                  encode_profile(apps::run_paper_app(name)))),
              digest)
        << name;
  }
  const std::vector<std::string> synthetic = {
      "abf69d30d6d3af19", "c8faeee9ee1c5381", "25863b3b5ead9d17",
      "6e4b88b7e0aa6f43", "dcb6088e00f74305", "a9bcda992a6e78f7",
      "985480b019fa81a6", "384581102dabc4d0", "304565a266820a72",
      "23fe80b1d8411595", "6eb314651eeffd6d", "66bc97ac4ede14d4",
      "f1a843b29ab39ba5", "8c011c4f739c29ff", "5b23fcb1abc5ca76",
      "f2e9635e8688d83e", "838c886af1f78bae", "4b034cf4f56d3098",
      "40f5717b67b998cb", "3f5602a74b574a30",
  };
  for (std::uint64_t i = 0; i < synthetic.size(); ++i) {
    const apps::SyntheticConfig config =
        dse::sample_config(dse::SweepSpace{}, 1, i);
    EXPECT_EQ(util::hex16(util::fnv1a64(
                  encode_profile(apps::make_synthetic_app(config)))),
              synthetic[i])
        << "design " << i;
  }
}

TEST(StoreCodec, EstimateRoundTripIsBitExact) {
  tiers::TierEstimate e;
  e.solution_tag = "sol tag with spaces";
  e.theta_seconds_per_byte = 0.1;  // Not representable exactly in binary.
  e.baseline_kernel_seconds = 1.0 / 3.0;
  e.designed_kernel_seconds = 4.9406564584124654e-324;  // Min subnormal.
  e.designed_lower_seconds = -0.0;
  e.designed_upper_seconds = 1.7976931348623157e308;
  e.baseline_lower_seconds = 3.14159265358979312e-7;
  e.baseline_upper_seconds = 6.02214076e23;
  e.noc_edges = 7;
  e.noc_volume_bytes = UINT64_MAX;
  e.noc_hop_bytes = 123456789;
  e.noc_max_link_bytes = 1;
  e.noc_transfer_seconds = 2.5e-9;
  e.congruence_key = 0xdeadbeefcafef00dULL;

  const std::string encoded = encode_estimate(e);
  const std::optional<tiers::TierEstimate> back = decode_estimate(encoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->solution_tag, e.solution_tag);
  EXPECT_EQ(bits(back->theta_seconds_per_byte),
            bits(e.theta_seconds_per_byte));
  EXPECT_EQ(bits(back->designed_kernel_seconds),
            bits(e.designed_kernel_seconds));
  EXPECT_EQ(bits(back->designed_lower_seconds),
            bits(e.designed_lower_seconds));  // -0.0 preserved.
  EXPECT_EQ(bits(back->designed_upper_seconds),
            bits(e.designed_upper_seconds));
  EXPECT_EQ(back->noc_volume_bytes, e.noc_volume_bytes);
  EXPECT_EQ(back->congruence_key, e.congruence_key);
  EXPECT_EQ(encode_estimate(*back), encoded);
}

TEST(StoreCodec, DecodersAreTotal) {
  EXPECT_EQ(decode_profile(""), nullptr);
  EXPECT_EQ(decode_profile("garbage\nbytes\n"), nullptr);
  EXPECT_FALSE(decode_estimate("").has_value());
  EXPECT_FALSE(decode_estimate("garbage\nbytes\n").has_value());

  apps::SyntheticConfig config;
  config.kernel_count = 3;
  const std::string good = encode_profile(apps::make_synthetic_app(config));
  // Any truncation must decode to nullptr, never crash.
  for (const std::size_t cut :
       {good.size() / 7, good.size() / 2, good.size() - 1}) {
    EXPECT_EQ(decode_profile(good.substr(0, cut)), nullptr) << cut;
  }
}

TEST(StoreTiering, RestartReproducesByteIdenticalProfiles) {
  const std::string root = store_root("restart");
  apps::SyntheticConfig config;
  config.kernel_count = 4;
  config.seed = 7;

  std::string first_encoding;
  {
    apps::ProfileCache writer;
    writer.set_l2(
        std::make_shared<ProfileStoreL2>(std::make_shared<Store>(root)));
    first_encoding = encode_profile(*writer.synthetic_app(config));
    EXPECT_EQ(writer.l2_stores(), 1U);
  }

  // "Restart": a fresh cache and a fresh Store handle on the same root
  // must serve the profile from disk, byte-identical, without profiling.
  apps::ProfileCache reader;
  reader.set_l2(
      std::make_shared<ProfileStoreL2>(std::make_shared<Store>(root)));
  const std::shared_ptr<const apps::ProfiledApp> restored =
      reader.synthetic_app(config);
  EXPECT_EQ(reader.l2_hits(), 1U);
  EXPECT_EQ(reader.l2_stores(), 0U);
  EXPECT_EQ(encode_profile(*restored), first_encoding);
}

TEST(StoreTiering, LruEvictionFallsBackToL2) {
  const std::string root = store_root("lru");
  apps::ProfileCache cache;
  cache.set_l2(
      std::make_shared<ProfileStoreL2>(std::make_shared<Store>(root)));
  cache.set_capacity(1, 0);  // One resident profile: B must evict A.

  apps::SyntheticConfig a;
  a.kernel_count = 3;
  a.seed = 1;
  apps::SyntheticConfig b = a;
  b.seed = 2;

  const std::string encoded_a = encode_profile(*cache.synthetic_app(a));
  (void)cache.synthetic_app(b);
  EXPECT_GE(cache.evictions(), 1U);
  EXPECT_EQ(cache.size(), 1U);

  // A is gone from L1 but lives in the store: the re-get is an L2 hit
  // that reproduces the identical profile.
  const std::shared_ptr<const apps::ProfiledApp> again =
      cache.synthetic_app(a);
  EXPECT_EQ(cache.l2_hits(), 1U);
  EXPECT_EQ(encode_profile(*again), encoded_a);
}

TEST(StoreTiering, EstimateAdapterScopesAndRoundTrips) {
  const auto backing = std::make_shared<Store>(store_root("estimates"));
  EstimateStoreL2 scoped{backing, "scope-a"};
  tiers::TierEstimate e;
  e.solution_tag = "crossbar";
  e.designed_kernel_seconds = 0.125;
  e.congruence_key = 99;
  scoped.store(42, e);

  const std::optional<tiers::TierEstimate> back = scoped.load(42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->solution_tag, "crossbar");
  EXPECT_EQ(bits(back->designed_kernel_seconds),
            bits(e.designed_kernel_seconds));

  // A differently configured platform (different scope) never aliases.
  EstimateStoreL2 other{backing, "scope-b"};
  EXPECT_FALSE(other.load(42).has_value());
  EXPECT_FALSE(scoped.load(43).has_value());
}

}  // namespace
}  // namespace hybridic::store
