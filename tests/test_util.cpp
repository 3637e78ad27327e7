// Known-answer tests for the shared primitives in src/util/: hashing, text
// codecs, the JSON dialect and the flag grammar. The hash and key values
// name store objects, key journals and seed job streams, so they must
// never change.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "dse/campaign.hpp"
#include "store/adapters.hpp"
#include "store/store.hpp"
#include "sys/batch_runner.hpp"
#include "tiers/congruence.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace hybridic {
namespace {

// ---------------------------------------------------------------------------
// Hashes and keys.

TEST(UtilHash, Fnv1aWithBothStoreBases) {
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(util::fnv1a64("hybridic"), 0xb5611c8312d053c7ULL);
  EXPECT_EQ(util::fnv1a64("hybridic", 0x84222325cbf29ce4ULL),
            0x00528f0887a4625eULL);
  EXPECT_EQ(store::fnv1a64("hybridic"), util::fnv1a64("hybridic"));
}

TEST(UtilHash, Splitmix64AndItsMix) {
  EXPECT_EQ(util::splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(util::mix64(0), 0ULL);
  EXPECT_EQ(util::mix64(1), 0x5692161d100b05e5ULL);
  Rng rng{0};
  EXPECT_EQ(rng.next(), 0x99ec5f36cb75f2b4ULL);
  Rng rng42{42};
  EXPECT_EQ(rng42.next(), 0x15780b2e0c2ec716ULL);
}

TEST(UtilHash, JobSeedHasNoGoldenGammaStep) {
  EXPECT_EQ(sys::job_seed("experiment/jpeg"), 0xeffa6b30e7ee1627ULL);
  EXPECT_EQ(sys::job_seed(""), 0xf52a15e9a9b5e89bULL);
}

TEST(UtilHash, PersistentKeysKeepTheirValues) {
  EXPECT_EQ(tiers::congruence_key_of("i0:1:2:3;"), 0x82e1c23d28659820ULL);
  EXPECT_EQ(tiers::congruence_key_of(""), 0xc3817c016ba4ff30ULL);
  EXPECT_EQ(store::Store::object_name("profile/rev=2/app=jpeg"),
            "97e7b2574966d0888cf3102c59d1ef7a");
  EXPECT_EQ(store::estimate_scope(sys::PlatformConfig{},
                                  tiers::TierCalibration{}),
            "0fc05b99cb6c1c83");
  EXPECT_EQ(dse::campaign_fingerprint(dse::CampaignOptions{}),
            "b7306f9863ec193b");
}

// ---------------------------------------------------------------------------
// Text codecs.

TEST(UtilText, Hex16IsZeroPaddedAndParsesBack) {
  EXPECT_EQ(util::hex16(0), "0000000000000000");
  EXPECT_EQ(util::hex16(0xabcULL), "0000000000000abc");
  EXPECT_EQ(util::hex16(UINT64_MAX), "ffffffffffffffff");
  std::uint64_t value = 0;
  ASSERT_TRUE(util::parse_hex16("00528f0887a4625e", value));
  EXPECT_EQ(value, 0x00528f0887a4625eULL);
  EXPECT_FALSE(util::parse_hex16("528f0887a4625e", value));
  EXPECT_FALSE(util::parse_hex16("00528F0887A4625E", value));
}

TEST(UtilText, StrictUnsignedParsing) {
  std::uint64_t value = 0;
  ASSERT_TRUE(util::parse_u64("18446744073709551615", value));
  EXPECT_EQ(value, UINT64_MAX);
  ASSERT_TRUE(util::parse_u64("007", value));
  EXPECT_EQ(value, 7U);
  for (const char* bad :
       {"18446744073709551616", "", "-1", "+1", " 1", "1 ", "1e3", "0x1"}) {
    EXPECT_FALSE(util::parse_u64(bad, value)) << "'" << bad << "'";
  }
  std::uint32_t narrow = 0;
  ASSERT_TRUE(util::parse_u32("4294967295", narrow));
  EXPECT_EQ(narrow, UINT32_MAX);
  EXPECT_FALSE(util::parse_u32("4294967296", narrow));
  bool flag = false;
  ASSERT_TRUE(util::parse_bool("1", flag));
  EXPECT_TRUE(flag);
  EXPECT_FALSE(util::parse_bool("true", flag));
}

TEST(UtilText, HexFloatRoundTripsEveryBit) {
  const double cases[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                          DBL_MAX, std::numeric_limits<double>::infinity(),
                          0.1};
  const char* spelled[] = {"-0x0p+0", "0x0.0000000000001p-1022",
                           "0x1.fffffffffffffp+1023", "inf",
                           "0x1.999999999999ap-4"};
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const std::string text = util::hexf(cases[i]);
    EXPECT_EQ(text, spelled[i]);
    double back = 0.0;
    ASSERT_TRUE(util::parse_double(text, back)) << text;
    EXPECT_EQ(std::memcmp(&back, &cases[i], sizeof back), 0) << text;
  }
  double value = 0.0;
  EXPECT_FALSE(util::parse_double("", value));
  EXPECT_FALSE(util::parse_double("1.5x", value));
}

TEST(UtilText, Decimal17MatchesOstringstreamAtPrecision17) {
  for (const double v : {0.0, -0.0, 0.1, 1.0 / 3.0, 1e-5, 12345.678, 1e300,
                         0.0058584208447265626, 2.5}) {
    std::ostringstream reference;
    reference.precision(17);
    reference << v;
    EXPECT_EQ(util::decimal17(v), reference.str());
  }
  EXPECT_EQ(util::decimal17(0.1), "0.10000000000000001");
}

TEST(UtilText, SplitFieldsRejectsEmptyFields) {
  EXPECT_EQ(util::split_fields("a b c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(util::split_fields("a  b").empty());
  EXPECT_TRUE(util::split_fields(" a").empty());
  EXPECT_TRUE(util::split_fields("a ").empty());
}

TEST(UtilText, LineReaderChecksSizedFieldsAgainstTheBytesLeft) {
  const std::string text = "tag hello\nkey 3\nabc\nend\n";
  util::LineReader reader{text};
  std::string value;
  ASSERT_TRUE(reader.take_tagged("tag", value));
  EXPECT_EQ(value, "hello");
  ASSERT_TRUE(reader.take_sized("key", value));
  EXPECT_EQ(value, "abc");
  EXPECT_TRUE(reader.take_exact("end"));
  EXPECT_TRUE(reader.at_end());

  // A length that would wrap the read position is damage, not a read.
  const std::string wrapped = "key 18446744073709551615\nabc\n";
  util::LineReader hostile{wrapped};
  EXPECT_FALSE(hostile.take_sized("key", value));
}

// ---------------------------------------------------------------------------
// JSON.

TEST(UtilJson, EscapeParseRoundTrip) {
  const std::string raw = "q\"b\\s/n\nt\tr\rc\x01 end";
  const std::string escaped = util::json_escape(raw);
  EXPECT_EQ(escaped, "q\\\"b\\\\s/n\\nt\\tr\\rc\\u0001 end");
  util::JsonObject object;
  std::string error;
  ASSERT_TRUE(util::parse_json_object("{\"k\": \"" + escaped + "\"}", object,
                                      error))
      << error;
  EXPECT_EQ(object.at("k").text, raw);
}

TEST(UtilJson, OneLevelOfNestingAndTypedValues) {
  util::JsonObject object;
  std::string error;
  ASSERT_TRUE(util::parse_json_object(
      "{\r\n\t\"n\": -1.5e+3, \"b\": false, \"o\": {\"x\": 0}}\n", object,
      error))
      << error;
  EXPECT_EQ(object.at("n").kind, util::JsonValue::Kind::kNumber);
  EXPECT_EQ(object.at("n").text, "-1.5e+3");
  EXPECT_EQ(object.at("b").kind, util::JsonValue::Kind::kBool);
  EXPECT_EQ(object.at("b").text, "0");
  ASSERT_EQ(object.at("o").kind, util::JsonValue::Kind::kObject);
  EXPECT_EQ(object.at("o").members->at("x").text, "0");
}

TEST(UtilJson, HostileInputIsAnError) {
  for (const char* bad : {
           "{\"a\": 1, \"a\": 2}",         // Duplicate key.
           "{\"a\": \"\\q\"}",             // Unknown escape.
           "{\"a\": \"\\u0100\"}",         // Escape outside ASCII.
           "{\"a\": \"x\ty\"}",            // Raw control byte.
           "{\"a\": 1e999}",               // Not finite.
           "{\"a\": 01}",                  // Leading zero.
           "{\"a\": +1}",                  // Not a JSON number.
           "{\"a\": null}",                // Unsupported value.
           "{\"a\": [1]}",                 // Arrays.
           "{\"a\": {\"b\": {\"c\": 1}}}",  // Two levels of nesting.
           "{\"a\": 1} x",                 // Trailing junk.
           "{\"a\": 1",                    // Unterminated.
           "",
       }) {
    util::JsonObject object;
    std::string error;
    EXPECT_FALSE(util::parse_json_object(bad, object, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ---------------------------------------------------------------------------
// Flags.

struct Parsed {
  std::uint64_t count = 0;
  std::uint32_t boards = 1;
  double rate = 0.0;
  std::string name;
  bool smoke = false;
  std::vector<std::string> positional;
};

util::Flags::Outcome parse(const std::vector<std::string>& args,
                           Parsed& out) {
  util::Flags flags{"[--count N]"};
  flags.version("test 1")
      .value("--count", out.count)
      .value("--boards", out.boards)
      .value("--rate", out.rate)
      .value("--name", out.name)
      .on("--smoke", out.smoke)
      .positional([&out](const std::string& arg) {
        out.positional.push_back(arg);
      });
  return flags.parse(args);
}

TEST(UtilFlags, BothFormsSetTheSameValues) {
  Parsed spaced;
  EXPECT_EQ(parse({"--count", "7", "--name", "x", "app", "--smoke"}, spaced),
            util::Flags::Outcome::kRun);
  Parsed joined;
  EXPECT_EQ(parse({"--count=7", "--name=x", "app", "--smoke"}, joined),
            util::Flags::Outcome::kRun);
  for (const Parsed* p : {&spaced, &joined}) {
    EXPECT_EQ(p->count, 7U);
    EXPECT_EQ(p->name, "x");
    EXPECT_TRUE(p->smoke);
    EXPECT_EQ(p->positional, std::vector<std::string>{"app"});
  }
}

TEST(UtilFlags, HelpAndVersionWinOverEverythingElse) {
  Parsed p;
  EXPECT_EQ(parse({"--bogus", "--help"}, p), util::Flags::Outcome::kHelp);
  EXPECT_EQ(parse({"--version"}, p), util::Flags::Outcome::kVersion);
}

TEST(UtilFlags, MalformedCommandLinesAreUsageErrors) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--count"},                    // Missing value.
           {"--smoke=x"},                  // A switch given a value.
           {"--bogus"},                    // Unknown flag.
           {"--count", "abc"},             // Malformed value.
           {"--count=-1"},
           {"--count", "18446744073709551616"},
           {"--boards=4294967297"},        // Out of range for 32 bits.
           {"--rate", "1e999"},            // Not finite.
           {"--rate", "0.5x"},
           {"--name="},                    // Empty string value.
       }) {
    Parsed p;
    EXPECT_THROW((void)parse(args, p), util::UsageError) << args[0];
  }
}

}  // namespace
}  // namespace hybridic
