// In-process journal/resume semantics of run_campaign (docs/MODEL.md
// §17): checkpointed rows restore byte-identically, quarantine pins
// poison designs without losing the rest of the sweep, journal damage
// degrades to re-execution (never to wrong rows), and a stale
// fingerprint ignores the whole ledger.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dse/campaign.hpp"
#include "util/error.hpp"

namespace hybridic {
namespace {

/// A fast sweep: analytic tier, tiny graphs, no oracle shrinking.
dse::CampaignOptions small_campaign(const std::string& journal_path) {
  dse::CampaignOptions options;
  options.count = 6;
  options.campaign_seed = 11;
  options.threads = 2;
  options.tier = tiers::TierMode::kAnalytic;
  options.space.max_kernels = 4;
  options.max_shrinks = 0;
  options.journal_path = journal_path;
  return options;
}

std::string journal_path(const char* tag) {
  const std::string path =
      testing::TempDir() + "resume_test_" + tag + ".journal";
  std::remove(path.c_str());
  return path;
}

TEST(CampaignResume, RestoredRowsReproduceTheCsvByteForByte) {
  const std::string path = journal_path("roundtrip");
  const dse::CampaignOptions first = small_campaign(path);
  const dse::CampaignResult cold = dse::run_campaign(first);
  EXPECT_EQ(cold.resumed_count, 0U);
  const std::string cold_csv = dse::campaign_csv(cold);

  dse::CampaignOptions second = small_campaign(path);
  second.resume = true;
  second.threads = 1;  // Byte-identity must not depend on thread count.
  const dse::CampaignResult warm = dse::run_campaign(second);
  EXPECT_EQ(warm.resumed_count, first.count);
  EXPECT_EQ(warm.journal_skipped_lines, 0U);
  EXPECT_EQ(dse::campaign_csv(warm), cold_csv);
}

TEST(CampaignResume, SearchCampaignRowsRestoreByteForByte) {
  // The searched_* columns ride the same journal: a resumed search
  // campaign must reproduce the uninterrupted CSV byte-for-byte without
  // re-running the annealer, at a different thread count.
  const std::string path = journal_path("search");
  dse::CampaignOptions first = small_campaign(path);
  first.search = true;
  first.search_restarts = 2;
  first.search_iterations = 12;
  const dse::CampaignResult cold = dse::run_campaign(first);
  const std::string cold_csv = dse::campaign_csv(cold);
  EXPECT_NE(cold_csv.find("searched_solution"), std::string::npos);

  dse::CampaignOptions second = first;
  second.resume = true;
  second.threads = 1;
  const dse::CampaignResult warm = dse::run_campaign(second);
  EXPECT_EQ(warm.resumed_count, first.count);
  EXPECT_EQ(dse::campaign_csv(warm), cold_csv);

  // A search journal is a different campaign from a plain one: the
  // fingerprint embeds the search knobs, so a non-search resume must
  // ignore every entry instead of restoring rows with a foreign schema.
  dse::CampaignOptions plain = small_campaign(path);
  plain.resume = true;
  const dse::CampaignResult mismatched = dse::run_campaign(plain);
  EXPECT_EQ(mismatched.resumed_count, 0U);
  EXPECT_EQ(dse::campaign_csv(mismatched).find("searched_"),
            std::string::npos);
}

TEST(CampaignResume, WithoutResumeFlagJournalIsWriteOnly) {
  const std::string path = journal_path("writeonly");
  (void)dse::run_campaign(small_campaign(path));
  // Second run without --resume recomputes everything (and double-appends
  // identical records, which first-wins dedup makes benign).
  const dse::CampaignResult again = dse::run_campaign(small_campaign(path));
  EXPECT_EQ(again.resumed_count, 0U);
}

TEST(CampaignResume, CorruptedJournalDegradesToReExecution) {
  const std::string path = journal_path("corrupt");
  const dse::CampaignResult cold = dse::run_campaign(small_campaign(path));
  const std::string cold_csv = dse::campaign_csv(cold);

  // Flip one payload byte on every line: every record fails its checksum,
  // so the resume recomputes the full sweep — same CSV, zero restored.
  std::string text;
  {
    std::ifstream in{path, std::ios::binary};
    text.assign(std::istreambuf_iterator<char>{in},
                std::istreambuf_iterator<char>{});
  }
  for (std::size_t pos = text.find("index");
       pos != std::string::npos; pos = text.find("index", pos + 1)) {
    text[pos] = 'X';
  }
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << text;
  }

  dse::CampaignOptions resume = small_campaign(path);
  resume.resume = true;
  const dse::CampaignResult warm = dse::run_campaign(resume);
  EXPECT_EQ(warm.resumed_count, 0U);
  EXPECT_GT(warm.journal_skipped_lines, 0U);
  EXPECT_EQ(dse::campaign_csv(warm), cold_csv);
}

TEST(CampaignResume, StaleFingerprintIgnoresTheWholeLedger) {
  const std::string path = journal_path("stale");
  (void)dse::run_campaign(small_campaign(path));

  dse::CampaignOptions changed = small_campaign(path);
  changed.campaign_seed = 12;  // Different campaign: entries unsound.
  changed.resume = true;
  const dse::CampaignResult warm = dse::run_campaign(changed);
  EXPECT_EQ(warm.resumed_count, 0U);
  // The mismatched lines are not damage — they belong to another
  // campaign — so they are not counted as skipped either.
  EXPECT_EQ(warm.journal_skipped_lines, 0U);
}

TEST(CampaignResume, WedgedJobIsQuarantinedAndRestoredOnResume) {
  const std::string path = journal_path("wedge");
  auto cancel = std::make_shared<std::atomic<bool>>(false);

  dse::CampaignOptions wedged = small_campaign(path);
  wedged.job_timeout_seconds = 0.2;
  wedged.quarantine_shrink_attempts = 2;
  wedged.job_started_hook = [cancel](std::uint64_t index) {
    while (index == 3 && !cancel->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  const dse::CampaignResult first = dse::run_campaign(wedged);
  EXPECT_EQ(first.quarantined_count, 1U);
  ASSERT_EQ(first.cases.size(), 6U);
  EXPECT_TRUE(first.cases[3].quarantined);
  EXPECT_NE(first.cases[3].error.find("watchdog"), std::string::npos);
  for (std::size_t i = 0; i < first.cases.size(); ++i) {
    if (i != 3) {
      EXPECT_FALSE(first.cases[i].quarantined) << i;
      EXPECT_TRUE(first.cases[i].analytic.has_value()) << i;
    }
  }
  // The poison design is pinned as a reproducer even with max_shrinks 0.
  ASSERT_EQ(first.reproducers.size(), 1U);
  EXPECT_EQ(first.reproducers[0].oracle, "quarantine-timeout");
  EXPECT_EQ(first.reproducers[0].config.seed, first.cases[3].config.seed);
  const std::string first_csv = dse::campaign_csv(first);
  EXPECT_NE(first_csv.find("quarantined: wall-clock watchdog"),
            std::string::npos);

  // Resume (wedge still armed): the quarantined row restores from the
  // journal without re-running, so the resume is fast and byte-identical.
  dse::CampaignOptions resume = wedged;
  resume.resume = true;
  const dse::CampaignResult second = dse::run_campaign(resume);
  EXPECT_EQ(second.resumed_count, 6U);
  EXPECT_EQ(second.quarantined_count, 1U);
  EXPECT_EQ(dse::campaign_csv(second), first_csv);

  cancel->store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(CampaignResume, StopFlagDrainsAndResumeCompletes) {
  const std::string path = journal_path("drain");
  std::atomic<bool> stop{false};

  // Reference: the same campaign uninterrupted, no journal.
  dse::CampaignOptions reference = small_campaign("");
  const std::string want = dse::campaign_csv(dse::run_campaign(reference));

  dse::CampaignOptions drained = small_campaign(path);
  drained.threads = 1;  // Serial: everything after the flag is skipped.
  drained.stop_requested = &stop;
  drained.job_started_hook = [&stop](std::uint64_t index) {
    if (index >= 2) {
      stop.store(true);
    }
  };
  const dse::CampaignResult partial = dse::run_campaign(drained);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_GT(partial.skipped_count, 0U);
  EXPECT_LT(partial.skipped_count, partial.cases.size());
  // Skipped rows carry the skip note and are NOT journaled.
  bool saw_skip = false;
  for (const dse::CaseOutcome& c : partial.cases) {
    saw_skip = saw_skip || c.skipped;
  }
  EXPECT_TRUE(saw_skip);

  dse::CampaignOptions resume = small_campaign(path);
  resume.resume = true;
  const dse::CampaignResult full = dse::run_campaign(resume);
  EXPECT_FALSE(full.interrupted);
  EXPECT_GT(full.resumed_count, 0U);
  EXPECT_EQ(full.skipped_count, 0U);
  EXPECT_EQ(dse::campaign_csv(full), want);
}

TEST(CampaignResume, ResumeRequiresJournalAndRejectsAutoTier) {
  dse::CampaignOptions no_journal = small_campaign("");
  no_journal.resume = true;
  EXPECT_THROW((void)dse::run_campaign(no_journal), ConfigError);

  dse::CampaignOptions auto_tier = small_campaign(journal_path("auto"));
  auto_tier.tier = tiers::TierMode::kAuto;
  EXPECT_THROW((void)dse::run_campaign(auto_tier), ConfigError);
}

// The rules dse_campaign reports as usage errors and run_campaign throws:
// one function, so the binary and the library cannot drift apart.
TEST(CampaignResume, OptionsErrorRejectsOutOfRangeAndAutoShards) {
  EXPECT_EQ(dse::options_error(small_campaign(journal_path("valid"))),
            std::nullopt);
  dse::CampaignOptions sharded = small_campaign("");
  sharded.shard_index = 2;
  sharded.shard_count = 2;
  EXPECT_EQ(dse::options_error(sharded), "--shard 2/2: need 0 <= I < N");
  sharded.shard_index = 1;
  EXPECT_EQ(dse::options_error(sharded), std::nullopt);
  sharded.tier = tiers::TierMode::kAuto;
  EXPECT_TRUE(dse::options_error(sharded).has_value());
  EXPECT_THROW((void)dse::run_campaign(sharded), ConfigError);
}

}  // namespace
}  // namespace hybridic
