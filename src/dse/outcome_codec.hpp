// Bit-exact text codec for journaled CaseOutcomes (docs/MODEL.md §17).
//
// The run journal records one encoded CaseOutcome per completed job so a
// resumed campaign can rebuild the row — and therefore the CSV and the
// REPORT tables — byte for byte. Doubles serialize as C99 hex-floats
// (util::hexf) and round-trip to the identical bit pattern;
// the analytic estimate embeds the store's versioned estimate codec.
//
// Fields the campaign recomputes serially after all rows exist
// (profile_key, congruent, profile_reused) are deliberately NOT encoded:
// they are pure functions of the full row set and the config.
//
// The decoder is total: any malformed payload returns nullopt, so a
// damaged journal record degrades to re-executing that job.
#pragma once

#include <optional>
#include <string>

#include "dse/campaign.hpp"

namespace hybridic::dse {

[[nodiscard]] std::string encode_outcome(const CaseOutcome& outcome);

/// nullopt when the payload is malformed.
[[nodiscard]] std::optional<CaseOutcome> decode_outcome(
    const std::string& payload);

}  // namespace hybridic::dse
