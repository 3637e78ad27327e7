// Versioned text codecs for store payloads (docs/MODEL.md §15).
//
// Profiles and tier estimates round-trip bit-exactly: every double is
// serialized as a C99 hex-float (util::hexf), which strtod parses back to
// the identical bit pattern, and every counter as a decimal integer. Encoding
// the decode of an entry reproduces the original payload byte for byte —
// the property the restart-reproducibility tests assert.
//
// Decoders are total: any malformed payload returns an empty result
// instead of throwing, so a damaged store entry degrades to a cache miss.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "apps/app.hpp"
#include "tiers/analytic.hpp"

namespace hybridic::store {

/// Serialize everything downstream consumers read from a profiled app:
/// the profile snapshot (graph, footprints, call order), calibration,
/// environment, and verification outcome.
[[nodiscard]] std::string encode_profile(const apps::ProfiledApp& app);

/// Rebuild a profiled app (profiler restored via
/// QuadProfiler::from_snapshot); nullptr when the payload is malformed.
[[nodiscard]] std::shared_ptr<const apps::ProfiledApp> decode_profile(
    const std::string& payload);

[[nodiscard]] std::string encode_estimate(const tiers::TierEstimate& e);

/// nullopt when the payload is malformed.
[[nodiscard]] std::optional<tiers::TierEstimate> decode_estimate(
    const std::string& payload);

}  // namespace hybridic::store
