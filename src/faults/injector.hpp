// The fault injector: per-site deterministic RNG streams plus the event and
// counter record of one run.
//
// Determinism contract: each injection site (kind, site-id) owns an Rng
// seeded by a pure mix of the campaign seed and the site identity, created
// lazily but independent of creation order. Draw order within one site is
// fixed by simulation order, which is itself deterministic, so campaign
// results are bit-identical across reruns and across --threads values
// (BatchRunner gives every job its own platform and injector).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_spec.hpp"
#include "util/rng.hpp"

namespace hybridic::faults {

/// What a recorded fault/recovery event was.
enum class FaultKind : std::uint8_t {
  kFlitCorruption = 0,
  kMessageLost,
  kBusError,
  kBusStall,
  kSdramBitFlip,
  kBramBitFlip,
  kRetransmit,
  kBusRetry,
};
inline constexpr std::size_t kFaultKindCount = 8;

/// One recorded injection or recovery, timestamped in simulated seconds.
struct FaultEvent {
  FaultKind kind = FaultKind::kFlitCorruption;
  double at_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::string label;
};

/// Classes of injection sites; combined with a site id they name one
/// independent RNG stream.
enum class SiteKind : std::uint8_t {
  kNocFlit = 1,  ///< site = injecting mesh node
  kBus = 2,      ///< site = granted bus master
  kDma = 3,      ///< site = DMA bus master
  kSdram = 4,    ///< site = 0 (single controller)
  kBram = 5,     ///< site = kernel-instance index
};

class FaultInjector {
public:
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] const ResilienceSpec& resilience() const {
    return spec_.resilience;
  }

  [[nodiscard]] FaultStats& stats() { return stats_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  /// The independent RNG stream of one injection site.
  Rng& stream(SiteKind kind, std::uint64_t site);

  /// Bernoulli draw on the site's stream. Zero/negative rates burn no
  /// draws, so sites with an unconfigured fault class stay untouched.
  bool draw(SiteKind kind, std::uint64_t site, double rate) {
    return rate > 0.0 && stream(kind, site).chance(rate);
  }

  /// Record an event for the run trace. Counters (stats()) are maintained
  /// by the callers and always exact; the event log is capped per kind so
  /// high-rate campaigns cannot blow up trace memory.
  void record(FaultKind kind, double at_seconds, std::uint64_t bytes,
              std::string label);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  /// Events not stored because their kind hit the per-kind cap.
  [[nodiscard]] std::uint64_t events_dropped() const {
    return events_dropped_;
  }

private:
  static constexpr std::uint32_t kMaxEventsPerKind = 256;

  FaultSpec spec_;
  FaultStats stats_;
  std::map<std::pair<std::uint8_t, std::uint64_t>, Rng> streams_;
  std::vector<FaultEvent> events_;
  std::uint32_t events_per_kind_[kFaultKindCount] = {};
  std::uint64_t events_dropped_ = 0;
};

}  // namespace hybridic::faults
