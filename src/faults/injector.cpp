#include "faults/injector.hpp"

#include "util/hash.hpp"

namespace hybridic::faults {

Rng& FaultInjector::stream(SiteKind kind, std::uint64_t site) {
  const auto key =
      std::make_pair(static_cast<std::uint8_t>(kind), site);
  auto it = streams_.find(key);
  if (it == streams_.end()) {
    // A pure function of (seed, kind, site), so site streams do not depend
    // on the order sites first draw.
    const std::uint64_t kind_bits = static_cast<std::uint64_t>(kind) << 56;
    const std::uint64_t seed =
        util::splitmix64(util::splitmix64(spec_.seed ^ kind_bits) + site);
    it = streams_.emplace(key, Rng{seed}).first;
  }
  return it->second;
}

void FaultInjector::record(FaultKind kind, double at_seconds,
                           std::uint64_t bytes, std::string label) {
  std::uint32_t& stored = events_per_kind_[static_cast<std::size_t>(kind)];
  if (stored >= kMaxEventsPerKind) {
    ++events_dropped_;
    return;
  }
  ++stored;
  events_.push_back(FaultEvent{kind, at_seconds, bytes, std::move(label)});
}

}  // namespace hybridic::faults
