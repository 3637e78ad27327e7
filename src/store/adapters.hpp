// L2 adapters: plug the persistent Store underneath the in-memory caches.
//
//  - ProfileStoreL2 backs apps::ProfileCache. Profiling is platform-
//    independent, so the store key is just the L1 cache key (which
//    canonically encodes the app / every SyntheticConfig knob) plus the
//    engine revision.
//  - EstimateStoreL2 backs tiers::CongruenceCache. Analytic estimates
//    depend on the design signature (the congruence key, which already
//    folds in theta) AND on the platform/calibration parameters the
//    analytic model reads — those travel in a scope fingerprint computed
//    by estimate_scope(), so estimates from a differently configured
//    platform can never alias.
//
// Load failures of any kind surface as miss (nullptr/nullopt), per the
// L2 interface contracts; store failures are swallowed after counting —
// a read-only or full disk degrades to a smaller cache, not an error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "apps/profile_cache.hpp"
#include "store/store.hpp"
#include "sys/platform.hpp"
#include "tiers/congruence.hpp"

namespace hybridic::store {

class ProfileStoreL2 final : public apps::ProfileL2 {
public:
  explicit ProfileStoreL2(std::shared_ptr<Store> backing);

  [[nodiscard]] std::shared_ptr<const apps::ProfiledApp> load(
      const std::string& key) override;
  void store(const std::string& key, const apps::ProfiledApp& app) override;

  /// Full store key for an L1 profile-cache key.
  [[nodiscard]] static std::string store_key(const std::string& l1_key);

  /// store() calls that failed (disk errors); loads never fail, they miss.
  [[nodiscard]] std::uint64_t store_failures() const;

private:
  std::shared_ptr<Store> backing_;
  std::atomic<std::uint64_t> store_failures_{0};
};

/// Fingerprint of every platform/calibration parameter the analytic tier
/// reads (clocks, bus/DMA/SDRAM/NoC shape, overheads, band widths). Two
/// platforms with equal fingerprints produce identical estimates for
/// equal congruence keys.
[[nodiscard]] std::string estimate_scope(
    const sys::PlatformConfig& platform,
    const tiers::TierCalibration& calibration);

class EstimateStoreL2 final : public tiers::EstimateL2 {
public:
  EstimateStoreL2(std::shared_ptr<Store> backing, std::string scope);

  [[nodiscard]] std::optional<tiers::TierEstimate> load(
      std::uint64_t key) override;
  void store(std::uint64_t key, const tiers::TierEstimate& estimate) override;

  [[nodiscard]] static std::string store_key(const std::string& scope,
                                             std::uint64_t key);

  [[nodiscard]] std::uint64_t store_failures() const;

private:
  std::shared_ptr<Store> backing_;
  std::string scope_;
  std::atomic<std::uint64_t> store_failures_{0};
};

}  // namespace hybridic::store
