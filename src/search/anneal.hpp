// Deterministic simulated annealing over the interconnect design space
// (ROADMAP item 5): seeded at Algorithm 1's greedy decisions, walking the
// search/moves.hpp neighborhood with tiers::analytic_estimate as fitness,
// a legality gate as a hard constraint on every candidate, and the
// congruence signature as a per-restart memo so equivalent neighbors are
// never re-priced.
//
// Determinism contract: each (seed, restart) pair owns an independent
// xoshiro256** stream, restarts are reduced in submission order, and the
// incumbent tie-break is total order (fitness, LUTs, restart index) — so
// the result is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/interconnect_design.hpp"
#include "search/moves.hpp"
#include "sys/platform.hpp"
#include "sys/schedule.hpp"
#include "tiers/analytic.hpp"
#include "util/rng.hpp"

namespace hybridic::search {

/// Hard constraint on every candidate: nullopt = legal, otherwise the
/// reason the design was rejected. The default gate runs
/// core::validate_design; the DSE campaign injects its simulation-free
/// oracle subset instead.
using LegalityGate = std::function<std::optional<std::string>(
    const sys::AppSchedule&, const core::DesignResult&)>;

/// Test hook: replace legal-move sampling with an arbitrary generator (the
/// harness uses it to prove a broken generator dies at the gate).
using MoveHook =
    std::function<Move(const SearchProblem&, const SearchVars&, Rng&)>;

struct AnnealOptions {
  std::uint64_t seed = 1;
  /// Total independent restarts (>= 1). Restart 0 starts at the greedy
  /// seed; restart r starts after r random accepted kicks away from it.
  std::uint32_t restarts = 2;
  std::uint32_t iterations = 200;
  /// Worker threads for the restart batch; 1 runs the restarts inline on
  /// the calling thread (no batch). The result is bit-identical either way.
  std::size_t threads = 1;
  /// Cycle-accurately simulate the final incumbent and check it against
  /// its own analytic band (the end-of-run validation).
  bool cycle_validate = false;
  tiers::TierCalibration calibration;
  LegalityGate gate;    ///< Empty = validate_design default.
  MoveHook move_hook;   ///< Empty = sample legal_moves() uniformly.
};

struct SearchStats {
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_illegal = 0;  ///< Gate or LUT-cap rejections.
  std::uint64_t cache_hits = 0;        ///< Congruence-memo fitness reuses.
};

/// End-of-run cycle-accurate validation of the incumbent.
struct CycleCheck {
  double measured_kernel_seconds = 0.0;
  bool within_band = false;  ///< Inside the incumbent's analytic band.
};

/// Flat summary row (what the campaign CSV and the JSON front ends emit).
struct SearchRecord {
  std::string solution_tag;
  double analytic_seconds = 0.0;
  double algorithm1_analytic_seconds = 0.0;
  std::uint64_t luts = 0;
  std::uint64_t algorithm1_luts = 0;
  /// algorithm1 / searched analytic time (>= 1 by construction when both
  /// are positive; 1.0 when degenerate).
  double gain = 1.0;
  std::uint32_t best_restart = 0;
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_illegal = 0;
  std::uint64_t cache_hits = 0;

  bool operator==(const SearchRecord&) const = default;
};

struct SearchResult {
  /// Algorithm 1's design and pricing (the seed — also the comparison
  /// baseline everywhere "searched vs greedy" is reported).
  core::DesignResult algorithm1;
  tiers::TierEstimate algorithm1_estimate;
  std::uint64_t algorithm1_luts = 0;

  /// The incumbent after all restarts.
  core::DesignResult best;
  tiers::TierEstimate best_estimate;
  std::uint64_t best_luts = 0;
  SearchVars best_vars;
  std::uint32_t best_restart = 0;

  /// Incumbent fitness after each iteration of the winning restart
  /// (monotone non-increasing by construction; index 0 = seed fitness).
  std::vector<double> incumbent_trace;

  SearchStats stats;  ///< Summed over all restarts.
  std::optional<CycleCheck> cycle;

  [[nodiscard]] SearchRecord record() const;
};

/// The default legality gate: core::validate_design must report no errors.
[[nodiscard]] std::optional<std::string> default_gate(
    const sys::AppSchedule& schedule, const core::DesignResult& design);

/// Run the annealer. Throws ConfigError on inconsistent input (zero
/// restarts/iterations, broken design input). Deterministic for a fixed
/// (options.seed, options.restarts, options.iterations) regardless of
/// options.threads.
[[nodiscard]] SearchResult anneal_interconnect(
    const sys::AppSchedule& schedule, const core::DesignInput& input,
    const sys::PlatformConfig& platform, const AnnealOptions& options);

}  // namespace hybridic::search
