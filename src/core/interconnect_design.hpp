// Algorithm 1 — the automated custom-interconnect design strategy.
//
// Input: the application's kernel candidates (L_hw) plus its quantitative
// data-communication profile (the QUAD graph, G). Output: the hybrid custom
// interconnect — duplication decisions, shared-local-memory pairings, NoC
// attachments with adaptive mapping (Table I) and mesh placement, and the
// parallel-processing decisions — together with the analytical time
// estimate from the §IV-A models.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/design_result.hpp"
#include "core/kernel_model.hpp"
#include "core/perf_model.hpp"
#include "prof/comm_graph.hpp"
#include "util/units.hpp"

namespace hybridic::core {

/// Everything Algorithm 1 needs.
struct DesignInput {
  const prof::CommGraph* graph = nullptr;
  std::vector<KernelSpec> kernels;  ///< L_hw (line 1 already performed).
  Frequency kernel_clock = Frequency::megahertz(100);
  Theta theta;  ///< Measured average sec/byte of the system infrastructure.

  double stream_overhead_seconds = 15e-6;       ///< O for cases 1 & 2.
  double duplication_overhead_seconds = 30e-6;  ///< O for case 3.

  /// LUT budget available for duplicated kernels ("resource is available",
  /// line 3). Zero disables duplication by exhaustion.
  std::uint32_t duplication_area_budget_luts = 20000;

  // Ablation switches (all true reproduces the paper's algorithm; the
  // NoC-only comparison system of Table IV disables the first two).
  bool enable_shared_memory = true;
  bool enable_adaptive_mapping = true;
  bool enable_parallel = true;
  bool enable_duplication = true;
};

/// One shared-local-memory pairing decision, stated over spec indices
/// (instances are a build artifact, so decisions stay instance-free).
struct SharedPairDecision {
  std::size_t producer_spec = 0;
  std::size_t consumer_spec = 0;
  Bytes bytes{0};  ///< D_ij moved through the shared memory.
  mem::SharingStyle style = mem::SharingStyle::kCrossbar;
};

/// The free choices of the interconnect design space, separated from the
/// deterministic machinery that realizes them. Algorithm 1 is one policy
/// for filling this in (greedy_decisions); the search optimizer
/// (src/search/) explores the same space move by move. build_design()
/// realizes any decision vector without judging it — legality is the
/// caller's gate (core::validate_design, the DSE oracles).
struct DesignDecisions {
  /// Spec indices to duplicate, in decision order (greedy records them in
  /// descending-τ order; the order is preserved into
  /// ParallelPlan::duplicated_specs and the Δdp summation).
  std::vector<std::size_t> duplicated_specs;
  /// Shared-local-memory pairings, in decision order.
  std::vector<SharedPairDecision> shared_pairs;
  /// Per-spec mapping override; empty vector or nullopt entries defer to
  /// the adaptive map (Table I) / naive map as before. Any present
  /// override forces the NoC to exist (the override asked for fabric the
  /// residual-traffic shortcut would otherwise drop).
  std::vector<std::optional<InterconnectClass>> mapping_override;

  [[nodiscard]] bool any_mapping_override() const {
    for (const auto& entry : mapping_override) {
      if (entry.has_value()) {
        return true;
      }
    }
    return false;
  }
};

/// Lines 2-13 of Algorithm 1: the greedy duplication and shared-memory
/// decisions (mapping stays adaptive — no overrides).
[[nodiscard]] DesignDecisions greedy_decisions(const DesignInput& input);

/// Realize `decisions` into a complete design: instances, residual
/// quantities, classification + (adaptive or overridden) mapping, NoC
/// placement, parallel plan, and the Eq. 2 / Δ estimate. Deterministic;
/// does not validate the decisions (an infeasible override builds and is
/// left for the caller's legality gate to reject).
[[nodiscard]] DesignResult build_design(const DesignInput& input,
                                        const DesignDecisions& decisions);

/// Run Algorithm 1. Throws ConfigError on inconsistent input. Exactly
/// build_design(input, greedy_decisions(input)).
[[nodiscard]] DesignResult design_interconnect(const DesignInput& input);

}  // namespace hybridic::core
