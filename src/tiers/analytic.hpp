// Analytic evaluation tier — the fast half of the tiered evaluator.
//
// Where the cycle-accurate engine replays every transfer through the
// event-driven bus/NoC simulators (~225K events/sec), this tier prices a
// design point purely from the mapped multigraph: per-edge hop-count x
// volume accumulation over the design's mesh placement (an XY route walk
// per edge, no event queue at all) layered on the Eq. 2 / Delta estimate
// Algorithm 1 already attaches to the design. The result is a
// TierEstimate whose lower/upper band comes from the PR 5 bracket
// calibration (dse::OracleBounds), so "measured falls inside the band" is
// exactly the property the perf-model-agreement oracle has been proving
// over the 1000-design calibration sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/design_result.hpp"
#include "core/multi_board_design.hpp"
#include "noc/topology.hpp"
#include "sys/platform.hpp"
#include "sys/schedule.hpp"

namespace hybridic::tiers {

/// Per-link traffic accumulator (the HopCount idiom): bytes crossing each
/// directed mesh link, built by XY route walks.
class HopAccount {
public:
  /// Directed link leaving `node` towards `dir`: node * 4 + PortDir.
  using LinkId = std::uint64_t;

  /// Walk the XY route src -> dst on `mesh`, adding `bytes` to every link
  /// crossed. A self-route (src == dst) crosses no links.
  void add_route(const noc::Mesh2D& mesh, std::uint32_t src,
                 std::uint32_t dst, std::uint64_t bytes);

  void clear();

  /// Sum over links of bytes crossing it (== sum over edges of
  /// bytes x hops).
  [[nodiscard]] std::uint64_t total_hop_bytes() const { return total_; }
  /// Bytes on the single busiest link (the serialization floor).
  [[nodiscard]] std::uint64_t max_link_bytes() const;

  /// Per-thread scratch account, cleared on every acquire. Lets hot loops
  /// (the DSE campaign runs one analytic eval per BatchRunner job) reuse
  /// one hash map per worker instead of allocating per design point.
  [[nodiscard]] static HopAccount& scratch();

private:
  std::unordered_map<LinkId, std::uint64_t> link_bytes_;
  std::uint64_t total_ = 0;
};

/// Band widths applied around the analytic estimate. Sourced from the
/// PR 5 bracket calibration: dse::OracleBounds proves measured baseline
/// kernel time within [est/2, est*2] and measured designed kernel time
/// within [est_proposed/6, est_baseline*6] over every calibration sweep.
struct TierCalibration {
  double baseline_band = 2.0;  ///< == OracleBounds::baseline_perf_band.
  double designed_band = 6.0;  ///< == OracleBounds::proposed_perf_band.
  /// Band on the inter-board serialization term of a multi-board
  /// estimate. The link model is store-and-forward with per-link busy
  /// cursors, so the analytic sum-of-transfers can over-state (transfers
  /// overlap on disjoint links) or under-state (queueing on a shared
  /// link) the simulated cost by a bounded factor.
  double inter_board_band = 3.0;
};

/// What the analytic tier knows about one design point.
struct TierEstimate {
  std::string solution_tag;
  double theta_seconds_per_byte = 0.0;

  /// Eq. 2 over the profiled kernels (analytic baseline kernel time).
  double baseline_kernel_seconds = 0.0;
  /// Mid-point analytic designed kernel time: the Delta-reduced Eq. 2
  /// estimate, floored by the NoC serialization the hop accounting
  /// exposes, clamped into the calibrated band.
  double designed_kernel_seconds = 0.0;

  /// Calibrated bracket on the cycle-accurate *designed* kernel seconds.
  double designed_lower_seconds = 0.0;
  double designed_upper_seconds = 0.0;
  /// Calibrated bracket on the cycle-accurate *baseline* kernel seconds.
  double baseline_lower_seconds = 0.0;
  double baseline_upper_seconds = 0.0;

  /// Per-edge hop x volume accounting over the NoC placement (all zero
  /// for designs without a NoC).
  std::uint64_t noc_edges = 0;
  std::uint64_t noc_volume_bytes = 0;    ///< Unique bytes routed.
  std::uint64_t noc_hop_bytes = 0;       ///< Sum bytes x hops.
  std::uint64_t noc_max_link_bytes = 0;  ///< Busiest link.
  double noc_transfer_seconds = 0.0;     ///< Idle-network serialization.

  /// Inter-board link accounting (all zero for single-board estimates).
  std::uint64_t inter_board_edges = 0;
  std::uint64_t inter_board_bytes = 0;      ///< Unique bytes crossing boards.
  std::uint64_t inter_board_hop_bytes = 0;  ///< Sum bytes x link hops.
  double inter_board_seconds = 0.0;  ///< Serialized link-transfer term.

  /// Canonical design signature (0 until the congruence cache fills it).
  std::uint64_t congruence_key = 0;

  [[nodiscard]] bool contains_designed(double measured_seconds) const {
    return measured_seconds >= designed_lower_seconds &&
           measured_seconds <= designed_upper_seconds;
  }
  [[nodiscard]] bool contains_baseline(double measured_seconds) const {
    return measured_seconds >= baseline_lower_seconds &&
           measured_seconds <= baseline_upper_seconds;
  }
  /// Do the designed-time brackets of two ranked candidates intersect?
  [[nodiscard]] bool overlaps(const TierEstimate& other) const {
    return designed_lower_seconds <= other.designed_upper_seconds &&
           other.designed_lower_seconds <= designed_upper_seconds;
  }
};

/// Price `design` for `schedule` analytically. `theta_seconds_per_byte`
/// is the bus theta the designer consumed (sys::make_design_input);
/// platform supplies the NoC clock and packet format for the idle-network
/// serialization term. Pure and deterministic — never touches a
/// simulation engine.
[[nodiscard]] TierEstimate analytic_estimate(
    const sys::AppSchedule& schedule, const core::DesignResult& design,
    const sys::PlatformConfig& platform, double theta_seconds_per_byte,
    const TierCalibration& calibration = {});

/// Price a two-level multi-board design analytically: per-board
/// analytic_estimate over each board's projected sub-schedule, combined
/// with a serialized inter-board link term (sum over cut edges of
/// store-and-forward transfer time along the topology's shortest path)
/// carrying its own calibrated band. With board_count == 1 this returns
/// exactly analytic_estimate on board 0 — multi-board pricing never
/// perturbs single-board results.
[[nodiscard]] TierEstimate analytic_estimate_multi(
    const sys::AppSchedule& schedule, const core::MultiBoardDesign& design,
    const sys::MultiBoardConfig& config, double theta_seconds_per_byte,
    const TierCalibration& calibration = {});

}  // namespace hybridic::tiers
