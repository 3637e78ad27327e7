#include "tiers/analytic.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/kernel_model.hpp"
#include "noc/flit.hpp"
#include "noc/routing.hpp"
#include "sys/board_net.hpp"
#include "sys/multi_board.hpp"

namespace hybridic::tiers {

void HopAccount::add_route(const noc::Mesh2D& mesh, std::uint32_t src,
                           std::uint32_t dst, std::uint64_t bytes) {
  // Step with the flit-level router's own routing decision, so link loads
  // line up with what the simulator would congest.
  const noc::Coord to = mesh.coord_of(dst);
  std::uint32_t at = src;
  for (noc::PortDir dir = noc::xy_route(mesh.coord_of(at), to);
       dir != noc::PortDir::kLocal;
       dir = noc::xy_route(mesh.coord_of(at), to)) {
    link_bytes_[static_cast<LinkId>(at) * 4 + static_cast<LinkId>(dir)] +=
        bytes;
    total_ += bytes;
    at = *mesh.neighbor(at, dir);
  }
}

void HopAccount::clear() {
  link_bytes_.clear();
  total_ = 0;
}

std::uint64_t HopAccount::max_link_bytes() const {
  std::uint64_t best = 0;
  for (const auto& [link, bytes] : link_bytes_) {
    best = std::max(best, bytes);
  }
  return best;
}

HopAccount& HopAccount::scratch() {
  static thread_local HopAccount account;
  account.clear();
  return account;
}

TierEstimate analytic_estimate(const sys::AppSchedule& schedule,
                               const core::DesignResult& design,
                               const sys::PlatformConfig& platform,
                               double theta_seconds_per_byte,
                               const TierCalibration& calibration) {
  TierEstimate est;
  est.solution_tag = design.solution_tag();
  est.theta_seconds_per_byte = theta_seconds_per_byte;

  const core::DesignEstimate& model = design.estimate;
  est.baseline_kernel_seconds = model.baseline_seconds;
  est.baseline_lower_seconds =
      model.baseline_seconds / calibration.baseline_band;
  est.baseline_upper_seconds =
      model.baseline_seconds * calibration.baseline_band;
  est.designed_lower_seconds =
      model.proposed_seconds() / calibration.designed_band;
  est.designed_upper_seconds =
      model.baseline_seconds * calibration.designed_band;

  // Per-edge hop x volume accounting over the mesh placement. The Delta-n
  // term of Eq. 2 assumes the NoC hides kernel<->kernel traffic entirely;
  // the route walk recovers what that hiding actually costs the fabric,
  // giving a serialization floor for the mid-point estimate.
  if (design.noc.has_value() && schedule.graph != nullptr) {
    const core::NocPlan& plan = *design.noc;
    const noc::Mesh2D mesh{plan.mesh_width, plan.mesh_height};

    // Function -> mesh node, first attachment wins (duplicates of one
    // function share its profiled edges, like the EdgeRouter).
    std::map<prof::FunctionId, std::uint32_t> kernel_node;
    std::map<prof::FunctionId, std::uint32_t> memory_node;
    for (const core::NocAttachment& a : plan.attachments) {
      const prof::FunctionId fn = design.instances[a.instance].function;
      auto& slot = a.kind == core::NocNodeKind::kKernel ? kernel_node
                                                        : memory_node;
      slot.emplace(fn, a.node);
    }
    std::set<std::pair<prof::FunctionId, prof::FunctionId>> shared;
    for (const core::SharedMemoryPairing& pair : design.shared_pairs) {
      shared.insert({design.instances[pair.producer_instance].function,
                     design.instances[pair.consumer_instance].function});
    }

    HopAccount& account = HopAccount::scratch();
    const double noc_hz =
        static_cast<double>(platform.noc_clock.hertz());
    for (const prof::CommEdge& edge : schedule.graph->edges()) {
      if (edge.producer == edge.consumer ||
          shared.count({edge.producer, edge.consumer}) != 0) {
        continue;
      }
      const auto src = kernel_node.find(edge.producer);
      const auto dst = memory_node.find(edge.consumer);
      if (src == kernel_node.end() || dst == memory_node.end()) {
        continue;  // Not a NoC edge (host traffic stays on the bus).
      }
      const std::uint64_t volume = core::edge_volume(edge).count();
      account.add_route(mesh, src->second, dst->second, volume);
      est.noc_edges += 1;
      est.noc_volume_bytes += volume;
      const std::uint32_t hops = mesh.distance(src->second, dst->second);
      est.noc_transfer_seconds +=
          static_cast<double>(noc::idle_latency_cycles(
              volume, hops, platform.noc.max_packet_payload_bytes,
              platform.noc.router.pipeline_cycles)) /
          noc_hz;
    }
    est.noc_hop_bytes = account.total_hop_bytes();
    est.noc_max_link_bytes = account.max_link_bytes();
  }

  // Mid-point: the Delta-reduced estimate, floored by the exposed NoC
  // serialization, clamped into the calibrated band so the mid never
  // contradicts the bracket it is reported against.
  const double mid =
      std::max(model.proposed_seconds(), est.noc_transfer_seconds);
  est.designed_kernel_seconds =
      std::clamp(mid, est.designed_lower_seconds, est.designed_upper_seconds);
  return est;
}

TierEstimate analytic_estimate_multi(const sys::AppSchedule& schedule,
                                     const core::MultiBoardDesign& design,
                                     const sys::MultiBoardConfig& config,
                                     double theta_seconds_per_byte,
                                     const TierCalibration& calibration) {
  if (design.board_count() == 1) {
    // Degenerate path: identical to the single-board estimate.
    return analytic_estimate(schedule, design.boards.at(0), config.board,
                             theta_seconds_per_byte, calibration);
  }

  const std::uint32_t boards = design.board_count();
  const sys::BoardNetwork net(boards, config.topology, config.link,
                              config.dead_board_links);
  const std::vector<sys::AppSchedule> subs =
      sys::board_schedules(schedule, design);

  TierEstimate est;
  est.theta_seconds_per_byte = theta_seconds_per_byte;

  // Per-board estimates on the projected sub-schedules. Baselines add (a
  // conventional single-bus baseline runs all kernels back to back);
  // designed mids take the slowest board (boards overlap).
  double max_mid = 0.0;
  double max_lower = 0.0;
  double sum_upper = 0.0;
  std::string tags;
  for (std::uint32_t b = 0; b < boards; ++b) {
    const TierEstimate per = analytic_estimate(
        subs[b], design.boards.at(b), config.board, theta_seconds_per_byte,
        calibration);
    est.baseline_kernel_seconds += per.baseline_kernel_seconds;
    max_mid = std::max(max_mid, per.designed_kernel_seconds);
    max_lower = std::max(max_lower, per.designed_lower_seconds);
    sum_upper += per.designed_upper_seconds;
    est.noc_edges += per.noc_edges;
    est.noc_volume_bytes += per.noc_volume_bytes;
    est.noc_hop_bytes += per.noc_hop_bytes;
    est.noc_max_link_bytes =
        std::max(est.noc_max_link_bytes, per.noc_max_link_bytes);
    est.noc_transfer_seconds += per.noc_transfer_seconds;
    if (b != 0) {
      tags += "|";
    }
    tags += per.solution_tag;
  }
  est.solution_tag = "boards=" + std::to_string(boards) + ":" +
                     to_string(config.topology) + ":" + tags;
  est.baseline_lower_seconds =
      est.baseline_kernel_seconds / calibration.baseline_band;
  est.baseline_upper_seconds =
      est.baseline_kernel_seconds * calibration.baseline_band;

  // Serialized inter-board term: every cut edge rides its shortest path
  // store-and-forward, priced end to end as if the links were otherwise
  // idle and the transfers fully serialized.
  for (const core::InterBoardEdge& edge : design.cut_edges) {
    const std::uint32_t hops =
        net.hop_count(edge.producer_board, edge.consumer_board);
    est.inter_board_edges += 1;
    est.inter_board_bytes += edge.bytes.count();
    est.inter_board_hop_bytes += edge.bytes.count() * hops;
    est.inter_board_seconds += net.transfer_seconds(edge.bytes, hops);
  }

  // The inter-board term carries its own calibrated band: the bracket's
  // floor assumes maximal link overlap, its ceiling assumes every
  // transfer queues behind every other.
  est.designed_lower_seconds =
      max_lower + est.inter_board_seconds / calibration.inter_board_band;
  est.designed_upper_seconds =
      sum_upper + est.inter_board_seconds * calibration.inter_board_band;
  est.designed_kernel_seconds =
      std::clamp(max_mid + est.inter_board_seconds,
                 est.designed_lower_seconds, est.designed_upper_seconds);
  return est;
}

}  // namespace hybridic::tiers
