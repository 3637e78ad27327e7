#include "sys/pipeline_executor.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/kernel_model.hpp"
#include "sys/engine/busy_until.hpp"
#include "sys/engine/context.hpp"
#include "sys/engine/edge_router.hpp"
#include "sys/engine/policies.hpp"
#include "sys/executor.hpp"
#include "sys/experiment.hpp"
#include "util/error.hpp"

namespace hybridic::sys {

PipelineResult run_designed_pipelined(const AppSchedule& schedule,
                                      const core::DesignResult& design,
                                      const PlatformConfig& config,
                                      std::uint32_t frames) {
  require(schedule.graph != nullptr, "schedule has no graph");
  require(frames > 0, "pipeline needs at least one frame");
  const prof::CommGraph& graph = *schedule.graph;

  // Shared engine state: hardware set and the design's per-edge routing.
  engine::ExecContext ctx(schedule, config, &design);
  engine::EdgeRouter router(ctx, &design);
  const std::set<prof::FunctionId>& hw_set = ctx.hw_set();

  // θ of the baseline bus (the same the design algorithm used).
  const double theta = bus_theta(config);

  // Per-spec pipeline-stage parameters.
  struct Stage {
    double tau_eff = 0.0;       ///< Compute window per frame.
    double host_in_theta = 0.0; ///< Bus time for host input.
    double host_out_theta = 0.0;
    std::uint32_t copies = 1;
  };
  std::map<std::size_t, Stage> stages;  // spec index -> stage
  std::map<std::size_t, std::uint32_t> copies_of_spec;
  for (const core::KernelInstance& inst : design.instances) {
    ++copies_of_spec[inst.spec_index];
  }

  for (std::size_t s = 0; s < schedule.specs.size(); ++s) {
    const core::KernelSpec& spec = schedule.specs[s];
    Stage stage;
    stage.copies = copies_of_spec.count(s) > 0 ? copies_of_spec.at(s) : 1;
    stage.tau_eff =
        static_cast<double>(spec.hw_compute_cycles.count()) /
        static_cast<double>(config.kernel_clock.hertz()) /
        stage.copies;
    if (router.duplicated_spec(s)) {
      stage.tau_eff += config.duplication_overhead_seconds;
    }
    stages[s] = stage;
  }

  // Host transfer volumes per step (host edges + fallback kernel edges).
  for (const ScheduleStep& step : schedule.steps) {
    if (!step.is_kernel) {
      continue;
    }
    Stage& stage = stages.at(step.spec_index);
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.producer == edge.consumer) {
        continue;
      }
      const Bytes volume = core::edge_volume(edge);
      if (edge.consumer == step.function) {
        const bool from_host = hw_set.count(edge.producer) == 0;
        const bool via_sm = router.shared_edge(edge.producer, edge.consumer);
        const bool via_noc =
            !via_sm && !from_host &&
            router.noc_hops(edge.producer, edge.consumer) > 0;
        if (from_host || (!via_sm && !via_noc)) {
          stage.host_in_theta +=
              theta * static_cast<double>(volume.count());
        }
      }
      if (edge.producer == step.function) {
        const bool to_host = hw_set.count(edge.consumer) == 0;
        const bool via_sm = router.shared_edge(edge.producer, edge.consumer);
        const bool via_noc =
            !via_sm && !to_host &&
            router.noc_hops(edge.producer, edge.consumer) > 0;
        if (to_host || (!via_sm && !via_noc)) {
          stage.host_out_theta +=
              theta * static_cast<double>(volume.count());
        }
      }
    }
  }

  // ---- Pipelined schedule over frames: a greedy list scheduler. ----
  // One op per (frame, step). An op becomes eligible once all its
  // dependencies are scheduled; of the eligible ops the scheduler always
  // starts the one with the earliest achievable start time (ties broken
  // by (frame, step) for determinism). This lets the host load frame f+1
  // while frame f's results are still in flight — the software-pipelined
  // loop the custom interconnect enables.
  engine::BusyUntil<double> host;
  engine::BusyUntil<double> bus;
  // spec -> serial kernel resource
  std::map<std::size_t, engine::BusyUntil<double>> kernels;

  struct Op {
    std::uint32_t frame = 0;
    std::size_t step = 0;
    bool scheduled = false;
    double compute_end = 0.0;
    double full_done = 0.0;
  };
  const std::size_t step_count = schedule.steps.size();
  std::vector<Op> ops(static_cast<std::size_t>(frames) * step_count);
  for (std::uint32_t f = 0; f < frames; ++f) {
    for (std::size_t s = 0; s < step_count; ++s) {
      ops[f * step_count + s].frame = f;
      ops[f * step_count + s].step = s;
    }
  }

  // Dependency readiness of `op`: returns false if a dependency is still
  // unscheduled, otherwise sets `ready`.
  const auto dep_ready = [&](const Op& op, double& ready) {
    ready = 0.0;
    const ScheduleStep& step = schedule.steps[op.step];
    for (const prof::CommEdge& edge : graph.edges()) {
      if (edge.consumer != step.function ||
          edge.producer == edge.consumer) {
        continue;
      }
      const std::size_t p_step = schedule.step_of(edge.producer);
      const bool backward = p_step >= op.step;
      if (backward && op.frame == 0) {
        continue;  // No previous frame yet.
      }
      const std::uint32_t dep_frame = backward ? op.frame - 1 : op.frame;
      const Op& source = ops[dep_frame * step_count + p_step];
      if (!source.scheduled) {
        return false;
      }
      const bool via_sm = router.shared_edge(edge.producer, edge.consumer);
      const std::uint32_t hops =
          via_sm ? 0 : router.noc_hops(edge.producer, edge.consumer);
      if (via_sm) {
        ready = std::max(ready, source.compute_end);
      } else if (hops > 0) {
        ready = std::max(ready,
                         source.compute_end +
                             engine::NocPolicy::idle_latency_seconds(
                                 config, core::edge_volume(edge), hops));
      } else {
        ready = std::max(ready, source.full_done);
      }
    }
    return true;
  };

  PipelineResult result;
  result.system_name = "proposed-pipelined";
  result.frames = frames;

  const double host_hz = static_cast<double>(config.host_clock.hertz());
  std::size_t remaining = ops.size();
  while (remaining > 0) {
    // Pick the eligible op with the earliest achievable start.
    std::size_t best = ops.size();
    double best_start = 0.0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      if (op.scheduled) {
        continue;
      }
      // An op can only be considered once the same step of the previous
      // frame is scheduled (a stage processes frames in order).
      if (op.frame > 0 &&
          !ops[(op.frame - 1) * step_count + op.step].scheduled) {
        continue;
      }
      double ready = 0.0;
      if (!dep_ready(op, ready)) {
        continue;
      }
      const ScheduleStep& step = schedule.steps[op.step];
      double start = ready;
      if (!step.is_kernel) {
        start = std::max(start, host.free_at());
      } else {
        const Stage& stage = stages.at(step.spec_index);
        if (stage.host_in_theta > 0.0) {
          start = std::max(start, bus.free_at());
        }
        // The kernel itself gates after the fetch; using the fetch start
        // keeps the pick greedy but consistent.
      }
      if (best == ops.size() || start < best_start) {
        best = i;
        best_start = start;
      }
    }
    sim_assert(best < ops.size(),
               "pipeline scheduler found no eligible op (cyclic deps?)");

    Op& op = ops[best];
    double ready = 0.0;
    (void)dep_ready(op, ready);
    const ScheduleStep& step = schedule.steps[op.step];
    if (!step.is_kernel) {
      const double span =
          static_cast<double>(step.sw_cycles.count()) / host_hz;
      const double end = host.reserve(ready, span);
      op.compute_end = end;
      op.full_done = end;
    } else {
      const Stage& stage = stages.at(step.spec_index);
      const double fetch_end =
          stage.host_in_theta > 0.0
              ? bus.reserve(ready, stage.host_in_theta)
              : ready;
      engine::BusyUntil<double>& kernel = kernels[step.spec_index];
      op.compute_end = kernel.reserve(fetch_end, stage.tau_eff);
      const double wb_end =
          stage.host_out_theta > 0.0
              ? bus.reserve(op.compute_end, stage.host_out_theta)
              : op.compute_end;
      op.full_done = std::max(op.compute_end, wb_end);
    }
    op.scheduled = true;
    --remaining;
  }

  for (std::uint32_t f = 0; f < frames; ++f) {
    double frame_done = 0.0;
    for (std::size_t s = 0; s < step_count; ++s) {
      frame_done = std::max(frame_done, ops[f * step_count + s].full_done);
    }
    if (f == 0) {
      result.first_frame_seconds = frame_done;
    }
    result.makespan_seconds =
        std::max(result.makespan_seconds, frame_done);
  }

  // Bottleneck: the resource with the highest per-frame occupancy.
  const double per_frame_host = host.occupancy() / frames;
  const double per_frame_bus = bus.occupancy() / frames;
  result.bottleneck_stage = "host";
  result.bottleneck_stage_seconds = per_frame_host;
  if (per_frame_bus > result.bottleneck_stage_seconds) {
    result.bottleneck_stage = "bus";
    result.bottleneck_stage_seconds = per_frame_bus;
  }
  for (const auto& [spec, cursor] : kernels) {
    const double per_frame = cursor.occupancy() / frames;
    if (per_frame > result.bottleneck_stage_seconds) {
      result.bottleneck_stage = schedule.specs[spec].name;
      result.bottleneck_stage_seconds = per_frame;
    }
  }
  return result;
}

PipelineResult run_baseline_frames(const AppSchedule& schedule,
                                   const PlatformConfig& config,
                                   std::uint32_t frames) {
  require(frames > 0, "pipeline needs at least one frame");
  const RunResult single = run_baseline(schedule, config);
  PipelineResult result;
  result.system_name = "baseline-frames";
  result.frames = frames;
  result.first_frame_seconds = single.total_seconds;
  result.makespan_seconds = single.total_seconds * frames;
  result.bottleneck_stage = "bus (fully serialized)";
  result.bottleneck_stage_seconds = single.total_seconds;
  return result;
}

}  // namespace hybridic::sys
