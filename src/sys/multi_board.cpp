#include "sys/multi_board.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "faults/injector.hpp"
#include "sys/engine/models.hpp"
#include "sys/engine/policies.hpp"
#include "util/error.hpp"

namespace hybridic::sys {

namespace {

Picoseconds to_ps(double seconds) {
  // Model cursors are integer picoseconds; their .seconds() round-trips
  // exactly through this.
  return Picoseconds{static_cast<std::uint64_t>(seconds * 1e12 + 0.5)};
}

}  // namespace

std::vector<AppSchedule> board_schedules(
    const AppSchedule& schedule, const core::MultiBoardDesign& design) {
  const std::uint32_t boards = design.board_count();
  std::vector<AppSchedule> subs(boards);
  for (std::uint32_t b = 0; b < boards; ++b) {
    AppSchedule& sub = subs[b];
    sub.app_name = schedule.app_name + "/board" + std::to_string(b);
    sub.graph = design.board_graphs.at(b).get();
    sub.specs = design.board_kernels.at(b);
    std::map<prof::FunctionId, std::size_t> local_spec;
    for (std::size_t s = 0; s < sub.specs.size(); ++s) {
      local_spec[sub.specs[s].function] = s;
    }
    for (const ScheduleStep& step : schedule.steps) {
      const std::uint32_t owner =
          step.is_kernel ? design.partition.board_of(step.function) : 0U;
      if (owner != b) {
        continue;
      }
      ScheduleStep local = step;
      if (step.is_kernel) {
        const auto it = local_spec.find(step.function);
        if (it == local_spec.end()) {
          throw ConfigError{"kernel step '" + step.name +
                            "' has no spec on board " + std::to_string(b)};
        }
        local.spec_index = it->second;
      }
      sub.steps.push_back(std::move(local));
    }
  }
  return subs;
}

MultiBoardRunResult run_designed_multi(const AppSchedule& schedule,
                                       const core::MultiBoardDesign& design,
                                       const MultiBoardConfig& config,
                                       std::string system_name) {
  require(schedule.graph != nullptr, "schedule has no profile graph");
  require(design.board_count() == config.board_count(),
          "design and platform disagree on board count");

  MultiBoardRunResult result;
  if (config.board_count() == 1) {
    // The provably-preserved degenerate path: the single-board executor,
    // bit for bit.
    result.run = run_designed(schedule, design.boards.at(0), config.board(0),
                              std::move(system_name));
    result.board_end_seconds = {result.run.total_seconds};
    return result;
  }

  const std::uint32_t boards = config.board_count();
  BoardNetwork net(boards, config.topology, config.link,
                   config.dead_board_links());
  const std::vector<AppSchedule> subs = board_schedules(schedule, design);

  engine::ExecTrace trace;  // Shared: all boards' events interleave here.
  engine::InterBoardLinkPolicy link(net, &trace);

  std::vector<std::unique_ptr<engine::ExecContext>> ctxs(boards);
  std::vector<std::unique_ptr<engine::EdgeRouter>> routers(boards);
  std::vector<std::unique_ptr<engine::DesignedModel>> models(boards);
  for (std::uint32_t b = 0; b < boards; ++b) {
    if (subs[b].steps.empty()) {
      continue;  // Idle board: no steps, no platform.
    }
    ctxs[b] = std::make_unique<engine::ExecContext>(
        subs[b], config.board(b), &design.boards.at(b));
    routers[b] = std::make_unique<engine::EdgeRouter>(*ctxs[b],
                                                      &design.boards.at(b));
    models[b] = std::make_unique<engine::DesignedModel>(*ctxs[b], *routers[b],
                                                        &trace);
  }

  // Cut edges grouped by producer, walked when the producer finishes.
  std::map<prof::FunctionId, std::vector<const core::InterBoardEdge*>>
      cut_of_producer;
  for (const core::InterBoardEdge& edge : design.cut_edges) {
    cut_of_producer[edge.producer].push_back(&edge);
  }

  RunResult& run = result.run;
  run.system_name = std::move(system_name);
  std::set<prof::FunctionId> executed;
  std::map<prof::FunctionId, Picoseconds> arrivals;
  std::vector<std::size_t> local_index(boards, 0);
  double max_arrival_seconds = 0.0;

  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(schedule.steps.size()); ++i) {
    const ScheduleStep& step = schedule.steps[i];
    const std::uint32_t owner =
        step.is_kernel ? design.partition.board_of(step.function) : 0U;
    engine::DesignedModel& model = *models.at(owner);
    const ScheduleStep& local = subs[owner].steps[local_index[owner]++];

    // Gate this board on any inter-board arrival feeding the step.
    const auto arrival = arrivals.find(step.function);
    if (arrival != arrivals.end()) {
      model.lift_cursor(arrival->second);
    }

    // Global step index into the shared trace; board-local spec indices
    // into the board's own context.
    const engine::StepOutcome outcome = step.is_kernel
                                            ? model.kernel_step(i, local)
                                            : model.host_step(i, local);
    StepTiming timing;
    timing.name = step.name;
    timing.is_kernel = step.is_kernel;
    timing.start_seconds = outcome.start_seconds;
    timing.done_seconds = outcome.done_seconds;
    timing.compute_seconds = outcome.compute_seconds;
    timing.comm_seconds = outcome.comm_seconds;
    if (step.is_kernel) {
      run.kernel_compute_seconds += outcome.compute_seconds;
      run.kernel_comm_seconds += outcome.comm_seconds;
    } else {
      run.host_seconds += outcome.compute_seconds;
    }
    if (step.is_kernel || outcome.compute_seconds > 0.0) {
      trace.record({engine::EventKind::kCompute,
                    step.is_kernel ? engine::Fabric::kKernel
                                   : engine::Fabric::kHost,
                    i, 0, outcome.compute_start_seconds,
                    outcome.compute_start_seconds + outcome.compute_seconds,
                    step.name});
    }
    run.steps.push_back(std::move(timing));
    executed.insert(step.function);

    // Launch this step's cross-board transfers; forward consumers gate on
    // the arrival, backward (feedback) edges move bytes for the next
    // frame without gating anything — matching the single-board
    // executed_[] delivery semantics.
    const auto cut = cut_of_producer.find(step.function);
    if (cut == cut_of_producer.end()) {
      continue;
    }
    for (const core::InterBoardEdge* edge : cut->second) {
      const Picoseconds at =
          link.transfer(i, step.name, edge->producer_board,
                        edge->consumer_board, edge->bytes,
                        to_ps(outcome.done_seconds));
      max_arrival_seconds = std::max(max_arrival_seconds, at.seconds());
      if (executed.count(edge->consumer) == 0) {
        Picoseconds& slot = arrivals[edge->consumer];
        slot = std::max(slot, at);
      }
    }
  }

  result.board_end_seconds.assign(boards, 0.0);
  for (std::uint32_t b = 0; b < boards; ++b) {
    if (models[b] != nullptr) {
      result.board_end_seconds[b] = models[b]->total_seconds();
      run.total_seconds =
          std::max(run.total_seconds, result.board_end_seconds[b]);
    }
  }
  run.total_seconds = std::max(run.total_seconds, max_arrival_seconds);

  result.inter_board_transfers = link.transfers();
  result.inter_board_bytes = link.bytes_moved();
  result.board_link_reroutes = link.reroutes();
  result.inter_board_busy_seconds =
      trace.usage(engine::Fabric::kInterBoard).busy_seconds;

  // Fold per-board injected-fault counters (and the link reroutes) into
  // the one global result.
  for (std::uint32_t b = 0; b < boards; ++b) {
    if (ctxs[b] == nullptr) {
      continue;
    }
    if (const faults::FaultInjector* injector =
            ctxs[b]->platform().fault_injector()) {
      engine::append_fault_events(trace, *injector);
      const faults::FaultStats& stats = injector->stats();
      run.fault_stats.flits_corrupted += stats.flits_corrupted;
      run.fault_stats.packets_retransmitted += stats.packets_retransmitted;
      run.fault_stats.retransmit_give_ups += stats.retransmit_give_ups;
      run.fault_stats.messages_lost += stats.messages_lost;
      run.fault_stats.bus_errors += stats.bus_errors;
      run.fault_stats.bus_retries += stats.bus_retries;
      run.fault_stats.bus_stalls += stats.bus_stalls;
      run.fault_stats.mem_bitflips += stats.mem_bitflips;
      run.fault_stats.corrupted_bytes += stats.corrupted_bytes;
      run.fault_stats.degraded_edges += stats.degraded_edges;
      run.fault_stats.noc_reroutes += stats.noc_reroutes;
    }
  }
  run.fault_stats.board_link_reroutes = link.reroutes();
  run.trace = std::move(trace);
  return result;
}

}  // namespace hybridic::sys
