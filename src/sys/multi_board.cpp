#include "sys/multi_board.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "faults/injector.hpp"
#include "sys/engine/models.hpp"
#include "sys/engine/policies.hpp"
#include "sys/engine/walker.hpp"
#include "util/error.hpp"

namespace hybridic::sys {

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

namespace {

/// The multi-board platform as one VariantModel for the ScheduleWalker.
/// Each step runs on its owning board's unchanged DesignedModel (board 0
/// also runs every host step), with its board-local spec index and the
/// global step index into the shared trace. When a producer step
/// finishes, its cut edges ride the inter-board links; a consumer that
/// has not run yet gates its board on the arrival, while a backward
/// (feedback) edge moves bytes for the next frame without gating anything
/// — the single-board executed_[] delivery semantics.
class MultiBoardModel : public engine::VariantModel {
public:
  MultiBoardModel(const AppSchedule& schedule,
                  const core::MultiBoardDesign& design,
                  const MultiBoardConfig& config, engine::ExecTrace& trace)
      : design_(&design),
        net_(config.board_count, config.topology, config.link,
             config.dead_board_links),
        subs_(board_schedules(schedule, design)),
        link_(net_, &trace),
        boards_(config.board_count) {
    for (std::uint32_t b = 0; b < config.board_count; ++b) {
      if (subs_[b].steps.empty()) {
        continue;  // Idle board: no steps, no platform.
      }
      Board& board = boards_[b];
      board.ctx = std::make_unique<engine::ExecContext>(
          subs_[b], config.board, &design.boards.at(b));
      board.router = std::make_unique<engine::EdgeRouter>(
          *board.ctx, &design.boards.at(b));
      board.model = std::make_unique<engine::DesignedModel>(
          *board.ctx, *board.router, &trace);
    }
    for (const core::InterBoardEdge& edge : design.cut_edges) {
      cut_of_producer_[edge.producer].push_back(&edge);
    }
  }

  engine::StepOutcome host_step(std::uint32_t index,
                                const ScheduleStep& step) override {
    return run(index, step);
  }
  engine::StepOutcome kernel_step(std::uint32_t index,
                                  const ScheduleStep& step) override {
    return run(index, step);
  }

  [[nodiscard]] double total_seconds() const override {
    double total = 0.0;
    for (const Board& board : boards_) {
      if (board.model != nullptr) {
        total = std::max(total, board.model->total_seconds());
      }
    }
    return std::max(total, max_arrival_seconds_);
  }

  /// Fold the walked run into `result`: per-board end times, the link
  /// counters, and every board's injected faults.
  void finish(MultiBoardRunResult& result) const {
    RunResult& run = result.run;
    result.board_end_seconds.assign(boards_.size(), 0.0);
    for (std::size_t b = 0; b < boards_.size(); ++b) {
      if (boards_[b].model != nullptr) {
        result.board_end_seconds[b] = boards_[b].model->total_seconds();
      }
    }
    result.inter_board_transfers = link_.transfers();
    result.inter_board_bytes = link_.bytes_moved();
    result.board_link_reroutes = link_.reroutes();
    result.inter_board_busy_seconds =
        run.trace.usage(engine::Fabric::kInterBoard).busy_seconds;
    for (const Board& board : boards_) {
      if (board.ctx == nullptr) {
        continue;
      }
      if (const faults::FaultInjector* injector =
              board.ctx->platform().fault_injector()) {
        engine::append_fault_events(run.trace, *injector);
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
    run.fault_stats.board_link_reroutes = link_.reroutes();
  }

private:
  /// One board's engine state (all null on an idle board).
  struct Board {
    std::unique_ptr<engine::ExecContext> ctx;
    std::unique_ptr<engine::EdgeRouter> router;
    std::unique_ptr<engine::DesignedModel> model;
    std::size_t next_step = 0;  ///< Next step of the board's schedule.
  };

  engine::StepOutcome run(std::uint32_t index, const ScheduleStep& step) {
    const std::uint32_t owner =
        step.is_kernel ? design_->partition.board_of(step.function) : 0U;
    Board& board = boards_.at(owner);
    const ScheduleStep& local = subs_[owner].steps[board.next_step++];

    // Gate this board on any inter-board arrival feeding the step.
    const auto arrival = arrivals_.find(step.function);
    if (arrival != arrivals_.end()) {
      board.model->lift_cursor(arrival->second);
    }
    const engine::StepOutcome outcome =
        step.is_kernel ? board.model->kernel_step(index, local)
                       : board.model->host_step(index, local);
    executed_.insert(step.function);

    const auto cut = cut_of_producer_.find(step.function);
    if (cut != cut_of_producer_.end()) {
      for (const core::InterBoardEdge* edge : cut->second) {
        const Picoseconds at = link_.transfer(
            index, step.name, edge->producer_board, edge->consumer_board,
            edge->bytes, to_picoseconds(outcome.done_seconds));
        max_arrival_seconds_ = std::max(max_arrival_seconds_, at.seconds());
        if (executed_.count(edge->consumer) == 0) {
          Picoseconds& slot = arrivals_[edge->consumer];
          slot = std::max(slot, at);
        }
      }
    }
    return outcome;
  }

  const core::MultiBoardDesign* design_;
  BoardNetwork net_;
  std::vector<AppSchedule> subs_;
  engine::InterBoardLinkPolicy link_;
  std::vector<Board> boards_;
  /// Cut edges grouped by producer, walked when the producer finishes.
  std::map<prof::FunctionId, std::vector<const core::InterBoardEdge*>>
      cut_of_producer_;
  std::set<prof::FunctionId> executed_;
  std::map<prof::FunctionId, Picoseconds> arrivals_;
  double max_arrival_seconds_ = 0.0;
};

}  // namespace

MultiBoardRunResult run_designed_multi(const AppSchedule& schedule,
                                       const core::MultiBoardDesign& design,
                                       const MultiBoardConfig& config,
                                       std::string system_name) {
  require(schedule.graph != nullptr, "schedule has no profile graph");
  require(design.board_count() == config.board_count,
          "design and platform disagree on board count");

  MultiBoardRunResult result;
  if (config.board_count == 1) {
    // The provably-preserved degenerate path: the single-board executor,
    // bit for bit.
    result.run = run_designed(schedule, design.boards.at(0), config.board,
                              std::move(system_name));
    result.board_end_seconds = {result.run.total_seconds};
    return result;
  }

  engine::ScheduleWalker walker(schedule, std::move(system_name));
  MultiBoardModel model(schedule, design, config, walker.trace());
  result.run = walker.run(model);
  model.finish(result);
  return result;
}

}  // namespace hybridic::sys
