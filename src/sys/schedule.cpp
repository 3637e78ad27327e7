#include "sys/schedule.hpp"

#include <cmath>
#include <map>

#include "util/error.hpp"

namespace hybridic::sys {

std::size_t AppSchedule::step_of(prof::FunctionId function) const {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].function == function) {
      return i;
    }
  }
  throw ConfigError{"AppSchedule '" + app_name + "': no step for function id " +
                    std::to_string(function) + " (schedule has " +
                    std::to_string(steps.size()) +
                    " steps; was the schedule built from a different graph?)"};
}

AppSchedule build_schedule(std::string app_name,
                           const prof::CommGraph& graph,
                           const std::vector<CalibrationEntry>& calibration) {
  std::vector<prof::FunctionId> order(graph.function_count());
  for (prof::FunctionId id = 0; id < graph.function_count(); ++id) {
    order[id] = id;
  }
  return build_schedule(std::move(app_name), graph, calibration, order);
}

AppSchedule build_schedule(std::string app_name,
                           const prof::CommGraph& graph,
                           const std::vector<CalibrationEntry>& calibration,
                           const std::vector<prof::FunctionId>& order) {
  AppSchedule schedule;
  schedule.app_name = std::move(app_name);
  schedule.graph = &graph;

  std::map<std::string, const CalibrationEntry*> by_name;
  for (const CalibrationEntry& entry : calibration) {
    if (!graph.has_function(entry.function)) {
      throw ConfigError{"calibration references unprofiled function: " +
                        entry.function};
    }
    by_name[entry.function] = &entry;
  }

  // Full step order: the supplied order first, then any profiled function
  // it omits (declared but never invoked).
  std::vector<prof::FunctionId> full_order;
  std::vector<bool> seen(graph.function_count(), false);
  for (const prof::FunctionId id : order) {
    require(id < graph.function_count(), "schedule order id out of range");
    require(!seen[id], "duplicate function in schedule order");
    seen[id] = true;
    full_order.push_back(id);
  }
  for (prof::FunctionId id = 0; id < graph.function_count(); ++id) {
    if (!seen[id]) {
      full_order.push_back(id);
    }
  }

  for (const prof::FunctionId id : full_order) {
    const prof::FunctionProfile& fn = graph.function(id);
    const auto it = by_name.find(fn.name);

    ScheduleStep step;
    step.name = fn.name;
    step.function = id;

    const double work = static_cast<double>(fn.work_units);
    const CalibrationEntry* cal = it != by_name.end() ? it->second : nullptr;
    const double host_cpw = cal != nullptr ? cal->host_cycles_per_work_unit
                                           : 4.0;
    step.sw_cycles = Cycles{
        static_cast<std::uint64_t>(std::llround(work * host_cpw))};

    if (cal != nullptr && cal->is_kernel) {
      step.is_kernel = true;
      step.hw_cycles = Cycles{static_cast<std::uint64_t>(
          std::llround(work * cal->kernel_cycles_per_work_unit))};
      core::KernelSpec spec;
      spec.name = fn.name;
      spec.function = id;
      spec.hw_compute_cycles = step.hw_cycles;
      spec.sw_compute_cycles = step.sw_cycles;
      spec.area_luts = cal->area_luts;
      spec.area_regs = cal->area_regs;
      spec.duplicable = cal->duplicable;
      spec.streaming = cal->streaming;
      step.spec_index = schedule.specs.size();
      schedule.specs.push_back(std::move(spec));
    }
    schedule.steps.push_back(std::move(step));
  }
  return schedule;
}

}  // namespace hybridic::sys
