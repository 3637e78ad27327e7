#include "sys/experiment.hpp"

#include "util/error.hpp"

namespace hybridic::sys {

core::DesignInput make_design_input(const AppSchedule& schedule,
                                    const PlatformConfig& platform) {
  core::DesignInput input;
  input.graph = schedule.graph;
  input.kernels = schedule.specs;
  input.kernel_clock = platform.kernel_clock;

  // θ: average sec/byte of the idle bus at a representative transfer size.
  input.theta.seconds_per_byte = bus_theta(platform);

  input.stream_overhead_seconds = platform.stream_overhead_seconds;
  input.duplication_overhead_seconds = platform.duplication_overhead_seconds;
  return input;
}

AppExperiment run_experiment(const AppSchedule& schedule,
                             const PlatformConfig& platform,
                             const AppEnvironment& env) {
  require(schedule.graph != nullptr, "experiment schedule has no graph");

  AppExperiment exp;
  exp.app_name = schedule.app_name;

  // Designs.
  core::DesignInput input = make_design_input(schedule, platform);
  exp.proposed_design = core::design_interconnect(input);

  core::DesignInput noc_only_input = input;
  noc_only_input.enable_shared_memory = false;
  noc_only_input.enable_adaptive_mapping = false;
  exp.noc_only_design = core::design_interconnect(noc_only_input);

  // Runs.
  exp.sw = run_software(schedule, platform);
  exp.baseline = run_baseline(schedule, platform);
  exp.proposed = run_designed(schedule, exp.proposed_design, platform,
                              "proposed");
  exp.noc_only = run_designed(schedule, exp.noc_only_design, platform,
                              "noc-only");

  // Resources (Table IV): base infrastructure + bus + kernels
  // (+ interconnect for the custom systems).
  const core::Resources bus_area{
      core::component_cost(core::Component::kBus).luts,
      core::component_cost(core::Component::kBus).regs};

  core::Resources baseline_kernels{0, 0};
  for (const core::KernelSpec& spec : schedule.specs) {
    baseline_kernels += core::Resources{spec.area_luts, spec.area_regs};
  }
  exp.kernel_area =
      core::kernel_resources(exp.proposed_design, schedule.specs);
  exp.interconnect_area =
      core::interconnect_resources(exp.proposed_design);

  exp.baseline_resources =
      env.base_infrastructure + bus_area + baseline_kernels;
  exp.proposed_resources = env.base_infrastructure + bus_area +
                           exp.kernel_area + exp.interconnect_area;
  exp.noc_only_resources =
      env.base_infrastructure + bus_area +
      core::kernel_resources(exp.noc_only_design, schedule.specs) +
      core::interconnect_resources(exp.noc_only_design);

  // Energy (Fig. 9).
  exp.baseline_power_watts =
      core::system_power_watts(exp.baseline_resources, env.power);
  exp.proposed_power_watts =
      core::system_power_watts(exp.proposed_resources, env.power);
  exp.baseline_energy_joules = core::energy_joules(
      exp.baseline_power_watts, exp.baseline.total_seconds);
  exp.proposed_energy_joules = core::energy_joules(
      exp.proposed_power_watts, exp.proposed.total_seconds);

  return exp;
}

}  // namespace hybridic::sys
