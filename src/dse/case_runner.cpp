#include "dse/case_runner.hpp"

#include <utility>

#include "sys/executor.hpp"

namespace hybridic::dse {

DesignCase run_design_case(const apps::SyntheticConfig& config,
                           apps::ProfileCache* cache) {
  DesignCase c;
  c.config = config;
  c.app = cache != nullptr
              ? cache->synthetic_app(config)
              : std::make_shared<const apps::ProfiledApp>(
                    apps::make_synthetic_app(config));
  c.schedule = c.app->schedule();

  const sys::PlatformConfig platform;
  c.theta_seconds_per_byte =
      sys::make_design_input(c.schedule, platform).theta.seconds_per_byte;

  c.exp = sys::run_experiment(c.schedule, platform, c.app->environment);
  c.crossbar = sys::run_crossbar_system(c.schedule, platform);
  c.pipelined = sys::run_designed_pipelined(
      c.schedule, c.exp.proposed_design, platform, c.frame_count);
  c.baseline_frames =
      sys::run_baseline_frames(c.schedule, platform, c.frame_count);

  // Level-one board partition + per-board designs + multi-board run, on a
  // uniform platform per board. Single-board configs skip this entirely,
  // keeping the case (and every byte derived from it) identical to the
  // pre-multi-board pipeline.
  if (config.board_count > 1) {
    core::MultiBoardDesignInput input;
    input.base = sys::make_design_input(c.schedule, platform);
    input.board_count = config.board_count;
    auto design = std::make_shared<core::MultiBoardDesign>(
        core::design_multi_board(input));
    sys::MultiBoardConfig mbc;
    mbc.board = platform;
    mbc.board_count = config.board_count;
    mbc.topology = core::parse_board_topology(config.board_topology);
    c.multi_run = std::make_shared<const sys::MultiBoardRunResult>(
        sys::run_designed_multi(c.schedule, *design, mbc));
    c.multi_design = std::move(design);
  }
  return c;
}

}  // namespace hybridic::dse
