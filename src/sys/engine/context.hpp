// ExecContext: the per-run construction every system variant used to
// repeat — the hardware set, spec lookup tables, design-instance indexes,
// and the assembled Platform. Built once, shared by the walker, the edge
// router, and the fabric policies.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/design_result.hpp"
#include "sys/platform.hpp"
#include "sys/schedule.hpp"

namespace hybridic::sys::engine {

class ExecContext {
public:
  /// Build the shared state for `schedule` on `config`. When `design` is
  /// non-null the platform hosts one BRAM per design instance (plus the
  /// NoC the design plans); otherwise one per schedule spec.
  ExecContext(const AppSchedule& schedule, const PlatformConfig& config,
              const core::DesignResult* design);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  [[nodiscard]] const AppSchedule& schedule() const { return *schedule_; }
  [[nodiscard]] const prof::CommGraph& graph() const {
    return *schedule_->graph;
  }
  [[nodiscard]] const core::DesignResult* design() const { return design_; }
  [[nodiscard]] std::size_t instance_count() const { return instance_count_; }

  /// Functions implemented as hardware kernels (the paper's L_hw).
  [[nodiscard]] const std::set<prof::FunctionId>& hw_set() const {
    return hw_set_;
  }

  /// Spec index of `function`; throws ConfigError naming `role` if the
  /// function has no spec (e.g. "producer function has no spec").
  [[nodiscard]] std::size_t spec_of(prof::FunctionId function,
                                    const char* role) const;

  /// Design instances implementing `spec` (design runs only).
  [[nodiscard]] const std::vector<std::size_t>& instances_of_spec(
      std::size_t spec) const;

  [[nodiscard]] Platform& platform() { return platform_; }
  [[nodiscard]] const sim::ClockDomain& host_clock() const {
    return platform_.host_clock();
  }
  [[nodiscard]] const sim::ClockDomain& kernel_clock() const {
    return platform_.kernel_clock();
  }

private:
  const AppSchedule* schedule_;
  const core::DesignResult* design_;
  std::size_t instance_count_;
  std::set<prof::FunctionId> hw_set_;
  std::map<prof::FunctionId, std::size_t> spec_of_;
  std::map<std::size_t, std::vector<std::size_t>> instances_of_spec_;
  Platform platform_;
};

}  // namespace hybridic::sys::engine
