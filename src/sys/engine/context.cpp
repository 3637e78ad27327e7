#include "sys/engine/context.hpp"

#include "util/error.hpp"

namespace hybridic::sys::engine {

ExecContext::ExecContext(const AppSchedule& schedule,
                         const PlatformConfig& config,
                         const core::DesignResult* design)
    : schedule_(&schedule),
      design_(design),
      instance_count_(design != nullptr ? design->instances.size()
                                        : schedule.specs.size()),
      platform_(config, instance_count_, design) {
  for (std::size_t s = 0; s < schedule.specs.size(); ++s) {
    hw_set_.insert(schedule.specs[s].function);
    // First spec wins on duplicates, matching the executors' historical
    // first-match linear search.
    spec_of_.emplace(schedule.specs[s].function, s);
  }
  if (design != nullptr) {
    for (std::size_t i = 0; i < design->instances.size(); ++i) {
      require(design->instances[i].spec_index < schedule.specs.size(),
              "design references a spec outside the schedule");
      instances_of_spec_[design->instances[i].spec_index].push_back(i);
    }
  }
}

std::size_t ExecContext::spec_of(prof::FunctionId function,
                                 const char* role) const {
  const auto it = spec_of_.find(function);
  if (it == spec_of_.end()) {
    throw ConfigError{std::string{role} + " has no spec"};
  }
  return it->second;
}

const std::vector<std::size_t>& ExecContext::instances_of_spec(
    std::size_t spec) const {
  return instances_of_spec_.at(spec);
}

}  // namespace hybridic::sys::engine
