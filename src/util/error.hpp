// Error types for HybridIC. Construction/configuration errors throw;
// simulation-hot paths use assertions and never throw.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hybridic {

/// Invalid configuration supplied by the user (bad topology size, unknown
/// component name, inconsistent application description, ...).
class ConfigError : public std::runtime_error {
public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Internal invariant violated during simulation; indicates a bug in the
/// library rather than in user input.
class SimulationError : public std::logic_error {
public:
  explicit SimulationError(const std::string& what) : std::logic_error(what) {}
};

/// A simulation that did not run to completion: either the watchdog limit
/// expired with fabric operations still outstanding, or the event queue
/// drained while operations were pending (a deadlock). Carries the stuck-op
/// diagnostics so callers (CLI, batch jobs) can report them without string
/// parsing, and so one hung job fails structurally instead of wedging the
/// whole batch.
class SimTimeoutError : public std::runtime_error {
public:
  SimTimeoutError(const std::string& what, std::vector<std::string> stuck_ops,
                  double sim_time_seconds, bool watchdog_expired)
      : std::runtime_error(what),
        stuck_ops_(std::move(stuck_ops)),
        sim_time_seconds_(sim_time_seconds),
        watchdog_expired_(watchdog_expired) {}

  /// Labels of the operations that never completed.
  [[nodiscard]] const std::vector<std::string>& stuck_ops() const {
    return stuck_ops_;
  }
  /// Simulated time at which the run gave up.
  [[nodiscard]] double sim_time_seconds() const { return sim_time_seconds_; }
  /// True when the watchdog limit expired with events still queued; false
  /// when the event queue drained with operations pending (deadlock).
  [[nodiscard]] bool watchdog_expired() const { return watchdog_expired_; }

private:
  std::vector<std::string> stuck_ops_;
  double sim_time_seconds_ = 0.0;
  bool watchdog_expired_ = false;
};

// Checks on per-call paths pass a string literal, which costs nothing while
// the check passes; binding it to a `std::string` would build (and past
// libstdc++'s 15-character inline buffer, heap-allocate) the message on
// every call. A message that needs context is concatenated only on the
// throwing path:
//   if (!ok) { throw ConfigError{"... " + name}; }
// require's `std::string` overload is for cold paths (file and reproducer
// I/O) whose messages are built before the check.

/// Throw a ConfigError unless `condition` holds.
inline void require(bool condition, const char* message) {
  if (!condition) {
    throw ConfigError{message};
  }
}

/// Throw a ConfigError unless `condition` holds (message built by caller).
inline void require(bool condition, const std::string& message) {
  if (!condition) {
    throw ConfigError{message};
  }
}

/// Throw a SimulationError unless `condition` holds.
inline void sim_assert(bool condition, const char* message) {
  if (!condition) {
    throw SimulationError{message};
  }
}

}  // namespace hybridic
