// Command-line plumbing every HybridIC binary shares: one flag grammar and
// one SIGINT/SIGTERM stop flag.
//
// `--name V` or `--name=V` sets a valued flag; `--name` sets a switch.
// --help prints the usage to stdout and exits 0; --version, where a binary
// declares one, prints its version line and exits 0. An unknown flag, a
// missing or malformed value, or a switch given a value prints the problem
// and the usage to stderr and exits 2.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace hybridic::util {

/// A malformed command line; binaries exit 2 on it.
class UsageError : public std::runtime_error {
public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// `text` as an unsigned integer no larger than `max`; a UsageError naming
/// `flag` otherwise.
[[nodiscard]] std::uint64_t unsigned_flag(const std::string& flag,
                                          const std::string& text,
                                          std::uint64_t max);

/// `text` as a finite number; a UsageError naming `flag` otherwise.
[[nodiscard]] double double_flag(const std::string& flag,
                                 const std::string& text);

class Flags {
public:
  using Setter = std::function<void(const std::string& value)>;

  enum class Outcome { kRun, kHelp, kVersion };

  /// `synopsis` follows "usage: <program> " in the usage text; `details`,
  /// when given, follows it.
  explicit Flags(std::string synopsis, std::string details = {});

  /// Declares --version, which prints `line`.
  Flags& version(std::string line);

  /// A switch: `--name` runs `set`.
  Flags& on(const std::string& name, std::function<void()> set);
  Flags& on(const std::string& name, bool& target);

  /// A valued flag; `set` throws UsageError on a malformed value.
  Flags& value(const std::string& name, Setter set);
  /// A non-empty string.
  Flags& value(const std::string& name, std::string& target);
  Flags& value(const std::string& name, double& target);
  template <std::unsigned_integral Int>
  Flags& value(const std::string& name, Int& target) {
    return value(name, [name, &target](const std::string& text) {
      target = static_cast<Int>(
          unsigned_flag(name, text, std::numeric_limits<Int>::max()));
    });
  }

  /// Arguments that do not start with "--"; without this they are usage
  /// errors.
  Flags& positional(Setter set);

  /// Parse `args` (argv without the program name). Throws UsageError.
  Outcome parse(const std::vector<std::string>& args) const;

  /// parse() argv, then run `check` (which may throw UsageError too), and
  /// exit on --help (0), --version (0) or a usage error (2) as the file
  /// comment describes.
  void parse_or_exit(int argc, char** argv,
                     const std::function<void()>& check = {}) const;

private:
  [[nodiscard]] std::string usage(const std::string& program) const;

  struct Flag {
    Setter set;
    bool takes_value = false;
  };

  std::string synopsis_;
  std::string details_;
  std::string version_;
  std::map<std::string, Flag> flags_;
  Setter positional_;
};

/// Sets `flag` on SIGINT or SIGTERM; nothing clears it. No SA_RESTART, so a
/// blocking read returns early and its loop can see the stop.
void install_stop_signals(std::atomic<bool>& flag);

}  // namespace hybridic::util
