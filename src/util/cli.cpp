#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <iostream>

#include "util/text.hpp"

namespace hybridic::util {

std::uint64_t unsigned_flag(const std::string& flag, const std::string& text,
                            std::uint64_t max) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value > max) {
    throw UsageError{flag + " expects an integer in [0, " +
                     std::to_string(max) + "], got '" + text + "'"};
  }
  return value;
}

double double_flag(const std::string& flag, const std::string& text) {
  double value = 0.0;
  if (!parse_double(text, value) || !std::isfinite(value)) {
    throw UsageError{flag + " expects a number, got '" + text + "'"};
  }
  return value;
}

Flags::Flags(std::string synopsis, std::string details)
    : synopsis_(std::move(synopsis)), details_(std::move(details)) {}

Flags& Flags::version(std::string line) {
  version_ = std::move(line);
  return *this;
}

Flags& Flags::on(const std::string& name, std::function<void()> set) {
  flags_[name] = {[set = std::move(set)](const std::string&) { set(); },
                  false};
  return *this;
}

Flags& Flags::on(const std::string& name, bool& target) {
  return on(name, [&target] { target = true; });
}

Flags& Flags::value(const std::string& name, Setter set) {
  flags_[name] = {std::move(set), true};
  return *this;
}

Flags& Flags::value(const std::string& name, std::string& target) {
  return value(name, [name, &target](const std::string& text) {
    if (text.empty()) {
      throw UsageError{name + " needs a non-empty value"};
    }
    target = text;
  });
}

Flags& Flags::value(const std::string& name, double& target) {
  return value(name, [name, &target](const std::string& text) {
    target = double_flag(name, text);
  });
}

Flags& Flags::positional(Setter set) {
  positional_ = std::move(set);
  return *this;
}

Flags::Outcome Flags::parse(const std::vector<std::string>& args) const {
  for (const std::string& arg : args) {
    if (arg == "--help") {
      return Outcome::kHelp;
    }
    if (arg == "--version" && !version_.empty()) {
      return Outcome::kVersion;
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      if (!positional_) {
        throw UsageError{"unexpected argument '" + arg + "'"};
      }
      positional_(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw UsageError{"unknown flag '" + name + "'"};
    }
    if (!it->second.takes_value) {
      if (eq != std::string::npos) {
        throw UsageError{name + " takes no value"};
      }
      it->second.set("");
    } else if (eq != std::string::npos) {
      it->second.set(arg.substr(eq + 1));
    } else if (i + 1 < args.size()) {
      it->second.set(args[++i]);
    } else {
      throw UsageError{name + " needs a value"};
    }
  }
  return Outcome::kRun;
}

void Flags::parse_or_exit(int argc, char** argv,
                          const std::function<void()>& check) const {
  const std::string program = argc > 0 ? argv[0] : "";
  Outcome outcome = Outcome::kRun;
  try {
    outcome = parse({argv + std::min(argc, 1), argv + argc});
    if (outcome == Outcome::kRun && check) {
      check();
    }
  } catch (const UsageError& error) {
    std::cerr << program << ": " << error.what() << "\n" << usage(program);
    std::exit(2);
  }
  if (outcome == Outcome::kHelp) {
    std::cout << usage(program);
    std::exit(0);
  }
  if (outcome == Outcome::kVersion) {
    std::cout << version_ << "\n";
    std::exit(0);
  }
}

std::string Flags::usage(const std::string& program) const {
  return "usage: " + program + (synopsis_.empty() ? "" : " ") + synopsis_ +
         "\n" + details_;
}

namespace {

std::atomic<bool>* g_stop_flag = nullptr;

void on_stop_signal(int) {
  g_stop_flag->store(true, std::memory_order_relaxed);
}

}  // namespace

void install_stop_signals(std::atomic<bool>& flag) {
  g_stop_flag = &flag;
  struct sigaction sa {};
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace hybridic::util
