#include "sys/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace hybridic::sys {

namespace {

/// Chart area width of both renderers, in characters.
constexpr std::uint32_t kWidthChars = 72;

char event_glyph(engine::EventKind kind) {
  switch (kind) {
    case engine::EventKind::kCompute:
      return '#';
    case engine::EventKind::kDmaIn:
    case engine::EventKind::kDmaOut:
      return '=';
    case engine::EventKind::kNocTransfer:
      return '>';
    case engine::EventKind::kSharedHandoff:
      return '*';
    case engine::EventKind::kStall:
      return '.';
    case engine::EventKind::kFault:
      return '!';
    case engine::EventKind::kRetry:
      return 'r';
    case engine::EventKind::kReroute:
      return '~';
  }
  return '?';
}

}  // namespace

std::string render_timeline(const RunResult& result) {
  std::ostringstream out;
  out << "timeline: " << result.system_name << "  total "
      << format_fixed(result.total_seconds * 1e3, 3) << " ms\n";
  if (result.steps.empty() || result.total_seconds <= 0.0) {
    return out.str();
  }

  std::size_t label_width = 4;
  for (const StepTiming& step : result.steps) {
    label_width = std::max(label_width, step.name.size());
  }

  const double scale =
      static_cast<double>(kWidthChars) / result.total_seconds;
  const auto column = [scale](double seconds) {
    return static_cast<std::uint32_t>(std::lround(seconds * scale));
  };

  for (const StepTiming& step : result.steps) {
    const std::uint32_t start = column(step.start_seconds);
    const std::uint32_t end =
        std::max(column(step.done_seconds), start + 1);
    // Within [start, end): communication first (fetch), then compute.
    // The renderer splits proportionally since phases interleave.
    const double span = step.done_seconds - step.start_seconds;
    const double comm_fraction =
        span > 0.0 ? std::min(1.0, step.comm_seconds / span) : 0.0;
    const auto comm_cols = static_cast<std::uint32_t>(
        std::lround(comm_fraction * (end - start)));

    out << step.name << std::string(label_width - step.name.size(), ' ')
        << " |" << std::string(start, ' ');
    const char work = step.is_kernel ? '#' : '=';
    for (std::uint32_t c = start; c < end; ++c) {
      out << (c < start + comm_cols ? '.' : work);
    }
    out << std::string(kWidthChars - std::min(kWidthChars, end), ' ')
        << "| " << format_fixed((step.done_seconds - step.start_seconds) *
                                    1e3,
                                3)
        << " ms\n";
  }
  out << std::string(label_width, ' ') << "  ('#' kernel compute, '='"
      << " host, '.' exposed communication)\n";
  return out.str();
}

std::string render_trace_lanes(const RunResult& result) {
  const engine::ExecTrace& trace = result.trace;
  std::ostringstream out;
  out << "trace: " << result.system_name << "  total "
      << format_fixed(result.total_seconds * 1e3, 3) << " ms\n";
  if (trace.empty() || result.total_seconds <= 0.0) {
    return out.str();
  }

  std::size_t label_width = 4;
  for (std::size_t f = 0; f < engine::kFabricCount; ++f) {
    const auto fabric = static_cast<engine::Fabric>(f);
    if (trace.usage(fabric).ops > 0) {
      label_width = std::max(
          label_width, std::string(engine::fabric_name(fabric)).size());
    }
  }

  const double scale =
      static_cast<double>(kWidthChars) / result.total_seconds;
  const auto column = [&](double seconds) {
    return std::min(kWidthChars,
                    static_cast<std::uint32_t>(
                        std::lround(std::max(0.0, seconds) * scale)));
  };

  for (std::size_t f = 0; f < engine::kFabricCount; ++f) {
    const auto fabric = static_cast<engine::Fabric>(f);
    const engine::FabricUsage& usage = trace.usage(fabric);
    if (usage.ops == 0) {
      continue;
    }
    std::string lane(kWidthChars, ' ');
    for (const std::size_t i : trace.chronological()) {
      const engine::TraceEvent& event = trace.events()[i];
      if (event.fabric != fabric || engine::is_annotation(event.kind)) {
        continue;
      }
      const std::uint32_t start = column(event.start_seconds);
      const std::uint32_t end =
          std::max(column(event.end_seconds),
                   std::min(kWidthChars, start + 1));
      const char glyph = event_glyph(event.kind);
      for (std::uint32_t c = start; c < end; ++c) {
        lane[c] = glyph;
      }
    }
    // Fault/retry/reroute markers paint on top so a transfer painted over
    // the same column cannot hide them (stalls stay implicit gaps).
    for (const std::size_t i : trace.chronological()) {
      const engine::TraceEvent& event = trace.events()[i];
      if (event.fabric != fabric || !engine::is_annotation(event.kind) ||
          event.kind == engine::EventKind::kStall) {
        continue;
      }
      const std::uint32_t start = column(event.start_seconds);
      lane[std::min(kWidthChars - 1, start)] =
          event_glyph(event.kind);
    }
    const std::string name = engine::fabric_name(fabric);
    out << name << std::string(label_width - name.size(), ' ') << " |"
        << lane << "| " << format_fixed(usage.busy_seconds * 1e3, 3)
        << " ms";
    if (usage.bytes > 0) {
      out << ", " << usage.bytes << " B";
    }
    out << '\n';
  }
  out << std::string(label_width, ' ')
      << "  ('#' compute, '=' DMA, '>' NoC/crossbar, '*' handoff,"
      << " '!' fault, 'r' retry, '~' reroute)\n";
  return out.str();
}

}  // namespace hybridic::sys
