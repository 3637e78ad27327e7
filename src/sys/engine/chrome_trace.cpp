#include "sys/engine/chrome_trace.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace hybridic::sys::engine {
namespace {

// Chrome-trace timestamps are microseconds; print with sub-ns resolution
// so picosecond-scale events stay distinct.
std::string micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  return buf;
}

}  // namespace

void write_chrome_trace(const ExecTrace& trace,
                        const std::string& system_name, std::ostream& out) {
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  const auto emit_comma = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };
  // Metadata: name the process after the system variant, one named thread
  // (track) per fabric.
  emit_comma();
  out << "    {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \""
      << util::json_escape(system_name) << "\"}}";
  for (std::size_t f = 0; f < kFabricCount; ++f) {
    // The inter-board track only exists on multi-board runs; single-board
    // traces stay byte-identical to what they were before that fabric
    // existed (the golden trace fixtures pin this).
    const Fabric fabric = static_cast<Fabric>(f);
    if (fabric == Fabric::kInterBoard &&
        trace.usage(fabric).ops == 0) {
      continue;
    }
    emit_comma();
    out << "    {\"ph\": \"M\", \"pid\": 0, \"tid\": " << f
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << fabric_name(fabric) << "\"}}";
  }
  for (const std::size_t i : trace.chronological()) {
    const TraceEvent& event = trace.events()[i];
    emit_comma();
    // Zero-duration fault/retry/reroute annotations export as thread-scoped
    // instant events so Perfetto draws a visible marker, not a 0-width slice.
    const bool instant = is_annotation(event.kind) &&
                         event.kind != EventKind::kStall;
    out << "    {\"ph\": \"" << (instant ? 'i' : 'X')
        << "\", \"pid\": 0, \"tid\": "
        << static_cast<unsigned>(event.fabric) << ", \"name\": \""
        << util::json_escape(event.label) << "\", \"cat\": \""
        << event_kind_name(event.kind) << "\", \"ts\": "
        << micros(event.start_seconds);
    if (instant) {
      out << ", \"s\": \"t\"";
    } else {
      out << ", \"dur\": " << micros(event.end_seconds - event.start_seconds);
    }
    out << ", \"args\": {\"step\": " << event.step_index
        << ", \"bytes\": " << event.bytes << "}}";
  }
  out << "\n  ]\n}\n";
}

std::string chrome_trace_json(const ExecTrace& trace,
                              const std::string& system_name) {
  std::ostringstream out;
  write_chrome_trace(trace, system_name, out);
  return out.str();
}

}  // namespace hybridic::sys::engine
