#include "store/codec.hpp"

#include <sstream>

#include "util/text.hpp"

namespace hybridic::store {

using util::hexf;
using util::parse_bool;
using util::parse_double;
using util::parse_u64;
using util::split_fields;

constexpr const char* kProfileMagic = "profile 1";
constexpr const char* kEstimateMagic = "estimate 2";

std::string encode_profile(const apps::ProfiledApp& app) {
  const prof::ProfileSnapshot snap = app.profiler->snapshot();
  std::ostringstream out;
  out << kProfileMagic << '\n';
  out << "name " << app.name.size() << '\n' << app.name << '\n';
  out << "verified " << (app.verified ? 1 : 0) << '\n';
  out << "note " << app.verification_note.size() << '\n'
      << app.verification_note << '\n';
  out << "env " << app.environment.base_infrastructure.luts << ' '
      << app.environment.base_infrastructure.regs << ' '
      << hexf(app.environment.power.static_watts) << ' '
      << hexf(app.environment.power.watts_per_kilo_lut) << ' '
      << hexf(app.environment.power.watts_per_kilo_reg) << '\n';
  out << "functions " << snap.functions.size() << '\n';
  for (const prof::ProfileSnapshot::Function& fn : snap.functions) {
    out << "fn " << fn.name.size() << '\n' << fn.name << '\n';
    out << fn.work_units << ' ' << fn.reads << ' ' << fn.writes << ' '
        << fn.calls << ' ' << fn.unique_bytes_read << ' '
        << fn.unique_bytes_written << '\n';
  }
  out << "edges " << snap.edges.size() << '\n';
  for (const prof::ProfileSnapshot::Edge& edge : snap.edges) {
    out << edge.producer << ' ' << edge.consumer << ' ' << edge.bytes << ' '
        << edge.unique_addresses << '\n';
  }
  out << "order " << snap.call_order.size() << '\n';
  for (const prof::FunctionId id : snap.call_order) {
    out << "o " << id << '\n';
  }
  out << "calibration " << app.calibration.size() << '\n';
  for (const sys::CalibrationEntry& cal : app.calibration) {
    out << "cal " << cal.function.size() << '\n' << cal.function << '\n';
    out << hexf(cal.host_cycles_per_work_unit) << ' '
        << hexf(cal.kernel_cycles_per_work_unit) << ' ' << cal.area_luts
        << ' ' << cal.area_regs << ' ' << (cal.is_kernel ? 1 : 0) << ' '
        << (cal.duplicable ? 1 : 0) << ' ' << (cal.streaming ? 1 : 0)
        << '\n';
  }
  return out.str();
}

std::shared_ptr<const apps::ProfiledApp> decode_profile(
    const std::string& payload) {
  util::LineReader reader{payload};
  if (!reader.take_exact(kProfileMagic)) {
    return nullptr;
  }
  apps::ProfiledApp app;
  std::string rest;
  if (!reader.take_sized("name", app.name)) {
    return nullptr;
  }
  bool verified = false;
  if (!reader.take_tagged("verified", rest) ||
      !parse_bool(rest, verified)) {
    return nullptr;
  }
  app.verified = verified;
  if (!reader.take_sized("note", app.verification_note)) {
    return nullptr;
  }
  if (!reader.take_tagged("env", rest)) {
    return nullptr;
  }
  {
    const auto fields = split_fields(rest);
    if (fields.size() != 5 ||
        !parse_u64(fields[0], app.environment.base_infrastructure.luts) ||
        !parse_u64(fields[1], app.environment.base_infrastructure.regs) ||
        !parse_double(fields[2], app.environment.power.static_watts) ||
        !parse_double(fields[3], app.environment.power.watts_per_kilo_lut) ||
        !parse_double(fields[4], app.environment.power.watts_per_kilo_reg)) {
      return nullptr;
    }
  }

  prof::ProfileSnapshot snap;
  std::uint64_t count = 0;
  if (!reader.take_tagged("functions", rest) ||
      !parse_u64(rest, count) || count > 1'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    prof::ProfileSnapshot::Function fn;
    if (!reader.take_sized("fn", fn.name) || !reader.take_line(rest)) {
      return nullptr;
    }
    const auto fields = split_fields(rest);
    if (fields.size() != 6 || !parse_u64(fields[0], fn.work_units) ||
        !parse_u64(fields[1], fn.reads) ||
        !parse_u64(fields[2], fn.writes) ||
        !parse_u64(fields[3], fn.calls) ||
        !parse_u64(fields[4], fn.unique_bytes_read) ||
        !parse_u64(fields[5], fn.unique_bytes_written)) {
      return nullptr;
    }
    snap.functions.push_back(std::move(fn));
  }
  if (!reader.take_tagged("edges", rest) ||
      !parse_u64(rest, count) || count > 100'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    prof::ProfileSnapshot::Edge edge;
    std::uint64_t producer = 0;
    std::uint64_t consumer = 0;
    if (!reader.take_line(rest)) {
      return nullptr;
    }
    const auto fields = split_fields(rest);
    if (fields.size() != 4 || !parse_u64(fields[0], producer) ||
        !parse_u64(fields[1], consumer) ||
        !parse_u64(fields[2], edge.bytes) ||
        !parse_u64(fields[3], edge.unique_addresses) ||
        producer >= snap.functions.size() ||
        consumer >= snap.functions.size()) {
      return nullptr;
    }
    edge.producer = static_cast<prof::FunctionId>(producer);
    edge.consumer = static_cast<prof::FunctionId>(consumer);
    snap.edges.push_back(edge);
  }
  if (!reader.take_tagged("order", rest) ||
      !parse_u64(rest, count) || count > snap.functions.size()) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    if (!reader.take_tagged("o", rest) || !parse_u64(rest, id) ||
        id >= snap.functions.size()) {
      return nullptr;
    }
    snap.call_order.push_back(static_cast<prof::FunctionId>(id));
  }
  if (!reader.take_tagged("calibration", rest) ||
      !parse_u64(rest, count) || count > 1'000'000) {
    return nullptr;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    sys::CalibrationEntry cal;
    if (!reader.take_sized("cal", cal.function) ||
        !reader.take_line(rest)) {
      return nullptr;
    }
    const auto fields = split_fields(rest);
    std::uint64_t luts = 0;
    std::uint64_t regs = 0;
    if (fields.size() != 7 ||
        !parse_double(fields[0], cal.host_cycles_per_work_unit) ||
        !parse_double(fields[1], cal.kernel_cycles_per_work_unit) ||
        !parse_u64(fields[2], luts) ||
        !parse_u64(fields[3], regs) ||
        !parse_bool(fields[4], cal.is_kernel) ||
        !parse_bool(fields[5], cal.duplicable) ||
        !parse_bool(fields[6], cal.streaming) || luts > UINT32_MAX ||
        regs > UINT32_MAX) {
      return nullptr;
    }
    cal.area_luts = static_cast<std::uint32_t>(luts);
    cal.area_regs = static_cast<std::uint32_t>(regs);
    app.calibration.push_back(std::move(cal));
  }
  if (!reader.at_end()) {
    return nullptr;  // Trailing garbage: treat as damage.
  }
  try {
    app.profiler = prof::QuadProfiler::from_snapshot(snap);
  } catch (...) {
    return nullptr;  // Inconsistent snapshot (e.g. duplicate names).
  }
  return std::make_shared<const apps::ProfiledApp>(std::move(app));
}

std::string encode_estimate(const tiers::TierEstimate& e) {
  std::ostringstream out;
  out << kEstimateMagic << '\n';
  out << "tag " << e.solution_tag.size() << '\n' << e.solution_tag << '\n';
  out << "theta " << hexf(e.theta_seconds_per_byte) << '\n';
  out << "baseline " << hexf(e.baseline_kernel_seconds) << '\n';
  out << "designed " << hexf(e.designed_kernel_seconds) << '\n';
  out << "band " << hexf(e.designed_lower_seconds) << ' '
      << hexf(e.designed_upper_seconds) << ' '
      << hexf(e.baseline_lower_seconds) << ' '
      << hexf(e.baseline_upper_seconds) << '\n';
  out << "noc " << e.noc_edges << ' ' << e.noc_volume_bytes << ' '
      << e.noc_hop_bytes << ' ' << e.noc_max_link_bytes << '\n';
  out << "noct " << hexf(e.noc_transfer_seconds) << '\n';
  out << "iboard " << e.inter_board_edges << ' ' << e.inter_board_bytes
      << ' ' << e.inter_board_hop_bytes << '\n';
  out << "iboardt " << hexf(e.inter_board_seconds) << '\n';
  out << "ckey " << e.congruence_key << '\n';
  return out.str();
}

std::optional<tiers::TierEstimate> decode_estimate(
    const std::string& payload) {
  util::LineReader reader{payload};
  if (!reader.take_exact(kEstimateMagic)) {
    return std::nullopt;
  }
  tiers::TierEstimate e;
  std::string rest;
  if (!reader.take_sized("tag", e.solution_tag) ||
      !reader.take_tagged("theta", rest) ||
      !parse_double(rest, e.theta_seconds_per_byte) ||
      !reader.take_tagged("baseline", rest) ||
      !parse_double(rest, e.baseline_kernel_seconds) ||
      !reader.take_tagged("designed", rest) ||
      !parse_double(rest, e.designed_kernel_seconds)) {
    return std::nullopt;
  }
  if (!reader.take_tagged("band", rest)) {
    return std::nullopt;
  }
  {
    const auto fields = split_fields(rest);
    if (fields.size() != 4 ||
        !parse_double(fields[0], e.designed_lower_seconds) ||
        !parse_double(fields[1], e.designed_upper_seconds) ||
        !parse_double(fields[2], e.baseline_lower_seconds) ||
        !parse_double(fields[3], e.baseline_upper_seconds)) {
      return std::nullopt;
    }
  }
  if (!reader.take_tagged("noc", rest)) {
    return std::nullopt;
  }
  {
    const auto fields = split_fields(rest);
    if (fields.size() != 4 ||
        !parse_u64(fields[0], e.noc_edges) ||
        !parse_u64(fields[1], e.noc_volume_bytes) ||
        !parse_u64(fields[2], e.noc_hop_bytes) ||
        !parse_u64(fields[3], e.noc_max_link_bytes)) {
      return std::nullopt;
    }
  }
  if (!reader.take_tagged("noct", rest) ||
      !parse_double(rest, e.noc_transfer_seconds)) {
    return std::nullopt;
  }
  if (!reader.take_tagged("iboard", rest)) {
    return std::nullopt;
  }
  {
    const auto fields = split_fields(rest);
    if (fields.size() != 3 ||
        !parse_u64(fields[0], e.inter_board_edges) ||
        !parse_u64(fields[1], e.inter_board_bytes) ||
        !parse_u64(fields[2], e.inter_board_hop_bytes)) {
      return std::nullopt;
    }
  }
  if (!reader.take_tagged("iboardt", rest) ||
      !parse_double(rest, e.inter_board_seconds) ||
      !reader.take_tagged("ckey", rest) ||
      !parse_u64(rest, e.congruence_key) || !reader.at_end()) {
    return std::nullopt;
  }
  return e;
}

}  // namespace hybridic::store
