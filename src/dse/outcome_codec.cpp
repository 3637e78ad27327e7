#include "dse/outcome_codec.hpp"

#include <sstream>
#include <vector>

#include "store/codec.hpp"
#include "util/text.hpp"

namespace hybridic::dse {

using util::hexf;
using util::parse_bool;
using util::parse_double;
using util::parse_u32;
using util::parse_u64;
using util::split_fields;

constexpr const char* kMagic = "outcome 1";

std::string encode_outcome(const CaseOutcome& o) {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "index " << o.index << '\n';
  const apps::SyntheticConfig& c = o.config;
  out << "config " << c.kernel_count << ' ' << c.host_function_count << ' '
      << hexf(c.kernel_edge_probability) << ' ' << c.min_edge_bytes << ' '
      << c.max_edge_bytes << ' ' << c.min_work_units << ' '
      << c.max_work_units << ' ' << hexf(c.duplicable_probability) << ' '
      << hexf(c.streaming_probability) << ' ' << c.seed << ' '
      << c.board_count << '\n';
  out << "topology " << c.board_topology.size() << '\n'
      << c.board_topology << '\n';
  out << "tag " << o.solution_tag.size() << '\n' << o.solution_tag << '\n';
  out << "times " << hexf(o.baseline_seconds) << ' '
      << hexf(o.designed_seconds) << ' ' << hexf(o.crossbar_seconds) << ' '
      << hexf(o.pipelined_makespan_seconds) << ' '
      << hexf(o.measured_designed_kernel_seconds) << '\n';
  out << "flags " << (o.simulated ? 1 : 0) << ' '
      << static_cast<unsigned>(o.escalation) << ' '
      << (o.band_violation ? 1 : 0) << ' ' << (o.quarantined ? 1 : 0) << ' '
      << (o.skipped ? 1 : 0) << '\n';
  out << "multi " << hexf(o.multi_total_seconds) << ' ' << o.cut_bytes
      << ' ' << o.inter_board_bytes << ' ' << o.board_link_reroutes << '\n';
  out << "oracles " << o.oracles.size() << '\n';
  for (const OracleResult& r : o.oracles) {
    out << "oracle " << (r.pass ? 1 : 0) << ' ' << r.oracle.size() << '\n'
        << r.oracle << '\n';
    out << "msg " << r.message.size() << '\n' << r.message << '\n';
  }
  out << "error " << o.error.size() << '\n' << o.error << '\n';
  if (o.analytic.has_value()) {
    const std::string blob = store::encode_estimate(*o.analytic);
    out << "analytic " << blob.size() << '\n' << blob << '\n';
  } else {
    out << "analytic -\n";
  }
  // Optional searched record (--search campaigns only): absent on every
  // pre-search ledger, so old journals decode exactly as before.
  if (o.searched.has_value()) {
    const search::SearchRecord& s = *o.searched;
    out << "searched-tag " << s.solution_tag.size() << '\n'
        << s.solution_tag << '\n';
    out << "searched " << hexf(s.analytic_seconds) << ' '
        << hexf(s.algorithm1_analytic_seconds) << ' ' << hexf(s.gain) << ' '
        << s.luts << ' ' << s.algorithm1_luts << ' ' << s.best_restart
        << ' ' << s.proposed << ' ' << s.accepted << ' '
        << s.rejected_illegal << ' ' << s.cache_hits << '\n';
  }
  out << "end\n";
  return out.str();
}

std::optional<CaseOutcome> decode_outcome(const std::string& payload) {
  util::LineReader reader{payload};
  if (!reader.take_exact(kMagic)) {
    return std::nullopt;
  }
  CaseOutcome o;
  std::string rest;
  if (!reader.take_tagged("index", rest) ||
      !parse_u64(rest, o.index)) {
    return std::nullopt;
  }
  if (!reader.take_tagged("config", rest)) {
    return std::nullopt;
  }
  {
    const std::vector<std::string> f = split_fields(rest);
    apps::SyntheticConfig& c = o.config;
    if (f.size() != 11 || !parse_u32(f[0], c.kernel_count) ||
        !parse_u32(f[1], c.host_function_count) ||
        !parse_double(f[2], c.kernel_edge_probability) ||
        !parse_u64(f[3], c.min_edge_bytes) ||
        !parse_u64(f[4], c.max_edge_bytes) ||
        !parse_u64(f[5], c.min_work_units) ||
        !parse_u64(f[6], c.max_work_units) ||
        !parse_double(f[7], c.duplicable_probability) ||
        !parse_double(f[8], c.streaming_probability) ||
        !parse_u64(f[9], c.seed) ||
        !parse_u32(f[10], c.board_count)) {
      return std::nullopt;
    }
  }
  if (!reader.take_sized("topology", o.config.board_topology) ||
      !reader.take_sized("tag", o.solution_tag)) {
    return std::nullopt;
  }
  if (!reader.take_tagged("times", rest)) {
    return std::nullopt;
  }
  {
    const std::vector<std::string> f = split_fields(rest);
    if (f.size() != 5 || !parse_double(f[0], o.baseline_seconds) ||
        !parse_double(f[1], o.designed_seconds) ||
        !parse_double(f[2], o.crossbar_seconds) ||
        !parse_double(f[3], o.pipelined_makespan_seconds) ||
        !parse_double(f[4], o.measured_designed_kernel_seconds)) {
      return std::nullopt;
    }
  }
  if (!reader.take_tagged("flags", rest)) {
    return std::nullopt;
  }
  {
    const std::vector<std::string> f = split_fields(rest);
    std::uint64_t escalation = 0;
    if (f.size() != 5 || !parse_bool(f[0], o.simulated) ||
        !parse_u64(f[1], escalation) || escalation > 3 ||
        !parse_bool(f[2], o.band_violation) ||
        !parse_bool(f[3], o.quarantined) || !parse_bool(f[4], o.skipped)) {
      return std::nullopt;
    }
    o.escalation = static_cast<tiers::EscalationReason>(escalation);
  }
  if (!reader.take_tagged("multi", rest)) {
    return std::nullopt;
  }
  {
    const std::vector<std::string> f = split_fields(rest);
    if (f.size() != 4 ||
        !parse_double(f[0], o.multi_total_seconds) ||
        !parse_u64(f[1], o.cut_bytes) ||
        !parse_u64(f[2], o.inter_board_bytes) ||
        !parse_u64(f[3], o.board_link_reroutes)) {
      return std::nullopt;
    }
  }
  std::uint64_t oracle_count = 0;
  if (!reader.take_tagged("oracles", rest) ||
      !parse_u64(rest, oracle_count) || oracle_count > 1024) {
    return std::nullopt;
  }
  for (std::uint64_t i = 0; i < oracle_count; ++i) {
    OracleResult r;
    if (!reader.take_tagged("oracle", rest)) {
      return std::nullopt;
    }
    // "oracle <pass> <name length>" then the name bytes on their own line
    // (re-using take_sized's tail by splitting the pass flag off first).
    const std::size_t sp = rest.find(' ');
    std::uint64_t name_len = 0;
    if (sp == std::string::npos ||
        !parse_bool(rest.substr(0, sp), r.pass) ||
        !parse_u64(rest.substr(sp + 1), name_len)) {
      return std::nullopt;
    }
    std::string name_line;
    if (!reader.take_line(name_line) || name_line.size() != name_len) {
      return std::nullopt;
    }
    r.oracle = std::move(name_line);
    if (!reader.take_sized("msg", r.message)) {
      return std::nullopt;
    }
    o.oracles.push_back(std::move(r));
  }
  if (!reader.take_sized("error", o.error)) {
    return std::nullopt;
  }
  if (!reader.take_tagged("analytic", rest)) {
    return std::nullopt;
  }
  if (rest != "-") {
    std::uint64_t blob_len = 0;
    if (!parse_u64(rest, blob_len)) {
      return std::nullopt;
    }
    std::string blob;
    if (!reader.take_raw(blob_len, blob)) {
      return std::nullopt;
    }
    std::optional<tiers::TierEstimate> estimate =
        store::decode_estimate(blob);
    if (!estimate.has_value()) {
      return std::nullopt;
    }
    o.analytic = std::move(estimate);
  }
  // The next line is either the terminator or the optional searched
  // record (absent on pre-search ledgers).
  std::string line;
  if (!reader.take_line(line)) {
    return std::nullopt;
  }
  if (line != "end") {
    const std::string tag = "searched-tag ";
    std::uint64_t tag_len = 0;
    search::SearchRecord s;
    if (line.rfind(tag, 0) != 0 ||
        !parse_u64(line.substr(tag.size()), tag_len) ||
        !reader.take_raw(tag_len, s.solution_tag) ||
        !reader.take_tagged("searched", rest)) {
      return std::nullopt;
    }
    const std::vector<std::string> f = split_fields(rest);
    if (f.size() != 10 ||
        !parse_double(f[0], s.analytic_seconds) ||
        !parse_double(f[1], s.algorithm1_analytic_seconds) ||
        !parse_double(f[2], s.gain) ||
        !parse_u64(f[3], s.luts) ||
        !parse_u64(f[4], s.algorithm1_luts) ||
        !parse_u32(f[5], s.best_restart) ||
        !parse_u64(f[6], s.proposed) ||
        !parse_u64(f[7], s.accepted) ||
        !parse_u64(f[8], s.rejected_illegal) ||
        !parse_u64(f[9], s.cache_hits)) {
      return std::nullopt;
    }
    o.searched = std::move(s);
    if (!reader.take_exact("end")) {
      return std::nullopt;
    }
  }
  if (!reader.at_end()) {
    return std::nullopt;
  }
  return o;
}

}  // namespace hybridic::dse
