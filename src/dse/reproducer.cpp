#include "dse/reproducer.hpp"

#include <fstream>
#include <sstream>

#include "dse/case_runner.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/text.hpp"

namespace hybridic::dse {
namespace {

using util::decimal17;
using util::json_escape;
using util::JsonObject;
using util::JsonValue;

/// Removes `key` from `fields` (the object named `where`) and returns its
/// value; a ConfigError naming the field when it is absent or not a
/// `kind`.
JsonValue take(JsonObject& fields, const std::string& where,
               const std::string& key, JsonValue::Kind kind) {
  const auto it = fields.find(key);
  require(it != fields.end(), where + " missing field: " + key);
  require(it->second.kind == kind, where + " field " + key +
                                       " has the wrong type");
  JsonValue value = std::move(it->second);
  fields.erase(it);
  return value;
}

std::uint64_t take_u64(JsonObject& fields, const std::string& where,
                       const std::string& key,
                       std::uint64_t max = UINT64_MAX) {
  const std::string text =
      take(fields, where, key, JsonValue::Kind::kNumber).text;
  std::uint64_t value = 0;
  require(util::parse_u64(text, value) && value <= max,
          where + " field " + key + " must be an integer in [0, " +
              std::to_string(max) + "], got " + text);
  return value;
}

std::uint32_t take_u32(JsonObject& fields, const std::string& where,
                       const std::string& key) {
  return static_cast<std::uint32_t>(take_u64(fields, where, key, UINT32_MAX));
}

double take_double(JsonObject& fields, const std::string& where,
                   const std::string& key) {
  const std::string text =
      take(fields, where, key, JsonValue::Kind::kNumber).text;
  double value = 0.0;
  require(util::parse_double(text, value),
          where + " field " + key + " is not a number: " + text);
  return value;
}

std::string take_string(JsonObject& fields, const std::string& where,
                        const std::string& key) {
  return take(fields, where, key, JsonValue::Kind::kString).text;
}

}  // namespace

std::string to_json(const Reproducer& r) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": " << r.schema << ",\n";
  out << "  \"oracle\": \"" << json_escape(r.oracle) << "\",\n";
  out << "  \"expect\": \""
      << (r.expect == Expectation::kFail ? "fail" : "pass") << "\",\n";
  out << "  \"message\": \"" << json_escape(r.message) << "\",\n";
  out << "  \"config\": {\n";
  out << "    \"kernel_count\": " << r.config.kernel_count << ",\n";
  out << "    \"host_function_count\": " << r.config.host_function_count
      << ",\n";
  out << "    \"kernel_edge_probability\": "
      << decimal17(r.config.kernel_edge_probability) << ",\n";
  out << "    \"min_edge_bytes\": " << r.config.min_edge_bytes << ",\n";
  out << "    \"max_edge_bytes\": " << r.config.max_edge_bytes << ",\n";
  out << "    \"min_work_units\": " << r.config.min_work_units << ",\n";
  out << "    \"max_work_units\": " << r.config.max_work_units << ",\n";
  out << "    \"duplicable_probability\": "
      << decimal17(r.config.duplicable_probability) << ",\n";
  out << "    \"streaming_probability\": "
      << decimal17(r.config.streaming_probability) << ",\n";
  // Board fields only appear for multi-board configs, so every
  // single-board reproducer (including the checked-in fixtures) keeps its
  // historical byte-exact shape.
  if (r.config.board_count > 1) {
    out << "    \"board_count\": " << r.config.board_count << ",\n";
    out << "    \"board_topology\": \"" << json_escape(r.config.board_topology)
        << "\",\n";
  }
  out << "    \"seed\": " << r.config.seed << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

Reproducer parse_reproducer(const std::string& json) {
  JsonObject top;
  std::string error;
  if (!util::parse_json_object(json, top, error)) {
    throw ConfigError{"malformed reproducer JSON: " + error};
  }
  const std::string where = "reproducer";

  Reproducer r;
  const std::uint32_t schema = take_u32(top, where, "schema");
  require(schema == 1, "unsupported reproducer schema version: " +
                           std::to_string(schema));
  r.oracle = take_string(top, where, "oracle");
  const std::string expect = take_string(top, where, "expect");
  require(expect == "pass" || expect == "fail",
          "reproducer expect must be \"pass\" or \"fail\", got \"" + expect +
              "\"");
  r.expect = expect == "fail" ? Expectation::kFail : Expectation::kPass;
  if (top.count("message") != 0) {
    r.message = take_string(top, where, "message");
  }

  JsonObject config = *take(top, where, "config", JsonValue::Kind::kObject)
                           .members;
  const std::string in = "reproducer config";
  r.config.kernel_count = take_u32(config, in, "kernel_count");
  r.config.host_function_count = take_u32(config, in, "host_function_count");
  r.config.kernel_edge_probability =
      take_double(config, in, "kernel_edge_probability");
  r.config.min_edge_bytes = take_u64(config, in, "min_edge_bytes");
  r.config.max_edge_bytes = take_u64(config, in, "max_edge_bytes");
  r.config.min_work_units = take_u64(config, in, "min_work_units");
  r.config.max_work_units = take_u64(config, in, "max_work_units");
  r.config.duplicable_probability =
      take_double(config, in, "duplicable_probability");
  r.config.streaming_probability =
      take_double(config, in, "streaming_probability");
  // Optional multi-board fields (absent in single-board reproducers).
  if (config.count("board_count") != 0) {
    r.config.board_count = take_u32(config, in, "board_count");
  }
  if (config.count("board_topology") != 0) {
    r.config.board_topology = take_string(config, in, "board_topology");
  }
  r.config.seed = take_u64(config, in, "seed");
  if (!config.empty()) {
    throw ConfigError{"reproducer config has unknown field: " +
                      config.begin()->first};
  }
  return r;
}

Reproducer load_reproducer(const std::string& path) {
  std::ifstream in{path};
  require(in.good(), "cannot read reproducer file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_reproducer(buffer.str());
}

OracleResult replay(const Reproducer& reproducer,
                    const OracleBounds& bounds) {
  const Oracle oracle = find_oracle(reproducer.oracle, bounds);
  const DesignCase c = run_design_case(reproducer.config);
  return oracle.check(c);
}

std::string reproducer_file_name(const Reproducer& reproducer) {
  return reproducer.oracle + "-seed" +
         std::to_string(reproducer.config.seed) + ".json";
}

}  // namespace hybridic::dse
