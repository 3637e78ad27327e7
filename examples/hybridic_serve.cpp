// hybridic_serve: a supervised JSON-lines front end over the pipeline.
//
// Reads one flat JSON object per stdin line, runs the full flow for it —
// synthetic config -> QUAD profiling -> Algorithm 1 -> the requested
// evaluation tier — and writes one JSON object per stdout line. The
// process is long-lived: the profile cache and the tiered evaluator stay
// warm across requests, so repeated shapes are served from memory.
//
// Lines are read with the JSON dialect of util/json.hpp. Request fields
// (all optional; unknown keys are usage errors, and integer fields take
// only plain non-negative integers in range):
//   id               echoed verbatim in the response
//   op               "design" (default) | "search" | "stats"
//   seed, kernels, hosts, boards          integers
//   edge_p, dup_p, stream_p               probabilities in [0, 1]
//   min_edge_bytes, max_edge_bytes        integers
//   min_work, max_work                    integers
//   board_topology   chain | ring | mesh
//   tier             analytic (default) | cycle
//   restarts, iterations   annealer knobs ("search" requests only)
//   timeout_s        per-request wall-clock watchdog (0 = none)
//
// op "search" runs the seeded annealer (src/search) on the configured
// app and answers with the searched-vs-Algorithm-1 record; with
// tier=cycle the final incumbent is also simulated cycle-accurately and
// checked against its analytic band.
//
// Responses: {"id":...,"ok":true,...} on success, or
// {"id":...,"ok":false,"error":E,"exit_code":N,"message":M} where the
// error taxonomy E/N mirrors the CLI exit-code scheme ("internal"/1,
// "usage"/2, "config"/3, "timeout"/4, "store"/5). A request whose
// watchdog expires is answered with the timeout taxonomy, counted as
// quarantined, and the wedged attempt is abandoned — the server keeps
// serving.
//
// Shutdown: EOF on stdin, SIGINT or SIGTERM. The server finishes the
// in-flight request, prints its counters to stderr and exits 0.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "apps/profile_cache.hpp"
#include "apps/synthetic.hpp"
#include "dse/case_runner.hpp"
#include "search/anneal.hpp"
#include "store/store.hpp"
#include "sys/batch_runner.hpp"
#include "sys/experiment.hpp"
#include "tiers/tiered_evaluator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/text.hpp"

namespace {

using namespace hybridic;
using util::decimal17;
using util::json_escape;
using util::JsonValue;

std::atomic<bool> g_stop{false};

// ---------------------------------------------------------------------------
// Error taxonomy: the structured mirror of the CLI exit-code scheme, so a
// scripted caller can switch on one field either way.

struct Taxonomy {
  const char* error;
  int exit_code;
};

constexpr Taxonomy kInternal{"internal", 1};
constexpr Taxonomy kUsage{"usage", 2};
constexpr Taxonomy kConfig{"config", 3};
constexpr Taxonomy kTimeout{"timeout", 4};
constexpr Taxonomy kStore{"store", 5};

/// One finished request: the response line plus how to count it.
struct ServeReply {
  std::string json;       ///< Body after the echoed id ("ok":...}).
  bool ok = false;
};

std::string error_body(const Taxonomy& taxonomy, const std::string& message) {
  std::ostringstream out;
  out << "\"ok\":false,\"error\":\"" << taxonomy.error
      << "\",\"exit_code\":" << taxonomy.exit_code << ",\"message\":\""
      << json_escape(message) << "\"}";
  return out.str();
}

struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
};

// ---------------------------------------------------------------------------
// Request decoding.

struct Request {
  apps::SyntheticConfig config;
  tiers::TierMode tier = tiers::TierMode::kAnalytic;
  double timeout_seconds = 0.0;
  std::string id;
  bool stats = false;
  bool search = false;
  std::uint32_t search_restarts = 2;
  std::uint32_t search_iterations = 60;
};

bool parse_u64_field(const JsonValue& v, std::uint64_t& out) {
  return v.kind == JsonValue::Kind::kNumber && util::parse_u64(v.text, out);
}

bool parse_u32_field(const JsonValue& v, std::uint32_t& out) {
  return v.kind == JsonValue::Kind::kNumber && util::parse_u32(v.text, out);
}

bool parse_double_field(const JsonValue& v, double& out) {
  return v.kind == JsonValue::Kind::kNumber && util::parse_double(v.text, out);
}

/// Decode one parsed object into a Request; returns false with a usage
/// message on any unknown key or ill-typed value.
bool decode_request(const util::JsonObject& fields,
                    Request& request, std::string& error) {
  for (const auto& [key, value] : fields) {
    bool ok = true;
    if (key == "id") {
      ok = value.kind == JsonValue::Kind::kString;
      request.id = value.text;
    } else if (key == "op") {
      if (value.text == "stats") {
        request.stats = true;
      } else if (value.text == "search") {
        request.search = true;
      } else {
        ok = value.text == "design";
      }
    } else if (key == "restarts") {
      ok = parse_u32_field(value, request.search_restarts) &&
           request.search_restarts > 0;
    } else if (key == "iterations") {
      ok = parse_u32_field(value, request.search_iterations) &&
           request.search_iterations > 0;
    } else if (key == "seed") {
      ok = parse_u64_field(value, request.config.seed);
    } else if (key == "kernels") {
      ok = parse_u32_field(value, request.config.kernel_count);
    } else if (key == "hosts") {
      ok = parse_u32_field(value, request.config.host_function_count);
    } else if (key == "boards") {
      ok = parse_u32_field(value, request.config.board_count);
    } else if (key == "edge_p") {
      ok = parse_double_field(value, request.config.kernel_edge_probability);
    } else if (key == "dup_p") {
      ok = parse_double_field(value, request.config.duplicable_probability);
    } else if (key == "stream_p") {
      ok = parse_double_field(value, request.config.streaming_probability);
    } else if (key == "min_edge_bytes") {
      ok = parse_u64_field(value, request.config.min_edge_bytes);
    } else if (key == "max_edge_bytes") {
      ok = parse_u64_field(value, request.config.max_edge_bytes);
    } else if (key == "min_work") {
      ok = parse_u64_field(value, request.config.min_work_units);
    } else if (key == "max_work") {
      ok = parse_u64_field(value, request.config.max_work_units);
    } else if (key == "board_topology") {
      ok = value.text == "chain" || value.text == "ring" ||
           value.text == "mesh";
      request.config.board_topology = value.text;
    } else if (key == "tier") {
      const auto mode = tiers::parse_tier_mode(value.text);
      // Auto is a campaign concept (batch-ranked escalation); a single
      // request picks its tier explicitly.
      ok = mode.has_value() && *mode != tiers::TierMode::kAuto;
      if (ok) {
        request.tier = *mode;
      }
    } else if (key == "timeout_s") {
      ok = parse_double_field(value, request.timeout_seconds) &&
           request.timeout_seconds >= 0.0;
    } else {
      error = "unknown key \"" + key + "\"";
      return false;
    }
    if (!ok) {
      error = "bad value for key \"" + key + "\"";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The request jobs. They run on a watchdog thread when the request set
// timeout_s, so they only touch state that outlives the request: the
// evaluator and cache live in main() until process exit. Each returns the
// success body after the echoed id.

std::string design_body(const Request& request,
                        tiers::TieredEvaluator& evaluator,
                        apps::ProfileCache& cache) {
  std::ostringstream out;
  out << "\"ok\":true,\"tier\":\"" << tiers::to_string(request.tier) << "\"";
  if (request.tier == tiers::TierMode::kCycle) {
    const dse::DesignCase c = dse::run_design_case(request.config, &cache);
    const tiers::TierEstimate estimate =
        evaluator.estimate(c.schedule, c.exp.proposed_design);
    out << ",\"solution\":\""
        << json_escape(c.exp.proposed_design.solution_tag())
        << "\",\"baseline_s\":" << decimal17(c.exp.baseline.total_seconds)
        << ",\"designed_s\":" << decimal17(c.exp.proposed.total_seconds)
        << ",\"crossbar_s\":" << decimal17(c.crossbar.total_seconds)
        << ",\"pipelined_makespan_s\":"
        << decimal17(c.pipelined.makespan_seconds)
        << ",\"analytic_designed_s\":"
        << decimal17(estimate.designed_kernel_seconds);
  } else {
    tiers::AnalyticCase analytic = evaluator.analyze(request.config, &cache);
    out << ",\"solution\":\"" << json_escape(analytic.proposed.solution_tag())
        << "\",\"analytic_baseline_s\":"
        << decimal17(analytic.estimate.baseline_kernel_seconds)
        << ",\"analytic_designed_s\":"
        << decimal17(analytic.estimate.designed_kernel_seconds)
        << ",\"analytic_lo_s\":"
        << decimal17(analytic.estimate.designed_lower_seconds)
        << ",\"analytic_hi_s\":"
        << decimal17(analytic.estimate.designed_upper_seconds);
  }
  out << "}";
  return out.str();
}

// The search job: seeded annealing over the configured app, always
// seeded by (and compared against) Algorithm 1. tier=cycle adds the
// end-of-run cycle-accurate check of the incumbent.
std::string search_body(const Request& request,
                        tiers::TieredEvaluator& evaluator,
                        apps::ProfileCache& cache) {
  const tiers::AnalyticCase analytic =
      evaluator.analyze(request.config, &cache);
  const core::DesignInput input =
      sys::make_design_input(analytic.schedule, evaluator.platform());
  search::AnnealOptions sopt;
  sopt.seed = request.config.seed;
  sopt.restarts = request.search_restarts;
  sopt.iterations = request.search_iterations;
  sopt.calibration = evaluator.calibration();
  sopt.cycle_validate = request.tier == tiers::TierMode::kCycle;
  const search::SearchResult result = search::anneal_interconnect(
      analytic.schedule, input, evaluator.platform(), sopt);
  const search::SearchRecord record = result.record();
  std::ostringstream out;
  out << "\"ok\":true,\"tier\":\"" << tiers::to_string(request.tier)
      << "\",\"solution\":\"" << json_escape(record.solution_tag)
      << "\",\"searched_analytic_s\":" << decimal17(record.analytic_seconds)
      << ",\"alg1_analytic_s\":"
      << decimal17(record.algorithm1_analytic_seconds)
      << ",\"searched_luts\":" << record.luts
      << ",\"alg1_luts\":" << record.algorithm1_luts
      << ",\"gain\":" << decimal17(record.gain)
      << ",\"best_restart\":" << record.best_restart
      << ",\"proposed\":" << record.proposed
      << ",\"accepted\":" << record.accepted
      << ",\"rejected_illegal\":" << record.rejected_illegal
      << ",\"cache_hits\":" << record.cache_hits;
  if (result.cycle.has_value()) {
    out << ",\"cycle_s\":" << decimal17(result.cycle->measured_kernel_seconds)
        << ",\"within_band\":"
        << (result.cycle->within_band ? "true" : "false");
  }
  out << "}";
  return out.str();
}

/// Run one design or search request, mapping its failure to the taxonomy.
ServeReply serve(const Request& request, tiers::TieredEvaluator& evaluator,
                 apps::ProfileCache& cache) {
  ServeReply reply;
  try {
    reply.json = request.search ? search_body(request, evaluator, cache)
                                : design_body(request, evaluator, cache);
    reply.ok = true;
  } catch (const store::StoreError& e) {
    reply.json = error_body(kStore, e.what());
  } catch (const SimTimeoutError& e) {
    reply.json = error_body(kTimeout, e.what());
  } catch (const ConfigError& e) {
    reply.json = error_body(kConfig, e.what());
  } catch (const std::exception& e) {
    reply.json = error_body(kInternal, e.what());
  }
  return reply;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags{"",
              "\n"
              "JSON-lines server: one flat JSON request per stdin line,\n"
              "one JSON response per stdout line. See the header comment\n"
              "of examples/hybridic_serve.cpp (and docs/MODEL.md section\n"
              "17) for\n"
              "the request schema and the error taxonomy. Exits 0 on EOF\n"
              "or SIGINT/SIGTERM after finishing the in-flight request.\n"}
      .version("hybridic_serve engine revision " +
               std::to_string(store::kEngineRevision))
      .parse_or_exit(argc, argv);
  util::install_stop_signals(g_stop);

  tiers::TieredEvaluator evaluator;
  apps::ProfileCache cache;
  Counters counters;

  std::string line;
  while (!g_stop.load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;  // Blank lines are keep-alives, not requests.
    }
    ++counters.requests;

    util::JsonObject fields;
    Request request;
    std::string parse_error;
    if (!util::parse_json_object(line, fields, parse_error) ||
        !decode_request(fields, request, parse_error)) {
      ++counters.failed;
      std::cout << "{\"id\":\"" << json_escape(request.id) << "\","
                << error_body(kUsage, parse_error) << "\n"
                << std::flush;
      continue;
    }

    if (request.stats) {
      ++counters.served;
      std::cout << "{\"id\":\"" << json_escape(request.id)
                << "\",\"ok\":true,\"requests\":" << counters.requests
                << ",\"served\":" << counters.served
                << ",\"failed\":" << counters.failed
                << ",\"quarantined\":" << counters.quarantined << "}\n"
                << std::flush;
      continue;
    }

    // The request body under its watchdog. The attempt thread owns copies
    // of the closure; an expired request is abandoned (and counted as
    // quarantined), never joined.
    const auto body = [&evaluator, &cache,
                       request](sys::JobContext&) -> ServeReply {
      return serve(request, evaluator, cache);
    };
    sys::JobContext context{request.id, sys::job_seed(request.id), 0};
    const sys::detail::AttemptOutcome<ServeReply> outcome =
        request.timeout_seconds > 0.0
            ? sys::detail::attempt_with_watchdog<ServeReply>(
                  body, std::move(context), nullptr, request.timeout_seconds)
            : sys::detail::run_attempt<ServeReply>(body, context, nullptr);

    std::string tail;
    switch (outcome.status) {
      case sys::JobStatus::kOk:
        tail = outcome.value->json;
        if (outcome.value->ok) {
          ++counters.served;
        } else {
          ++counters.failed;
        }
        break;
      case sys::JobStatus::kTimeout:
        ++counters.quarantined;
        tail = error_body(kTimeout, outcome.error);
        break;
      default:
        ++counters.failed;
        tail = error_body(kInternal, outcome.error);
        break;
    }
    std::cout << "{\"id\":\"" << json_escape(request.id) << "\"," << tail
              << "\n"
              << std::flush;
  }

  std::cerr << "hybridic_serve: "
            << (g_stop.load(std::memory_order_relaxed) ? "signal" : "eof")
            << " shutdown; requests=" << counters.requests
            << " served=" << counters.served << " failed=" << counters.failed
            << " quarantined=" << counters.quarantined << "\n";
  if (counters.quarantined > 0) {
    // An abandoned attempt may still be running on its detached thread,
    // using `evaluator` and `cache`: returning would destroy them (and then
    // the statics) under it. End the process without unwinding instead;
    // every reply is already flushed.
    std::cout.flush();
    std::_Exit(0);
  }
  return 0;
}
