// Property tests for the search-based interconnect synthesizer
// (src/search): the annealer must only ever *improve on* Algorithm 1,
// and must never hand back an illegal design.
//
//  - the greedy seed round-trips through the move encoding bit-exactly,
//  - every move composed with its inverse restores the vars AND the
//    canonical congruence signature (closure of the move library),
//  - accepted incumbents pass the full invariant-oracle library when
//    substituted into a cycle-accurate design case,
//  - the incumbent trace is monotone non-increasing and the final record
//    dominates-or-matches Algorithm 1 on (analytic time, LUTs),
//  - restarts are independent: --threads 1 and N are bit-identical,
//  - a deliberately broken move generator (emitting the infeasible
//    {K1,M2} mapping) is caught by the oracle gate on every proposal,
//    shrunk with shrink_config, and pinned as a checked-in reproducer
//    under tests/fixtures/search/ (regenerate with
//    HYBRIDIC_UPDATE_SEARCH_FIXTURES=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/synthetic.hpp"
#include "core/design_validate.hpp"
#include "core/resource_model.hpp"
#include "dse/case_runner.hpp"
#include "dse/oracles.hpp"
#include "dse/shrinker.hpp"
#include "search/anneal.hpp"
#include "sys/executor.hpp"
#include "sys/experiment.hpp"
#include "sys/pipeline_executor.hpp"
#include "tiers/congruence.hpp"

namespace hybridic {
namespace {

apps::SyntheticConfig synthetic_config(std::uint64_t seed,
                                       std::uint32_t kernels = 6) {
  apps::SyntheticConfig config;
  config.seed = seed;
  config.kernel_count = kernels;
  return config;
}

struct Prepared {
  std::shared_ptr<const apps::ProfiledApp> app;
  sys::AppSchedule schedule;
  core::DesignInput input;
};

Prepared prepare(const apps::SyntheticConfig& config) {
  Prepared p;
  p.app = std::make_shared<apps::ProfiledApp>(
      apps::make_synthetic_app(config));
  p.schedule = p.app->schedule();
  p.input = sys::make_design_input(p.schedule, sys::PlatformConfig{});
  return p;
}

search::AnnealOptions small_anneal() {
  search::AnnealOptions options;
  options.restarts = 3;
  options.iterations = 40;
  return options;
}

// ---------------------------------------------------------------------------
// Seed identity and move-library closure.

TEST(Search, GreedySeedRoundTripsThroughTheMoveEncoding) {
  for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL, 23ULL}) {
    const Prepared p = prepare(synthetic_config(seed));
    const search::SearchProblem problem = search::make_search_problem(p.input);
    const search::SearchVars vars = search::vars_of_greedy(problem);
    const core::DesignResult rebuilt =
        core::build_design(p.input, search::to_decisions(problem, vars));
    const core::DesignResult greedy = core::design_interconnect(p.input);
    EXPECT_EQ(rebuilt.solution_tag(), greedy.solution_tag()) << seed;
    EXPECT_EQ(rebuilt.instances.size(), greedy.instances.size()) << seed;
    EXPECT_EQ(rebuilt.shared_pairs.size(), greedy.shared_pairs.size())
        << seed;
    EXPECT_EQ(rebuilt.estimate.proposed_seconds(),
              greedy.estimate.proposed_seconds())
        << seed;
    EXPECT_EQ(tiers::congruence_signature(p.schedule, rebuilt,
                                          p.input.theta.seconds_per_byte),
              tiers::congruence_signature(p.schedule, greedy,
                                          p.input.theta.seconds_per_byte))
        << seed;
  }
}

TEST(Search, EveryMovePlusInverseRestoresTheCongruenceSignature) {
  for (const std::uint64_t seed : {2ULL, 7ULL, 13ULL}) {
    const Prepared p = prepare(synthetic_config(seed));
    const search::SearchProblem problem = search::make_search_problem(p.input);
    const search::SearchVars start = search::vars_of_greedy(problem);
    const std::string start_signature = tiers::congruence_signature(
        p.schedule, core::build_design(p.input,
                                       search::to_decisions(problem, start)),
        p.input.theta.seconds_per_byte);
    const std::vector<search::Move> moves =
        search::legal_moves(problem, start);
    ASSERT_FALSE(moves.empty()) << seed;
    for (const search::Move& move : moves) {
      SCOPED_TRACE(::testing::Message()
                   << "move kind " << static_cast<int>(move.kind)
                   << " target " << move.target);
      search::SearchVars walked = start;
      search::apply_move(walked, move);
      EXPECT_FALSE(walked == start);
      search::apply_move(walked, search::inverse(move));
      EXPECT_TRUE(walked == start);
      EXPECT_EQ(tiers::congruence_signature(
                    p.schedule,
                    core::build_design(p.input,
                                       search::to_decisions(problem, walked)),
                    p.input.theta.seconds_per_byte),
                start_signature);
    }
  }
}

// ---------------------------------------------------------------------------
// The search contract: monotone incumbent, dominance, determinism.

TEST(Search, IncumbentTraceIsMonotoneNonIncreasing) {
  for (const std::uint64_t seed : {3ULL, 17ULL}) {
    const Prepared p = prepare(synthetic_config(seed));
    const search::SearchResult result = search::anneal_interconnect(
        p.schedule, p.input, sys::PlatformConfig{}, small_anneal());
    ASSERT_FALSE(result.incumbent_trace.empty());
    for (std::size_t i = 1; i < result.incumbent_trace.size(); ++i) {
      EXPECT_LE(result.incumbent_trace[i], result.incumbent_trace[i - 1])
          << "iteration " << i;
    }
  }
}

TEST(Search, SearchedDominatesOrMatchesAlgorithm1ByConstruction) {
  for (const std::uint64_t seed : {3ULL, 8ULL, 17ULL, 29ULL}) {
    const Prepared p = prepare(synthetic_config(seed));
    const search::SearchResult result = search::anneal_interconnect(
        p.schedule, p.input, sys::PlatformConfig{}, small_anneal());
    const search::SearchRecord record = result.record();
    EXPECT_LE(record.analytic_seconds, record.algorithm1_analytic_seconds)
        << seed;
    EXPECT_LE(record.luts, record.algorithm1_luts) << seed;
    EXPECT_GE(record.gain, 1.0) << seed;
    // The incumbent must be validator-clean — the gate is a hard
    // constraint, not a penalty term.
    EXPECT_TRUE(core::is_valid(
        core::validate_design(result.best, p.input.kernels)))
        << seed;
  }
}

TEST(Search, ThreadCountNeverChangesTheResult) {
  const Prepared p = prepare(synthetic_config(21, 7));
  search::AnnealOptions options = small_anneal();
  options.restarts = 4;
  options.threads = 1;
  const search::SearchResult serial = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  options.threads = 4;
  const search::SearchResult parallel = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  EXPECT_TRUE(serial.best_vars == parallel.best_vars);
  EXPECT_EQ(serial.best_restart, parallel.best_restart);
  EXPECT_EQ(serial.incumbent_trace, parallel.incumbent_trace);
  const search::SearchRecord a = serial.record();
  const search::SearchRecord b = parallel.record();
  EXPECT_EQ(a.solution_tag, b.solution_tag);
  EXPECT_EQ(a.analytic_seconds, b.analytic_seconds);
  EXPECT_EQ(a.luts, b.luts);
  EXPECT_EQ(a.proposed, b.proposed);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_illegal, b.rejected_illegal);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
}

TEST(Search, RestartsAreIndependentStreams) {
  // Raising the restart count must not change what earlier restarts did:
  // the winning (restart, fitness) of a 2-restart run reappears among a
  // 4-restart run's candidates, because each restart derives its RNG from
  // (seed, restart) alone.
  const Prepared p = prepare(synthetic_config(4));
  search::AnnealOptions options = small_anneal();
  options.restarts = 2;
  const search::SearchResult narrow = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  options.restarts = 4;
  const search::SearchResult wide = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  EXPECT_LE(wide.record().analytic_seconds, narrow.record().analytic_seconds);
  if (wide.best_restart == narrow.best_restart) {
    EXPECT_TRUE(wide.best_vars == narrow.best_vars);
  }
}

// ---------------------------------------------------------------------------
// Oracle gate: the searched incumbent, substituted into a full
// cycle-accurate design case, passes the entire invariant-oracle library.

dse::DesignCase substitute_searched(const dse::DesignCase& base,
                                    const core::DesignResult& searched) {
  const sys::PlatformConfig platform;
  dse::DesignCase c = base;
  c.exp.proposed_design = searched;
  c.exp.proposed =
      sys::run_designed(c.schedule, searched, platform, "proposed");
  c.exp.kernel_area = core::kernel_resources(searched, c.schedule.specs);
  c.exp.interconnect_area = core::interconnect_resources(searched);
  const core::ComponentCost bus = core::component_cost(core::Component::kBus);
  c.exp.proposed_resources = c.app->environment.base_infrastructure +
                             core::Resources{bus.luts, bus.regs} +
                             c.exp.kernel_area + c.exp.interconnect_area;
  c.pipelined = sys::run_designed_pipelined(c.schedule, searched, platform,
                                            c.frame_count);
  return c;
}

TEST(Search, AcceptedIncumbentPassesTheFullOracleLibrary) {
  // board_count = 2 brings the board-byte-conservation oracle in, so the
  // substituted case faces the complete nine-oracle library.
  for (const std::uint32_t boards : {1U, 2U}) {
    apps::SyntheticConfig config = synthetic_config(6);
    config.board_count = boards;
    const dse::DesignCase base = dse::run_design_case(config);
    const core::DesignInput input =
        sys::make_design_input(base.schedule, sys::PlatformConfig{});
    const search::SearchResult result = search::anneal_interconnect(
        base.schedule, input, sys::PlatformConfig{}, small_anneal());
    const dse::DesignCase searched =
        substitute_searched(base, result.best);
    for (const dse::OracleResult& verdict :
         dse::run_all_oracles(searched, dse::OracleBounds{})) {
      EXPECT_TRUE(verdict.pass)
          << verdict.oracle << " (boards=" << boards
          << "): " << verdict.message;
    }
  }
}

TEST(Search, EndOfRunCycleValidationLandsInsideTheAnalyticBand) {
  const Prepared p = prepare(synthetic_config(5));
  search::AnnealOptions options = small_anneal();
  options.cycle_validate = true;
  const search::SearchResult result = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  ASSERT_TRUE(result.cycle.has_value());
  EXPECT_TRUE(result.cycle->within_band)
      << "measured " << result.cycle->measured_kernel_seconds << " s";
}

// ---------------------------------------------------------------------------
// The broken move generator: the gate must catch it, the shrinker must
// minimize it, and the minimized reproducer is pinned on disk.

std::string search_fixtures_dir() {
  return std::string{HYBRIDIC_TESTS_SOURCE_DIR} + "/fixtures/search";
}

bool update_mode() {
  const char* flag = std::getenv("HYBRIDIC_UPDATE_SEARCH_FIXTURES");
  return flag != nullptr && std::string{flag} == "1";
}

/// The broken generator: always proposes remapping kernel 0 onto the
/// infeasible {K1, M2} palette entry — a move legal_moves() never emits.
search::Move broken_move(const search::SearchProblem& problem,
                         const search::SearchVars& vars, Rng&) {
  (void)problem;
  return search::Move{search::MoveKind::kSetMapping, 0, vars.mapping[0],
                      search::kMappingInfeasible};
}

/// Run the annealer under the broken generator; true when the oracle
/// gate rejected broken proposals AND the incumbent stayed legal (the
/// failure the fixture pins is "broken moves reach the gate", not
/// "broken moves escape it").
bool gate_catches_broken_generator(const apps::SyntheticConfig& config) {
  const Prepared p = prepare(config);
  search::AnnealOptions options;
  options.restarts = 1;
  options.iterations = 8;
  options.move_hook = broken_move;
  const search::SearchResult result = search::anneal_interconnect(
      p.schedule, p.input, sys::PlatformConfig{}, options);
  return result.stats.rejected_illegal > 0 &&
         result.record().analytic_seconds ==
             result.record().algorithm1_analytic_seconds &&
         core::is_valid(core::validate_design(result.best, p.input.kernels));
}

/// Stable serialization of the shrunk config (the fixture format).
std::string fixture_text(const apps::SyntheticConfig& config) {
  std::ostringstream out;
  out << "{\n"
      << "  \"check\": \"broken-move-generator-gated\",\n"
      << "  \"expect\": \"fail\",\n"
      << "  \"kernel_count\": " << config.kernel_count << ",\n"
      << "  \"host_function_count\": " << config.host_function_count << ",\n"
      << "  \"kernel_edge_probability\": " << config.kernel_edge_probability
      << ",\n"
      << "  \"min_edge_bytes\": " << config.min_edge_bytes << ",\n"
      << "  \"max_edge_bytes\": " << config.max_edge_bytes << ",\n"
      << "  \"min_work_units\": " << config.min_work_units << ",\n"
      << "  \"max_work_units\": " << config.max_work_units << ",\n"
      << "  \"duplicable_probability\": " << config.duplicable_probability
      << ",\n"
      << "  \"streaming_probability\": " << config.streaming_probability
      << ",\n"
      << "  \"seed\": " << config.seed << "\n"
      << "}\n";
  return out.str();
}

TEST(Search, BrokenMoveGeneratorIsGatedShrunkAndPinned) {
  // The gate must reject every broken proposal on the starting config...
  const apps::SyntheticConfig start = synthetic_config(7);
  ASSERT_TRUE(gate_catches_broken_generator(start));

  // ...and the predicate-driven shrinker minimizes the witness. The
  // shrink is deterministic, so the checked-in fixture must match byte
  // for byte — like the dse mutation reproducer.
  const dse::ConfigShrink shrunk =
      dse::shrink_config(start, gate_catches_broken_generator);
  ASSERT_TRUE(shrunk.reproduced);
  EXPECT_GT(shrunk.attempts, 0U);
  ASSERT_TRUE(gate_catches_broken_generator(shrunk.config));

  const std::string path =
      search_fixtures_dir() + "/broken-move-generator.json";
  if (update_mode()) {
    std::filesystem::create_directories(search_fixtures_dir());
    std::ofstream out{path};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fixture_text(shrunk.config);
    return;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << path
                         << " missing; regenerate with "
                            "HYBRIDIC_UPDATE_SEARCH_FIXTURES=1";
  const std::string on_disk{std::istreambuf_iterator<char>{in},
                            std::istreambuf_iterator<char>{}};
  EXPECT_EQ(on_disk, fixture_text(shrunk.config))
      << "shrunk broken-move witness drifted from the checked-in fixture";
}

TEST(Search, StaleMovesAreRejectedLoudly) {
  const Prepared p = prepare(synthetic_config(1));
  const search::SearchProblem problem = search::make_search_problem(p.input);
  search::SearchVars vars = search::vars_of_greedy(problem);
  // A move whose `from` does not match the current state is a stale move
  // (the congruence cache must never replay one).
  const search::Move stale{search::MoveKind::kSetMapping, 0,
                           static_cast<std::uint8_t>(vars.mapping[0] + 1),
                           search::kMappingAdaptive};
  EXPECT_THROW(search::apply_move(vars, stale), ConfigError);
}

}  // namespace
}  // namespace hybridic
