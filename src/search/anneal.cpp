#include "search/anneal.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/design_validate.hpp"
#include "core/resource_model.hpp"
#include "sys/batch_runner.hpp"
#include "sys/executor.hpp"
#include "tiers/congruence.hpp"
#include "util/error.hpp"

namespace hybridic::search {

namespace {

/// Annealing schedule: T0 = kInitialTemperature * fitness(seed) and
/// T(i) = T0 * kCooling^i.
constexpr double kInitialTemperature = 0.1;
constexpr double kCooling = 0.97;

/// One fully priced candidate.
struct Scored {
  core::DesignResult design;
  tiers::TierEstimate estimate;
  std::uint64_t luts = 0;
  double fitness = 0.0;
};

std::uint64_t total_luts(const core::DesignResult& design,
                         const std::vector<core::KernelSpec>& specs) {
  return (core::interconnect_resources(design) +
          core::kernel_resources(design, specs))
      .luts;
}

/// Per-restart evaluator: realizes a decision vector, gates it, prices it
/// through the congruence memo. Returns nullopt (and counts the
/// rejection) for illegal candidates.
class Evaluator {
 public:
  Evaluator(const SearchProblem& problem, const sys::AppSchedule& schedule,
            const sys::PlatformConfig& platform, const AnnealOptions& options,
            std::uint64_t lut_cap, SearchStats& stats)
      : problem_(problem),
        schedule_(schedule),
        platform_(platform),
        options_(options),
        lut_cap_(lut_cap),
        stats_(stats) {}

  std::optional<Scored> operator()(const SearchVars& vars) {
    Scored scored;
    scored.design =
        core::build_design(problem_.input, to_decisions(problem_, vars));
    const std::optional<std::string> rejection =
        options_.gate ? options_.gate(schedule_, scored.design)
                      : default_gate(schedule_, scored.design);
    if (rejection.has_value()) {
      ++stats_.rejected_illegal;
      return std::nullopt;
    }
    scored.luts = total_luts(scored.design, problem_.input.kernels);
    if (scored.luts > lut_cap_) {
      ++stats_.rejected_illegal;
      return std::nullopt;
    }
    const double theta = problem_.input.theta.seconds_per_byte;
    const std::uint64_t key = tiers::congruence_key_of(
        tiers::congruence_signature(schedule_, scored.design, theta));
    const auto hit = memo_.find(key);
    if (hit != memo_.end()) {
      ++stats_.cache_hits;
      scored.estimate = hit->second;
    } else {
      scored.estimate = tiers::analytic_estimate(
          schedule_, scored.design, platform_, theta, options_.calibration);
      memo_.emplace(key, scored.estimate);
    }
    scored.fitness = scored.estimate.designed_kernel_seconds;
    return scored;
  }

 private:
  const SearchProblem& problem_;
  const sys::AppSchedule& schedule_;
  const sys::PlatformConfig& platform_;
  const AnnealOptions& options_;
  std::uint64_t lut_cap_;
  SearchStats& stats_;
  std::unordered_map<std::uint64_t, tiers::TierEstimate> memo_;
};

/// What one restart reports back: vars only — the winner's design is
/// rebuilt once after the reduction (build_design is pure, so this loses
/// nothing and keeps the per-restart payload small).
struct RestartOutcome {
  SearchVars vars;
  double fitness = 0.0;
  std::uint64_t luts = 0;
  std::vector<double> trace;
  SearchStats stats;
};

RestartOutcome run_restart(const SearchProblem& problem,
                           const sys::AppSchedule& schedule,
                           const sys::PlatformConfig& platform,
                           const AnnealOptions& options,
                           std::uint64_t lut_cap, const SearchVars& seed_vars,
                           std::uint32_t restart) {
  RestartOutcome outcome;
  // Independent stream per (seed, restart): the golden-ratio stride keeps
  // neighboring restarts' splitmix-initialized states uncorrelated.
  Rng rng{options.seed * 0x9E3779B97F4A7C15ULL + restart + 1};
  Evaluator evaluate{problem, schedule,           platform,
                     options, lut_cap,            outcome.stats};

  const std::optional<Scored> seed = evaluate(seed_vars);
  require(seed.has_value(),
          "the greedy seed design was rejected by the legality gate");
  SearchVars current_vars = seed_vars;
  double current_fitness = seed->fitness;
  std::uint64_t current_luts = seed->luts;

  // Incumbent starts at the seed even for perturbed restarts, so every
  // restart's answer is <= Algorithm 1 by construction.
  outcome.vars = seed_vars;
  outcome.fitness = seed->fitness;
  outcome.luts = seed->luts;

  // Restart r kicks off r random accepted moves away from the seed.
  for (std::uint32_t kick = 0; kick < restart; ++kick) {
    const std::vector<Move> moves = legal_moves(problem, current_vars);
    if (moves.empty()) {
      break;
    }
    ++outcome.stats.proposed;
    SearchVars kicked = current_vars;
    apply_move(kicked, moves[rng.below(moves.size())]);
    const std::optional<Scored> scored = evaluate(kicked);
    if (!scored.has_value()) {
      continue;  // Rejection already counted; the kick is simply lost.
    }
    ++outcome.stats.accepted;
    current_vars = std::move(kicked);
    current_fitness = scored->fitness;
    current_luts = scored->luts;
    if (scored->fitness < outcome.fitness ||
        (scored->fitness == outcome.fitness && scored->luts < outcome.luts)) {
      outcome.vars = current_vars;
      outcome.fitness = scored->fitness;
      outcome.luts = scored->luts;
    }
  }

  const double t0 = kInitialTemperature * seed->fitness;
  outcome.trace.push_back(outcome.fitness);
  for (std::uint32_t iter = 0; iter < options.iterations; ++iter) {
    Move move;
    if (options.move_hook) {
      move = options.move_hook(problem, current_vars, rng);
    } else {
      const std::vector<Move> moves = legal_moves(problem, current_vars);
      if (moves.empty()) {
        outcome.trace.push_back(outcome.fitness);
        continue;
      }
      move = moves[rng.below(moves.size())];
    }
    ++outcome.stats.proposed;
    SearchVars candidate_vars = current_vars;
    apply_move(candidate_vars, move);
    const std::optional<Scored> candidate = evaluate(candidate_vars);
    if (!candidate.has_value()) {
      outcome.trace.push_back(outcome.fitness);
      continue;
    }
    const double delta = candidate->fitness - current_fitness;
    const double temperature =
        t0 * std::pow(kCooling, static_cast<double>(iter));
    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng.chance(std::exp(-delta / temperature)));
    if (accept) {
      ++outcome.stats.accepted;
      current_vars = std::move(candidate_vars);
      current_fitness = candidate->fitness;
      current_luts = candidate->luts;
      if (current_fitness < outcome.fitness ||
          (current_fitness == outcome.fitness &&
           current_luts < outcome.luts)) {
        outcome.vars = current_vars;
        outcome.fitness = current_fitness;
        outcome.luts = current_luts;
      }
    }
    outcome.trace.push_back(outcome.fitness);
  }

  return outcome;
}

}  // namespace

std::optional<std::string> default_gate(const sys::AppSchedule& schedule,
                                        const core::DesignResult& design) {
  const std::vector<core::ValidationIssue> issues =
      core::validate_design(design, schedule.specs);
  if (core::is_valid(issues)) {
    return std::nullopt;
  }
  return core::format_issues(issues);
}

SearchRecord SearchResult::record() const {
  SearchRecord record;
  record.solution_tag = best.solution_tag();
  record.analytic_seconds = best_estimate.designed_kernel_seconds;
  record.algorithm1_analytic_seconds =
      algorithm1_estimate.designed_kernel_seconds;
  record.luts = best_luts;
  record.algorithm1_luts = algorithm1_luts;
  record.gain = (record.analytic_seconds > 0.0 &&
                 record.algorithm1_analytic_seconds > 0.0)
                    ? record.algorithm1_analytic_seconds /
                          record.analytic_seconds
                    : 1.0;
  record.best_restart = best_restart;
  record.proposed = stats.proposed;
  record.accepted = stats.accepted;
  record.rejected_illegal = stats.rejected_illegal;
  record.cache_hits = stats.cache_hits;
  return record;
}

SearchResult anneal_interconnect(const sys::AppSchedule& schedule,
                                 const core::DesignInput& input,
                                 const sys::PlatformConfig& platform,
                                 const AnnealOptions& options) {
  require(options.restarts >= 1, "the annealer needs at least one restart");

  const SearchProblem problem = make_search_problem(input);
  const SearchVars seed_vars = vars_of_greedy(problem);
  const double theta = input.theta.seconds_per_byte;

  SearchResult result;
  result.algorithm1 = core::design_interconnect(input);
  result.algorithm1_estimate = tiers::analytic_estimate(
      schedule, result.algorithm1, platform, theta, options.calibration);
  result.algorithm1_luts = total_luts(result.algorithm1, input.kernels);
  // Hard resource cap: candidates above Algorithm 1's total LUTs are
  // rejected as illegal, so the searched design always dominates-or-matches
  // greedy on the (time, LUTs) front.
  const std::uint64_t lut_cap = result.algorithm1_luts;

  std::vector<RestartOutcome> outcomes;
  if (options.threads <= 1) {
    for (std::uint32_t r = 0; r < options.restarts; ++r) {
      outcomes.push_back(run_restart(problem, schedule, platform, options,
                                     lut_cap, seed_vars, r));
    }
  } else {
    sys::BatchRunner runner{options.threads};
    std::vector<sys::BatchRunner::Job<RestartOutcome>> jobs;
    for (std::uint32_t r = 0; r < options.restarts; ++r) {
      sys::BatchRunner::Job<RestartOutcome> job;
      job.key = "anneal/" + std::to_string(options.seed) + "/" +
                std::to_string(r);
      job.run = [&problem, &schedule, &platform, &options, lut_cap,
                 &seed_vars, r](sys::JobContext&) {
        return run_restart(problem, schedule, platform, options, lut_cap,
                           seed_vars, r);
      };
      jobs.push_back(std::move(job));
    }
    outcomes = runner.run(std::move(jobs));
  }

  // Submission-order reduction: earliest restart wins ties, so the answer
  // never depends on completion order (and therefore on thread count).
  std::size_t best = 0;
  for (std::size_t r = 1; r < outcomes.size(); ++r) {
    if (outcomes[r].fitness < outcomes[best].fitness ||
        (outcomes[r].fitness == outcomes[best].fitness &&
         outcomes[r].luts < outcomes[best].luts)) {
      best = r;
    }
  }
  for (const RestartOutcome& outcome : outcomes) {
    result.stats.proposed += outcome.stats.proposed;
    result.stats.accepted += outcome.stats.accepted;
    result.stats.rejected_illegal += outcome.stats.rejected_illegal;
    result.stats.cache_hits += outcome.stats.cache_hits;
  }

  result.best_vars = outcomes[best].vars;
  result.best_restart = static_cast<std::uint32_t>(best);
  result.incumbent_trace = std::move(outcomes[best].trace);
  result.best =
      core::build_design(input, to_decisions(problem, result.best_vars));
  result.best_estimate = tiers::analytic_estimate(
      schedule, result.best, platform, theta, options.calibration);
  result.best_luts = total_luts(result.best, input.kernels);

  if (options.cycle_validate) {
    CycleCheck check;
    const sys::RunResult run =
        sys::run_designed(schedule, result.best, platform, "searched");
    check.measured_kernel_seconds = run.kernel_seconds();
    check.within_band =
        result.best_estimate.contains_designed(check.measured_kernel_seconds);
    result.cycle = check;
  }

  return result;
}

}  // namespace hybridic::search
