#include "search/moves.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "util/error.hpp"

namespace hybridic::search {

namespace {

/// Function->spec map mirroring core's indexing (unique function per spec).
std::map<prof::FunctionId, std::size_t> spec_index(
    const core::DesignInput& input) {
  std::map<prof::FunctionId, std::size_t> index;
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    if (!index.emplace(input.kernels[s].function, s).second) {
      throw ConfigError{"two kernel specs share one function: " +
                        input.kernels[s].name};
    }
  }
  return index;
}

/// The LUT area the currently duplicated specs consume.
std::uint64_t duplicated_luts(const SearchProblem& problem,
                              const SearchVars& vars) {
  std::uint64_t luts = 0;
  for (std::size_t s = 0; s < problem.input.kernels.size(); ++s) {
    if (vars.duplicated[s]) {
      luts += problem.input.kernels[s].area_luts;
    }
  }
  return luts;
}

/// Whether spec `s` is an endpoint of any active pairing.
bool spec_in_active_pair(const SearchProblem& problem, const SearchVars& vars,
                         std::size_t s) {
  for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
    if (vars.pair_state[p] == kPairOff) {
      continue;
    }
    if (problem.pairs[p].producer_spec == s ||
        problem.pairs[p].consumer_spec == s) {
      return true;
    }
  }
  return false;
}

}  // namespace

SearchProblem make_search_problem(const core::DesignInput& input) {
  require(input.graph != nullptr, "search problem needs a profile graph");
  require(!input.kernels.empty(), "search problem needs at least one kernel");
  SearchProblem problem;
  problem.input = input;

  const std::map<prof::FunctionId, std::size_t> index = spec_index(input);
  std::set<prof::FunctionId> hw_set;
  for (const core::KernelSpec& spec : input.kernels) {
    hw_set.insert(spec.function);
  }

  // Duplication scan order: descending τ, ties by spec index (the same
  // stable sort Algorithm 1 performs over hw_compute_cycles).
  problem.tau_order.resize(input.kernels.size());
  std::iota(problem.tau_order.begin(), problem.tau_order.end(), 0);
  std::stable_sort(problem.tau_order.begin(), problem.tau_order.end(),
                   [&input](std::size_t a, std::size_t b) {
                     return input.kernels[a].hw_compute_cycles >
                            input.kernels[b].hw_compute_cycles;
                   });

  // Eligible pairs: Algorithm 1's candidate scan (bytes-descending,
  // stable), kept only where the line-9 exclusivity precondition holds —
  // activating such a pairing can never break Eq.-1 byte conservation.
  std::vector<core::KernelQuantities> quantities(input.kernels.size());
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    quantities[s] =
        core::derive_quantities(*input.graph, input.kernels[s].function,
                                hw_set);
  }
  std::vector<prof::CommEdge> candidates;
  for (const prof::CommEdge& edge : input.graph->edges()) {
    if (edge.producer == edge.consumer) {
      continue;
    }
    if (hw_set.count(edge.producer) == 0 || hw_set.count(edge.consumer) == 0) {
      continue;
    }
    candidates.push_back(edge);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const prof::CommEdge& a, const prof::CommEdge& b) {
                     return a.bytes > b.bytes;
                   });
  for (const prof::CommEdge& edge : candidates) {
    const std::size_t ps = index.at(edge.producer);
    const std::size_t cs = index.at(edge.consumer);
    if (quantities[ps].kernel_out != core::edge_volume(edge) ||
        quantities[cs].kernel_in != core::edge_volume(edge)) {
      continue;
    }
    EligiblePair pair;
    pair.producer_spec = ps;
    pair.consumer_spec = cs;
    pair.bytes = core::edge_volume(edge);
    pair.consumer_host_free = quantities[cs].host_in.count() == 0 &&
                              quantities[cs].host_out.count() == 0;
    problem.pairs.push_back(pair);
  }

  return problem;
}

core::InterconnectClass palette_class(std::uint8_t value) {
  using core::InterconnectClass;
  using core::KernelConn;
  using core::MemConn;
  switch (value) {
    case 1:
      return InterconnectClass{KernelConn::kK1, MemConn::kM1};
    case 2:
      return InterconnectClass{KernelConn::kK1, MemConn::kM3};
    case 3:
      return InterconnectClass{KernelConn::kK2, MemConn::kM2};
    case 4:
      return InterconnectClass{KernelConn::kK2, MemConn::kM3};
    case kMappingInfeasible:
      return InterconnectClass{KernelConn::kK1, MemConn::kM2};
    default:
      throw ConfigError("mapping palette value " + std::to_string(value) +
                        " names no interconnect class");
  }
}

SearchVars vars_of_greedy(const SearchProblem& problem) {
  const core::DesignDecisions greedy =
      core::greedy_decisions(problem.input);
  SearchVars vars;
  vars.duplicated.assign(problem.input.kernels.size(), false);
  vars.pair_state.assign(problem.pairs.size(), kPairOff);
  vars.mapping.assign(problem.input.kernels.size(), kMappingAdaptive);
  for (const std::size_t s : greedy.duplicated_specs) {
    vars.duplicated[s] = true;
  }
  for (const core::SharedPairDecision& decision : greedy.shared_pairs) {
    bool found = false;
    for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
      if (problem.pairs[p].producer_spec == decision.producer_spec &&
          problem.pairs[p].consumer_spec == decision.consumer_spec) {
        vars.pair_state[p] = decision.style == mem::SharingStyle::kDirect
                                 ? kPairDirect
                                 : kPairCrossbar;
        found = true;
        break;
      }
    }
    require(found, "greedy pairing missing from the eligible-pair list");
  }
  return vars;
}

core::DesignDecisions to_decisions(const SearchProblem& problem,
                                   const SearchVars& vars) {
  require(vars.duplicated.size() == problem.input.kernels.size() &&
              vars.mapping.size() == problem.input.kernels.size() &&
              vars.pair_state.size() == problem.pairs.size(),
          "search vars do not match the problem's dimensions");
  core::DesignDecisions decisions;
  // Replay duplications in the τ scan order so ParallelPlan ordering and
  // the Δdp summation order match Algorithm 1 exactly.
  for (const std::size_t s : problem.tau_order) {
    if (vars.duplicated[s]) {
      decisions.duplicated_specs.push_back(s);
    }
  }
  // Replay pairings in the bytes-descending scan order for the same reason.
  for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
    if (vars.pair_state[p] == kPairOff) {
      continue;
    }
    core::SharedPairDecision decision;
    decision.producer_spec = problem.pairs[p].producer_spec;
    decision.consumer_spec = problem.pairs[p].consumer_spec;
    decision.bytes = problem.pairs[p].bytes;
    decision.style = vars.pair_state[p] == kPairDirect
                         ? mem::SharingStyle::kDirect
                         : mem::SharingStyle::kCrossbar;
    decisions.shared_pairs.push_back(decision);
  }
  bool any_override = false;
  for (const std::uint8_t value : vars.mapping) {
    if (value != kMappingAdaptive) {
      any_override = true;
      break;
    }
  }
  if (any_override) {
    decisions.mapping_override.resize(problem.input.kernels.size());
    for (std::size_t s = 0; s < vars.mapping.size(); ++s) {
      if (vars.mapping[s] != kMappingAdaptive) {
        decisions.mapping_override[s] = palette_class(vars.mapping[s]);
      }
    }
  }
  return decisions;
}

Move inverse(const Move& move) {
  Move undo = move;
  std::swap(undo.from, undo.to);
  return undo;
}

void apply_move(SearchVars& vars, const Move& move) {
  switch (move.kind) {
    case MoveKind::kToggleDuplication:
      require(move.target < vars.duplicated.size(),
              "duplication move targets a missing spec");
      require(vars.duplicated[move.target] == (move.from != 0),
              "duplication move is stale");
      vars.duplicated[move.target] = move.to != 0;
      return;
    case MoveKind::kSetPair:
      require(move.target < vars.pair_state.size(),
              "pair move targets a missing pair");
      require(vars.pair_state[move.target] == move.from,
              "pair move is stale");
      vars.pair_state[move.target] = move.to;
      return;
    case MoveKind::kSetMapping:
      require(move.target < vars.mapping.size(),
              "mapping move targets a missing spec");
      require(vars.mapping[move.target] == move.from,
              "mapping move is stale");
      vars.mapping[move.target] = move.to;
      return;
  }
  throw ConfigError("unknown move kind");
}

std::vector<Move> legal_moves(const SearchProblem& problem,
                              const SearchVars& vars) {
  const core::DesignInput& input = problem.input;
  std::vector<Move> moves;

  // Duplication toggles (spec ascending).
  const std::uint64_t used_luts = duplicated_luts(problem, vars);
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    const core::KernelSpec& spec = input.kernels[s];
    if (vars.duplicated[s]) {
      moves.push_back(Move{MoveKind::kToggleDuplication, s, 1, 0});
      continue;
    }
    if (!input.enable_duplication || !spec.duplicable) {
      continue;
    }
    if (spec_in_active_pair(problem, vars, s)) {
      continue;  // A shared BRAM cannot serve two producer copies.
    }
    if (used_luts + spec.area_luts > input.duplication_area_budget_luts) {
      continue;  // "resource is available" fails.
    }
    moves.push_back(Move{MoveKind::kToggleDuplication, s, 0, 1});
  }

  // Pair-state edits (pair × target state ascending).
  for (std::size_t p = 0; p < problem.pairs.size(); ++p) {
    const EligiblePair& pair = problem.pairs[p];
    const std::uint8_t cur = vars.pair_state[p];
    for (std::uint8_t to = kPairOff; to <= kPairDirect; ++to) {
      if (to == cur) {
        continue;
      }
      if (to != kPairOff) {
        if (!input.enable_shared_memory) {
          continue;
        }
        if (vars.duplicated[pair.producer_spec] ||
            vars.duplicated[pair.consumer_spec]) {
          continue;
        }
        if (to == kPairDirect && !pair.consumer_host_free) {
          continue;  // §IV-A1 forbids the wide direct port here.
        }
        if (cur == kPairOff) {
          // Activation also needs both endpoints free of other pairings
          // (one sharing per kernel — BRAM port budget).
          bool endpoint_busy = false;
          for (std::size_t q = 0; q < problem.pairs.size(); ++q) {
            if (q == p || vars.pair_state[q] == kPairOff) {
              continue;
            }
            if (problem.pairs[q].producer_spec == pair.producer_spec ||
                problem.pairs[q].producer_spec == pair.consumer_spec ||
                problem.pairs[q].consumer_spec == pair.producer_spec ||
                problem.pairs[q].consumer_spec == pair.consumer_spec) {
              endpoint_busy = true;
              break;
            }
          }
          if (endpoint_busy) {
            continue;
          }
        }
      }
      moves.push_back(Move{MoveKind::kSetPair, p, cur, to});
    }
  }

  // Mapping edits (spec × palette ascending; never the infeasible 5).
  for (std::size_t s = 0; s < input.kernels.size(); ++s) {
    const std::uint8_t cur = vars.mapping[s];
    for (std::uint8_t to = 0; to < kMappingPaletteSize; ++to) {
      if (to != cur) {
        moves.push_back(Move{MoveKind::kSetMapping, s, cur, to});
      }
    }
  }

  return moves;
}

}  // namespace hybridic::search
