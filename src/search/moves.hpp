// Neighbor-move library over the interconnect design space.
//
// The annealer (search/anneal.hpp) does not mutate DesignResult objects —
// it walks a compact decision vector (SearchVars) whose realization is
// core::build_design(). Every move is an invertible "set field from A to
// B" edit, so the harness can prove closure: applying a move and then its
// inverse restores the exact decision vector, and therefore the exact
// canonical congruence signature of the built design.
//
// The move space covers the paper's trichotomy and beyond it:
//  - kToggleDuplication: case-3 duplication on/off per spec (budgeted);
//  - kSetPair: a shared-local-memory pairing off / crossbar-attached /
//    direct (the §IV-A1 port-widening choice);
//  - kSetMapping: pin a spec's Table-I interconnect class to any feasible
//    {K1,K2}×{M1,M2,M3} point, or release it back to the adaptive map —
//    this is the "remap kernel↔fabric / swap crossbar-NoC class" axis.
#pragma once

#include <cstdint>
#include <vector>

#include "core/interconnect_design.hpp"

namespace hybridic::search {

/// One candidate shared-local-memory pairing: a kernel->kernel edge that
/// satisfies Algorithm 1's exclusivity precondition (D^K_out(producer) ==
/// D^K_in(consumer) == D_ij). Whether the pairing is active — and in which
/// style — is the search variable; eligibility is static.
struct EligiblePair {
  std::size_t producer_spec = 0;
  std::size_t consumer_spec = 0;
  Bytes bytes{0};
  /// §IV-A1: direct (crossbar-less) sharing is legal only when the
  /// consumer never talks to the host.
  bool consumer_host_free = false;
};

/// The static search space for one design input: everything legal_moves()
/// needs that never changes between neighbors.
struct SearchProblem {
  core::DesignInput input;  ///< Graph pointer stays owned by the caller.
  /// Eligible pairs in Algorithm 1's greedy scan order (bytes-descending,
  /// stable) — emitting active pairs in this order makes the greedy seed
  /// bit-identical to design_interconnect().
  std::vector<EligiblePair> pairs;
  /// Spec indices in descending-τ order (Algorithm 1's duplication scan
  /// order); flagged specs are emitted in this order for the same reason.
  std::vector<std::size_t> tau_order;
};

[[nodiscard]] SearchProblem make_search_problem(
    const core::DesignInput& input);

// ---- Mapping palette. ----
// 0 releases the spec to the adaptive map (Table I); 1..4 pin the four
// feasible interconnect classes. Value 5 is the infeasible {K1,M2} point:
// legal_moves() never proposes it, but apply_move() accepts it so a
// deliberately broken generator can be proven to die at the oracle gate.
inline constexpr std::uint8_t kMappingAdaptive = 0;
inline constexpr std::uint8_t kMappingPaletteSize = 5;  ///< Legal 0..4.
inline constexpr std::uint8_t kMappingInfeasible = 5;   ///< {K1,M2}.

/// The InterconnectClass behind palette value 1..5; throws on 0.
[[nodiscard]] core::InterconnectClass palette_class(std::uint8_t value);

// ---- Pair states. ----
inline constexpr std::uint8_t kPairOff = 0;
inline constexpr std::uint8_t kPairCrossbar = 1;  ///< Narrow shared port.
inline constexpr std::uint8_t kPairDirect = 2;    ///< Wide (direct) port.

/// The decision vector the annealer walks.
struct SearchVars {
  std::vector<bool> duplicated;          ///< Per spec.
  std::vector<std::uint8_t> pair_state;  ///< Per eligible pair.
  std::vector<std::uint8_t> mapping;     ///< Per spec, palette value.

  friend bool operator==(const SearchVars&, const SearchVars&) = default;
};

/// Algorithm 1's greedy decisions expressed as search variables. By
/// construction to_decisions(problem, vars_of_greedy(problem)) realizes
/// the exact design design_interconnect(input) produces.
[[nodiscard]] SearchVars vars_of_greedy(const SearchProblem& problem);

/// Realize a decision vector (duplication order and pair order follow the
/// problem's canonical scan orders).
[[nodiscard]] core::DesignDecisions to_decisions(const SearchProblem& problem,
                                                 const SearchVars& vars);

enum class MoveKind : std::uint8_t {
  kToggleDuplication,  ///< target = spec; from/to ∈ {0,1}.
  kSetPair,            ///< target = pair index; from/to ∈ {0,1,2}.
  kSetMapping,         ///< target = spec; from/to = palette value.
};

/// An invertible edit: "set field `target` from `from` to `to`".
struct Move {
  MoveKind kind = MoveKind::kToggleDuplication;
  std::size_t target = 0;
  std::uint8_t from = 0;
  std::uint8_t to = 0;

  friend bool operator==(const Move&, const Move&) = default;
};

/// The move undoing `move` (swap from/to).
[[nodiscard]] Move inverse(const Move& move);

/// Apply `move` to `vars`. Requires move.from to match the current value
/// (ConfigError otherwise) so a stale move can never silently corrupt the
/// walk. Accepts any target value — including the infeasible mapping 5 —
/// because legality is the annealer's gate, not the encoder's.
void apply_move(SearchVars& vars, const Move& move);

/// Every legal neighbor move from `vars`, in deterministic order:
/// duplication toggles (spec ascending), pair edits (pair × state
/// ascending), mapping edits (spec × palette ascending). Enforces the
/// structural invariants Algorithm 1 maintains: the duplication LUT
/// budget, no duplicated endpoint on an active pair, one active pairing
/// per kernel, direct style only for host-free consumers, and the
/// enable_* ablation switches.
[[nodiscard]] std::vector<Move> legal_moves(const SearchProblem& problem,
                                            const SearchVars& vars);

}  // namespace hybridic::search
