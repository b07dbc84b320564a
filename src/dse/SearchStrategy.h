//===- SearchStrategy.h - Pruned + sharded search strategies ----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search layer on top of \c DseEngine: the two strategies that
/// decide which configurations of a \c DseProblem receive a full-fidelity
/// estimate (\c DseEngine::explore switches over \c StrategyKind), plus
/// the shard-front plumbing that lets N processes sweep disjoint
/// hash-partitions of one space and merge their partial Pareto fronts
/// back into exactly the front a single process would compute.
///
/// Both strategies produce IDENTICAL front membership:
///
///   * \c exhaustiveSearch fully estimates every configuration (the
///     engine's original behavior, and the oracle the pruned search is
///     checked against);
///   * \c paretoPruneSearch walks configs in bound order and skips a
///     full estimate whenever the config's lower bound (hlsim
///     Fidelity::Coarse, tightened to ::Medium before paying for ::Full)
///     is strictly dominated by an already-estimated point's actual
///     objectives.
///
/// One ladder walk does the pruning for both. Each candidate climbs the
/// fidelity ladder a rung at a time up to the top rung (Full, or Exact
/// under DseOptions::ExactTopRung) and stops early when its current
/// bound is strictly dominated. pareto-prune walks from Coarse; under the
/// exact top rung, exhaustive walks its Full-estimated configs from Full.
///
/// The exactness argument: the fidelity ladder guarantees
/// Coarse(c) <= Medium(c) <= Full(c) <= Exact(c) component-wise, so every
/// rung is an admissible bound of the top rung. If a walked point m has
/// top(m) strictly dominating a bound of c, then top(m) also strictly
/// dominates top(c), so c is not on the all-top-rung front and (because
/// the domination is strict) cannot tie-collapse into a member either.
/// Front members only ever carry top-rung objectives, so this holds for
/// the Exact rung exactly as for Full. Accepted configurations are
/// additionally checked against the accepted-only front, preserving
/// \c DseResult::AcceptedFront too.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_DSE_SEARCHSTRATEGY_H
#define DAHLIA_DSE_SEARCHSTRATEGY_H

#include "dse/DseEngine.h"
#include "support/Json.h"

#include <memory>

namespace dahlia::dse {

/// Everything a search needs for one exploration, resolved by
/// \c DseEngine::explore: the problem, this shard's configuration
/// indices (ascending), the worker budget, and the (optional) memo
/// cache.
struct SearchContext {
  const DseProblem &Problem;
  std::vector<size_t> Indices; ///< This shard's configs, ascending.
  std::shared_ptr<DseCache> Cache;
  unsigned Threads = 1;
  size_t Grain = 32;
  /// Make Exact (the cycle-level simulator) the walk's top rung; see
  /// DseOptions::ExactTopRung.
  bool ExactTopRung = false;
  /// Progress accumulator, or null when neither DseOptions::OnProgress
  /// nor the search journal is active. Workers add() completed items;
  /// only the exploration's calling thread ticks (see ProgressSink).
  ProgressSink *Progress = nullptr;
};

// Both searches fill \c R.Points for every index in \c Ctx.Indices
// (verdicts always; objectives when estimated), the two fronts, and the
// per-strategy counters of \c R.Stats.

/// StrategyKind::Exhaustive: fully estimates every candidate.
void exhaustiveSearch(const SearchContext &Ctx, DseResult &R);

/// StrategyKind::ParetoPrune: dominance pruning on admissible bounds.
void paretoPruneSearch(const SearchContext &Ctx, DseResult &R);

//===----------------------------------------------------------------------===//
// Shard fronts: serialization + deterministic merge
//===----------------------------------------------------------------------===//

/// One Pareto-front member as shipped between shards: the configuration
/// index, its full-fidelity objectives (bit-exact through JSON — the
/// serializer emits shortest-round-trip doubles), and the type-checker
/// verdict.
struct FrontPoint {
  size_t Index = 0;
  Objectives Obj;
  bool Accepted = false;
};

/// The members of \p R's overall and accepted fronts (union, deduplicated,
/// ascending by index) — what a shard publishes for merging.
std::vector<FrontPoint> collectFrontPoints(const DseResult &R);

/// Merged front membership over any number of shards' front points.
struct MergedFronts {
  std::vector<size_t> Front;
  std::vector<size_t> AcceptedFront;
};

/// Unions partial fronts into the membership a single-process sweep of
/// the whole space produces. Exact because every true front member is on
/// its own shard's partial front, and extra (locally-undominated) points
/// are eliminated during the merge.
MergedFronts mergeFrontPoints(const std::vector<FrontPoint> &Points);

/// Deterministic hash of front membership *and* the members' exact
/// objective vectors; the CI regression gate compares this across runs.
/// \p Members must be ascending; \p ObjOf maps a member index to its
/// objectives.
uint64_t
frontHash(const std::vector<size_t> &Members,
          const std::function<const Objectives &(size_t)> &ObjOf);

/// "0x%016x" rendering used in the BENCH JSON files.
std::string hashString(uint64_t H);

/// front_points <-> JSON (the shard interchange format).
Json frontPointsToJson(const std::vector<FrontPoint> &Points);
/// Returns std::nullopt and sets \p Err on malformed input.
std::optional<std::vector<FrontPoint>>
frontPointsFromJson(const Json &J, std::string *Err = nullptr);

/// Index list -> JSON array.
Json indicesToJson(const std::vector<size_t> &Indices);

} // namespace dahlia::dse

#endif // DAHLIA_DSE_SEARCHSTRATEGY_H
