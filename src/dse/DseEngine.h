//===- DseEngine.h - Parallel, memoized design-space exploration -*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exploration engine behind the Section 5.2/5.3 sweeps. A
/// \c DseProblem describes a configuration space (each index renders to
/// Dahlia source for the real type checker and to an hlsim kernel spec
/// for estimation); \c DseEngine shards the space across a worker pool
/// with a work-stealing index queue, memoizes estimates and type-check
/// verdicts in a \c StableHash-keyed cache, and streams points into
/// incremental per-worker Pareto fronts that merge deterministically —
/// the resulting front membership is identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_DSE_DSEENGINE_H
#define DAHLIA_DSE_DSEENGINE_H

#include "dse/Dse.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dahlia::dse {

/// A design-space exploration problem over \c Size configurations.
struct DseProblem {
  size_t Size = 0;
  /// Renders configuration \p I as Dahlia source (type-checker input).
  std::function<std::string(size_t)> Source;
  /// Renders configuration \p I as an hlsim kernel spec.
  std::function<hlsim::KernelSpec(size_t)> Spec;
  /// When false, rejected configurations are not estimated — the paper's
  /// Section 5.3 methodology ("an unrestricted DSE is intractable; we
  /// instead measure the space Dahlia accepts"). Figure 7 estimates
  /// everything; the Figure 8 sweeps set this to false.
  bool EstimateRejected = true;
};

/// Incremental Pareto-front accumulator (minimization over \c Objectives).
/// Membership is a pure function of the inserted point set: insertion
/// order never matters, and exactly-equal objective vectors collapse to
/// the lowest inserted index. This is what makes the parallel engine's
/// front byte-identical to the serial one.
class ParetoFront {
public:
  /// What one insert did to the front — the search journal's
  /// front-enter/front-evict events are built from this.
  struct InsertOutcome {
    /// The offered point is now a member (either a fresh entry or an
    /// equal-vector tie collapsed onto its lower index).
    bool Entered = false;
    /// Member indices the insert displaced: dominated members, or the
    /// higher index of an equal-vector tie the new point won.
    std::vector<size_t> Evicted;
  };

  /// Offers point \p Index with objectives \p O.
  void insert(size_t Index, const Objectives &O) { (void)insertEx(Index, O); }

  /// insert(), reporting what changed.
  InsertOutcome insertEx(size_t Index, const Objectives &O);

  /// The lowest member index whose objectives strictly dominate \p O,
  /// or nullopt when none does (iff !dominatesPoint(O)). Lowest-index
  /// selection keeps journal dominator attribution deterministic
  /// regardless of member order.
  std::optional<size_t> dominatorOf(const Objectives &O) const;

  /// Folds every member of \p Other in.
  void merge(const ParetoFront &Other);

  /// Visits every member (index, objectives) in insertion order — the
  /// journal-logged merge path reads members through this.
  void forEachMember(
      const std::function<void(size_t, const Objectives &)> &Fn) const;

  /// True when some member strictly dominates \p O (equal vectors do
  /// not count). The pruned search strategies use this with admissible
  /// lower bounds: a config whose bound is strictly dominated by a
  /// member's *actual* objectives can never reach the front.
  bool dominatesPoint(const Objectives &O) const;

  /// Member indices in ascending order.
  std::vector<size_t> indices() const;

  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

private:
  struct Member {
    size_t Index;
    Objectives Obj;
  };
  std::vector<Member> Members;
};

/// Shared, thread-safe memoization cache for estimates (keyed by
/// \c hlsim::specHash) and type-check verdicts (keyed by a stable hash of
/// the Dahlia source). Many points of a sweep share kernel structure, and
/// repeated explorations (re-runs, multi-space harnesses, tests at
/// several thread counts) hit outright; passing one cache to several
/// engine runs makes the later runs near-free.
///
/// The snapshot accessors are the plug-in point for
/// \c service::PersistentCache: a snapshot taken after a sweep is written
/// to disk, and a later process bulk-inserts it back before exploring, so
/// Figure 7 sweeps survive restarts.
class DseCache {
public:
  bool lookupEstimate(uint64_t Key, hlsim::Estimate &Out) const;
  void insertEstimate(uint64_t Key, const hlsim::Estimate &E);
  bool lookupVerdict(uint64_t Key, bool &Accepted) const;
  void insertVerdict(uint64_t Key, bool Accepted);

  size_t estimateHits() const { return EstimateHits.load(); }
  size_t verdictHits() const { return VerdictHits.load(); }

  /// Entry counts (sum over shards; each shard locked in turn).
  size_t estimateCount() const;
  size_t verdictCount() const;

  /// Copies of the current contents, sorted by key so the serialized form
  /// is deterministic regardless of insertion order or shard layout.
  std::vector<std::pair<uint64_t, hlsim::Estimate>> snapshotEstimates() const;
  std::vector<std::pair<uint64_t, bool>> snapshotVerdicts() const;

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<uint64_t, hlsim::Estimate> Estimates;
    std::unordered_map<uint64_t, bool> Verdicts;
  };
  Shard &shard(uint64_t Key) const { return Shards[Key % NumShards]; }

  mutable Shard Shards[NumShards];
  mutable std::atomic<size_t> EstimateHits{0}, VerdictHits{0};
};

/// How the engine walks a configuration space (see SearchStrategy.h for
/// the implementations).
enum class StrategyKind {
  /// Type-check and fully estimate every configuration (the Figure 7
  /// methodology; the engine's original behavior).
  Exhaustive,
  /// Skip full estimation of every config whose lower bound is strictly
  /// dominated by an already-estimated point (exact under the monotone
  /// fidelity ladder: the front is guaranteed identical to Exhaustive's).
  ParetoPrune,
};

const char *strategyName(StrategyKind K);
/// Parses "exhaustive" / "pareto-prune".
std::optional<StrategyKind> parseStrategy(std::string_view Name);
/// The accepted strategy names, for unknown-strategy error messages.
constexpr const char *kStrategyNames = "exhaustive, pareto-prune";

/// One shard of a multi-process sweep: this process explores only the
/// configurations \c StableHash assigns to \c Index of \c Count.
struct ShardSpec {
  unsigned Index = 0;
  unsigned Count = 1;

  bool isWhole() const { return Count <= 1; }
  /// Deterministic hash-partition: which shard owns configuration \p I.
  unsigned shardOf(size_t I) const;
};

/// Parses "i/N" (0 <= i < N).
std::optional<ShardSpec> parseShard(std::string_view Spec);

/// One progress observation of a running exploration, delivered through
/// DseOptions::OnProgress and journaled as `progress` events. Phases are
/// strategy steps: "sweep" (exhaustive), "check" and "bound-coarse"
/// (pareto-prune), and "walk" (the ladder walk of pareto-prune, and of
/// exhaustive under the exact top rung); Done/Total/EtaSeconds are
/// phase-relative — the pruned strategy cannot know its full-estimate
/// workload up front, so whole-sweep ETAs would lie.
struct DseProgress {
  const char *Phase = "";
  size_t Done = 0;          ///< work items finished in this phase
  size_t Total = 0;         ///< the phase's work-list size
  size_t FrontSize = 0;     ///< overall Pareto front size so far
  double ConfigsPerSec = 0; ///< EWMA evaluation throughput
  double EtaSeconds = 0;    ///< phase remainder at the EWMA rate
};

/// Shared progress state for one exploration. Any worker adds completed
/// work (relaxed atomics); only the exploration's calling thread — which
/// the work-stealing pool always enlists as worker 0 — calls maybeTick,
/// so the OnProgress callback runs without synchronization on the thread
/// that invoked DseEngine::explore. That is what lets the TCP server
/// stream live progress records from inside a blocking sweep: the sweep
/// runs on its loop thread, so ticks may safely touch connection state.
class ProgressSink {
public:
  ProgressSink(std::function<void(const DseProgress &)> Fn,
               double IntervalSec);

  /// Starts a new phase (calling thread only) and fires a tick.
  void beginPhase(const char *Phase, size_t Total);
  /// Records \p N finished work items (any worker).
  void add(size_t N) { Done.fetch_add(N, std::memory_order_relaxed); }
  /// Publishes the overall front size (calling thread only).
  void setFrontSize(size_t N) {
    FrontSize.store(N, std::memory_order_relaxed);
  }
  /// Fires the callback + journal event when the interval elapsed
  /// (calling thread only). \p Force emits unconditionally.
  void maybeTick(bool Force = false);

private:
  std::function<void(const DseProgress &)> Fn;
  double IntervalSec;
  const char *Phase = "";
  size_t Total = 0;
  std::atomic<size_t> Done{0};
  std::atomic<size_t> FrontSize{0};
  uint64_t LastTickUs = 0;
  size_t LastDone = 0;
  double Ewma = 0;
};

/// Engine configuration.
struct DseOptions {
  /// Worker threads; 0 resolves via DAHLIA_DSE_THREADS, then
  /// hardware_concurrency.
  unsigned Threads = 0;
  bool Memoize = true;
  /// Configurations taken from the queue per grab.
  size_t GrainSize = 32;
  /// Optional cache shared across explorations; allocated fresh per run
  /// when null and \c Memoize is set.
  std::shared_ptr<DseCache> Cache;
  /// Search strategy (see StrategyKind).
  StrategyKind Strategy = StrategyKind::Exhaustive;
  /// Shard of the space this run explores (whole space by default).
  ShardSpec Shard;
  /// Rank the front on the cycle-level simulator (hlsim
  /// Fidelity::Exact): the ladder walk's top rung becomes Exact instead
  /// of Full. pareto-prune climbs each candidate Coarse → Medium → Full →
  /// Exact; exhaustive walks its Full-estimated configs from Full to
  /// Exact. A candidate is simulated only if no rung's bound is strictly
  /// dominated by a simulated point, so either strategy's membership is
  /// exactly what an all-Exact sweep of the space computes, at a tiny
  /// fraction of the simulations.
  bool ExactTopRung = false;
  /// Invoked periodically (at most every ProgressIntervalSec) from the
  /// thread that called DseEngine::explore — see ProgressSink. Null
  /// disables ticking unless the search journal is recording.
  std::function<void(const DseProgress &)> OnProgress;
  /// Minimum seconds between OnProgress ticks / `progress` journal
  /// events.
  double ProgressIntervalSec = 0.25;
};

/// Resolves the effective worker count: \p Requested if nonzero, else the
/// DAHLIA_DSE_THREADS environment variable, else hardware concurrency.
unsigned resolveThreadCount(unsigned Requested);

/// One evaluated configuration.
struct DsePoint {
  hlsim::Estimate Est;
  Objectives Obj;
  bool Accepted = false;  ///< Dahlia type checker verdict.
  bool Estimated = false; ///< False when estimation was skipped.
  /// True when Est/Obj carry Exact-fidelity (simulated) values; only set
  /// when the exact top rung is on.
  bool ExactEvaluated = false;
};

/// Aggregate counters of one exploration.
struct DseStats {
  size_t Explored = 0;
  size_t Accepted = 0;
  /// Configurations carrying FULL-fidelity objectives (pruned strategies
  /// evaluate fewer than Explored; this is the number the pruned
  /// acceptance bound is measured on).
  size_t Estimated = 0;
  /// Lower-fidelity (Coarse/Medium) bound evaluations performed by the
  /// pruned strategy.
  size_t LowFidelityEstimates = 0;
  /// Configurations skipped as provably dominated (bound strictly
  /// dominated by a walked point's top-rung objectives); one per `prune`
  /// journal event, whatever the bound's rung.
  size_t Pruned = 0;
  /// Exact-top-rung: configurations promoted to a cycle-level simulation
  /// (the acceptance bound measures this against the space size).
  size_t ExactEstimates = 0;
  size_t EstimateCacheHits = 0;
  size_t VerdictCacheHits = 0;
  unsigned Threads = 1;
  double Seconds = 0;

  /// Exploration throughput — the number BENCH_*.json tracks.
  double configsPerSecond() const {
    return Seconds > 0 ? static_cast<double>(Explored) / Seconds : 0;
  }
};

/// Everything an exploration produces.
struct DseResult {
  /// Index-aligned with the problem's configuration space.
  std::vector<DsePoint> Points;
  /// Pareto-front indices over every estimated point (ascending).
  std::vector<size_t> Front;
  /// Pareto-front indices over the accepted subset only (ascending).
  std::vector<size_t> AcceptedFront;
  DseStats Stats;
};

/// The exploration engine. Stateless across runs; one instance may be
/// reused (a shared \c DseCache carries state between runs if desired).
/// \c explore resolves the worker budget and cache, restricts the space
/// to the configured shard, and runs the configured strategy's search
/// (SearchStrategy.h) — Exhaustive by default.
class DseEngine {
public:
  explicit DseEngine(DseOptions O = DseOptions()) : Opts(std::move(O)) {}

  DseResult explore(const DseProblem &P) const;

  const DseOptions &options() const { return Opts; }

private:
  DseOptions Opts;
};

} // namespace dahlia::dse

#endif // DAHLIA_DSE_DSEENGINE_H
