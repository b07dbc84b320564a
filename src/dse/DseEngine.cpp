//===- DseEngine.cpp - Parallel, memoized design-space exploration -*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "dse/DseEngine.h"

#include "dse/SearchStrategy.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StableHash.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace dahlia;
using namespace dahlia::dse;

//===----------------------------------------------------------------------===//
// ParetoFront
//===----------------------------------------------------------------------===//

ParetoFront::InsertOutcome ParetoFront::insertEx(size_t Index,
                                                 const Objectives &O) {
  InsertOutcome Out;
  for (Member &M : Members) {
    if (equalObjectives(M.Obj, O)) {
      // Equal vectors collapse to the lowest index — the deterministic
      // tie rule that makes membership insertion-order independent.
      if (Index < M.Index) {
        Out.Evicted.push_back(M.Index);
        M.Index = Index;
        Out.Entered = true;
      }
      return Out;
    }
    if (dominates(M.Obj, O))
      return Out;
  }
  // O survives; members it dominates leave the front. (No member can
  // dominate O here: that would transitively dominate the evictees,
  // contradicting the mutual-non-dominance invariant.)
  std::erase_if(Members, [&](const Member &M) {
    if (!dominates(O, M.Obj))
      return false;
    Out.Evicted.push_back(M.Index);
    return true;
  });
  Members.push_back({Index, O});
  Out.Entered = true;
  return Out;
}

std::optional<size_t> ParetoFront::dominatorOf(const Objectives &O) const {
  std::optional<size_t> Best;
  for (const Member &M : Members)
    if (dominates(M.Obj, O) && (!Best || M.Index < *Best))
      Best = M.Index;
  return Best;
}

void ParetoFront::forEachMember(
    const std::function<void(size_t, const Objectives &)> &Fn) const {
  for (const Member &M : Members)
    Fn(M.Index, M.Obj);
}

void ParetoFront::merge(const ParetoFront &Other) {
  for (const Member &M : Other.Members)
    insert(M.Index, M.Obj);
}

bool ParetoFront::dominatesPoint(const Objectives &O) const {
  for (const Member &M : Members)
    if (dominates(M.Obj, O))
      return true;
  return false;
}

std::vector<size_t> ParetoFront::indices() const {
  std::vector<size_t> Idx;
  Idx.reserve(Members.size());
  for (const Member &M : Members)
    Idx.push_back(M.Index);
  std::sort(Idx.begin(), Idx.end());
  return Idx;
}

//===----------------------------------------------------------------------===//
// DseCache
//===----------------------------------------------------------------------===//

bool DseCache::lookupEstimate(uint64_t Key, hlsim::Estimate &Out) const {
  Shard &S = shard(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Estimates.find(Key);
  if (It == S.Estimates.end())
    return false;
  Out = It->second;
  EstimateHits.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter &Hits = metrics::counter("dse.memo.estimate_hits");
  Hits.inc();
  return true;
}

void DseCache::insertEstimate(uint64_t Key, const hlsim::Estimate &E) {
  Shard &S = shard(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  S.Estimates.emplace(Key, E);
}

bool DseCache::lookupVerdict(uint64_t Key, bool &Accepted) const {
  Shard &S = shard(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Verdicts.find(Key);
  if (It == S.Verdicts.end())
    return false;
  Accepted = It->second;
  VerdictHits.fetch_add(1, std::memory_order_relaxed);
  static metrics::Counter &Hits = metrics::counter("dse.memo.verdict_hits");
  Hits.inc();
  return true;
}

void DseCache::insertVerdict(uint64_t Key, bool Accepted) {
  Shard &S = shard(Key);
  std::lock_guard<std::mutex> Lock(S.M);
  S.Verdicts.emplace(Key, Accepted);
}

size_t DseCache::estimateCount() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Estimates.size();
  }
  return N;
}

size_t DseCache::verdictCount() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Verdicts.size();
  }
  return N;
}

std::vector<std::pair<uint64_t, hlsim::Estimate>>
DseCache::snapshotEstimates() const {
  std::vector<std::pair<uint64_t, hlsim::Estimate>> Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Out.insert(Out.end(), S.Estimates.begin(), S.Estimates.end());
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

std::vector<std::pair<uint64_t, bool>> DseCache::snapshotVerdicts() const {
  std::vector<std::pair<uint64_t, bool>> Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Out.insert(Out.end(), S.Verdicts.begin(), S.Verdicts.end());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// ProgressSink
//===----------------------------------------------------------------------===//

ProgressSink::ProgressSink(std::function<void(const DseProgress &)> F,
                           double Interval)
    : Fn(std::move(F)), IntervalSec(std::max(Interval, 0.0)) {}

void ProgressSink::beginPhase(const char *Ph, size_t T) {
  Phase = Ph;
  Total = T;
  Done.store(0, std::memory_order_relaxed);
  LastDone = 0;
  LastTickUs = trace::nowUs();
  // Phase boundaries always tick: watchers see every strategy step even
  // when a phase finishes inside one interval.
  maybeTick(/*Force=*/true);
}

void ProgressSink::maybeTick(bool Force) {
  uint64_t Now = trace::nowUs();
  double Since = static_cast<double>(Now - LastTickUs) / 1e6;
  if (!Force && Since < IntervalSec)
    return;
  size_t D = Done.load(std::memory_order_relaxed);
  if (Since > 0 && D > LastDone) {
    double Inst = static_cast<double>(D - LastDone) / Since;
    Ewma = Ewma == 0 ? Inst : 0.3 * Inst + 0.7 * Ewma;
  }
  DseProgress P;
  P.Phase = Phase;
  P.Done = D;
  P.Total = Total;
  P.FrontSize = FrontSize.load(std::memory_order_relaxed);
  P.ConfigsPerSec = Ewma;
  P.EtaSeconds =
      Ewma > 0 && Total > D ? static_cast<double>(Total - D) / Ewma : 0;
  if (Fn)
    Fn(P);
  if (eventlog::enabled())
    eventlog::emit("progress", eventlog::Record()
                                   .field("phase", P.Phase)
                                   .field("done", P.Done)
                                   .field("total", P.Total)
                                   .field("front_size", P.FrontSize)
                                   .field("configs_per_sec", P.ConfigsPerSec)
                                   .field("eta_seconds", P.EtaSeconds));
  LastTickUs = Now;
  LastDone = D;
}

unsigned dahlia::dse::resolveThreadCount(unsigned Requested) {
  if (Requested != 0)
    return std::clamp(Requested, 1u, 256u);
  if (const char *Env = std::getenv("DAHLIA_DSE_THREADS")) {
    long V = std::strtol(Env, nullptr, 10);
    if (V >= 1)
      return std::clamp(static_cast<unsigned>(V), 1u, 256u);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW != 0 ? HW : 1;
}

DseResult DseEngine::explore(const DseProblem &P) const {
  TRACE_SPAN("dse.explore");
  auto Start = std::chrono::steady_clock::now();

  DseResult R;
  R.Points.assign(P.Size, DsePoint());

  // This shard's slice of the configuration space (the whole space for
  // single-process runs). The hash partition is a pure function of the
  // index, so N shard processes cover the space exactly once.
  SearchContext Ctx{P};
  Ctx.Indices.reserve(P.Size / std::max(1u, Opts.Shard.Count) + 1);
  for (size_t I = 0; I != P.Size; ++I)
    if (Opts.Shard.isWhole() || Opts.Shard.shardOf(I) == Opts.Shard.Index)
      Ctx.Indices.push_back(I);

  unsigned Threads = resolveThreadCount(Opts.Threads);
  if (Ctx.Indices.size() < Threads)
    Threads = static_cast<unsigned>(std::max<size_t>(Ctx.Indices.size(), 1));
  Ctx.Threads = Threads;
  Ctx.Grain = std::max<size_t>(Opts.GrainSize, 1);
  Ctx.ExactTopRung = Opts.ExactTopRung;

  Ctx.Cache = Opts.Cache;
  if (Opts.Memoize && !Ctx.Cache)
    Ctx.Cache = std::make_shared<DseCache>();
  size_t EstHits0 = Ctx.Cache ? Ctx.Cache->estimateHits() : 0;
  size_t VerHits0 = Ctx.Cache ? Ctx.Cache->verdictHits() : 0;

  ProgressSink Progress(Opts.OnProgress, Opts.ProgressIntervalSec);
  if (Opts.OnProgress || eventlog::enabled())
    Ctx.Progress = &Progress;

  if (eventlog::enabled()) {
    eventlog::emit("sweep-begin",
                   eventlog::Record()
                       .field("space", P.Size)
                       .field("explored", Ctx.Indices.size())
                       .field("shard_index", Opts.Shard.Index)
                       .field("shard_count", Opts.Shard.Count)
                       .field("strategy", strategyName(Opts.Strategy))
                       .field("threads", Threads)
                       .field("exact_top_rung", Opts.ExactTopRung)
                       .field("estimate_rejected", P.EstimateRejected));
    for (size_t I : Ctx.Indices)
      eventlog::emit("enumerated", eventlog::Record().field("config", I));
  }

  switch (Opts.Strategy) {
  case StrategyKind::Exhaustive:
    exhaustiveSearch(Ctx, R);
    break;
  case StrategyKind::ParetoPrune:
    paretoPruneSearch(Ctx, R);
    break;
  }

  R.Stats.Explored = Ctx.Indices.size();
  R.Stats.Threads = Threads;
  if (Ctx.Cache) {
    R.Stats.EstimateCacheHits = Ctx.Cache->estimateHits() - EstHits0;
    R.Stats.VerdictCacheHits = Ctx.Cache->verdictHits() - VerHits0;
  }
  R.Stats.Seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();

  if (Ctx.Progress)
    Ctx.Progress->maybeTick(/*Force=*/true); // final 100% observation
  if (eventlog::enabled())
    eventlog::emit(
        "sweep-end",
        eventlog::Record()
            .field("explored", R.Stats.Explored)
            .field("accepted", R.Stats.Accepted)
            .field("estimated", R.Stats.Estimated)
            .field("low_fidelity_estimates", R.Stats.LowFidelityEstimates)
            .field("pruned", R.Stats.Pruned)
            .field("exact_estimates", R.Stats.ExactEstimates)
            .field("estimate_cache_hits", R.Stats.EstimateCacheHits)
            .field("verdict_cache_hits", R.Stats.VerdictCacheHits)
            .field("seconds", R.Stats.Seconds)
            .raw("front", indicesToJson(R.Front).dump())
            .raw("accepted_front", indicesToJson(R.AcceptedFront).dump()));

  static metrics::Counter &Explored = metrics::counter("dse.configs_explored");
  static metrics::Counter &Accepted = metrics::counter("dse.configs_accepted");
  static metrics::Counter &Pruned = metrics::counter("dse.configs_pruned");
  static metrics::Gauge &Rate = metrics::gauge("dse.configs_per_sec");
  Explored.inc(R.Stats.Explored);
  Accepted.inc(R.Stats.Accepted);
  Pruned.inc(R.Stats.Pruned);
  Rate.set(static_cast<int64_t>(R.Stats.configsPerSecond()));
  return R;
}
