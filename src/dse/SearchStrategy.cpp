//===- SearchStrategy.cpp - Pruned + sharded search strategies --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "dse/SearchStrategy.h"

#include "driver/CompilerPipeline.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StableHash.h"
#include "support/Trace.h"
#include "support/WorkStealingPool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdio>

using namespace dahlia;
using namespace dahlia::dse;

//===----------------------------------------------------------------------===//
// Strategy / shard naming and parsing
//===----------------------------------------------------------------------===//

const char *dahlia::dse::strategyName(StrategyKind K) {
  switch (K) {
  case StrategyKind::Exhaustive:
    return "exhaustive";
  case StrategyKind::ParetoPrune:
    return "pareto-prune";
  }
  return "?";
}

std::optional<StrategyKind> dahlia::dse::parseStrategy(std::string_view Name) {
  if (Name == "exhaustive" || Name.empty())
    return StrategyKind::Exhaustive;
  if (Name == "pareto-prune" || Name == "prune")
    return StrategyKind::ParetoPrune;
  return std::nullopt;
}

namespace {
/// Seed separating the shard partition from every other StableHash use.
constexpr uint64_t kShardSeed = stableHash("dahlia.dse.shard");
} // namespace

unsigned ShardSpec::shardOf(size_t I) const {
  if (Count <= 1)
    return 0;
  return static_cast<unsigned>(stableHashCombine(kShardSeed, I) % Count);
}

std::optional<ShardSpec> dahlia::dse::parseShard(std::string_view Spec) {
  size_t Slash = Spec.find('/');
  if (Slash == std::string_view::npos)
    return std::nullopt;
  unsigned Index = 0, Count = 0;
  std::string_view IdxS = Spec.substr(0, Slash);
  std::string_view CntS = Spec.substr(Slash + 1);
  auto P1 = std::from_chars(IdxS.data(), IdxS.data() + IdxS.size(), Index);
  auto P2 = std::from_chars(CntS.data(), CntS.data() + CntS.size(), Count);
  if (P1.ec != std::errc() || P1.ptr != IdxS.data() + IdxS.size() ||
      P2.ec != std::errc() || P2.ptr != CntS.data() + CntS.size())
    return std::nullopt;
  if (Count < 1 || Count > 4096 || Index >= Count)
    return std::nullopt;
  return ShardSpec{Index, Count};
}

//===----------------------------------------------------------------------===//
// Shared evaluation plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Body over [0, N) on the context's worker budget (clamped so no
/// worker starts empty).
template <typename BodyT>
unsigned parallelOver(const SearchContext &Ctx, size_t N, BodyT &&Body) {
  unsigned Threads = Ctx.Threads;
  if (N < Threads)
    Threads = static_cast<unsigned>(std::max<size_t>(N, 1));
  workStealingFor(N, Threads, Ctx.Grain,
                  [&Body, &Ctx](unsigned W, size_t B, size_t E) {
                    if (trace::enabled())
                      trace::traceSetThreadNameIfUnset("dse-worker-" +
                                                       std::to_string(W));
                    TRACE_SPAN("dse.chunk");
                    Body(W, B, E);
                    if (ProgressSink *PS = Ctx.Progress) {
                      PS->add(E - B);
                      // Worker 0 is the calling thread (the pool enlists
                      // it), so ticks run where OnProgress expects.
                      if (W == 0)
                        PS->maybeTick();
                    }
                  });
  return Threads;
}

/// Journal-logged ParetoFront::insert: front-enter/front-evict events
/// with full objective vectors, so `dahlia-dse-report` can replay front
/// evolution. Call only from serial (calling-thread) phases — parallel
/// per-worker fronts stay unlogged and their survivors are journaled at
/// the deterministic merge.
void insertLogged(ParetoFront &F, const char *FrontName, size_t I,
                  const Objectives &O) {
  if (!eventlog::enabled()) {
    F.insert(I, O);
    return;
  }
  ParetoFront::InsertOutcome Out = F.insertEx(I, O);
  for (size_t E : Out.Evicted)
    eventlog::emit("front-evict", eventlog::Record()
                                      .field("config", E)
                                      .field("front", FrontName)
                                      .field("by", I));
  if (Out.Entered)
    eventlog::emit("front-enter", eventlog::Record()
                                      .field("config", I)
                                      .field("front", FrontName)
                                      .field("latency", O.Latency)
                                      .field("lut", O.Lut)
                                      .field("ff", O.Ff)
                                      .field("bram", O.Bram)
                                      .field("dsp", O.Dsp));
}

void mergeLogged(ParetoFront &F, const char *FrontName,
                 const ParetoFront &Other) {
  if (!eventlog::enabled()) {
    F.merge(Other);
    return;
  }
  Other.forEachMember(
      [&](size_t I, const Objectives &O) { insertLogged(F, FrontName, I, O); });
}

/// Type-check verdict for configuration \p I, memoized on the source hash.
bool checkOne(const SearchContext &Ctx, driver::CompilerPipeline &Pipeline,
              size_t I) {
  std::string Src = Ctx.Problem.Source(I);
  uint64_t SrcKey = stableHash(Src);
  bool Accepted = false;
  bool Hit = Ctx.Cache && Ctx.Cache->lookupVerdict(SrcKey, Accepted);
  if (!Hit) {
    Accepted = bool(Pipeline.check(Src));
    if (Ctx.Cache)
      Ctx.Cache->insertVerdict(SrcKey, Accepted);
  }
  if (eventlog::enabled())
    eventlog::emit("verdict", eventlog::Record()
                                  .field("config", I)
                                  .field("accepted", Accepted)
                                  .field("cache_hit", Hit));
  return Accepted;
}

/// Estimate of configuration \p I at fidelity \p F, memoized on the
/// fidelity-tagged spec hash (see hlsim::fidelityCacheKey — rungs never
/// serve each other's entries).
hlsim::Estimate estimateOne(const SearchContext &Ctx, size_t I,
                            hlsim::Fidelity F) {
  hlsim::KernelSpec Spec = Ctx.Problem.Spec(I);
  uint64_t Key = hlsim::fidelityCacheKey(hlsim::specHash(Spec), F);
  hlsim::Estimate Est;
  bool Hit = Ctx.Cache && Ctx.Cache->lookupEstimate(Key, Est);
  if (!Hit) {
    Est = hlsim::estimateAt(Spec, F);
    if (Ctx.Cache)
      Ctx.Cache->insertEstimate(Key, Est);
  }
  if (eventlog::enabled())
    eventlog::emit("estimate", eventlog::Record()
                                   .field("config", I)
                                   .field("fidelity", hlsim::fidelityName(F))
                                   .field("cache_hit", Hit));
  return Est;
}

/// Parallel type-check of every index in Ctx.Indices; fills verdicts and
/// Stats.Accepted.
void checkVerdicts(const SearchContext &Ctx, DseResult &R) {
  TRACE_SPAN("dse.check_verdicts");
  if (Ctx.Progress)
    Ctx.Progress->beginPhase("check", Ctx.Indices.size());
  driver::CompilerPipeline Pipeline;
  std::atomic<size_t> Accepted{0};
  parallelOver(Ctx, Ctx.Indices.size(), [&](unsigned, size_t B, size_t E) {
    for (size_t K = B; K != E; ++K) {
      size_t I = Ctx.Indices[K];
      R.Points[I].Accepted = checkOne(Ctx, Pipeline, I);
      if (R.Points[I].Accepted)
        Accepted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  R.Stats.Accepted = Accepted.load();
}

/// Parallel Coarse lower-bound estimation of \p Cand; the result is
/// index-aligned with \p Cand.
std::vector<Objectives> coarseBounds(const SearchContext &Ctx,
                                     const std::vector<size_t> &Cand) {
  TRACE_SPAN("dse.bound.coarse");
  if (Ctx.Progress)
    Ctx.Progress->beginPhase("bound-coarse", Cand.size());
  std::vector<Objectives> Out(Cand.size());
  parallelOver(Ctx, Cand.size(), [&](unsigned, size_t B, size_t E) {
    for (size_t K = B; K != E; ++K)
      Out[K] = Objectives::of(
          estimateOne(Ctx, Cand[K], hlsim::Fidelity::Coarse));
  });
  return Out;
}

/// Full-fidelity estimate of \p I recorded into the result point.
void recordFull(const SearchContext &Ctx, DseResult &R, size_t I) {
  DsePoint &Pt = R.Points[I];
  Pt.Est = estimateOne(Ctx, I, hlsim::Fidelity::Full);
  Pt.Obj = Objectives::of(Pt.Est);
  Pt.Estimated = true;
}

/// Exact (cycle-level simulator) estimate of \p I recorded into the
/// result point, replacing its Full-fidelity objectives.
void recordExact(const SearchContext &Ctx, DseResult &R, size_t I) {
  DsePoint &Pt = R.Points[I];
  Pt.Est = estimateOne(Ctx, I, hlsim::Fidelity::Exact);
  Pt.Obj = Objectives::of(Pt.Est);
  Pt.Estimated = true;
  Pt.ExactEvaluated = true;
}

/// Positions of \p Bound sorted by scalarized bound score, ascending; ties
/// break toward the lower position (== lower configuration index, since
/// candidates are ascending). The score is a max-normalized objective sum
/// over the ranked population — only used to *order* work, never to
/// decide membership, so any deterministic heuristic is sound here.
std::vector<size_t> rankByBound(const std::vector<Objectives> &Bound) {
  Objectives Max;
  for (const Objectives &O : Bound) {
    Max.Latency = std::max(Max.Latency, O.Latency);
    Max.Lut = std::max(Max.Lut, O.Lut);
    Max.Ff = std::max(Max.Ff, O.Ff);
    Max.Bram = std::max(Max.Bram, O.Bram);
    Max.Dsp = std::max(Max.Dsp, O.Dsp);
  }
  auto Norm = [](double V, double M) { return M > 0 ? V / M : 0.0; };
  std::vector<double> Score(Bound.size());
  for (size_t K = 0; K != Bound.size(); ++K) {
    const Objectives &O = Bound[K];
    Score[K] = Norm(O.Latency, Max.Latency) + Norm(O.Lut, Max.Lut) +
               Norm(O.Ff, Max.Ff) + Norm(O.Bram, Max.Bram) +
               Norm(O.Dsp, Max.Dsp);
  }
  std::vector<size_t> Order(Bound.size());
  for (size_t K = 0; K != Order.size(); ++K)
    Order[K] = K;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Score[A] != Score[B])
      return Score[A] < Score[B];
    return A < B;
  });
  return Order;
}

//===----------------------------------------------------------------------===//
// The ladder walk — dominance pruning on admissible bounds
//===----------------------------------------------------------------------===//

/// The dominance walk both strategies share. Visits \p Cand (ascending)
/// in bound-score order; \p Bound holds each candidate's objectives at
/// fidelity \p From. A candidate climbs the fidelity ladder one rung at a
/// time toward \p Top and is pruned as soon as its current bound is
/// strictly dominated by a walked point's \p Top objectives *in every
/// front it could join*; a candidate that reaches \p Top joins the fronts.
///
/// Every rung is an admissible bound of every rung above it, so a prune
/// never drops a member of the all-\p Top front over \p Cand. Decisions
/// stay valid as the fronts evolve: a member can only be displaced by a
/// point that dominates it, which then strictly dominates the same bounds
/// the member pruned. Visiting in bound-score order builds the front up
/// fast, so most later candidates are pruned on a cheap rung.
void ladderWalk(const SearchContext &Ctx, DseResult &R,
                const std::vector<size_t> &Cand, std::vector<Objectives> Bound,
                hlsim::Fidelity From, hlsim::Fidelity Top) {
  TRACE_SPAN("dse.ladder_walk");
  ParetoFront All, Acc;
  if (Ctx.Progress)
    Ctx.Progress->beginPhase("walk", Cand.size());
  for (size_t Pos : rankByBound(Bound)) {
    size_t I = Cand[Pos];
    bool IsAccepted = R.Points[I].Accepted;
    if (ProgressSink *PS = Ctx.Progress) {
      PS->add(1);
      PS->setFrontSize(All.size());
      PS->maybeTick();
    }
    hlsim::Fidelity F = From;
    while (F != Top) {
      const Objectives &B = Bound[Pos];
      if (All.dominatesPoint(B) && (!IsAccepted || Acc.dominatesPoint(B))) {
        // Machine-readable prune provenance: which front member's
        // objectives dominated this bound, and at what rung the cut
        // happened (dahlia-dse-report --why-pruned).
        ++R.Stats.Pruned;
        if (eventlog::enabled())
          eventlog::emit("prune", eventlog::Record()
                                      .field("config", I)
                                      .field("reason", "dominated")
                                      .field("dominator",
                                             All.dominatorOf(B).value_or(I))
                                      .field("bound_fidelity",
                                             hlsim::fidelityName(F)));
        break;
      }
      // Climb one rung. Only the Full and Exact rungs write the point's
      // objectives; a Medium estimate just tightens the bound.
      F = hlsim::Fidelity(static_cast<uint8_t>(F) + 1);
      if (F == hlsim::Fidelity::Medium) {
        Bound[Pos] = Objectives::of(estimateOne(Ctx, I, F));
        ++R.Stats.LowFidelityEstimates;
        continue;
      }
      if (F == hlsim::Fidelity::Full) {
        recordFull(Ctx, R, I);
        ++R.Stats.Estimated;
      } else {
        recordExact(Ctx, R, I);
        ++R.Stats.ExactEstimates;
      }
      Bound[Pos] = R.Points[I].Obj;
    }
    if (F != Top)
      continue;
    insertLogged(All, "all", I, Bound[Pos]);
    if (IsAccepted)
      insertLogged(Acc, "accepted", I, Bound[Pos]);
  }
  R.Front = All.indices();
  R.AcceptedFront = Acc.indices();
}

} // namespace

//===----------------------------------------------------------------------===//
// exhaustiveSearch — the engine's original fused sweep
//===----------------------------------------------------------------------===//

void dahlia::dse::exhaustiveSearch(const SearchContext &Ctx, DseResult &R) {
  TRACE_SPAN("dse.exhaustive");
  static metrics::Counter &Runs = metrics::counter("dse.exhaustive.runs");
  Runs.inc();
  struct WorkerTally {
    size_t Accepted = 0;
    size_t Estimated = 0;
    ParetoFront FrontAll;
    ParetoFront FrontAccepted;
  };
  const DseProblem &P = Ctx.Problem;
  driver::CompilerPipeline Pipeline;
  std::vector<WorkerTally> Tallies(Ctx.Threads);

  if (Ctx.Progress)
    Ctx.Progress->beginPhase("sweep", Ctx.Indices.size());
  parallelOver(Ctx, Ctx.Indices.size(), [&](unsigned W, size_t B, size_t E) {
    WorkerTally &T = Tallies[W];
    for (size_t K = B; K != E; ++K) {
      size_t I = Ctx.Indices[K];
      DsePoint &Pt = R.Points[I];
      Pt.Accepted = checkOne(Ctx, Pipeline, I);
      T.Accepted += Pt.Accepted ? 1 : 0;
      if (!Pt.Accepted && !P.EstimateRejected)
        continue;
      recordFull(Ctx, R, I);
      ++T.Estimated;
      if (Ctx.ExactTopRung)
        continue; // The ladder walk below builds the (Exact) fronts.
      T.FrontAll.insert(I, Pt.Obj);
      if (Pt.Accepted)
        T.FrontAccepted.insert(I, Pt.Obj);
    }
  });

  // Deterministic reduction: the dominance-maximal set is unique and
  // the equal-vector tie rule is order-independent, so any merge order
  // yields the same membership. The merge runs on the calling thread,
  // which is where front events are journaled (the per-worker fronts
  // above are parallel and stay unlogged).
  ParetoFront All, Acc;
  for (WorkerTally &T : Tallies) {
    mergeLogged(All, "all", T.FrontAll);
    mergeLogged(Acc, "accepted", T.FrontAccepted);
    R.Stats.Accepted += T.Accepted;
    R.Stats.Estimated += T.Estimated;
  }
  if (Ctx.Progress)
    Ctx.Progress->setFrontSize(All.size());
  R.Front = All.indices();
  R.AcceptedFront = Acc.indices();

  // The exact top rung: walk the Full-estimated configs from their Full
  // objectives (admissible bounds of their Exact points) up to Exact.
  if (Ctx.ExactTopRung) {
    std::vector<size_t> Cand;
    std::vector<Objectives> Bound;
    for (size_t I : Ctx.Indices) {
      if (R.Points[I].Estimated) {
        Cand.push_back(I);
        Bound.push_back(R.Points[I].Obj);
      }
    }
    ladderWalk(Ctx, R, Cand, std::move(Bound), hlsim::Fidelity::Full,
               hlsim::Fidelity::Exact);
  }
}

//===----------------------------------------------------------------------===//
// paretoPruneSearch — dominance pruning on admissible bounds
//===----------------------------------------------------------------------===//

/// The pruned search:
///
///   1. type-check everything (verdicts are needed for Stats.Accepted and
///      to protect the accepted-only front);
///   2. compute Coarse lower bounds for every estimation candidate;
///   3. run the ladder walk from Coarse up to Full, or to Exact under the
///      exact top rung.
///
/// Step 3 is exact (never drops a front member) because the fidelity
/// ladder makes every bound admissible; see SearchStrategy.h.
void dahlia::dse::paretoPruneSearch(const SearchContext &Ctx, DseResult &R) {
  TRACE_SPAN("dse.pareto_prune");
  static metrics::Counter &PruneRuns =
      metrics::counter("dse.pareto_prune.runs");
  PruneRuns.inc();
  const DseProblem &P = Ctx.Problem;
  checkVerdicts(Ctx, R);

  // Estimation candidates, ascending. Figure-8-style problems
  // (EstimateRejected=false) never estimate rejected configs.
  std::vector<size_t> Cand;
  Cand.reserve(Ctx.Indices.size());
  for (size_t I : Ctx.Indices)
    if (R.Points[I].Accepted || P.EstimateRejected)
      Cand.push_back(I);

  R.Stats.LowFidelityEstimates += Cand.size();
  ladderWalk(Ctx, R, Cand, coarseBounds(Ctx, Cand), hlsim::Fidelity::Coarse,
             Ctx.ExactTopRung ? hlsim::Fidelity::Exact
                              : hlsim::Fidelity::Full);
}

//===----------------------------------------------------------------------===//
// Shard fronts
//===----------------------------------------------------------------------===//

std::vector<FrontPoint> dahlia::dse::collectFrontPoints(const DseResult &R) {
  std::vector<size_t> Members = R.Front;
  Members.insert(Members.end(), R.AcceptedFront.begin(),
                 R.AcceptedFront.end());
  std::sort(Members.begin(), Members.end());
  Members.erase(std::unique(Members.begin(), Members.end()), Members.end());
  std::vector<FrontPoint> Out;
  Out.reserve(Members.size());
  for (size_t I : Members) {
    assert(R.Points[I].Estimated && "front member without full objectives");
    Out.push_back({I, R.Points[I].Obj, R.Points[I].Accepted});
  }
  return Out;
}

MergedFronts
dahlia::dse::mergeFrontPoints(const std::vector<FrontPoint> &Points) {
  ParetoFront All, Acc;
  for (const FrontPoint &P : Points) {
    All.insert(P.Index, P.Obj);
    if (P.Accepted)
      Acc.insert(P.Index, P.Obj);
  }
  return {All.indices(), Acc.indices()};
}

uint64_t dahlia::dse::frontHash(
    const std::vector<size_t> &Members,
    const std::function<const Objectives &(size_t)> &ObjOf) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (size_t I : Members) {
    H = stableHashCombine(H, I);
    const Objectives &O = ObjOf(I);
    for (double V : {O.Latency, O.Lut, O.Ff, O.Bram, O.Dsp})
      H = stableHashCombine(H, std::bit_cast<uint64_t>(V));
  }
  return H;
}

std::string dahlia::dse::hashString(uint64_t H) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

Json dahlia::dse::frontPointsToJson(const std::vector<FrontPoint> &Points) {
  Json Arr = Json::array();
  for (const FrontPoint &P : Points) {
    Json O = Json::object();
    O["index"] = static_cast<int64_t>(P.Index);
    O["accepted"] = P.Accepted;
    O["latency"] = P.Obj.Latency;
    O["lut"] = P.Obj.Lut;
    O["ff"] = P.Obj.Ff;
    O["bram"] = P.Obj.Bram;
    O["dsp"] = P.Obj.Dsp;
    Arr.push_back(std::move(O));
  }
  return Arr;
}

std::optional<std::vector<FrontPoint>>
dahlia::dse::frontPointsFromJson(const Json &J, std::string *Err) {
  if (!J.isArray()) {
    if (Err)
      *Err = "front_points must be an array";
    return std::nullopt;
  }
  std::vector<FrontPoint> Out;
  for (const Json &E : J.asArray()) {
    // Every field is required: a point with a defaulted objective would
    // silently dominate the whole merged front.
    if (!E.isObject() || !E.contains("index") || !E.contains("accepted")) {
      if (Err)
        *Err = "front point must be an object with 'index' and 'accepted'";
      return std::nullopt;
    }
    int64_t Index = E.at("index").asInt(-1);
    if (Index < 0) {
      if (Err)
        *Err = "front point has a negative 'index'";
      return std::nullopt;
    }
    FrontPoint P;
    P.Index = static_cast<size_t>(Index);
    P.Accepted = E.at("accepted").asBool();
    struct {
      const char *Key;
      double &Slot;
    } Fields[] = {{"latency", P.Obj.Latency},
                  {"lut", P.Obj.Lut},
                  {"ff", P.Obj.Ff},
                  {"bram", P.Obj.Bram},
                  {"dsp", P.Obj.Dsp}};
    for (auto &[Key, Slot] : Fields) {
      if (!E.contains(Key) || !E.at(Key).isNumber()) {
        if (Err)
          *Err = std::string("front point lacks numeric '") + Key + "'";
        return std::nullopt;
      }
      Slot = E.at(Key).asDouble();
    }
    Out.push_back(std::move(P));
  }
  return Out;
}

Json dahlia::dse::indicesToJson(const std::vector<size_t> &Indices) {
  Json Arr = Json::array();
  for (size_t I : Indices)
    Arr.push_back(static_cast<int64_t>(I));
  return Arr;
}
