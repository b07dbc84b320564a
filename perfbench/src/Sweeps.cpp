//===- Sweeps.cpp - sweep-exhaustive and sweep-pruned workloads --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Both sweeps call dse::DseEngine::explore on seeded permutations of the
// kernel spaces and check every verdict and both fronts against the
// reference file. The traced run wraps the problem's Source/Spec callbacks
// in spans, then replays the sweep's inputs through the layer functions
// (lex, parse, check, estimateAt per fidelity, simulate) with the per-config
// call sets the engine's public results name.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cyclesim/CycleSim.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "support/StableHash.h"

#include <memory>
#include <unordered_set>

using namespace dahlia;

namespace perfbench {
namespace {

using PermPtr = std::shared_ptr<const std::vector<size_t>>;

/// \p P with configuration I renamed to Perm[I]. When tracing, each
/// callback is a span: kernels.source / kernels.spec are timed inside the
/// engine's own sweep.
dse::DseProblem permuted(const dse::DseProblem &P, PermPtr Perm) {
  dse::DseProblem Q;
  Q.Size = P.Size;
  Q.EstimateRejected = P.EstimateRejected;
  auto Src = P.Source;
  auto Spec = P.Spec;
  if (trace::on()) {
    Q.Source = [Src, Perm](size_t I) {
      trace::Span S("kernels.source");
      return Src((*Perm)[I]);
    };
    Q.Spec = [Spec, Perm](size_t I) {
      trace::Span S("kernels.spec");
      return Spec((*Perm)[I]);
    };
  } else {
    Q.Source = [Src, Perm](size_t I) { return Src((*Perm)[I]); };
    Q.Spec = [Spec, Perm](size_t I) { return Spec((*Perm)[I]); };
  }
  return Q;
}

/// One space's inputs: the natural problem and a seeded order over it.
struct SweepInput {
  SpaceId Space;
  dse::DseProblem Natural;
  PermPtr Perm;
  dse::DseProblem Problem; ///< Natural, permuted.
};

SweepInput makeInput(SpaceId S, uint64_t Seed) {
  SweepInput In{S, spaceProblem(S), nullptr, {}};
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(S) + 1);
  In.Perm = std::make_shared<const std::vector<size_t>>(
      permutation(In.Natural.Size, R));
  In.Problem = permuted(In.Natural, In.Perm);
  return In;
}

struct SweepRun {
  dse::DseResult DR;
  double Wall = 0;
  double Cpu = 0;
};

SweepRun explore(const SweepInput &In, const dse::DseOptions &Opts) {
  trace::Span S("dse.explore");
  SweepRun Run;
  double C0 = processCpuSec();
  uint64_t T0 = nowNs();
  Run.DR = dse::DseEngine(Opts).explore(In.Problem);
  Run.Wall = (nowNs() - T0) * 1e-9;
  Run.Cpu = processCpuSec() - C0;
  return Run;
}

/// Every configuration is one operation: its verdict must match the
/// reference, and each front member missing or extra is a failed one.
void verify(const Reference &Ref, const SweepInput &In, const char *RunKey,
            const dse::DseResult &DR, RunResult &R) {
  const std::vector<size_t> &Perm = *In.Perm;
  R.Attempted += Perm.size();
  const char *Name = spaceName(In.Space);
  if (DR.Points.size() != Perm.size() || DR.Stats.Explored != Perm.size()) {
    R.fail(Perm.size(), std::string(Name) + ": incomplete sweep");
    return;
  }
  size_t Wrong = 0;
  for (size_t I = 0; I != Perm.size(); ++I)
    if (DR.Points[I].Accepted != Ref.accepted(In.Space, Perm[I]))
      ++Wrong;
  R.fail(Wrong, std::string(Name) + ": verdicts differ from the reference");
  auto FrontOf = [&](const std::vector<size_t> &Members) {
    std::vector<dse::Objectives> Os;
    for (size_t M : Members)
      Os.push_back(DR.Points[M].Obj);
    return sortedObjectives(Os);
  };
  R.fail(objectiveMismatches(FrontOf(DR.Front),
                             Ref.front(In.Space, RunKey, "front")),
         std::string(Name) + ": front differs from the reference");
  R.fail(objectiveMismatches(FrontOf(DR.AcceptedFront),
                             Ref.front(In.Space, RunKey, "accepted_front")),
         std::string(Name) + ": accepted front differs from the reference");
}

/// Replays one explored sweep through the layer functions. Work the engine
/// memoized (equal source or spec hashes) is replayed once, as the engine
/// computed it once.
struct ReplayTally {
  size_t Checked = 0, Accepted = 0;
  uint64_t Sims = 0, WalkedGroups = 0;
};

void replaySweep(const SweepInput &In, const dse::DseResult &DR, bool Pruned,
                 uint64_t Seed, ReplayTally &T) {
  trace::Span Root("replay");
  const dse::DseProblem &P = In.Natural;
  const std::vector<size_t> &Perm = *In.Perm;
  std::unordered_set<uint64_t> Seen;
  auto First = [&](uint64_t Key) { return Seen.insert(Key).second; };

  for (size_t I = 0; I != Perm.size(); ++I) {
    std::string Src = P.Source(Perm[I]);
    if (!First(stableHash(Src)))
      continue;
    {
      trace::Span S("lexer.lex");
      (void)lex(Src);
    }
    Result<Program> Prog = [&] {
      trace::Span S("parser.parse");
      return parseProgram(Src);
    }();
    bool Ok = false;
    if (Prog) {
      trace::Span S("sema.check");
      Ok = typeCheck(*Prog).empty();
    }
    ++T.Checked;
    T.Accepted += Ok ? 1 : 0;
  }

  auto EstimateOnce = [&](size_t I, hlsim::Fidelity F, const char *Span) {
    hlsim::KernelSpec K = P.Spec(Perm[I]);
    if (!First(hlsim::fidelityCacheKey(hlsim::specHash(K), F)))
      return;
    trace::Span S(Span);
    (void)hlsim::estimateAt(K, F);
  };

  std::vector<size_t> Full, Other;
  for (size_t I = 0; I != Perm.size(); ++I) {
    bool Candidate = DR.Points[I].Accepted || P.EstimateRejected;
    if (DR.Points[I].Estimated)
      Full.push_back(I);
    else if (Candidate)
      Other.push_back(I);
  }
  for (size_t I : Full)
    EstimateOnce(I, hlsim::Fidelity::Full, "hlsim.full");

  if (Pruned) {
    // Coarse bounds cover every candidate; Medium tightens the ones the
    // walk did not cut at Coarse, a superset of the Full-estimated set.
    for (size_t I : Full)
      EstimateOnce(I, hlsim::Fidelity::Coarse, "hlsim.coarse");
    for (size_t I : Other)
      EstimateOnce(I, hlsim::Fidelity::Coarse, "hlsim.coarse");
    size_t Candidates = Full.size() + Other.size();
    size_t Mediums = DR.Stats.LowFidelityEstimates > Candidates
                         ? DR.Stats.LowFidelityEstimates - Candidates
                         : 0;
    for (size_t I : Full)
      EstimateOnce(I, hlsim::Fidelity::Medium, "hlsim.medium");
    Rng R(Seed ^ 0x6d656469756dULL);
    std::vector<size_t> Order = permutation(Other.size(), R);
    for (size_t K = 0; K + Full.size() < Mediums && K != Order.size(); ++K)
      EstimateOnce(Other[Order[K]], hlsim::Fidelity::Medium, "hlsim.medium");
  }

  // The exact top rung: Full's area model around a cycle-level simulation.
  for (size_t I = 0; I != Perm.size(); ++I) {
    if (!DR.Points[I].ExactEvaluated)
      continue;
    hlsim::KernelSpec K = P.Spec(Perm[I]);
    if (!First(hlsim::fidelityCacheKey(hlsim::specHash(K),
                                       hlsim::Fidelity::Exact)))
      continue;
    cyclesim::SimResult Sim;
    {
      trace::Span S("cyclesim.sim");
      Sim = cyclesim::simulate(K);
    }
    ++T.Sims;
    T.WalkedGroups += Sim.WalkedGroups;
    trace::Span S("hlsim.full");
    (void)hlsim::estimateAt(K, hlsim::Fidelity::Full);
  }
}

/// Per-layer metrics of the sweeps from the engine's statistics, the traced
/// sweep's callback spans, and the replay spans. \p Cpu is the explored
/// sweeps' process CPU time, which the attributed layer time is a share of.
void sweepLayers(const std::vector<const dse::DseResult *> &Runs, double Cpu,
                 const ReplayTally &T, RunResult &R) {
  size_t Explored = 0, Estimated = 0, Low = 0, Exact = 0, Hits = 0;
  for (const dse::DseResult *DR : Runs) {
    const dse::DseStats &St = DR->Stats;
    Explored += St.Explored;
    Estimated += St.Estimated;
    Low += St.LowFidelityEstimates;
    Exact += St.ExactEstimates;
    Hits += St.VerdictCacheHits + St.EstimateCacheHits;
  }
  size_t Lookups = Explored + Estimated + Low + Exact;
  trace::Totals Source = trace::totals("kernels.source");
  trace::Totals Spec = trace::totals("kernels.spec");
  trace::Totals Lex = trace::totals("lexer.lex");
  trace::Totals Parse = trace::totals("parser.parse");
  trace::Totals Check = trace::totals("sema.check");
  trace::Totals Full = trace::totals("hlsim.full");
  trace::Totals Coarse = trace::totals("hlsim.coarse");
  trace::Totals Medium = trace::totals("hlsim.medium");
  trace::Totals Sim = trace::totals("cyclesim.sim");
  R.layer("kernels.source_us", Source.meanUs(), "us");
  R.layer("kernels.spec_us", Spec.meanUs(), "us");
  R.layer("lexer.lex_us", Lex.meanUs(), "us");
  R.layer("parser.parse_us", Parse.meanUs() - Lex.meanUs(), "us");
  R.layer("sema.check_us", Check.meanUs(), "us");
  R.layer("sema.accept_ratio",
          T.Checked ? static_cast<double>(T.Accepted) / T.Checked : 0,
          "ratio");
  R.layer("hlsim.full_us", Full.meanUs(), "us");
  R.layer("hlsim.full_calls", static_cast<double>(Estimated), "count");
  R.layer("hlsim.coarse_us", Coarse.meanUs(), "us");
  R.layer("hlsim.medium_us", Medium.meanUs(), "us");
  R.layer("hlsim.low_calls", static_cast<double>(Low), "count");
  R.layer("cyclesim.sim_us", Sim.meanUs(), "us");
  R.layer("cyclesim.calls", static_cast<double>(Exact), "count");
  R.layer("cyclesim.walked_groups",
          T.Sims ? static_cast<double>(T.WalkedGroups) / T.Sims : 0, "count");
  R.layer("dse.memo_hit_ratio",
          Lookups ? static_cast<double>(Hits) / Lookups : 0, "ratio");
  R.layer("dse.full_estimate_ratio",
          Explored ? static_cast<double>(Estimated) / Explored : 0, "ratio");
  // parser.parse spans include the lex they run, so lex is not added twice.
  double AttributedNs = static_cast<double>(Source.Ns + Spec.Ns + Parse.Ns +
                                            Check.Ns + Full.Ns + Coarse.Ns +
                                            Medium.Ns + Sim.Ns);
  double Unattributed = Cpu > 0 ? 1.0 - AttributedNs * 1e-9 / Cpu : 0;
  R.layer("dse.unattributed_fraction", std::max(0.0, Unattributed), "ratio");
  R.Info["unattributed_base_cpu_s"] = Cpu;
}

constexpr unsigned SetupReps = 9;

/// Runs set-up \p F \p Reps times, keeping the last result, and records
/// each duration in \p Times (setup_s is their median).
template <typename Fn>
auto timedSetup(std::vector<double> &Times, unsigned Reps, Fn F) {
  decltype(F()) Out;
  for (unsigned I = 0; I != Reps; ++I) {
    uint64_t T0 = nowNs();
    Out = F();
    Times.push_back((nowNs() - T0) * 1e-9);
  }
  return Out;
}

} // namespace

int runSweepExhaustive(const Options &O, const Reference &Ref, RunResult &R) {
  std::vector<double> St;
  SweepInput In = timedSetup(St, SetupReps, [&] {
    trace::Span S("setup");
    return makeInput(SpaceId::Gemm, O.Seed);
  });
  Digest D;
  for (size_t I : *In.Perm)
    D.add(static_cast<uint64_t>(I));
  R.Info["input_digest"] = D.hex();
  R.Info["dse_threads"] = 1;

  dse::DseOptions Opts;
  Opts.Threads = 1;
  Opts.Strategy = dse::StrategyKind::Exhaustive;
  std::vector<SweepRun> Runs;
  std::vector<double> Walls;
  forBudget(O.Seconds, [&] {
    // A fresh engine run allocates a fresh (cold) memo cache.
    SweepRun Run = explore(In, Opts);
    verify(Ref, In, "exhaustive", Run.DR, R);
    Walls.push_back(Run.Wall);
    if (trace::on() && Runs.empty())
      Runs.push_back(std::move(Run));
  });
  roundMetrics(Walls, In.Natural.Size, St, R);

  if (trace::on()) {
    ReplayTally T;
    replaySweep(In, Runs[0].DR, /*Pruned=*/false, O.Seed, T);
    sweepLayers({&Runs[0].DR}, Runs[0].Cpu, T, R);
  }
  return 0;
}

int runSweepPruned(const Options &O, const Reference &Ref, RunResult &R) {
  const SpaceId Order[] = {SpaceId::Gemm, SpaceId::Stencil, SpaceId::MdKnn,
                           SpaceId::MdGrid};
  std::vector<double> St;
  std::vector<SweepInput> Ins = timedSetup(St, SetupReps, [&] {
    trace::Span Setup("setup");
    std::vector<SweepInput> V;
    for (SpaceId S : Order)
      V.push_back(makeInput(S, O.Seed));
    return V;
  });
  Digest D;
  size_t PerRound = 0;
  for (const SweepInput &In : Ins) {
    PerRound += In.Natural.Size;
    for (size_t I : *In.Perm)
      D.add(static_cast<uint64_t>(I));
  }
  R.Info["input_digest"] = D.hex();
  R.Info["dse_threads"] = 2;

  dse::DseOptions Opts;
  Opts.Threads = 2;
  Opts.Strategy = dse::StrategyKind::ParetoPrune;
  Opts.ExactTopRung = true;
  std::vector<SweepRun> FirstRound;
  std::vector<double> Walls;
  forBudget(O.Seconds, [&] {
    double Wall = 0;
    for (const SweepInput &In : Ins) {
      SweepRun Run = explore(In, Opts);
      verify(Ref, In, "pruned_exact", Run.DR, R);
      Wall += Run.Wall;
      if (trace::on() && FirstRound.size() < Ins.size())
        FirstRound.push_back(std::move(Run));
    }
    Walls.push_back(Wall);
  });
  roundMetrics(Walls, PerRound, St, R);

  if (trace::on()) {
    ReplayTally T;
    std::vector<const dse::DseResult *> DRs;
    double Cpu = 0;
    for (size_t K = 0; K != Ins.size(); ++K) {
      replaySweep(Ins[K], FirstRound[K].DR, /*Pruned=*/true, O.Seed, T);
      DRs.push_back(&FirstRound[K].DR);
      Cpu += FirstRound[K].Cpu;
    }
    sweepLayers(DRs, Cpu, T, R);
  }
  return 0;
}

} // namespace perfbench
