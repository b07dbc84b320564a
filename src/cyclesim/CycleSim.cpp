//===- CycleSim.cpp - Cycle-level banked-memory simulator -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "cyclesim/CycleSim.h"

#include "hlsim/KernelAnalysis.h"
#include "support/Metrics.h"
#include "support/StableHash.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>

using namespace dahlia;
using namespace dahlia::cyclesim;
using namespace dahlia::hlsim;

namespace {

/// Global budget of cycle-walked groups across all nests. The periodic
/// caps keep real kernels far below this; on pathological specs the walk
/// truncates and the II is clamped to the analytic sampled scan so the
/// lower-bound guarantee still holds.
constexpr uint64_t kMaxWalkGroups = 1u << 20;

/// Everything the walk needs about one nest, resolved once.
struct NestPlan {
  KernelSpec::NestView N;
  std::vector<PeOffsets> Pes;
  /// Access-instance keys, aligned with *N.Body.
  std::vector<std::vector<InstanceKey>> Instances;
  /// Sequential groups per loop (ceil(trip / unroll)), aligned with
  /// *N.Loops.
  std::vector<int64_t> Groups;
  /// Walked groups per loop: min(Groups, conflict-pattern period).
  std::vector<int64_t> Caps;
};

NestPlan planNest(const KernelSpec &K, const KernelSpec::NestView &N) {
  NestPlan P;
  P.N = N;
  P.Pes = enumeratePes(N, 2048);
  P.Instances.reserve(N.Body->size());
  for (const Access &A : *N.Body) {
    assert(K.findArray(A.Array) && "access to unknown array");
    P.Instances.push_back(accessInstances(N, A, P.Pes));
  }

  for (size_t L = 0; L != N.Loops->size(); ++L) {
    const Loop &Lp = (*N.Loops)[L];
    int64_t U = std::max<int64_t>(Lp.Unroll, 1);
    int64_t G = (Lp.Trip + U - 1) / U;
    G = std::max<int64_t>(G, 1);

    // The bank an affine access resolves to depends on this loop's group
    // counter only modulo partition / gcd(partition, coeff * unroll), so
    // the joint conflict pattern repeats with the lcm of those periods.
    // Walking one period is therefore exactly as informative as walking
    // every group.
    int64_t Period = 1;
    for (const Access &A : *N.Body) {
      const ArraySpec *Arr = K.findArray(A.Array);
      if (!Arr)
        continue;
      for (size_t D = 0; D != A.Idx.size(); ++D) {
        int64_t Pt = Arr->Partition[D];
        if (Pt <= 1)
          continue;
        auto It = A.Idx[D].Coeffs.find(Lp.Var);
        if (It == A.Idx[D].Coeffs.end())
          continue;
        int64_t Step = std::abs(It->second) * U;
        int64_t DimPeriod = Pt / std::gcd(Pt, Step);
        Period = std::lcm(Period, DimPeriod);
      }
    }
    P.Groups.push_back(G);
    P.Caps.push_back(std::min(G, Period));
  }
  return P;
}

} // namespace

SimResult dahlia::cyclesim::simulate(const KernelSpec &K) {
  TRACE_SPAN("cyclesim.simulate");
  static metrics::Counter &Sims = metrics::counter("cyclesim.simulations");
  Sims.inc();
  const CostModel CM;
  SimResult R;
  uint64_t Budget = kMaxWalkGroups;

  double Cycles = 0;
  for (size_t NI = 0; NI != K.nestCount(); ++NI) {
    const NestPlan P = planNest(K, K.nest(NI));
    NestSim S;

    // Walk box: one conflict period per loop (clipped to the loop's real
    // group count), bounded by the remaining global budget.
    uint64_t BoxSize = 1;
    for (int64_t C : P.Caps) {
      uint64_t U = static_cast<uint64_t>(std::max<int64_t>(C, 1));
      if (BoxSize > (uint64_t(1) << 62) / U) {
        BoxSize = uint64_t(1) << 62; // Saturate; the budget clips below.
        break;
      }
      BoxSize *= U;
    }
    uint64_t Walk = BoxSize;
    if (Walk > Budget) {
      Walk = Budget;
      S.PeriodComplete = false;
      R.Truncated = true;
    }
    Budget -= Walk;

    //===----------------------------------------------------------------===//
    // The cycle walk: issue every group's unrolled body in lockstep and
    // arbitrate the banks (the same arbitration primitive the analytic
    // scan samples — KernelAnalysis.h); the nest's static II is the
    // worst group's arbitration latency (an HLS pipeline is scheduled
    // for its worst-case conflict, not re-timed per iteration).
    //===----------------------------------------------------------------===//
    double II = 1.0;
    std::vector<int64_t> Coord(P.Caps.size(), 0);
    std::map<std::string, int64_t> SeqIter;
    for (size_t L = 0; L != P.Caps.size(); ++L)
      SeqIter[(*P.N.Loops)[L].Var] = 0;
    for (uint64_t G = 0; G != Walk; ++G) {
      double Needed =
          arbitrateGroup(K, P.N, P.Instances, SeqIter, S.MaxPortPressure);
      II = std::max(II, Needed);
      ++S.WalkedGroups;
      if (Needed > 1.0) {
        ++S.ConflictGroups;
        S.StallCycles += static_cast<uint64_t>(Needed) - 1;
      }
      // Odometer step, innermost loop fastest.
      for (size_t L = P.Caps.size(); L-- > 0;) {
        Coord[L] = (Coord[L] + 1) % P.Caps[L];
        SeqIter[(*P.N.Loops)[L].Var] = Coord[L];
        if (Coord[L] != 0)
          break;
      }
    }
    // Budget-truncated walks clamp against the analytic sampled scan so
    // Full <= Exact survives even the pathological case.
    if (!S.PeriodComplete)
      II = std::max(II, sampledConflictII(K, P.N, P.Instances,
                                          CM.PortConflictSamples));
    if (P.N.HasAccumulator && K.FloatingPoint)
      II = std::max(II, 1.0 + CM.AccumulatorII);
    S.II = II;
    R.II = std::max(R.II, II);

    //===----------------------------------------------------------------===//
    // Nest latency under the derived static schedule — the shared
    // nestShape, so the only difference between Full and Exact cycles is
    // sampled-vs-observed II.
    //===----------------------------------------------------------------===//
    NestShape Shape = nestShape(P.N, CM.LoopOverheadCycles);
    S.Groups = Shape.Groups;
    S.EffectiveII = std::max(II, P.N.IterationLatency);
    S.Cycles = Shape.Groups * S.EffectiveII + Shape.OuterOverhead;
    Cycles += Shape.Groups * S.EffectiveII + Shape.OuterOverhead;
    R.WalkedGroups += S.WalkedGroups;
    R.Nests.push_back(std::move(S));
  }
  Cycles += CM.PipelineDepth;
  Cycles += K.ExtraSerialCycles;

  // Rule-violating configurations run on the same erratically-synthesized
  // hardware the analytic model perturbs, so the simulated schedule
  // inherits the identical deterministic multiplier (>= 1, shared via
  // KernelAnalysis.h) — without it the Full rung could overtake Exact on
  // noisy points.
  if (CM.ModelHeuristicNoise &&
      !(unrollDividesBanking(K) && bankingDividesSizes(K)))
    Cycles *= heuristicLatencyMultiplier(K, CM.NoiseAmplitudeLatency);

  // Conflict-period walk accounting: how many iteration groups the
  // simulator actually executed (vs. the analytic scan's fixed samples).
  static metrics::Counter &Walked =
      metrics::counter("cyclesim.walked_groups");
  static metrics::Counter &Truncs = metrics::counter("cyclesim.truncations");
  Walked.inc(R.WalkedGroups);
  if (R.Truncated)
    Truncs.inc();

  R.Cycles = Cycles;
  return R;
}

hlsim::Estimate dahlia::cyclesim::exactEstimate(const KernelSpec &K) {
  return exactEstimate(K, simulate(K));
}

hlsim::Estimate dahlia::cyclesim::exactEstimate(const KernelSpec &K,
                                                const SimResult &S) {
  hlsim::Estimate E = hlsim::estimate(K); // Full-fidelity area model.
  E.Cycles = S.Cycles;
  E.II = S.II;
  E.RuntimeMs = S.Cycles / (K.ClockMHz * 1e3);
  return E;
}
