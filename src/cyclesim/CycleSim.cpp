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
#include <cmath>
#include <numeric>
#include <vector>

using namespace dahlia;
using namespace dahlia::cyclesim;
using namespace dahlia::hlsim;

namespace {

/// Global budget of cycle-walked groups across all nests. The periodic
/// caps keep real kernels far below this; on pathological specs the walk
/// truncates and the II is clamped to the analytic sampled scan so the
/// lower-bound guarantee still holds.
constexpr uint64_t kMaxWalkGroups = 1u << 20;

/// Everything the walk needs about one nest beyond its resolved form.
struct NestPlan {
  NestInstances Instances;
  /// Walked groups per loop: min(ceil(trip / unroll), conflict-pattern
  /// period).
  std::vector<int64_t> Caps;
};

void planNest(const ResolvedKernel &R, const ResolvedNest &N, NestPlan &P) {
  accessInstances(R, N, P.Instances);
  P.Caps.clear();
  for (size_t L = 0; L != N.loops(); ++L) {
    int64_t U = std::max<int64_t>(N.Unroll[L], 1);
    int64_t G = (N.Trip[L] + U - 1) / U;
    G = std::max<int64_t>(G, 1);

    // The bank an affine access resolves to depends on this loop's group
    // counter only modulo partition / gcd(partition, coeff * unroll), so
    // the joint conflict pattern repeats with the lcm of those periods.
    // Walking one period is therefore exactly as informative as walking
    // every group.
    int64_t Period = 1;
    for (const ResolvedAccess &A : N.Body) {
      const ResolvedArray &Arr = R.Arrays[A.Array];
      for (size_t D = 0; D != Arr.Rank; ++D) {
        int64_t Pt = R.Partition[Arr.FirstDim + D];
        int64_t Coeff = N.row(A.FirstRow + D)[L];
        if (Pt <= 1 || Coeff == 0)
          continue;
        int64_t DimPeriod = Pt / std::gcd(Pt, std::abs(Coeff) * U);
        Period = std::lcm(Period, DimPeriod);
      }
    }
    P.Caps.push_back(std::min(G, Period));
  }
}

} // namespace

SimResult dahlia::cyclesim::simulate(const KernelSpec &K) {
  TRACE_SPAN("cyclesim.simulate");
  static metrics::Counter &Sims = metrics::counter("cyclesim.simulations");
  Sims.inc();
  const CostModel CM;
  SimResult R;
  uint64_t Budget = kMaxWalkGroups;

  // Per-thread scratch, re-resolved on every call (see hlsim::estimate).
  thread_local ResolvedKernel RK;
  thread_local NestPlan P;
  resolve(K, RK);

  double Cycles = 0;
  for (size_t NI = 0; NI != K.nestCount(); ++NI) {
    const KernelSpec::NestView N = K.nest(NI);
    const ResolvedNest &RN = RK.Nests[NI];
    planNest(RK, RN, P);
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
    for (uint64_t G = 0; G != Walk; ++G) {
      double Needed = arbitrateGroup(RK, RN, P.Instances, Coord.data(),
                                     S.MaxPortPressure);
      II = std::max(II, Needed);
      ++S.WalkedGroups;
      if (Needed > 1.0) {
        ++S.ConflictGroups;
        S.StallCycles += static_cast<uint64_t>(Needed) - 1;
      }
      // Odometer step, innermost loop fastest.
      for (size_t L = P.Caps.size(); L-- > 0;) {
        Coord[L] = (Coord[L] + 1) % P.Caps[L];
        if (Coord[L] != 0)
          break;
      }
    }
    // Budget-truncated walks clamp against the analytic sampled scan so
    // Full <= Exact survives even the pathological case.
    if (!S.PeriodComplete)
      II = std::max(II, sampledConflictII(RK, RN, P.Instances,
                                          CM.PortConflictSamples));
    if (N.HasAccumulator && K.FloatingPoint)
      II = std::max(II, 1.0 + CM.AccumulatorII);
    S.II = II;
    R.II = std::max(R.II, II);

    //===----------------------------------------------------------------===//
    // Nest latency under the derived static schedule — the shared
    // nestShape, so the only difference between Full and Exact cycles is
    // sampled-vs-observed II.
    //===----------------------------------------------------------------===//
    NestShape Shape = nestShape(RN, CM.LoopOverheadCycles);
    S.Groups = Shape.Groups;
    S.EffectiveII = std::max(II, N.IterationLatency);
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
      !(RK.UnrollDividesBanking && bankingDividesSizes(K)))
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
