//===- Estimator.cpp - HLS resource/latency estimation ----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "hlsim/Estimator.h"

#include "cyclesim/CycleSim.h"
#include "hlsim/KernelAnalysis.h"
#include "support/Metrics.h"
#include "support/StableHash.h"

#include <algorithm>
#include <cmath>
#include <vector>

using namespace dahlia;
using namespace dahlia::hlsim;

// The estimator walks every nest of the spec (multi-phase kernels like
// md-knn execute their nests serially): latency and PE area accumulate
// across nests, the reported II is the max over nests, and the bank
// fan-in / rule checks consider all of them. The order of the floating
// point arithmetic below is part of the model: the Figure 7 front hashes
// in bench/baselines/ and EstimateDigestTest pin its last bit.
Estimate dahlia::hlsim::estimate(const KernelSpec &K, const CostModel &CM) {
  Estimate E;
  // The processing-element enumeration feeds only the mux sizing and the
  // port-conflict scan; coarse-fidelity models disable both, and skipping
  // the enumeration is what makes them cheap.
  const bool ScanPorts = CM.ModelPortConflicts && CM.PortConflictSamples > 0;
  const bool NeedInstances = CM.ModelMuxCost || ScanPorts;

  // Per-thread scratch: every estimate re-resolves into it, so nothing
  // about a spec outlives the call but the buffers' capacity.
  thread_local ResolvedKernel R;
  thread_local NestInstances Instances;
  thread_local std::vector<int64_t> BankFanIn, Reach;
  resolve(K, R);
  BankFanIn.assign(NeedInstances ? static_cast<size_t>(R.TotalBanks) : 0, 0);

  double MuxLut = 0;
  double II = 1.0;     ///< Max initiation interval across nests.
  double Cycles = 0;   ///< Serial nest latencies, summed.
  double PeLut = 0;    ///< Unrolled arithmetic LUTs, summed over nests.
  double DspAcc = 0;   ///< DSP blocks, summed over nests.
  double SumPe = 0;    ///< PE count across nests (registers scale on it).
  size_t LoopLevels = 0;

  for (size_t NI = 0; NI != K.Nests.size(); ++NI) {
    const LoopNest &N = K.Nests[NI];
    const ResolvedNest &RN = R.Nests[NI];
    const double UNest = static_cast<double>(N.totalUnroll());
    SumPe += UNest;
    LoopLevels += RN.loops();

    //===----------------------------------------------------------------===//
    // Bank reachability (mechanism 2): mux and arbitration sizing.
    //===----------------------------------------------------------------===//
    if (NeedInstances) {
      accessInstances(R, RN, Instances);
      for (size_t AI = 0; AI != RN.Body.size(); ++AI) {
        const ResolvedAccess &A = RN.Body[AI];
        const ResolvedArray &Arr = R.Arrays[A.Array];
        const NestInstances::Span &S = Instances.Accesses[AI];
        for (size_t Row = 0; Row != S.Rows; ++Row) {
          reachableBanks(R, RN, A,
                         Instances.Residues.data() + S.FirstRes +
                             Row * Arr.Rank,
                         Reach);
          const int64_t Mult = Instances.Mult[S.FirstRow + Row];
          // One add per instance, not one product per row: the rounded
          // sum must not depend on how instances share residue rows.
          if (Reach.size() > 1)
            for (int64_t M = 0; M != Mult; ++M)
              MuxLut += model::MuxLutPerInputBit *
                        static_cast<double>(Reach.size()) * Arr.ElemBits;
          for (int64_t B : Reach)
            BankFanIn[static_cast<size_t>(Arr.FirstBank + B)] += Mult;
        }
      }
    }

    //===----------------------------------------------------------------===//
    // Port-conflict scheduling (mechanism 1): sampled initiation
    // interval, via the arbitration primitive shared with the simulator
    // (KernelAnalysis.h) — the simulator's exhaustive walk maxes the
    // same function over a superset of these points.
    //===----------------------------------------------------------------===//
    double NestII =
        ScanPorts
            ? sampledConflictII(R, RN, Instances, CM.PortConflictSamples)
            : 1.0;
    if (N.HasAccumulator && K.FloatingPoint)
      NestII = std::max(NestII, 1.0 + model::AccumulatorII);
    II = std::max(II, NestII);

    //===----------------------------------------------------------------===//
    // Latency of this nest (shape shared with the simulator).
    //===----------------------------------------------------------------===//
    NestShape Shape = nestShape(RN);
    Cycles += Shape.Groups * std::max(NestII, N.IterationLatency) +
              Shape.OuterOverhead;

    //===----------------------------------------------------------------===//
    // Arithmetic area of this nest's PEs.
    //===----------------------------------------------------------------===//
    const double AddLut =
        K.FloatingPoint ? model::LutPerFloatAdd : model::LutPerIntAdd;
    const double MulLut =
        K.FloatingPoint ? model::LutPerFloatMul : model::LutPerIntMul;
    PeLut += UNest * (N.MulOps * MulLut + N.AddOps * AddLut);
    const double DspMul =
        K.FloatingPoint ? model::DspPerFloatMul : model::DspPerIntMul;
    const double DspAdd = K.FloatingPoint ? model::DspPerFloatAdd : 0.0;
    DspAcc += UNest * (N.MulOps * DspMul + N.AddOps * DspAdd);
  }
  E.II = II;

  double ArbLut = 0;
  for (int64_t FanIn : BankFanIn)
    if (FanIn > 1)
      ArbLut += model::ArbLutPerRequester * static_cast<double>(FanIn);

  //===------------------------------------------------------------------===//
  // Rule checks and heuristic noise (mechanism 4).
  //===------------------------------------------------------------------===//
  const bool RuleUnroll = R.UnrollDividesBanking;
  const bool RuleSize = bankingDividesSizes(K);
  E.Predictable = RuleUnroll && RuleSize;

  //===------------------------------------------------------------------===//
  // Area (mechanisms 2 and 3).
  //===------------------------------------------------------------------===//
  double Lut = model::BaseControlLut + model::LutPerLoop * LoopLevels +
               model::LutPerBank * static_cast<double>(R.TotalBanks);
  Lut += PeLut;
  if (CM.ModelMuxCost)
    Lut += MuxLut + ArbLut;

  double BoundaryLut = 0;
  if (!RuleSize) {
    for (const ArraySpec &A : K.Arrays)
      for (size_t D = 0; D != A.DimSizes.size(); ++D)
        if (A.DimSizes[D] % A.Partition[D] != 0)
          BoundaryLut += model::BoundaryLutPerBank *
                         static_cast<double>(A.Partition[D]);
    for (const LoopNest &N : K.Nests)
      for (const Loop &L : N.Loops)
        if (L.Trip % L.Unroll != 0)
          BoundaryLut += model::EpilogueLutPerPe *
                         static_cast<double>(N.totalUnroll());
  }
  if (CM.ModelBoundaryCost)
    Lut += BoundaryLut;

  //===------------------------------------------------------------------===//
  // Memory resources.
  //===------------------------------------------------------------------===//
  for (const ArraySpec &A : K.Arrays) {
    int64_t Banks = A.totalBanks();
    // Uneven partitions round bank capacity up.
    double ElemsPerBank = std::ceil(static_cast<double>(A.totalElems()) /
                                    static_cast<double>(Banks));
    double BitsPerBank = ElemsPerBank * A.ElemBits;
    if (BitsPerBank <= static_cast<double>(model::LutMemThresholdBits))
      E.LutMem += Banks * static_cast<int64_t>(std::ceil(BitsPerBank / 32.0));
    else
      E.Bram += Banks * static_cast<int64_t>(std::ceil(
                            BitsPerBank / (model::BramKbits * 1024.0)));
  }

  //===------------------------------------------------------------------===//
  // Arithmetic resources.
  //===------------------------------------------------------------------===//
  E.Dsp = static_cast<int64_t>(std::llround(DspAcc));

  //===------------------------------------------------------------------===//
  // Latency tail: the nest latencies accumulated above, one pipeline
  // fill, and any serial phase the spec keeps outside its nests.
  //===------------------------------------------------------------------===//
  // Two statements, not one sum: the addition order is pinned bit-for-bit
  // (see the function comment).
  Cycles += model::PipelineDepth;
  Cycles += K.ExtraSerialCycles;

  //===------------------------------------------------------------------===//
  // Heuristic noise and mis-synthesis for rule-violating points.
  //===------------------------------------------------------------------===//
  if (CM.ModelHeuristicNoise && !E.Predictable) {
    uint64_t H = heuristicConfigHash(K);
    double U1 = stableHashUnit(H);
    double U3 = stableHashUnit(stableHashCombine(H, 0xc2b2ae3d27d4eb4fULL));
    Lut *= 1.0 + model::NoiseAmplitudeArea * U1;
    Cycles *= heuristicLatencyMultiplier(K);
    // Severe violations (bank indirection from mismatched unrolling) can
    // mis-synthesize, as observed in Fig. 4b.
    if (!RuleUnroll && U3 < model::MisSynthesisRate)
      E.Incorrect = true;
  }

  E.Lut = static_cast<int64_t>(std::llround(Lut));
  E.Ff = static_cast<int64_t>(std::llround(
      0.8 * Lut + model::FfPerPe * SumPe + model::PipelineDepth * 32.0));
  E.Cycles = Cycles;
  E.RuntimeMs = Cycles / (K.ClockMHz * 1e3);
  return E;
}

//===----------------------------------------------------------------------===//
// Fidelity ladder
//===----------------------------------------------------------------------===//

const char *dahlia::hlsim::fidelityName(Fidelity F) {
  switch (F) {
  case Fidelity::Coarse:
    return "coarse";
  case Fidelity::Medium:
    return "medium";
  case Fidelity::Full:
    return "full";
  case Fidelity::Exact:
    return "exact";
  }
  return "?";
}

CostModel dahlia::hlsim::costModelFor(Fidelity F) {
  CostModel CM;
  switch (F) {
  case Fidelity::Coarse:
    CM.ModelMuxCost = false;
    CM.ModelPortConflicts = false;
    break;
  case Fidelity::Medium:
    CM.PortConflictSamples = 4;
    break;
  case Fidelity::Full:
  case Fidelity::Exact: // Exact wraps the simulator around Full's model.
    break;
  }
  return CM;
}

Estimate dahlia::hlsim::estimateAt(const KernelSpec &K, Fidelity F) {
  // Per-fidelity evaluation counters: where the DSE fidelity ladder
  // actually spends its estimator calls (memo hits never get here).
  static metrics::Counter &Coarse = metrics::counter("hlsim.estimates.coarse");
  static metrics::Counter &Medium = metrics::counter("hlsim.estimates.medium");
  static metrics::Counter &Full = metrics::counter("hlsim.estimates.full");
  static metrics::Counter &Exact = metrics::counter("hlsim.estimates.exact");
  switch (F) {
  case Fidelity::Coarse:
    Coarse.inc();
    break;
  case Fidelity::Medium:
    Medium.inc();
    break;
  case Fidelity::Full:
    Full.inc();
    break;
  case Fidelity::Exact:
    Exact.inc();
    break;
  }
  if (F == Fidelity::Exact)
    return cyclesim::exactEstimate(K);
  return estimate(K, costModelFor(F));
}
