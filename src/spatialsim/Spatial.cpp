//===- Spatial.cpp - Spatial banking-inference model ------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "spatialsim/Spatial.h"

using namespace dahlia;
using namespace dahlia::spatialsim;
using namespace dahlia::hlsim;

namespace {

int64_t smallestDivisorAtLeast(int64_t N, int64_t U) {
  for (int64_t D = U; D <= N; ++D)
    if (N % D == 0)
      return D;
  return N;
}

int64_t largestDivisorAtMost(int64_t N, int64_t U) {
  for (int64_t D = U; D >= 1; --D)
    if (N % D == 0)
      return D;
  return 1;
}

KernelSpec gemmNCubedSpec(int64_t Dim, int64_t U, int64_t BankA,
                          int64_t BankB) {
  KernelSpec K;
  LoopNest &Nest = K.Nests.front();
  K.Name = "spatial-gemm-ncubed";
  K.ClockMHz = 125.0; // Zynq-7000 class.
  K.FloatingPoint = false; // FixPt[TRUE,_16,_16].
  Nest.MulOps = 1;
  Nest.AddOps = 1;
  Nest.HasAccumulator = true;
  K.Arrays = {
      {"a_sram", {Dim, Dim}, {1, BankA}, 1, 32},
      {"b_sram", {Dim, Dim}, {BankB, 1}, 1, 32},
      {"c_sram", {Dim, Dim}, {1, 1}, 1, 32},
  };
  Nest.Loops = {
      {"i", Dim, 1},
      {"j", Dim, 1},
      {"k", Dim, U},
  };
  Nest.Body = {
      {"a_sram", {AffineExpr::var("i"), AffineExpr::var("k")}, false},
      {"b_sram", {AffineExpr::var("k"), AffineExpr::var("j")}, false},
      {"c_sram", {AffineExpr::var("i"), AffineExpr::var("j")}, true},
  };
  return K;
}

} // namespace

BankingDecision dahlia::spatialsim::inferBanking(int64_t N, int64_t U) {
  BankingDecision D;
  if (N % U == 0) {
    // The solver finds the exact cyclic scheme.
    D.BankA = U;
    D.BankB = U;
    return D;
  }
  // No exact cyclic scheme exists: the solver picks the nearest legal
  // schemes, which differ between the row-streamed and column-streamed
  // operands (observed in Fig. 13a).
  D.BankA = smallestDivisorAtLeast(N, U);
  D.BankB = largestDivisorAtMost(N, U);
  return D;
}

Estimate dahlia::spatialsim::estimateSpatialGemm(int64_t Dim, int64_t U,
                                                 const CostModel &CM) {
  BankingDecision D = inferBanking(Dim, U);
  return estimate(gemmNCubedSpec(Dim, U, D.BankA, D.BankB), CM);
}

Estimate dahlia::spatialsim::estimateDahliaGemm(int64_t Dim, int64_t U,
                                                const CostModel &CM) {
  // Dahlia only accepts banking == unrolling; for non-dividing factors the
  // program is rejected, so callers sweep only accepted points. Estimate
  // the matched configuration.
  return estimate(gemmNCubedSpec(Dim, U, U, U), CM);
}
