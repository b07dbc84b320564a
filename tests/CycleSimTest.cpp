//===- CycleSimTest.cpp - Cycle-level simulator tests -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The cycle-level banked-memory simulator (src/cyclesim/) as the exact
// top rung of the estimation fidelity ladder: determinism, the
// lower-bound contract Coarse <= Medium <= Full <= Exact on every shipped
// kernel spec, exhaustive-vs-sampled schedule derivation, multi-nest and
// while-loop execution, and the DSE exact-top-rung pass.
//
//===----------------------------------------------------------------------===//

#include "cyclesim/CycleSim.h"

#include "driver/CompilerPipeline.h"
#include "driver/SpecExtractor.h"
#include "dse/SearchStrategy.h"
#include "hlsim/Estimator.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dahlia;
using namespace dahlia::cyclesim;
using namespace dahlia::hlsim;
using namespace dahlia::kernels;

namespace {

/// Every hand-written kernel spec family shipped in src/kernels/.
std::vector<std::pair<std::string, KernelSpec>> specCorpus() {
  std::vector<std::pair<std::string, KernelSpec>> Out;
  for (int64_t U = 1; U <= 10; ++U)
    Out.push_back({"gemm512-u" + std::to_string(U) + "-p1", gemm512(U, 1)});
  for (int64_t U = 1; U <= 16; ++U)
    Out.push_back({"gemm512-u" + std::to_string(U) + "-p8", gemm512(U, 8)});
  for (int64_t K : {1, 2, 3, 5, 6, 8, 9})
    Out.push_back({"gemm512-lockstep" + std::to_string(K),
                   gemm512Lockstep(K)});
  // A deterministic slice of each sweep space.
  {
    std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
    for (size_t I = 0; I < Space.size(); I += 1777)
      Out.push_back({"gemm-blocked-" + std::to_string(I),
                     gemmBlockedSpec(Space[I])});
  }
  {
    std::vector<Stencil2dConfig> Space = stencil2dSpace();
    for (size_t I = 0; I < Space.size(); I += 271)
      Out.push_back({"stencil2d-" + std::to_string(I),
                     stencil2dSpec(Space[I])});
  }
  {
    std::vector<MdKnnConfig> Space = mdKnnSpace();
    for (size_t I = 0; I < Space.size(); I += 1531)
      Out.push_back({"md-knn-" + std::to_string(I), mdKnnSpec(Space[I])});
  }
  {
    std::vector<MdGridConfig> Space = mdGridSpace();
    for (size_t I = 0; I < Space.size(); I += 997)
      Out.push_back({"md-grid-" + std::to_string(I), mdGridSpec(Space[I])});
  }
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    Out.push_back({B.Name + "-baseline", B.Baseline});
    Out.push_back({B.Name + "-rewrite", B.Rewrite});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// The fidelity-ladder contract
//===----------------------------------------------------------------------===//

TEST(CycleSim, LadderIsMonotoneOnEveryKernelSpec) {
  // Coarse <= Medium <= Full holds component-wise on all objectives, and
  // the simulated (Exact) cycle count caps the ladder; Exact's area is
  // Full's by construction. This is the property that makes promoting DSE
  // survivors to the simulator rung sound.
  for (const auto &[Name, K] : specCorpus()) {
    SCOPED_TRACE(Name);
    Estimate C = estimateAt(K, Fidelity::Coarse);
    Estimate M = estimateAt(K, Fidelity::Medium);
    Estimate F = estimateAt(K, Fidelity::Full);
    Estimate X = estimateAt(K, Fidelity::Exact);
    auto Leq = [](const Estimate &A, const Estimate &B) {
      EXPECT_LE(A.Cycles, B.Cycles);
      EXPECT_LE(A.Lut, B.Lut);
      EXPECT_LE(A.Ff, B.Ff);
      EXPECT_LE(A.Bram, B.Bram);
      EXPECT_LE(A.Dsp, B.Dsp);
    };
    Leq(C, M);
    Leq(M, F);
    Leq(F, X);
    EXPECT_EQ(F.Lut, X.Lut);
    EXPECT_EQ(F.Ff, X.Ff);
    EXPECT_EQ(F.Bram, X.Bram);
    EXPECT_EQ(F.Dsp, X.Dsp);
  }
}

TEST(CycleSim, DeterministicAcrossRuns) {
  for (const auto &[Name, K] :
       {std::pair<std::string, KernelSpec>{"gemm", gemm512(9, 8)},
        {"md-knn", mdKnnSpec(MdKnnConfig())}}) {
    SCOPED_TRACE(Name);
    SimResult A = simulate(K);
    SimResult B = simulate(K);
    EXPECT_EQ(A.Cycles, B.Cycles);
    EXPECT_EQ(A.II, B.II);
    EXPECT_EQ(A.WalkedGroups, B.WalkedGroups);
    ASSERT_EQ(A.Nests.size(), B.Nests.size());
    for (size_t N = 0; N != A.Nests.size(); ++N) {
      EXPECT_EQ(A.Nests[N].II, B.Nests[N].II);
      EXPECT_EQ(A.Nests[N].Cycles, B.Nests[N].Cycles);
      EXPECT_EQ(A.Nests[N].ConflictGroups, B.Nests[N].ConflictGroups);
      EXPECT_EQ(A.Nests[N].StallCycles, B.Nests[N].StallCycles);
    }
  }
}

//===----------------------------------------------------------------------===//
// Schedule derivation
//===----------------------------------------------------------------------===//

TEST(CycleSim, UniformConflictMatchesAnalyticSchedule) {
  // gemm512 unrolled 8x over an unpartitioned array: every group has the
  // same 8-way conflict on the single bank, so the observed II equals the
  // sampled II and the simulated cycle count equals the analytic one.
  KernelSpec K = gemm512(8, 1);
  SimResult S = simulate(K);
  Estimate F = estimateAt(K, Fidelity::Full);
  EXPECT_EQ(S.II, 8.0);
  EXPECT_EQ(S.Cycles, F.Cycles);
  ASSERT_EQ(S.Nests.size(), 1u);
  EXPECT_TRUE(S.Nests[0].PeriodComplete);
  // Every walked group stalls: the arbiter needs 8 cycles per issue.
  EXPECT_EQ(S.Nests[0].ConflictGroups, S.Nests[0].WalkedGroups);
  EXPECT_EQ(S.Nests[0].MaxPortPressure, 8);
}

TEST(CycleSim, ExhaustiveWalkCatchesConflictsTheSampledScanMisses) {
  // A conflict that only materializes at group 16 of a period-17 pattern:
  // the analytic scan samples groups 0..15 and sees II=1; the simulator
  // walks the whole period and derives II=2. This is exactly the gap that
  // makes the simulator the *exact* rung rather than another sample.
  KernelSpec K;
  K.Name = "period17";
  K.FloatingPoint = false;
  K.Arrays = {{"A", {34}, {17}, 1, 32}};
  K.Nests[0].Loops = {{"i", 34, 1}};
  Access R1{"A", {AffineExpr::var("i", 1, 16)}, false};
  Access R2{"A", {AffineExpr::var("i", 2)}, false};
  K.Nests[0].Body = {R1, R2};

  Estimate F = estimateAt(K, Fidelity::Full);
  SimResult S = simulate(K);
  EXPECT_EQ(F.II, 1.0) << "the sampled scan must miss the conflict for "
                          "this test to be meaningful";
  EXPECT_EQ(S.II, 2.0);
  EXPECT_GT(S.Cycles, F.Cycles);
  ASSERT_EQ(S.Nests.size(), 1u);
  EXPECT_EQ(S.Nests[0].WalkedGroups, 17u); // One conflict period.
  EXPECT_EQ(S.Nests[0].ConflictGroups, 1u);
  // The Exact estimate carries the simulated schedule.
  Estimate X = estimateAt(K, Fidelity::Exact);
  EXPECT_EQ(X.Cycles, S.Cycles);
  EXPECT_GE(X.Cycles, F.Cycles);
}

TEST(CycleSim, BankedLockstepRunsConflictFree) {
  KernelSpec K = gemm512(8, 8);
  SimResult S = simulate(K);
  EXPECT_EQ(S.II, 1.0);
  EXPECT_EQ(S.Nests[0].ConflictGroups, 0u);
  EXPECT_EQ(S.Nests[0].StallCycles, 0u);
}

//===----------------------------------------------------------------------===//
// Multi-nest and while-loop execution
//===----------------------------------------------------------------------===//

TEST(CycleSim, MdKnnSimulatesBothPhases) {
  KernelSpec K = mdKnnSpec(MdKnnConfig());
  SimResult S = simulate(K);
  ASSERT_EQ(S.Nests.size(), 2u);
  // Phase 1: the serial gather, 256*16 groups at II=1.
  EXPECT_EQ(S.Nests[0].Groups, 256.0 * 16.0);
  EXPECT_EQ(S.Nests[0].EffectiveII, 1.0);
  // Phase 2: the dependence-bound force nest runs at its iteration
  // latency, not at the conflict-free II.
  EXPECT_EQ(S.Nests[1].EffectiveII, 30.0);
  EXPECT_GE(S.Cycles, S.Nests[0].Cycles + S.Nests[1].Cycles);
}

TEST(CycleSim, KmpWhileLoopRunsToItsTripCount) {
  // The kmp port's counted while is extracted as a bounded serial nest
  // and simulated for its full 32,411 iterations.
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    if (B.Name != "kmp")
      continue;
    driver::CompileResult R =
        driver::CompilerPipeline().check(B.DahliaSource);
    ASSERT_TRUE(R.ok()) << R.firstError();
    Result<KernelSpec> Spec = driver::extractKernelSpec(*R.Prog, "kmp");
    ASSERT_TRUE(bool(Spec));
    SimResult S = simulate(*Spec);
    ASSERT_EQ(S.Nests.size(), 1u);
    EXPECT_EQ(S.Nests[0].Groups, 32411.0);
    EXPECT_GE(S.Cycles, 32411.0);
    // And the analytic rungs now price the walk too (the old estimator
    // ignored while trip counts entirely).
    EXPECT_GE(estimateAt(*Spec, Fidelity::Coarse).Cycles, 32411.0);
  }
}

//===----------------------------------------------------------------------===//
// The Exact rung in the cache keyspace
//===----------------------------------------------------------------------===//

TEST(CycleSim, ExactRungHasItsOwnCacheKeys) {
  uint64_t H = specHash(gemm512(4, 4));
  uint64_t KF = fidelityCacheKey(H, Fidelity::Full);
  uint64_t KX = fidelityCacheKey(H, Fidelity::Exact);
  EXPECT_NE(KF, KX);
  EXPECT_NE(fidelityCacheKey(H, Fidelity::Coarse), KX);
  EXPECT_NE(fidelityCacheKey(H, Fidelity::Medium), KX);
}

//===----------------------------------------------------------------------===//
// DSE exact-top-rung pass
//===----------------------------------------------------------------------===//

TEST(CycleSim, ExactTopRungRanksTheFrontByExactCycles) {
  // A deterministic 600-config prefix of the Figure 7 space, explored
  // with and without pruning: both exact-top-rung fronts must agree, and
  // every member must carry the simulator's objectives.
  dse::DseProblem P = gemmBlockedProblem();
  P.Size = 600;

  auto Explore = [&](dse::StrategyKind S) {
    dse::DseOptions O;
    O.Threads = 2;
    O.Strategy = S;
    O.ExactTopRung = true;
    return dse::DseEngine(O).explore(P);
  };
  dse::DseResult Ex = Explore(dse::StrategyKind::Exhaustive);
  dse::DseResult Pr = Explore(dse::StrategyKind::ParetoPrune);

  EXPECT_EQ(Ex.Front, Pr.Front);
  EXPECT_EQ(Ex.AcceptedFront, Pr.AcceptedFront);
  EXPECT_GT(Ex.Stats.ExactEstimates, 0u);
  EXPECT_LT(Pr.Stats.ExactEstimates, Pr.Stats.Explored);

  std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
  for (size_t I : Ex.Front) {
    EXPECT_TRUE(Ex.Points[I].ExactEvaluated) << I;
    Estimate X = estimateAt(gemmBlockedSpec(Space[I]), Fidelity::Exact);
    EXPECT_EQ(Ex.Points[I].Obj.Latency, X.Cycles) << I;
    EXPECT_EQ(Ex.Points[I].Obj.Lut, static_cast<double>(X.Lut)) << I;
  }
}

TEST(CycleSim, ExactTopRungOffLeavesFullFidelityObjectives) {
  dse::DseProblem P = gemmBlockedProblem();
  P.Size = 200;
  dse::DseOptions O;
  O.Threads = 2;
  dse::DseResult R = dse::DseEngine(O).explore(P);
  EXPECT_EQ(R.Stats.ExactEstimates, 0u);
  for (const dse::DsePoint &Pt : R.Points)
    EXPECT_FALSE(Pt.ExactEvaluated);
}

} // namespace
