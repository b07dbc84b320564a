//===- KernelsTest.cpp - Benchmark kernel tests -----------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Checks that every benchmark's Dahlia port parses and type-checks, and
// that the design-space generators and acceptance behaviour match the
// paper's structure.
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "driver/CompilerPipeline.h"

#include <gtest/gtest.h>

using namespace dahlia;
using namespace dahlia::kernels;

namespace {

bool acceptsSource(const std::string &Src, std::string *Why = nullptr) {
  std::string FirstError;
  bool OK = driver::checksSource(Src, FirstError);
  if (!OK && Why)
    *Why = FirstError;
  return OK;
}

TEST(Kernels, DefaultConfigsTypeCheck) {
  std::string Why;
  EXPECT_TRUE(acceptsSource(gemmBlockedDahlia(GemmBlockedConfig()), &Why))
      << Why;
  EXPECT_TRUE(acceptsSource(stencil2dDahlia(Stencil2dConfig()), &Why)) << Why;
  EXPECT_TRUE(acceptsSource(mdKnnDahlia(MdKnnConfig()), &Why)) << Why;
  EXPECT_TRUE(acceptsSource(mdGridDahlia(MdGridConfig()), &Why)) << Why;
}

TEST(Kernels, AllMachSuitePortsTypeCheck) {
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    std::string Why;
    EXPECT_TRUE(acceptsSource(B.DahliaSource, &Why))
        << B.Name << ": " << Why;
  }
}

TEST(Kernels, MachSuiteHasSixteenBenchmarks) {
  // The paper ports 16 of the 19 MachSuite benchmarks (backprop,
  // fft-transpose and viterbi excluded).
  EXPECT_EQ(machSuiteBenchmarks().size(), 16u);
}

TEST(Kernels, SpaceSizesMatchThePaper) {
  EXPECT_EQ(gemmBlockedSpace().size(), 32000u);  // Section 5.2.
  EXPECT_EQ(stencil2dSpace().size(), 2916u);     // Section 5.3.
  EXPECT_EQ(mdKnnSpace().size(), 16384u);        // Section 5.3.
  EXPECT_EQ(mdGridSpace().size(), 21952u);       // Section 5.3.
}

TEST(Kernels, GemmBlockedMatchedConfigAccepted) {
  GemmBlockedConfig C;
  C.Bank11 = 2;
  C.Bank12 = 2;
  C.Bank21 = 2;
  C.Bank22 = 2;
  C.Unroll1 = 2;
  C.Unroll2 = 2;
  C.Unroll3 = 2;
  std::string Why;
  EXPECT_TRUE(acceptsSource(gemmBlockedDahlia(C), &Why)) << Why;
}

TEST(Kernels, GemmBlockedMismatchedUnrollRejected) {
  GemmBlockedConfig C;
  C.Bank11 = 4;
  C.Unroll1 = 2; // i-unroll 2 over 4 banks: needs a shrink view.
  EXPECT_FALSE(acceptsSource(gemmBlockedDahlia(C)));
}

TEST(Kernels, GemmBlockedUnrollSixRejected) {
  GemmBlockedConfig C;
  C.Unroll3 = 6; // 6 does not divide the trip count 8.
  EXPECT_FALSE(acceptsSource(gemmBlockedDahlia(C)));
}

TEST(Kernels, GemmBlockedBankingThreeRejected) {
  GemmBlockedConfig C;
  C.Bank11 = 3; // 3 does not divide 128.
  EXPECT_FALSE(acceptsSource(gemmBlockedDahlia(C)));
}

TEST(Kernels, Stencil2dUnrollNeedsMatchingBanks) {
  Stencil2dConfig C;
  C.Unroll1 = 3;
  EXPECT_FALSE(acceptsSource(stencil2dDahlia(C)));
  C.OrigBank1 = 3;
  C.FilterBank1 = 3;
  std::string Why;
  EXPECT_TRUE(acceptsSource(stencil2dDahlia(C), &Why)) << Why;
}

TEST(Kernels, Stencil2dUnrollTwoRejectedByTripCount) {
  Stencil2dConfig C;
  C.Unroll2 = 2; // 2 does not divide 3.
  EXPECT_FALSE(acceptsSource(stencil2dDahlia(C)));
}

TEST(Kernels, MdKnnAcceptanceStructure) {
  // Unroll over atoms requires matching banking on position, nlpos and
  // force.
  MdKnnConfig C;
  C.UnrollI = 2;
  EXPECT_FALSE(acceptsSource(mdKnnDahlia(C)));
  C.BankPos = 2;
  C.BankNlPos = 2;
  C.BankForce = 2;
  std::string Why;
  EXPECT_TRUE(acceptsSource(mdKnnDahlia(C), &Why)) << Why;
  // The neighbour-list banking is free: the gather loop is sequential.
  C.BankNl = 3;
  EXPECT_FALSE(acceptsSource(mdKnnDahlia(C))); // 3 does not divide 256.
  C.BankNl = 4;
  EXPECT_TRUE(acceptsSource(mdKnnDahlia(C), &Why)) << Why;
}

TEST(Kernels, MdGridAcceptanceStructure) {
  MdGridConfig C;
  C.Unroll2 = 2;
  EXPECT_FALSE(acceptsSource(mdGridDahlia(C)));
  C.Bank2 = 2;
  std::string Why;
  EXPECT_TRUE(acceptsSource(mdGridDahlia(C), &Why)) << Why;
  C.Unroll3 = 5; // 5 does not divide 4.
  EXPECT_FALSE(acceptsSource(mdGridDahlia(C)));
}

TEST(Kernels, SpecsAreConsistentWithSources) {
  // Spec loops/arrays must track the configurable parameters.
  GemmBlockedConfig C;
  C.Bank11 = 4;
  C.Unroll3 = 8;
  hlsim::KernelSpec K = gemmBlockedSpec(C);
  EXPECT_EQ(K.Arrays[0].Partition[0], 4);
  ASSERT_EQ(K.Nests.size(), 1u);
  const std::vector<hlsim::Loop> &Loops = K.Nests[0].Loops;
  EXPECT_EQ(Loops.back().Unroll, 8);
  int64_t Iters = 1;
  for (const hlsim::Loop &L : Loops)
    Iters *= L.Trip;
  EXPECT_EQ(Iters, 16LL * 16 * 128 * 8 * 8);
}

} // namespace
