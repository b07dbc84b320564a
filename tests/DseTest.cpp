//===- DseTest.cpp - DSE and Spatial model tests ----------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "dse/Dse.h"
#include "spatialsim/Spatial.h"

#include <gtest/gtest.h>

using namespace dahlia::dse;
using namespace dahlia::spatialsim;

namespace {

Objectives point(double Lat, double Lut) {
  Objectives O;
  O.Latency = Lat;
  O.Lut = Lut;
  return O;
}

TEST(Dse, DominanceIsStrict) {
  EXPECT_TRUE(dominates(point(1, 1), point(2, 2)));
  EXPECT_TRUE(dominates(point(1, 1), point(1, 2)));
  EXPECT_FALSE(dominates(point(1, 1), point(1, 1))); // equal: no.
  EXPECT_FALSE(dominates(point(1, 3), point(2, 2))); // trade-off: no.
}

TEST(Dse, ParetoFrontSimple) {
  std::vector<Objectives> Pts = {
      point(1, 10), // optimal
      point(2, 5),  // optimal
      point(3, 5),  // dominated by (2,5)
      point(4, 2),  // optimal
      point(4, 3),  // dominated by (4,2)
  };
  std::vector<size_t> Front = paretoFront(Pts);
  EXPECT_EQ(Front, (std::vector<size_t>{0, 1, 3}));
}

TEST(Dse, ParetoFrontAllIncomparable) {
  std::vector<Objectives> Pts;
  for (int I = 0; I != 10; ++I)
    Pts.push_back(point(I, 10 - I));
  EXPECT_EQ(paretoFront(Pts).size(), 10u);
}

TEST(Dse, ParetoFrontSinglePointDominatesAll) {
  std::vector<Objectives> Pts = {point(5, 5), point(1, 1), point(9, 2)};
  std::vector<size_t> Front = paretoFront(Pts);
  EXPECT_EQ(Front, (std::vector<size_t>{1}));
}

TEST(Dse, ParetoNoFrontMemberDominated) {
  // Property: no front member dominates another front member.
  std::vector<Objectives> Pts;
  for (int I = 0; I != 200; ++I) {
    double A = (I * 37) % 101;
    double B = (I * 53) % 97;
    Objectives O = point(A, B);
    O.Bram = (I * 11) % 7;
    Pts.push_back(O);
  }
  std::vector<size_t> Front = paretoFront(Pts);
  for (size_t A : Front)
    for (size_t B : Front)
      if (A != B)
        EXPECT_FALSE(dominates(Pts[A], Pts[B])) << A << " vs " << B;
  // And every non-front point is dominated by some front point.
  std::set<size_t> FrontSet(Front.begin(), Front.end());
  auto Equal = [](const Objectives &A, const Objectives &B) {
    return A.Latency == B.Latency && A.Lut == B.Lut && A.Ff == B.Ff &&
           A.Bram == B.Bram && A.Dsp == B.Dsp;
  };
  for (size_t I = 0; I != Pts.size(); ++I) {
    if (FrontSet.count(I))
      continue;
    bool Covered = false;
    for (size_t F : Front)
      Covered = Covered || dominates(Pts[F], Pts[I]) || Equal(Pts[F], Pts[I]);
    EXPECT_TRUE(Covered) << "point " << I;
  }
}

TEST(Dse, FractionFormatting) {
  EXPECT_EQ(fractionString(354, 32000), "354/32000 (1.1%)");
}

TEST(Dse, FractionFormattingZeroDenominator) {
  EXPECT_EQ(fractionString(0, 0), "0/0");
}

TEST(Dse, ParetoFrontEmptyInput) {
  EXPECT_TRUE(paretoFront({}).empty());
}

TEST(Dse, ParetoFrontSinglePoint) {
  EXPECT_EQ(paretoFront({point(3, 4)}), (std::vector<size_t>{0}));
}

TEST(Dse, ParetoFrontDuplicatePointsCollapseToLowestIndex) {
  // Exactly equal objective vectors keep one representative: the lowest
  // index, regardless of where the duplicates appear.
  std::vector<Objectives> Pts = {point(2, 2), point(1, 1), point(1, 1),
                                 point(1, 1)};
  EXPECT_EQ(paretoFront(Pts), (std::vector<size_t>{1}));
  std::vector<Objectives> AllSame(5, point(7, 7));
  EXPECT_EQ(paretoFront(AllSame), (std::vector<size_t>{0}));
}

TEST(Dse, ParetoFrontSingleObjectiveTies) {
  // Equal latency is not domination by itself: the tie breaks on the
  // remaining objectives, and exact ties collapse.
  std::vector<Objectives> Pts = {point(1, 5), point(1, 3), point(1, 3),
                                 point(1, 7)};
  EXPECT_EQ(paretoFront(Pts), (std::vector<size_t>{1}));
  // A tie in one objective with a trade-off in another keeps both.
  std::vector<Objectives> Trade = {point(1, 5), point(1, 5)};
  Trade[0].Bram = 1; // (1,5,bram=1) vs (1,5,bram=0): second dominates.
  EXPECT_EQ(paretoFront(Trade), (std::vector<size_t>{1}));
  Trade[0].Bram = 0;
  Trade[0].Dsp = 2;
  Trade[1].Bram = 3; // now incomparable: both survive.
  EXPECT_EQ(paretoFront(Trade), (std::vector<size_t>{0, 1}));
}

TEST(Dse, DominatesEdgeCases) {
  EXPECT_FALSE(dominates(point(1, 1), point(1, 1))); // irreflexive
  Objectives A = point(1, 2), B = point(1, 2);
  A.Dsp = 1;
  EXPECT_TRUE(dominates(B, A));  // better only in DSP
  EXPECT_FALSE(dominates(A, B));
  EXPECT_TRUE(equalObjectives(point(2, 3), point(2, 3)));
  EXPECT_FALSE(equalObjectives(A, B));
}

//===----------------------------------------------------------------------===//
// Spatial banking inference (Figure 9 / 13)
//===----------------------------------------------------------------------===//

TEST(Spatial, DividingFactorsGetExactBanking) {
  for (int64_t U : {1, 2, 4, 8, 16}) {
    BankingDecision D = inferBanking(128, U);
    EXPECT_EQ(D.BankA, U) << U;
    EXPECT_EQ(D.BankB, U) << U;
  }
}

TEST(Spatial, NonDividingFactorsDiverge) {
  // Fig. 13a: for unrolling factors that do not divide the memory size
  // Spatial infers banking different from the unrolling factor.
  for (int64_t U : {3, 5, 6, 7, 9, 11}) {
    BankingDecision D = inferBanking(128, U);
    EXPECT_TRUE(D.BankA != U || D.BankB != U) << U;
    EXPECT_EQ(128 % D.BankA, 0) << U;
    EXPECT_EQ(128 % D.BankB, 0) << U;
  }
}

TEST(Spatial, MismatchRaisesResourceUsage) {
  // Fig. 13e: designs use significantly fewer LUTs when the unrolling
  // factor divides the memory size.
  auto E8 = estimateSpatialGemm(128, 8);
  auto E9 = estimateSpatialGemm(128, 9);
  EXPECT_GT(E9.Lut, E8.Lut);
  EXPECT_TRUE(E8.Predictable);
  EXPECT_FALSE(E9.Predictable);
}

TEST(Spatial, DahliaUsesFewerLutsOnMismatchNeighborhood) {
  // The equivalent Dahlia designs avoid the indirection blow-up.
  auto Spatial9 = estimateSpatialGemm(128, 9);
  auto Dahlia8 = estimateDahliaGemm(128, 8);
  EXPECT_GT(Spatial9.Lut, Dahlia8.Lut);
}

} // namespace
