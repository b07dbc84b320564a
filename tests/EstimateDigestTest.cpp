//===- EstimateDigestTest.cpp - Bit-exact estimator/simulator digest -*- C++ -*-=//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The differential oracle for refactors of the cost ladder: a hash over
// every field of every analytic estimate (Coarse, Medium, Full) across the
// four DSE spaces, over every field of every cycle-level simulation of
// the hand-written specs the sim_accuracy harness sweeps, and over the
// spec hashes (cache keys) of all of those specs. The
// constants were recorded with the map-walking estimator that predates
// the resolved kernel form; any change to a cycle count, an area
// component, a II or a simulator counter — down to the last bit of a
// double — moves a digest. Re-record them only for a deliberate change
// to the cost model or the simulator's schedule semantics.
//
//===----------------------------------------------------------------------===//

#include "cyclesim/CycleSim.h"
#include "hlsim/Estimator.h"
#include "kernels/Kernels.h"
#include "support/StableHash.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

using namespace dahlia;
using namespace dahlia::hlsim;
using namespace dahlia::kernels;

namespace {

class Digest {
public:
  void num(uint64_t V) { H = stableHashCombine(H, V); }
  void num(int64_t V) { num(static_cast<uint64_t>(V)); }
  void num(double V) { num(std::bit_cast<uint64_t>(V)); }
  void num(bool V) { num(static_cast<uint64_t>(V)); }

  void estimate(const Estimate &E) {
    num(E.Cycles);
    num(E.RuntimeMs);
    num(E.Lut);
    num(E.Ff);
    num(E.Bram);
    num(E.Dsp);
    num(E.LutMem);
    num(E.II);
    num(E.Incorrect);
    num(E.Predictable);
  }

  void sim(const cyclesim::SimResult &S) {
    num(S.Cycles);
    num(S.II);
    num(S.Truncated);
    num(S.WalkedGroups);
    num(static_cast<uint64_t>(S.Nests.size()));
    for (const cyclesim::NestSim &N : S.Nests) {
      num(N.II);
      num(N.EffectiveII);
      num(N.Groups);
      num(N.Cycles);
      num(N.WalkedGroups);
      num(N.ConflictGroups);
      num(N.StallCycles);
      num(N.MaxPortPressure);
      num(N.PeriodComplete);
    }
  }

  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Hashes the Coarse, Medium and Full estimates of every \p Stride-th
/// configuration of \p Space.
template <typename Config, typename SpecFn>
std::vector<uint64_t> ladderDigests(const std::vector<Config> &Space,
                                    SpecFn Spec, size_t Stride) {
  std::vector<uint64_t> Out;
  for (Fidelity F : {Fidelity::Coarse, Fidelity::Medium, Fidelity::Full}) {
    Digest D;
    for (size_t I = 0; I < Space.size(); I += Stride)
      D.estimate(estimateAt(Spec(Space[I]), F));
    Out.push_back(D.value());
  }
  return Out;
}

std::string hex(const std::vector<uint64_t> &Vs) {
  std::string S;
  for (uint64_t V : Vs) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx ",
                  static_cast<unsigned long long>(V));
    S += Buf;
  }
  return S;
}

// Expected digests, in Coarse, Medium, Full order. (Medium and Full agree
// on every configuration of these spaces: the 4-sample prefix of the
// port-conflict scan already finds each nest's worst group.)

TEST(EstimateDigest, GemmBlockedSpace) {
  // The larger spaces are strided to keep the test fast; a stride
  // coprime with the innermost knob's range still crosses every
  // banking/unroll factor.
  std::vector<uint64_t> Got =
      ladderDigests(gemmBlockedSpace(), gemmBlockedSpec, 7);
  std::vector<uint64_t> Want = {0x01c32f70291d0c59, 0x57375d6ab07ee87c,
                                0x57375d6ab07ee87c};
  EXPECT_EQ(Got, Want) << hex(Got);
}

TEST(EstimateDigest, Stencil2dSpace) {
  std::vector<uint64_t> Got = ladderDigests(stencil2dSpace(), stencil2dSpec, 1);
  std::vector<uint64_t> Want = {0x065bbd69557768e5, 0xe4509c1badb21363,
                                0xe4509c1badb21363};
  EXPECT_EQ(Got, Want) << hex(Got);
}

TEST(EstimateDigest, MdKnnSpace) {
  std::vector<uint64_t> Got = ladderDigests(mdKnnSpace(), mdKnnSpec, 3);
  std::vector<uint64_t> Want = {0xf389632d501fd242, 0x0c90bfd6b1e6d48c,
                                0x0c90bfd6b1e6d48c};
  EXPECT_EQ(Got, Want) << hex(Got);
}

TEST(EstimateDigest, MdGridSpace) {
  std::vector<uint64_t> Got = ladderDigests(mdGridSpace(), mdGridSpec, 5);
  std::vector<uint64_t> Want = {0x7d3024b103f7cf54, 0x7fe614064fbd617a,
                                0x7fe614064fbd617a};
  EXPECT_EQ(Got, Want) << hex(Got);
}

TEST(EstimateDigest, SpaceSimulations) {
  // Every 41st configuration of each space through the simulator: the
  // conflict-period walk over many more banking/unroll shapes than the
  // hand-picked corpus below.
  Digest D;
  auto Walk = [&D](const auto &Space, auto Spec) {
    for (size_t I = 0; I < Space.size(); I += 41)
      D.sim(cyclesim::simulate(Spec(Space[I])));
  };
  Walk(gemmBlockedSpace(), gemmBlockedSpec);
  Walk(stencil2dSpace(), stencil2dSpec);
  Walk(mdKnnSpace(), mdKnnSpec);
  Walk(mdGridSpace(), mdGridSpec);
  EXPECT_EQ(D.value(), 0xb1576c5f7b13cd28u) << hex({D.value()});
}

/// The hand-written specs bench/sim_accuracy.cpp sweeps, plus the
/// MachSuite baselines and rewrites.
std::vector<KernelSpec> simAccuracyCorpus() {
  std::vector<KernelSpec> Corpus;
  for (int64_t U = 1; U <= 10; ++U)
    Corpus.push_back(gemm512(U, 1));
  for (int64_t U = 1; U <= 16; ++U)
    Corpus.push_back(gemm512(U, 8));
  for (int64_t K : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16})
    Corpus.push_back(gemm512Lockstep(K));
  Corpus.push_back(gemmBlockedSpec(GemmBlockedConfig()));
  {
    GemmBlockedConfig C;
    C.Bank11 = C.Bank12 = C.Bank21 = C.Bank22 = 2;
    C.Unroll1 = C.Unroll2 = C.Unroll3 = 2;
    Corpus.push_back(gemmBlockedSpec(C));
  }
  Corpus.push_back(stencil2dSpec(Stencil2dConfig()));
  {
    Stencil2dConfig C;
    C.FilterBank1 = C.FilterBank2 = 3;
    C.Unroll1 = C.Unroll2 = 3;
    Corpus.push_back(stencil2dSpec(C));
  }
  Corpus.push_back(mdKnnSpec(MdKnnConfig()));
  {
    MdKnnConfig C;
    C.BankPos = C.BankNlPos = C.BankForce = 4;
    C.UnrollI = C.UnrollJ = 4;
    Corpus.push_back(mdKnnSpec(C));
  }
  Corpus.push_back(mdGridSpec(MdGridConfig()));
  {
    MdGridConfig C;
    C.Bank1 = C.Bank2 = C.Bank3 = 2;
    C.Unroll1 = C.Unroll2 = C.Unroll3 = 2;
    Corpus.push_back(mdGridSpec(C));
  }
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks()) {
    Corpus.push_back(B.Baseline);
    Corpus.push_back(B.Rewrite);
  }

  return Corpus;
}

TEST(EstimateDigest, SimAccuracyCorpusSimulations) {
  std::vector<KernelSpec> Corpus = simAccuracyCorpus();
  Digest Sim, Exact;
  for (const KernelSpec &K : Corpus) {
    cyclesim::SimResult S = cyclesim::simulate(K);
    Sim.sim(S);
    Exact.estimate(cyclesim::exactEstimate(K, S));
  }
  std::vector<uint64_t> Got = {Sim.value(), Exact.value()};
  std::vector<uint64_t> Want = {0xc187232619c983c3, 0x2a4d94b314c3851c};
  EXPECT_EQ(Got, Want) << hex(Got);
}

TEST(EstimateDigest, SpecHashes) {
  // The memo and persistent-cache keys of every spec the digests above
  // walk: the strided DSE configurations, then the simulation corpus
  // (gemm512 and the MachSuite baselines and rewrites among it). A spec
  // layout change that moves a key would silently cold-start every cache.
  Digest D;
  auto Walk = [&D](const auto &Space, auto Spec, size_t Stride) {
    for (size_t I = 0; I < Space.size(); I += Stride)
      D.num(specHash(Spec(Space[I])));
  };
  Walk(gemmBlockedSpace(), gemmBlockedSpec, 7);
  Walk(stencil2dSpace(), stencil2dSpec, 1);
  Walk(mdKnnSpace(), mdKnnSpec, 3);
  Walk(mdGridSpace(), mdGridSpec, 5);
  const uint64_t Spaces = D.value();
  for (const KernelSpec &K : simAccuracyCorpus())
    D.num(specHash(K));
  std::vector<uint64_t> Got = {Spaces, D.value()};
  std::vector<uint64_t> Want = {0x61c12d2059bb838c, 0xdb424598aa407753};
  EXPECT_EQ(Got, Want) << hex(Got);
}

} // namespace
