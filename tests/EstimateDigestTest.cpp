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
#include "hlsim/KernelAnalysis.h"
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

/// Hand specs for the instance paths the four spaces never take (every
/// access of theirs maps its unrolled copies to distinct offsets, below
/// the PE cap): colliding offsets, a truncated PE enumeration, accesses
/// that mention no unrolled loop, negative and explicit-zero
/// coefficients, and a 3-D partitioned array.
struct EdgeCase {
  const char *Name;
  KernelSpec K;
};

KernelSpec edgeSpec(const char *Name, std::vector<ArraySpec> Arrays,
                    std::vector<Loop> Loops, std::vector<Access> Body) {
  KernelSpec K;
  K.Name = Name;
  K.FloatingPoint = false;
  K.Arrays = std::move(Arrays);
  LoopNest &N = K.Nests.front();
  N.Loops = std::move(Loops);
  N.Body = std::move(Body);
  N.MulOps = 1;
  N.AddOps = 1;
  return K;
}

AffineExpr sum(std::initializer_list<std::pair<const char *, int64_t>> Terms,
               int64_t Const = 0) {
  AffineExpr E = AffineExpr::constant(Const);
  for (const auto &[Var, Coeff] : Terms)
    E.Coeffs[Var] = Coeff;
  return E;
}

std::vector<EdgeCase> instanceEdgeCases() {
  std::vector<EdgeCase> Cases;
  // a[i + j] with both loops unrolled by 4: 16 copies, 7 distinct
  // offsets, so banks hold several instances each. a[-i] has negative
  // offsets; e[i + 0*j] mentions j with a zero coefficient.
  Cases.push_back(
      {"collide",
       edgeSpec("edge-collide",
                {{"a", {64}, {4}, 1, 32},
                 {"b", {8, 8}, {2, 2}, 1, 32},
                 {"e", {16}, {4}, 1, 32}},
                {{"i", 8, 4}, {"j", 8, 4}},
                {{"a", {sum({{"i", 1}, {"j", 1}})}, false},
                 {"a", {sum({{"i", -1}})}, false},
                 {"e", {sum({{"i", 1}, {"j", 0}})}, false},
                 {"b", {AffineExpr::var("i"), AffineExpr::var("j")}, true}})});
  // 64 x 64 unrolled copies pass kMaxPes: the kept copies are a prefix,
  // and every loop is walked even for accesses that mention one or none.
  // Unroll 64 does not divide the banking of 8, so the noise applies.
  Cases.push_back(
      {"truncated",
       edgeSpec("edge-truncated",
                {{"A", {64}, {8}, 1, 32},
                 {"B", {64}, {16}, 2, 32},
                 {"C", {64, 64}, {8, 8}, 1, 32},
                 {"D", {4}, {2}, 1, 32}},
                {{"i", 64, 64}, {"j", 64, 64}},
                {{"A", {AffineExpr::var("i")}, false},
                 {"B", {AffineExpr::var("j", 3, 1)}, false},
                 {"D", {AffineExpr::constant(1)}, false},
                 {"C", {AffineExpr::var("i"), AffineExpr::var("j")}, true}})});
  // Accesses that mention no unrolled loop collapse to one instance.
  Cases.push_back(
      {"unmentioned",
       edgeSpec("edge-unmentioned",
                {{"s", {16}, {2}, 1, 32},
                 {"d", {8}, {4}, 1, 32},
                 {"x", {8}, {4}, 1, 32}},
                {{"k", 16, 1}, {"i", 8, 4}},
                {{"s", {AffineExpr::var("k")}, false},
                 {"d", {AffineExpr::constant(3)}, false},
                 {"x", {AffineExpr::var("i")}, true}})});
  // A 3-D partitioned array, indexed directly and through (2i, j+k, k),
  // plus one whose size the banking does not divide.
  Cases.push_back(
      {"three-d",
       edgeSpec("edge-3d",
                {{"T", {8, 8, 8}, {2, 4, 2}, 1, 32},
                 {"U", {6, 8, 8}, {4, 2, 2}, 2, 32}},
                {{"i", 8, 2}, {"j", 8, 4}, {"k", 8, 2}},
                {{"T",
                  {AffineExpr::var("i"), AffineExpr::var("j"),
                   AffineExpr::var("k")},
                  false},
                 {"U",
                  {AffineExpr::var("i"), AffineExpr::var("j"),
                   AffineExpr::var("k")},
                  false},
                 {"T",
                  {AffineExpr::var("i", 2), sum({{"j", 1}, {"k", 1}}),
                   AffineExpr::var("k")},
                  true}})});
  return Cases;
}

TEST(EstimateDigest, InstanceEdgeCases) {
  // Recorded with the comparator-sorted instance collection, before the
  // packed-key order and the injective shortcut.
  std::vector<EdgeCase> Cases = instanceEdgeCases();
  std::vector<uint64_t> Got;
  for (const EdgeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    Digest D;
    ResolvedKernel R;
    resolve(C.K, R);
    NestInstances I;
    accessInstances(R, R.Nests.front(), I);
    D.num(static_cast<uint64_t>(I.Accesses.size()));
    for (const NestInstances::Span &S : I.Accesses) {
      D.num(static_cast<uint64_t>(S.Rows));
      for (size_t Row = 0; Row != S.Rows; ++Row)
        D.num(I.Mult[S.FirstRow + Row]);
    }
    for (int64_t V : I.Residues)
      D.num(V);
    for (Fidelity F : {Fidelity::Coarse, Fidelity::Medium, Fidelity::Full,
                       Fidelity::Exact})
      D.estimate(estimateAt(C.K, F));
    D.sim(cyclesim::simulate(C.K));
    Got.push_back(D.value());
  }
  // a[i + j]: offsets 0..6 over banks 0..3, so banks 0-2 hold two
  // instances each and bank 3 one.
  {
    ResolvedKernel R;
    resolve(Cases[0].K, R);
    NestInstances I;
    accessInstances(R, R.Nests.front(), I);
    const NestInstances::Span &S = I.Accesses[0];
    EXPECT_EQ(std::vector<int64_t>(I.Mult.begin() + S.FirstRow,
                                   I.Mult.begin() + S.FirstRow + S.Rows),
              (std::vector<int64_t>{2, 2, 2, 1}));
  }
  std::vector<uint64_t> Want = {0x4619a0cd54716943, 0xdd1c0dd543fc8950,
                                0x3778b813e8c2d95c, 0x1974dadff276e479};
  EXPECT_EQ(Got, Want) << hex(Got);
}

} // namespace
