//===- SearchStrategyTest.cpp - Pruned + sharded search tests ---*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The strategy contract: dominance pruning, and any shard split of it,
// produces EXACTLY the Pareto-front membership of the exhaustive sweep. The enabling property
// is the estimator fidelity ladder (each fidelity is a component-wise
// lower bound of the next), which this file pins directly.
//
//===----------------------------------------------------------------------===//

#include "dse/SearchStrategy.h"

#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

using namespace dahlia;
using namespace dahlia::dse;
using namespace dahlia::kernels;

namespace {

/// The Bank21 = Bank22 = 1 slice of the Figure 7 space: 2,000 configs, 11
/// accepted (the analytic count pinned in RegressionAnchorsTest).
std::shared_ptr<std::vector<GemmBlockedConfig>> sliceSpace() {
  auto Space = std::make_shared<std::vector<GemmBlockedConfig>>();
  for (const GemmBlockedConfig &C : gemmBlockedSpace())
    if (C.Bank21 == 1 && C.Bank22 == 1)
      Space->push_back(C);
  return Space;
}

DseProblem sliceProblem(
    const std::shared_ptr<std::vector<GemmBlockedConfig>> &Space) {
  DseProblem P;
  P.Size = Space->size();
  P.Source = [Space](size_t I) { return gemmBlockedDahlia((*Space)[I]); };
  P.Spec = [Space](size_t I) { return gemmBlockedSpec((*Space)[I]); };
  return P;
}

DseResult runStrategy(const DseProblem &P, StrategyKind K,
                      unsigned Threads = 2,
                      std::shared_ptr<DseCache> Cache = nullptr,
                      ShardSpec Shard = ShardSpec()) {
  DseOptions O;
  O.Strategy = K;
  O.Threads = Threads;
  O.Cache = std::move(Cache);
  O.Shard = Shard;
  return DseEngine(O).explore(P);
}

//===----------------------------------------------------------------------===//
// Parsing and partitioning
//===----------------------------------------------------------------------===//

TEST(SearchStrategyParse, StrategyNames) {
  EXPECT_EQ(parseStrategy("exhaustive"), StrategyKind::Exhaustive);
  EXPECT_EQ(parseStrategy(""), StrategyKind::Exhaustive);
  EXPECT_EQ(parseStrategy("pareto-prune"), StrategyKind::ParetoPrune);
  EXPECT_EQ(parseStrategy("prune"), StrategyKind::ParetoPrune);
  EXPECT_FALSE(parseStrategy("bayesian").has_value());
  // Successive halving was removed; its names are unknown now.
  EXPECT_FALSE(parseStrategy("halving").has_value());
  EXPECT_FALSE(parseStrategy("successive-halving").has_value());
  EXPECT_STREQ(kStrategyNames, "exhaustive, pareto-prune");
  for (StrategyKind K : {StrategyKind::Exhaustive, StrategyKind::ParetoPrune})
    EXPECT_EQ(parseStrategy(strategyName(K)), K);
}

TEST(SearchStrategyParse, ShardSpecs) {
  std::optional<ShardSpec> S = parseShard("1/3");
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Index, 1u);
  EXPECT_EQ(S->Count, 3u);
  EXPECT_FALSE(parseShard("3/3"));
  EXPECT_FALSE(parseShard("-1/3"));
  EXPECT_FALSE(parseShard("0/0"));
  EXPECT_FALSE(parseShard("1"));
  EXPECT_FALSE(parseShard("a/b"));
  EXPECT_FALSE(parseShard("1/3x"));
}

TEST(SearchStrategyParse, ShardPartitionCoversSpaceOnce) {
  // Every index lands in exactly one shard, the split is deterministic,
  // and no shard is starved on a space of a few thousand configs.
  ShardSpec S0{0, 3}, S1{1, 3}, S2{2, 3};
  size_t Counts[3] = {0, 0, 0};
  for (size_t I = 0; I != 2000; ++I) {
    unsigned Owner = S0.shardOf(I);
    EXPECT_EQ(Owner, S1.shardOf(I));
    EXPECT_EQ(Owner, S2.shardOf(I));
    ASSERT_LT(Owner, 3u);
    ++Counts[Owner];
  }
  for (size_t C : Counts)
    EXPECT_GT(C, 400u);
}

//===----------------------------------------------------------------------===//
// The fidelity ladder (the foundation of the exactness guarantee)
//===----------------------------------------------------------------------===//

TEST(FidelityLadder, BoundsAreMonotoneAcrossGemmSpace) {
  // Coarse <= Medium <= Full in every minimized objective, for accepted
  // and rule-violating configurations alike. Stride through the full
  // 32,000-config space.
  std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
  size_t Checked = 0;
  for (size_t I = 0; I < Space.size(); I += 37) {
    hlsim::KernelSpec K = gemmBlockedSpec(Space[I]);
    Objectives C = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Coarse));
    Objectives M = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Medium));
    Objectives F = Objectives::of(hlsim::estimateAt(K, hlsim::Fidelity::Full));
    auto LE = [](const Objectives &A, const Objectives &B) {
      return A.Latency <= B.Latency && A.Lut <= B.Lut && A.Ff <= B.Ff &&
             A.Bram <= B.Bram && A.Dsp <= B.Dsp;
    };
    EXPECT_TRUE(LE(C, M)) << "config " << I;
    EXPECT_TRUE(LE(M, F)) << "config " << I;
    ++Checked;
  }
  EXPECT_GT(Checked, 800u);
}

TEST(FidelityLadder, FullFidelityIsTheDefaultModel) {
  // Fidelity::Full must reproduce the default CostModel bit-for-bit —
  // otherwise every memoized estimate in the system would silently
  // diverge from hlsim::estimate().
  hlsim::KernelSpec K = gemmBlockedSpec(GemmBlockedConfig{2, 4, 1, 3, 2, 4, 6});
  hlsim::Estimate A = hlsim::estimate(K);
  hlsim::Estimate B = hlsim::estimateAt(K, hlsim::Fidelity::Full);
  EXPECT_TRUE(equalObjectives(Objectives::of(A), Objectives::of(B)));
  EXPECT_EQ(A.LutMem, B.LutMem);
  EXPECT_EQ(A.Incorrect, B.Incorrect);
  EXPECT_EQ(A.Predictable, B.Predictable);
}

TEST(FidelityLadder, CacheKeysSeparateRungs) {
  // The fix this PR ships: estimate cache keys carry the fidelity, so a
  // coarse rung can never serve a stale bound to a full-fidelity lookup.
  uint64_t H = 0x1234abcd5678ef00ULL;
  uint64_t KC = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Coarse);
  uint64_t KM = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Medium);
  uint64_t KF = hlsim::fidelityCacheKey(H, hlsim::Fidelity::Full);
  EXPECT_NE(KC, KM);
  EXPECT_NE(KM, KF);
  EXPECT_NE(KC, KF);
  // And none collide with the raw (pre-fidelity) key of the same spec.
  EXPECT_NE(KC, H);
  EXPECT_NE(KM, H);
  EXPECT_NE(KF, H);

  // End to end: a coarse entry in the shared cache is invisible at Full.
  DseCache Cache;
  hlsim::Estimate Bogus;
  Bogus.Lut = -12345;
  Cache.insertEstimate(KC, Bogus);
  hlsim::Estimate Out;
  EXPECT_FALSE(Cache.lookupEstimate(KF, Out));
  EXPECT_TRUE(Cache.lookupEstimate(KC, Out));
  EXPECT_EQ(Out.Lut, -12345);
}

TEST(FidelityLadder, WarmCacheCrossRungRunStaysExact) {
  // A pruned run fills the shared cache with coarse/medium bounds; a
  // subsequent exhaustive run over the same cache must not be poisoned by
  // them — every full-fidelity objective must equal a fresh run's.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Fresh = runStrategy(P, StrategyKind::Exhaustive, 1);

  auto Cache = std::make_shared<DseCache>();
  DseResult Pruned = runStrategy(P, StrategyKind::ParetoPrune, 2, Cache);
  EXPECT_GT(Cache->estimateCount(), 0u);
  DseResult Warm = runStrategy(P, StrategyKind::Exhaustive, 2, Cache);

  EXPECT_EQ(Warm.Front, Fresh.Front);
  EXPECT_EQ(Warm.AcceptedFront, Fresh.AcceptedFront);
  ASSERT_EQ(Warm.Points.size(), Fresh.Points.size());
  for (size_t I = 0; I != Warm.Points.size(); ++I) {
    ASSERT_EQ(Warm.Points[I].Estimated, Fresh.Points[I].Estimated) << I;
    EXPECT_TRUE(equalObjectives(Warm.Points[I].Obj, Fresh.Points[I].Obj))
        << "config " << I << " served a stale cross-rung estimate";
  }
  // The pruned run's own full-fidelity entries DO serve the warm run.
  EXPECT_GT(Warm.Stats.EstimateCacheHits, 0u);
  (void)Pruned;
}

//===----------------------------------------------------------------------===//
// Strategy exactness
//===----------------------------------------------------------------------===//

TEST(SearchStrategy, DominancePruningIsExact) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Ex = runStrategy(P, StrategyKind::Exhaustive);
  DseResult Pr = runStrategy(P, StrategyKind::ParetoPrune);

  EXPECT_EQ(Pr.Front, Ex.Front);
  EXPECT_EQ(Pr.AcceptedFront, Ex.AcceptedFront);
  EXPECT_EQ(Pr.Stats.Accepted, Ex.Stats.Accepted);
  // Every front member carries genuine full-fidelity objectives.
  for (size_t I : Pr.Front) {
    ASSERT_TRUE(Pr.Points[I].Estimated);
    EXPECT_TRUE(equalObjectives(Pr.Points[I].Obj, Ex.Points[I].Obj)) << I;
  }
  // Exactness accounting: every candidate was either fully estimated or
  // provably dominated — nothing fell through.
  EXPECT_EQ(Pr.Stats.Estimated + Pr.Stats.Pruned, Ex.Stats.Estimated);
  EXPECT_GT(Pr.Stats.Pruned, 0u);
  EXPECT_LT(Pr.Stats.Estimated, Ex.Stats.Estimated / 2);
}

TEST(SearchStrategy, PrunedStrategiesAreThreadCountInvariant) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Ref = runStrategy(P, StrategyKind::ParetoPrune, 1);
  for (unsigned Threads : {2u, 4u}) {
    DseResult R = runStrategy(P, StrategyKind::ParetoPrune, Threads);
    EXPECT_EQ(R.Front, Ref.Front) << Threads;
    EXPECT_EQ(R.AcceptedFront, Ref.AcceptedFront) << Threads;
    EXPECT_EQ(R.Stats.Estimated, Ref.Stats.Estimated) << Threads;
    EXPECT_EQ(R.Stats.Pruned, Ref.Stats.Pruned) << Threads;
  }
}

TEST(SearchStrategy, CheckerDirectedSpacesPruneOnlyAcceptedPoints) {
  // EstimateRejected = false (the Figure 8 methodology): rejected configs
  // are never estimated at any fidelity, and the pruned front still
  // matches the exhaustive one.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  P.EstimateRejected = false;
  DseResult Ex = runStrategy(P, StrategyKind::Exhaustive);
  DseResult Pr = runStrategy(P, StrategyKind::ParetoPrune);
  EXPECT_EQ(Pr.Front, Ex.Front);
  EXPECT_EQ(Pr.AcceptedFront, Ex.AcceptedFront);
  EXPECT_EQ(Pr.Front, Pr.AcceptedFront);
  EXPECT_LE(Pr.Stats.Estimated + Pr.Stats.Pruned, Pr.Stats.Accepted);
  for (size_t I = 0; I != Pr.Points.size(); ++I)
    if (!Pr.Points[I].Accepted)
      EXPECT_FALSE(Pr.Points[I].Estimated) << I;
}

/// A one-loop kernel over CycleSimTest's period-17 array (34 words in 17
/// cyclic banks) reading A[i + Offset] and A[Coeff * i].
hlsim::KernelSpec twoReadKernel(int64_t Trip, int64_t Offset, int64_t Coeff,
                                unsigned AddOps) {
  hlsim::KernelSpec K;
  K.Name = "two-reads";
  K.FloatingPoint = false;
  K.Arrays = {{"A", {34}, {17}, 1, 32}};
  K.Nests[0].Loops = {{"i", Trip, 1}};
  K.Nests[0].Body = {{"A", {hlsim::AffineExpr::var("i", 1, Offset)}, false},
                     {"A", {hlsim::AffineExpr::var("i", Coeff)}, false}};
  K.Nests[0].AddOps = AddOps;
  return K;
}

TEST(SearchStrategy, ExactTopRungFrontIsEqualAcrossStrategies) {
  // Y (config 0) is CycleSimTest's period-17 kernel: Full samples 16
  // schedule points and sees II=1, the simulator walks the whole period
  // and finds II=2. X (config 1) is conflict-free and one adder larger.
  // Full(Y) strictly dominates X's Medium bound, but Exact(Y) does not
  // dominate X, so a walk that prunes X against Full(Y) and never
  // re-tests it against Exact(Y) loses X from the exact front.
  const hlsim::KernelSpec Y = twoReadKernel(34, 16, 2, 0);
  const hlsim::KernelSpec X = twoReadKernel(40, 1, 1, 1);
  auto At = [](const hlsim::KernelSpec &K, hlsim::Fidelity F) {
    return Objectives::of(hlsim::estimateAt(K, F));
  };
  ASSERT_TRUE(dominates(At(Y, hlsim::Fidelity::Full),
                        At(X, hlsim::Fidelity::Medium)));
  ASSERT_FALSE(dominates(At(Y, hlsim::Fidelity::Full),
                         At(X, hlsim::Fidelity::Coarse)));
  ASSERT_FALSE(dominates(At(Y, hlsim::Fidelity::Exact),
                         At(X, hlsim::Fidelity::Exact)));
  ASSERT_FALSE(dominates(At(X, hlsim::Fidelity::Exact),
                         At(Y, hlsim::Fidelity::Exact)));

  DseProblem P;
  P.Size = 2;
  P.Source = [](size_t) {
    return std::string("decl A: bit<32>[34 bank 17];\nA[0] := 1;\n");
  };
  P.Spec = [Y, X](size_t I) { return I == 0 ? Y : X; };
  auto Explore = [&](StrategyKind K) {
    DseOptions O;
    O.Strategy = K;
    O.Threads = 1;
    O.ExactTopRung = true;
    return DseEngine(O).explore(P);
  };
  DseResult Ex = Explore(StrategyKind::Exhaustive);
  DseResult Pr = Explore(StrategyKind::ParetoPrune);

  ASSERT_EQ(Ex.Stats.Accepted, 2u);
  EXPECT_EQ(Ex.Front, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(Ex.AcceptedFront, Ex.Front);
  EXPECT_EQ(Pr.Front, Ex.Front);
  EXPECT_EQ(Pr.AcceptedFront, Ex.AcceptedFront);
  for (size_t I : Pr.Front) {
    EXPECT_TRUE(Pr.Points[I].ExactEvaluated) << I;
    EXPECT_TRUE(equalObjectives(Pr.Points[I].Obj, Ex.Points[I].Obj)) << I;
  }
}

//===----------------------------------------------------------------------===//
// Shard splits and the merge
//===----------------------------------------------------------------------===//

TEST(ShardMerge, ThreeShardsReproduceTheWholeFrontAtAnyThreadCount) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Whole = runStrategy(P, StrategyKind::Exhaustive, 2);
  auto WholeObj = [&](size_t I) -> const Objectives & {
    return Whole.Points[I].Obj;
  };
  uint64_t WholeHash = frontHash(Whole.Front, WholeObj);

  for (unsigned Threads : {1u, 2u, 4u}) {
    std::vector<FrontPoint> Points;
    size_t Explored = 0;
    for (unsigned S = 0; S != 3; ++S) {
      DseResult Part = runStrategy(P, StrategyKind::Exhaustive, Threads,
                                   nullptr, ShardSpec{S, 3});
      Explored += Part.Stats.Explored;
      std::vector<FrontPoint> FP = collectFrontPoints(Part);
      Points.insert(Points.end(), FP.begin(), FP.end());
    }
    EXPECT_EQ(Explored, P.Size) << "shards must cover the space exactly";

    MergedFronts M = mergeFrontPoints(Points);
    EXPECT_EQ(M.Front, Whole.Front) << Threads << " threads/shard";
    EXPECT_EQ(M.AcceptedFront, Whole.AcceptedFront)
        << Threads << " threads/shard";

    std::map<size_t, Objectives> ObjByIndex;
    for (const FrontPoint &FP : Points)
      ObjByIndex[FP.Index] = FP.Obj;
    auto MergedObj = [&](size_t I) -> const Objectives & {
      return ObjByIndex.at(I);
    };
    EXPECT_EQ(frontHash(M.Front, MergedObj), WholeHash)
        << Threads << " threads/shard";
  }
}

TEST(ShardMerge, PrunedShardsMergeToTheExactFrontToo) {
  // Strategy and sharding compose: pruning inside each shard still yields
  // the exact whole-space front after the merge.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult Whole = runStrategy(P, StrategyKind::Exhaustive, 2);

  std::vector<FrontPoint> Points;
  size_t FullEstimates = 0;
  for (unsigned S = 0; S != 3; ++S) {
    DseResult Part = runStrategy(P, StrategyKind::ParetoPrune, 2, nullptr,
                                 ShardSpec{S, 3});
    FullEstimates += Part.Stats.Estimated;
    std::vector<FrontPoint> FP = collectFrontPoints(Part);
    Points.insert(Points.end(), FP.begin(), FP.end());
  }
  MergedFronts M = mergeFrontPoints(Points);
  EXPECT_EQ(M.Front, Whole.Front);
  EXPECT_EQ(M.AcceptedFront, Whole.AcceptedFront);
  EXPECT_LT(FullEstimates, Whole.Stats.Estimated);
}

TEST(ShardMerge, FrontPointsRoundTripThroughJsonBitExactly) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseResult R = runStrategy(P, StrategyKind::Exhaustive, 2);
  std::vector<FrontPoint> Points = collectFrontPoints(R);
  ASSERT_FALSE(Points.empty());

  // Serialize, reparse from the dumped text, and compare bit-for-bit —
  // this is the property the multi-process merge relies on.
  std::string Dumped = frontPointsToJson(Points).dump();
  std::optional<Json> Parsed = Json::parse(Dumped);
  ASSERT_TRUE(Parsed);
  std::string Err;
  std::optional<std::vector<FrontPoint>> Back =
      frontPointsFromJson(*Parsed, &Err);
  ASSERT_TRUE(Back) << Err;
  ASSERT_EQ(Back->size(), Points.size());
  for (size_t K = 0; K != Points.size(); ++K) {
    EXPECT_EQ((*Back)[K].Index, Points[K].Index);
    EXPECT_EQ((*Back)[K].Accepted, Points[K].Accepted);
    EXPECT_TRUE(equalObjectives((*Back)[K].Obj, Points[K].Obj))
        << "objectives changed across the JSON round-trip at " << K;
  }

  MergedFronts M = mergeFrontPoints(*Back);
  EXPECT_EQ(M.Front, R.Front);
  EXPECT_EQ(M.AcceptedFront, R.AcceptedFront);
}

TEST(ShardMerge, MalformedFrontPointsAreRejectedNotDefaulted) {
  // A point missing an objective must fail the parse — defaulting it to
  // 0 would make it dominate (and erase) the entire merged front.
  auto Parse = [](const std::string &Text) {
    std::optional<Json> J = Json::parse(Text);
    EXPECT_TRUE(J);
    std::string Err;
    auto R = frontPointsFromJson(*J, &Err);
    return std::make_pair(R.has_value(), Err);
  };
  EXPECT_TRUE(Parse(R"([{"index":1,"accepted":true,"latency":2,"lut":3,)"
                    R"("ff":4,"bram":5,"dsp":6}])")
                  .first);
  auto [OkMissing, ErrMissing] = Parse(
      R"([{"index":1,"accepted":true,"latency":2,"lut":3,"ff":4,"bram":5}])");
  EXPECT_FALSE(OkMissing);
  EXPECT_NE(ErrMissing.find("dsp"), std::string::npos);
  EXPECT_FALSE(Parse(R"([{"index":1,"latency":2,"lut":3,"ff":4,"bram":5,)"
                     R"("dsp":6}])")
                   .first); // no verdict
  EXPECT_FALSE(Parse(R"([{"index":1,"accepted":true,"latency":"fast",)"
                     R"("lut":3,"ff":4,"bram":5,"dsp":6}])")
                   .first); // non-numeric objective
  EXPECT_FALSE(Parse(R"([42])").first);
  EXPECT_FALSE(Parse(R"({"index":1})").first); // not an array
}

} // namespace
