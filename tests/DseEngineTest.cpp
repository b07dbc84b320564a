//===- DseEngineTest.cpp - Parallel exploration engine tests ----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The engine contract: the parallel, memoized exploration must be
// observationally identical to the serial pipeline sweep — same accepted
// set, same Pareto-front membership — at any thread count, with or
// without a warm cache.
//
//===----------------------------------------------------------------------===//

#include "dse/DseEngine.h"

#include "driver/CompilerPipeline.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace dahlia;
using namespace dahlia::dse;
using namespace dahlia::kernels;

namespace {

Objectives point(double Lat, double Lut) {
  Objectives O;
  O.Latency = Lat;
  O.Lut = Lut;
  return O;
}

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

TEST(ParetoFrontIncremental, InsertionOrderIndependent) {
  std::vector<Objectives> Pts;
  for (int I = 0; I != 300; ++I) {
    Objectives O = point((I * 37) % 101, (I * 53) % 97);
    O.Bram = (I * 11) % 7;
    O.Dsp = (I * 29) % 5;
    Pts.push_back(O);
  }
  std::vector<size_t> Batch = paretoFront(Pts);

  ParetoFront Fwd, Bwd, Strided;
  for (size_t I = 0; I != Pts.size(); ++I)
    Fwd.insert(I, Pts[I]);
  for (size_t I = Pts.size(); I-- > 0;)
    Bwd.insert(I, Pts[I]);
  for (size_t Phase = 0; Phase != 7; ++Phase)
    for (size_t I = Phase; I < Pts.size(); I += 7)
      Strided.insert(I, Pts[I]);

  EXPECT_EQ(Fwd.indices(), Batch);
  EXPECT_EQ(Bwd.indices(), Batch);
  EXPECT_EQ(Strided.indices(), Batch);
}

TEST(ParetoFrontIncremental, MergeEqualsBulkInsert) {
  std::vector<Objectives> Pts;
  for (int I = 0; I != 120; ++I)
    Pts.push_back(point((I * 13) % 31, (I * 7) % 29));
  ParetoFront Whole, A, B;
  for (size_t I = 0; I != Pts.size(); ++I) {
    Whole.insert(I, Pts[I]);
    (I % 2 ? A : B).insert(I, Pts[I]);
  }
  A.merge(B);
  EXPECT_EQ(A.indices(), Whole.indices());
}

TEST(ParetoFrontIncremental, InsertExReportsEntriesAndEvictions) {
  ParetoFront F;
  ParetoFront::InsertOutcome O = F.insertEx(0, point(10, 10));
  EXPECT_TRUE(O.Entered);
  EXPECT_TRUE(O.Evicted.empty());

  // Dominated offer: rejected, nothing displaced.
  O = F.insertEx(1, point(20, 20));
  EXPECT_FALSE(O.Entered);
  EXPECT_TRUE(O.Evicted.empty());

  // Incomparable offer: enters alongside.
  O = F.insertEx(2, point(5, 30));
  EXPECT_TRUE(O.Entered);
  EXPECT_TRUE(O.Evicted.empty());

  // Dominating offer: enters and reports both displaced members.
  O = F.insertEx(3, point(4, 9));
  EXPECT_TRUE(O.Entered);
  EXPECT_EQ(O.Evicted, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(F.indices(), (std::vector<size_t>{3}));

  // Equal-vector tie collapses onto the lower index: the higher-index
  // newcomer reports as entered-with-eviction when it wins (it never
  // does against a lower index), and rejected otherwise.
  O = F.insertEx(7, point(4, 9));
  EXPECT_FALSE(O.Entered);
  EXPECT_TRUE(O.Evicted.empty());
  O = F.insertEx(1, point(4, 9));
  EXPECT_TRUE(O.Entered);
  EXPECT_EQ(O.Evicted, (std::vector<size_t>{3}));
  EXPECT_EQ(F.indices(), (std::vector<size_t>{1}));
}

TEST(ParetoFrontIncremental, DominatorOfNamesLowestDominatingMember) {
  ParetoFront F;
  F.insert(4, point(10, 10));
  F.insert(2, point(30, 5));
  F.insert(9, point(5, 30));

  // No member dominates an incomparable or front-beating point.
  EXPECT_FALSE(F.dominatorOf(point(4, 11)).has_value());
  EXPECT_FALSE(F.dominatorOf(point(1, 1)).has_value());
  // Equal vectors do not strictly dominate.
  EXPECT_FALSE(F.dominatorOf(point(10, 10)).has_value());

  // Dominated points name a dominator, consistent with dominatesPoint.
  std::optional<size_t> D = F.dominatorOf(point(11, 11));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 4u);
  EXPECT_TRUE(F.dominatesPoint(point(11, 11)));

  // Several members dominate (40,40): the lowest index wins, keeping
  // journal dominator attribution deterministic.
  D = F.dominatorOf(point(40, 40));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 2u);
}

TEST(DseEngine, ResolveThreadCount) {
  EXPECT_EQ(resolveThreadCount(5), 5u);
  setenv("DAHLIA_DSE_THREADS", "3", 1);
  EXPECT_EQ(resolveThreadCount(0), 3u);
  EXPECT_EQ(resolveThreadCount(2), 2u); // explicit request wins
  unsetenv("DAHLIA_DSE_THREADS");
  EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(DseEngine, MatchesSerialPipelineSweepOnSlice) {
  auto Space = sliceSpace();
  ASSERT_EQ(Space->size(), 2000u);

  // Serial reference: the hand-rolled sweep the engine replaces.
  driver::CompilerPipeline Pipeline;
  std::vector<bool> RefAccepted;
  std::vector<Objectives> RefObjs;
  size_t RefAcceptCount = 0;
  for (const GemmBlockedConfig &C : *Space) {
    bool OK = bool(Pipeline.check(gemmBlockedDahlia(C)));
    RefAccepted.push_back(OK);
    RefAcceptCount += OK ? 1 : 0;
    RefObjs.push_back(Objectives::of(hlsim::estimate(gemmBlockedSpec(C))));
  }
  EXPECT_EQ(RefAcceptCount, 11u); // RegressionAnchorsTest's analytic count.

  DseOptions Opts;
  Opts.Threads = 2;
  DseResult R = DseEngine(Opts).explore(sliceProblem(Space));
  ASSERT_EQ(R.Points.size(), Space->size());
  EXPECT_EQ(R.Stats.Accepted, RefAcceptCount);
  for (size_t I = 0; I != Space->size(); ++I) {
    EXPECT_EQ(R.Points[I].Accepted, RefAccepted[I]) << "config " << I;
    EXPECT_TRUE(equalObjectives(R.Points[I].Obj, RefObjs[I])) << I;
  }
  EXPECT_EQ(R.Front, paretoFront(RefObjs));
}

TEST(DseEngine, ThreadCountInvariance) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);

  DseResult Ref;
  bool First = true;
  for (unsigned Threads : {1u, 2u, 4u, 7u}) {
    DseOptions Opts;
    Opts.Threads = Threads;
    Opts.GrainSize = 17; // odd grain: exercise stealing boundaries
    DseResult R = DseEngine(Opts).explore(P);
    EXPECT_EQ(R.Stats.Threads, Threads);
    if (First) {
      Ref = std::move(R);
      First = false;
      continue;
    }
    EXPECT_EQ(R.Stats.Accepted, Ref.Stats.Accepted) << Threads;
    EXPECT_EQ(R.Front, Ref.Front) << Threads;
    EXPECT_EQ(R.AcceptedFront, Ref.AcceptedFront) << Threads;
    for (size_t I = 0; I != R.Points.size(); ++I)
      ASSERT_EQ(R.Points[I].Accepted, Ref.Points[I].Accepted)
          << "config " << I << " at " << Threads << " threads";
  }
}

TEST(DseEngine, ProgressTicksRunOnTheCallingThread) {
  // The TCP server streams `watch` records from these ticks and drops any
  // that fire off its loop thread, so a multi-threaded sweep must tick on
  // the thread that called explore — mid-sweep, not only at phase
  // boundaries.
  DseProblem P = sliceProblem(sliceSpace());
  DseOptions Opts;
  Opts.Threads = 4;
  Opts.GrainSize = 8;
  Opts.ProgressIntervalSec = 0;
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<size_t> OffThread{0};
  size_t MidSweep = 0;
  Opts.OnProgress = [&](const DseProgress &Pr) {
    if (std::this_thread::get_id() != Caller) {
      ++OffThread;
      return;
    }
    if (Pr.Done > 0 && Pr.Done < Pr.Total)
      ++MidSweep;
  };
  DseEngine(Opts).explore(P);
  EXPECT_EQ(OffThread.load(), 0u);
  EXPECT_GT(MidSweep, 0u);
}

TEST(DseEngine, SharedCacheSecondRunHitsAndAgrees) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  auto Cache = std::make_shared<DseCache>();

  DseOptions O1;
  O1.Threads = 1;
  O1.Cache = Cache;
  DseResult R1 = DseEngine(O1).explore(P);
  EXPECT_EQ(R1.Stats.VerdictCacheHits, 0u);

  DseOptions O4;
  O4.Threads = 4;
  O4.Cache = Cache;
  DseResult R4 = DseEngine(O4).explore(P);
  // Every verdict and estimate is served from the warm cache.
  EXPECT_EQ(R4.Stats.VerdictCacheHits, P.Size);
  EXPECT_EQ(R4.Stats.EstimateCacheHits, P.Size);
  EXPECT_EQ(R4.Stats.Accepted, R1.Stats.Accepted);
  EXPECT_EQ(R4.Front, R1.Front);
  EXPECT_EQ(R4.AcceptedFront, R1.AcceptedFront);
}

TEST(DseEngine, MemoizationOffStillAgrees) {
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  DseOptions NoMemo;
  NoMemo.Threads = 2;
  NoMemo.Memoize = false;
  DseResult A = DseEngine(NoMemo).explore(P);
  EXPECT_EQ(A.Stats.EstimateCacheHits, 0u);
  DseResult B = DseEngine().explore(P);
  EXPECT_EQ(A.Stats.Accepted, B.Stats.Accepted);
  EXPECT_EQ(A.Front, B.Front);
}

TEST(DseEngine, CheckerDirectedModeSkipsRejectedEstimates) {
  // EstimateRejected = false is the Figure 8 methodology: rejected points
  // carry no estimate, and the overall front equals the accepted front.
  auto Space = sliceSpace();
  DseProblem P = sliceProblem(Space);
  P.EstimateRejected = false;
  DseOptions Opts;
  Opts.Threads = 2;
  DseResult R = DseEngine(Opts).explore(P);
  EXPECT_EQ(R.Stats.Estimated, R.Stats.Accepted);
  EXPECT_EQ(R.Front, R.AcceptedFront);
  for (size_t I = 0; I != R.Points.size(); ++I)
    EXPECT_EQ(R.Points[I].Estimated, R.Points[I].Accepted) << I;
}

TEST(DseEngine, FullFigure7SpaceAnchors) {
  // The headline Section 5.2 sweep through the engine. Under this
  // checker's rules 153 of 32,000 configurations are accepted (the paper
  // reports 354/32,000 for the original implementation; see the E4
  // anchor in RegressionAnchorsTest). The front must be identical across
  // thread counts; the shared cache makes the second pass near-free.
  auto Cache = std::make_shared<DseCache>();
  DseOptions O4;
  O4.Threads = 4;
  O4.Cache = Cache;
  DseResult R4 = DseEngine(O4).explore(gemmBlockedProblem());
  EXPECT_EQ(R4.Stats.Explored, 32000u);
  EXPECT_EQ(R4.Stats.Accepted, 153u);
  EXPECT_GT(R4.Stats.configsPerSecond(), 0.0);

  DseOptions O1;
  O1.Threads = 1;
  O1.Cache = Cache;
  DseResult R1 = DseEngine(O1).explore(gemmBlockedProblem());
  EXPECT_EQ(R1.Stats.Accepted, R4.Stats.Accepted);
  EXPECT_EQ(R1.Front, R4.Front);
  EXPECT_EQ(R1.AcceptedFront, R4.AcceptedFront);
}

} // namespace
