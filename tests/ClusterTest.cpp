//===- ClusterTest.cpp - Distributed DSE coordinator tests ------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The cluster contract: a coordinator driving N TCP workers through M
// hash-partitioned shards produces a Pareto front bit-identical to one
// in-process exhaustive sweep — at 1/2/4 workers, at uneven shard
// counts, and under injected faults (a worker killed mid-stream, a
// worker stalled past the shard timeout, truncated frames, hostile chunk
// streams). Faults must surface as retry/reassign/worker-dead journal
// records and still converge to the exact front, in journals that pass
// SearchJournal::checkConsistent. A healthy fleet runs every shard
// exactly once. Cache syncing converges a fleet to all-hit.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"
#include "cluster/FaultInject.h"
#include "dse/Journal.h"

#include "service/ServiceClient.h"
#include "service/TcpServer.h"
#include "support/EventLog.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

using namespace dahlia;
using namespace dahlia::cluster;

namespace {

constexpr const char *kSpace = "gemm-blocked";

/// A fleet of honest in-process TCP workers (real TcpServer over a real
/// CompileService each, like N `dahlia-serve` processes).
struct Fleet {
  std::vector<std::unique_ptr<service::CompileService>> Svcs;
  std::vector<std::unique_ptr<service::TcpServer>> Servers;
  std::vector<std::thread> Loops;

  bool add(size_t N) {
    for (size_t I = 0; I != N; ++I) {
      service::ServiceOptions SO;
      SO.Threads = 2;
      Svcs.push_back(std::make_unique<service::CompileService>(SO));
      Servers.push_back(std::make_unique<service::TcpServer>(*Svcs.back()));
      if (!Servers.back()->start())
        return false;
      service::TcpServer *S = Servers.back().get();
      Loops.emplace_back([S] { S->run(); });
    }
    return true;
  }

  std::vector<WorkerSpec> specs() const {
    std::vector<WorkerSpec> Ws;
    for (const auto &S : Servers) {
      WorkerSpec W;
      W.Port = S->port();
      Ws.push_back(W);
    }
    return Ws;
  }

  ~Fleet() {
    for (auto &S : Servers)
      S->stop();
    for (std::thread &T : Loops)
      T.join();
  }
};

ClusterOptions baseOptions(size_t Limit) {
  ClusterOptions O;
  O.Space = kSpace;
  O.Limit = Limit;
  O.SweepThreads = 2;
  O.ShardTimeoutMs = 30000;
  O.RetryBackoffMs = 5;
  return O;
}

/// The in-process single-machine reference: one unsharded exhaustive
/// sweep of the same space.
Json singleMachineSweep(size_t Limit) {
  service::ServiceOptions SO;
  SO.Threads = 2;
  service::CompileService Svc(SO);
  service::ServiceClient C(Svc);
  service::Request R;
  R.Kind = service::Op::DseSweep;
  R.Space = kSpace;
  R.Limit = Limit;
  R.Threads = 2;
  service::ClientResponse Resp = C.call(std::move(R));
  EXPECT_TRUE(Resp.R.Ok);
  return Resp.Raw.at("sweep");
}

void expectMatchesReference(const ClusterResult &R, const Json &Ref) {
  EXPECT_TRUE(R.Ok) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_EQ(R.FrontHash, Ref.at("front_hash").asString());
  EXPECT_EQ(dse::indicesToJson(R.Fronts.Front).dump(),
            Ref.at("front").dump());
  EXPECT_EQ(dse::indicesToJson(R.Fronts.AcceptedFront).dump(),
            Ref.at("accepted_front").dump());
  EXPECT_EQ(R.Stats.Explored,
            static_cast<size_t>(Ref.at("explored").asInt()));
}

bool journalHasKind(const std::vector<std::string> &Lines, const char *Kind) {
  std::string Needle = std::string("\"kind\":\"") + Kind + "\"";
  for (const std::string &L : Lines)
    if (L.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// Every violation SearchJournal::checkConsistent finds in the
/// coordinator's part of the buffered journal \p Lines, so the cluster
/// kinds are schema-checked against eventlog::kKindSchemas. The
/// in-process test fleet shares the process-wide journal, so the
/// workers' concurrent shard sweeps interleave with the coordinator's
/// records; they are dropped and the rest renumbered, which is the
/// journal a coordinator writes in its own process.
std::vector<std::string>
coordinatorViolations(const std::vector<std::string> &Lines) {
  static const std::set<std::string> WorkerKinds = {
      "sweep-begin", "sweep-end",   "enumerated",  "verdict", "estimate",
      "prune",       "front-enter", "front-evict", "progress"};
  std::vector<Json> Kept;
  for (const std::string &L : Lines) {
    std::optional<Json> J = Json::parse(L);
    if (!J)
      return {"unparseable journal line: " + L};
    if (!WorkerKinds.count(J->at("kind").asString()))
      Kept.push_back(std::move(*J));
  }
  std::vector<std::string> Renumbered;
  for (Json &J : Kept) {
    J["seq"] = Renumbered.size();
    if (J.at("kind").asString() == "journal-end")
      J["events"] = Kept.size();
    Renumbered.push_back(J.dump());
  }
  std::string Err;
  std::optional<dse::journal::SearchJournal> SJ =
      dse::journal::SearchJournal::parse(Renumbered, &Err);
  if (!SJ)
    return {Err};
  return SJ->checkConsistent();
}

} // namespace

//===----------------------------------------------------------------------===//
// Worker-list parsing
//===----------------------------------------------------------------------===//

TEST(ClusterConfig, ParseWorkerList) {
  std::string Err;
  auto Ws = parseWorkerList("9001,localhost:9002,127.0.0.1:9003", &Err);
  ASSERT_TRUE(Ws.has_value()) << Err;
  ASSERT_EQ(Ws->size(), 3u);
  EXPECT_EQ((*Ws)[0].Host, "127.0.0.1");
  EXPECT_EQ((*Ws)[0].Port, 9001);
  EXPECT_EQ((*Ws)[1].Host, "localhost");
  EXPECT_EQ((*Ws)[1].Port, 9002);
  EXPECT_EQ((*Ws)[2].Port, 9003);

  EXPECT_FALSE(parseWorkerList("", &Err).has_value());
  EXPECT_FALSE(parseWorkerList("9001,,9002", &Err).has_value());
  EXPECT_FALSE(parseWorkerList("9001,abc", &Err).has_value());
  EXPECT_FALSE(parseWorkerList("0", &Err).has_value());
  EXPECT_FALSE(parseWorkerList("99999", &Err).has_value());
  // Loopback only: a coordinator must not be pointable off-machine.
  EXPECT_FALSE(parseWorkerList("example.com:9001", &Err).has_value());
  EXPECT_NE(Err.find("loopback"), std::string::npos);
}

TEST(ClusterConfig, StatusSnapshotShape) {
  ClusterOptions O = baseOptions(100);
  WorkerSpec W;
  W.Port = 1; // Never dialed: statusJson needs no live fleet.
  O.Workers = {W, W};
  O.Shards = 5;
  ClusterCoordinator Coord(std::move(O));
  Json S = Coord.statusJson();
  EXPECT_FALSE(S.at("running").asBool());
  EXPECT_EQ(S.at("shards").asInt(), 5);
  EXPECT_EQ(S.at("shard_phases").at("pending").asInt(), 5);
  EXPECT_EQ(S.at("shard_phases").at("done").asInt(), 0);
  ASSERT_EQ(S.at("workers").size(), 2u);
  EXPECT_FALSE(S.at("workers").asArray()[0].at("dead").asBool());
  EXPECT_FALSE(S.contains("speculative_dispatches"));
}

TEST(ClusterConfig, UnknownStrategyFailsBeforeDispatch) {
  ClusterOptions O = baseOptions(100);
  WorkerSpec W;
  W.Port = 1; // Never dialed: the strategy is rejected first.
  O.Workers = {W};
  O.Strategy = "halving";
  ClusterResult R = ClusterCoordinator(std::move(O)).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Stats.Dispatches, 0u);
  ASSERT_EQ(R.Errors.size(), 1u);
  EXPECT_EQ(R.Errors.front(),
            "unknown sweep strategy 'halving' (exhaustive, pareto-prune)");
}

//===----------------------------------------------------------------------===//
// Exactness: cluster front == single-machine front, bit for bit
//===----------------------------------------------------------------------===//

TEST(Cluster, FrontMatchesSingleMachineAcrossWorkerAndShardCounts) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  constexpr size_t Limit = 300;
  Json Ref = singleMachineSweep(Limit);

  // Uneven on purpose: shards never divide evenly into workers.
  const struct {
    size_t Workers;
    unsigned Shards;
  } Cases[] = {{1, 3}, {2, 5}, {4, 7}};

  for (const auto &TC : Cases) {
    Fleet F;
    ASSERT_TRUE(F.add(TC.Workers));
    ClusterOptions O = baseOptions(Limit);
    O.Workers = F.specs();
    O.Shards = TC.Shards;
    ClusterResult R = ClusterCoordinator(std::move(O)).run();
    SCOPED_TRACE(testing::Message() << TC.Workers << " workers, "
                                    << TC.Shards << " shards");
    expectMatchesReference(R, Ref);
    EXPECT_EQ(R.Stats.ShardsDone, TC.Shards);
    EXPECT_EQ(R.Stats.WorkerDeaths, 0u);
    // On a healthy fleet each shard runs exactly once.
    EXPECT_EQ(R.Stats.Dispatches, R.Stats.Shards);
    EXPECT_EQ(R.Stats.Retries, 0u);
    EXPECT_EQ(R.Stats.SpeculativeDispatches, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Fault injection: every fault surfaces as retry/reassign, never as a
// wrong front
//===----------------------------------------------------------------------===//

TEST(Cluster, WorkerKilledMidStreamIsRetiredAndSweepStaysExact) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  constexpr size_t Limit = 200;
  Json Ref = singleMachineSweep(Limit);

  service::ServiceOptions SO;
  SO.Threads = 2;
  // The honest worker pauses well under the shard timeout in every
  // reply, so it cannot drain the queue before the killer has failed
  // kWorkerFailureLimit consecutive attempts and been retired.
  FaultOptions SlowFO;
  SlowFO.Mode = FaultMode::Stall;
  SlowFO.TriggerConnections = 0;
  SlowFO.AfterChunks = 0;
  SlowFO.StallMs = 250;
  FaultyWorker Honest(SlowFO, SO);
  ASSERT_TRUE(Honest.start());
  FaultOptions FO;
  FO.Mode = FaultMode::KillMidStream;
  FO.TriggerConnections = 0; // every sweep dies mid-stream
  FO.AfterChunks = 1;
  FaultyWorker Killer(FO, SO);
  ASSERT_TRUE(Killer.start());

  eventlog::journalStartBuffered();
  ClusterOptions O = baseOptions(Limit);
  WorkerSpec W;
  W.Port = Honest.port();
  O.Workers.push_back(W);
  W.Port = Killer.port();
  O.Workers.push_back(W);
  O.Shards = 4;
  ClusterResult R = ClusterCoordinator(std::move(O)).run();
  eventlog::journalStop();
  Killer.stop();
  Honest.stop();

  expectMatchesReference(R, Ref);
  EXPECT_GE(R.Stats.Retries, 1u);
  EXPECT_GE(R.Stats.Reassignments, 1u);
  EXPECT_EQ(R.Stats.WorkerDeaths, 1u);
  EXPECT_GE(Killer.faultsInjected(), 1u);

  std::vector<std::string> J = eventlog::journalLines();
  EXPECT_TRUE(journalHasKind(J, "cluster-begin"));
  EXPECT_TRUE(journalHasKind(J, "shard-dispatch"));
  EXPECT_TRUE(journalHasKind(J, "shard-done"));
  EXPECT_TRUE(journalHasKind(J, "shard-retry"));
  EXPECT_TRUE(journalHasKind(J, "shard-reassign"));
  EXPECT_TRUE(journalHasKind(J, "worker-dead"));
  EXPECT_TRUE(journalHasKind(J, "cluster-end"));
  EXPECT_EQ(coordinatorViolations(J), std::vector<std::string>{});
}

TEST(Cluster, StalledWorkerTripsShardTimeoutAndSweepStaysExact) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  constexpr size_t Limit = 80;
  Json Ref = singleMachineSweep(Limit);

  Fleet Honest;
  ASSERT_TRUE(Honest.add(1));
  FaultOptions FO;
  FO.Mode = FaultMode::Stall;
  FO.TriggerConnections = 1; // first sweep stalls, then honest
  FO.AfterChunks = 0;
  FO.StallMs = 20000; // way past the shard timeout below
  service::ServiceOptions SO;
  SO.Threads = 2;
  FaultyWorker Staller(FO, SO);
  ASSERT_TRUE(Staller.start());

  ClusterOptions O = baseOptions(Limit);
  O.Workers = Honest.specs();
  WorkerSpec W;
  W.Port = Staller.port();
  O.Workers.push_back(W);
  O.Shards = 3;
  O.ShardTimeoutMs = 1500; // the stall must look exactly like a death
  O.Retry = 5;
  ClusterResult R = ClusterCoordinator(std::move(O)).run();
  Staller.stop();

  expectMatchesReference(R, Ref);
  EXPECT_GE(R.Stats.Retries, 1u);
  EXPECT_EQ(Staller.faultsInjected(), 1u);
}

TEST(Cluster, HostileChunkStreamsAreRetriedNeverMerged) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  constexpr size_t Limit = 120;
  Json Ref = singleMachineSweep(Limit);

  const struct {
    FaultMode Mode;
    const char *Name;
  } Cases[] = {{FaultMode::TruncateFrame, "truncated frame"},
               {FaultMode::GarbageChunk, "garbage chunk"},
               {FaultMode::DuplicateChunk, "duplicate front_point chunk"},
               {FaultMode::PrematureEnd, "premature stream_end"}};

  for (const auto &TC : Cases) {
    SCOPED_TRACE(TC.Name);
    Fleet Honest;
    ASSERT_TRUE(Honest.add(1));
    FaultOptions FO;
    FO.Mode = TC.Mode;
    FO.TriggerConnections = 1;
    FO.AfterChunks = TC.Mode == FaultMode::TruncateFrame ? 0 : 1;
    service::ServiceOptions SO;
    SO.Threads = 2;
    FaultyWorker Hostile(FO, SO);
    ASSERT_TRUE(Hostile.start());

    ClusterOptions O = baseOptions(Limit);
    O.Workers = Honest.specs();
    WorkerSpec W;
    W.Port = Hostile.port();
    O.Workers.push_back(W);
    O.Shards = 3;
    O.Retry = 5;
    ClusterResult R = ClusterCoordinator(std::move(O)).run();
    Hostile.stop();

    expectMatchesReference(R, Ref);
    EXPECT_GE(R.Stats.Retries, 1u);
    EXPECT_GE(Hostile.faultsInjected(), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Cache shipping: the fleet converges to all-hit
//===----------------------------------------------------------------------===//

TEST(Cluster, CacheSyncConvergesFleetToAllHit) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  constexpr size_t Limit = 200;
  Json Ref = singleMachineSweep(Limit);

  Fleet F;
  ASSERT_TRUE(F.add(2));

  eventlog::journalStartBuffered();
  ClusterOptions O1 = baseOptions(Limit);
  O1.Workers = F.specs();
  O1.Shards = 4;
  O1.SyncCacheAfter = true;
  ClusterResult R1 = ClusterCoordinator(std::move(O1)).run();
  eventlog::journalStop();
  expectMatchesReference(R1, Ref);
  EXPECT_GT(R1.Stats.CacheEntriesShipped, 0u);
  EXPECT_TRUE(journalHasKind(eventlog::journalLines(), "cache-sync"));
  EXPECT_EQ(coordinatorViolations(eventlog::journalLines()),
            std::vector<std::string>{});

  // Second sweep, different shard partition: every estimate any worker
  // needs was shipped to it, so the whole fleet runs from cache.
  ClusterOptions O2 = baseOptions(Limit);
  O2.Workers = F.specs();
  O2.Shards = 3;
  ClusterResult R2 = ClusterCoordinator(std::move(O2)).run();
  expectMatchesReference(R2, Ref);
  EXPECT_GE(R2.Stats.EstimateCacheHits,
            R2.Stats.Explored - R2.Stats.Explored / 10);
  EXPECT_GT(R2.Stats.EstimateCacheHits, R1.Stats.EstimateCacheHits);
}

//===----------------------------------------------------------------------===//
// The watch machinery as a fleet view
//===----------------------------------------------------------------------===//

TEST(Cluster, ProbeWorkersAnswersPerWorkerWatchSnapshots) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  Fleet F;
  ASSERT_TRUE(F.add(2));
  ClusterOptions O = baseOptions(50);
  O.Workers = F.specs();
  ClusterCoordinator Coord(std::move(O));
  Json Probes = Coord.probeWorkers();
  ASSERT_EQ(Probes.size(), 2u);
  for (const Json &P : Probes.asArray()) {
    EXPECT_TRUE(P.contains("watch")) << P.dump();
    EXPECT_FALSE(P.at("watch").at("running").asBool(true));
  }
}
