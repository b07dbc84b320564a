//===- cluster_throughput.cpp - Distributed DSE scaling bench ---*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Measures the distributed-DSE win: the same sharded gemm-blocked sweep
// driven by a ClusterCoordinator against 1 worker and against 4 workers
// (real TcpServer fleets, in-process so one binary is the whole cluster),
// cold and warm. After the cold 4-worker sweep the coordinator ships the
// union of the workers' memo caches back to the whole fleet
// (ClusterCoordinator::syncCaches, the --sync-cache machinery), so the
// warm pass measures an all-hit fleet.
//
// Reported into BENCH_cluster.json and gated by bench/check_regression.py
// against bench/baselines/cluster.json:
//
//   * speedup_warm — the warm 4-worker fleet's configs/sec over the cold
//     1-worker pass. This is the shipped-cache win (every estimate is a
//     hit fleet-wide), so it holds on any machine — including 1-core CI
//     runners, where adding in-process workers cannot buy wall-clock
//     parallelism — and is gated >= 2x.
//   * speedup_cold — cold 4-worker over cold 1-worker configs/sec: the
//     pure added-workers ratio. Machine-dependent (it needs real cores),
//     so it is reported and floor-gated only against catastrophic
//     serialization, not against the ideal 4x. The cold 4-worker pass is
//     the sweep plus the cache shipping after it, and both count here;
//     sweep_seconds_4workers_cold and ship_seconds_4workers_cold report
//     the two parts (ungated), so a slow pass points at one of them.
//   * front_identical — every pass must produce the single-machine front
//     hash (exactness is gated here too; a fast wrong cluster is worse
//     than no cluster).
//   * warm_hit_rate — the warm 4-worker pass must run ~entirely from
//     shipped cache entries.
//
// Flags:
//   --limit N    sweep size (default 4000)
//   --shards M   shard count for every pass (default 8)
//   --json PATH  output metrics (default BENCH_cluster.json)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cluster/Cluster.h"
#include "service/ServiceClient.h"
#include "service/TcpServer.h"
#include "support/Socket.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

using namespace dahlia;
using namespace dahlia::bench;

namespace {

struct Fleet {
  std::vector<std::unique_ptr<service::CompileService>> Svcs;
  std::vector<std::unique_ptr<service::TcpServer>> Servers;
  std::vector<std::thread> Loops;

  bool add(size_t N) {
    for (size_t I = 0; I != N; ++I) {
      service::ServiceOptions SO;
      SO.Threads = 1; // Scaling must come from workers, not worker threads.
      Svcs.push_back(std::make_unique<service::CompileService>(SO));
      Servers.push_back(std::make_unique<service::TcpServer>(*Svcs.back()));
      if (!Servers.back()->start())
        return false;
      service::TcpServer *S = Servers.back().get();
      Loops.emplace_back([S] { S->run(); });
    }
    return true;
  }

  std::vector<cluster::WorkerSpec> specs() const {
    std::vector<cluster::WorkerSpec> Ws;
    for (const auto &S : Servers) {
      cluster::WorkerSpec W;
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

struct Pass {
  double Seconds = 0;     ///< Sweep plus cache shipping.
  double ShipSeconds = 0; ///< The cache shipping alone.
  double ConfigsPerSec = 0;
  double HitRate = 0;
  bool Exact = false;
  bool Ok = false;
};

/// One sweep over \p F; with \p ShipCache the coordinator then ships the
/// union of the workers' memo caches back to the whole fleet.
Pass runPass(const Fleet &F, size_t Limit, unsigned Shards, bool ShipCache,
             const std::string &RefHash) {
  cluster::ClusterOptions O;
  O.Workers = F.specs();
  O.Space = "gemm-blocked";
  O.Limit = Limit;
  O.SweepThreads = 1;
  O.Shards = Shards;
  cluster::ClusterCoordinator Coord(std::move(O));
  auto Since = [](std::chrono::steady_clock::time_point T) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
        .count();
  };
  auto Start = std::chrono::steady_clock::now();
  cluster::ClusterResult R = Coord.run();
  Pass P;
  P.Ok = R.Ok;
  if (ShipCache && R.Ok) {
    auto ShipStart = std::chrono::steady_clock::now();
    std::string Err;
    P.Ok = Coord.syncCaches(&Err);
    if (!P.Ok)
      std::fprintf(stderr, "cluster_throughput: cache sync failed: %s\n",
                   Err.c_str());
    P.ShipSeconds = Since(ShipStart);
  }
  // Wall clock around the whole pass, not the workers' self-reported
  // sweep seconds: coordination overhead (and cache shipping, on the cold
  // 4-worker pass) is part of what this bench gates.
  P.Seconds = Since(Start);
  P.Exact = R.Ok && R.FrontHash == RefHash;
  if (P.Seconds > 0)
    P.ConfigsPerSec = static_cast<double>(R.Stats.Explored) / P.Seconds;
  if (R.Stats.Explored > 0)
    P.HitRate = static_cast<double>(R.Stats.EstimateCacheHits) /
                static_cast<double>(R.Stats.Explored);
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Limit = 4000;
  unsigned Shards = 8;
  const char *JsonOut = "BENCH_cluster.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--limit") && I + 1 < Argc)
      Limit = static_cast<size_t>(std::strtoull(Argv[++I], nullptr, 10));
    else if (!std::strcmp(Argv[I], "--shards") && I + 1 < Argc)
      Shards = static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonOut = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: cluster_throughput [--limit N] [--shards M] "
                   "[--json PATH]\n");
      return 2;
    }
  }
  if (!haveSockets()) {
    std::fprintf(stderr, "cluster_throughput: no socket support; skipping\n");
    return 0;
  }

  banner("Distributed DSE scaling (1 vs 4 workers, cold + warm)");

  // The single-machine reference front every pass must reproduce.
  std::string RefHash;
  {
    service::ServiceOptions SO;
    SO.Threads = 1;
    service::CompileService Svc(SO);
    service::ServiceClient C(Svc);
    service::ClientResponse Ref =
        C.dseSweep("gemm-blocked", Limit, 1);
    if (!Ref.R.Ok) {
      std::fprintf(stderr, "cluster_throughput: reference sweep failed\n");
      return 1;
    }
    RefHash = Ref.Raw.at("sweep").at("front_hash").asString();
  }

  Fleet One;
  if (!One.add(1)) {
    std::fprintf(stderr, "cluster_throughput: worker start failed\n");
    return 1;
  }
  Pass Cold1 = runPass(One, Limit, Shards, false, RefHash);
  Pass Warm1 = runPass(One, Limit, Shards, false, RefHash);

  Fleet Four;
  if (!Four.add(4)) {
    std::fprintf(stderr, "cluster_throughput: fleet start failed\n");
    return 1;
  }
  // The cold pass ships the cache union to the whole fleet after its
  // sweep, so the warm pass is all-hit on every worker regardless of which
  // worker swept which shard the first time.
  Pass Cold4 = runPass(Four, Limit, Shards, true, RefHash);
  Pass Warm4 = runPass(Four, Limit, Shards, false, RefHash);

  bool AllOk = Cold1.Ok && Warm1.Ok && Cold4.Ok && Warm4.Ok;
  bool AllExact =
      Cold1.Exact && Warm1.Exact && Cold4.Exact && Warm4.Exact;
  double SpeedupCold =
      Cold1.ConfigsPerSec > 0 ? Cold4.ConfigsPerSec / Cold1.ConfigsPerSec : 0;
  double SpeedupWarm =
      Cold1.ConfigsPerSec > 0 ? Warm4.ConfigsPerSec / Cold1.ConfigsPerSec : 0;

  row({"pass", "seconds", "cfg/s", "hit-rate", "exact"});
  auto Report = [&](const char *Name, const Pass &P) {
    row({Name, fmt(P.Seconds, 3), fmt(P.ConfigsPerSec, 0), fmt(P.HitRate, 3),
         P.Exact ? "yes" : "NO"});
  };
  Report("1w cold", Cold1);
  Report("1w warm", Warm1);
  Report("4w cold", Cold4);
  Report("4w warm", Warm4);
  std::printf("4w cold: sweep %.3f s + cache shipping %.3f s\n",
              Cold4.Seconds - Cold4.ShipSeconds, Cold4.ShipSeconds);
  std::printf("speedup vs 1w cold: 4w cold %.2fx, 4w warm %.2fx\n",
              SpeedupCold, SpeedupWarm);

  Json J = Json::object();
  J["bench"] = "cluster_throughput";
  J["limit"] = Limit;
  J["shards"] = Shards;
  J["configs_per_sec_1worker_cold"] = Cold1.ConfigsPerSec;
  J["configs_per_sec_1worker_warm"] = Warm1.ConfigsPerSec;
  J["configs_per_sec_4workers_cold"] = Cold4.ConfigsPerSec;
  J["configs_per_sec_4workers_warm"] = Warm4.ConfigsPerSec;
  J["sweep_seconds_4workers_cold"] = Cold4.Seconds - Cold4.ShipSeconds;
  J["ship_seconds_4workers_cold"] = Cold4.ShipSeconds;
  J["speedup_cold"] = SpeedupCold;
  J["speedup_warm"] = SpeedupWarm;
  J["warm_hit_rate"] = Warm4.HitRate;
  J["front_identical"] = AllExact;
  std::ofstream Out(JsonOut);
  if (!Out) {
    std::fprintf(stderr, "cluster_throughput: cannot write %s\n", JsonOut);
    return 1;
  }
  Out << J.dump() << "\n";
  std::printf("wrote %s\n", JsonOut);

  if (!AllOk || !AllExact) {
    std::fprintf(stderr,
                 "cluster_throughput: FAILED — a pass was not ok/exact\n");
    return 1;
  }
  return 0;
}
