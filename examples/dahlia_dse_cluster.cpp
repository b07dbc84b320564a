//===- dahlia_dse_cluster.cpp - Distributed DSE coordinator -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Drives a fleet of `dahlia-serve` workers through one sharded DSE sweep
// and merges their partial Pareto fronts into the front a single machine
// would compute — bit-identical, by construction (docs/cluster.md):
//
//   dahlia-serve --port 9001 &
//   dahlia-serve --port 9002 &
//   dahlia-serve --port 9003 &
//   dahlia-dse-cluster --workers 9001,9002,9003 --space gemm-blocked \
//       --limit 4000 --shards 6 --verify-single
//
// Shards retry with backoff and reassign away from dead or stalled workers
// (per-shard receive timeout); a shard never has more than one runner.
// --verify-single runs the same sweep in-process
// afterwards and exits nonzero unless the fronts and hashes match exactly
// — the CI cluster smoke is this flag plus one injected worker kill.
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "service/ServiceClient.h"
#include "support/EventLog.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

using namespace dahlia;

namespace {

const char *kUsage =
    "usage: dahlia-dse-cluster --workers PORT[,HOST:PORT...] [--space S] "
    "[--strategy S] [--limit N] [--threads N] [--exact-top-rung] "
    "[--shards M] [--retry N] [--shard-timeout-ms N] "
    "[--sync-cache] [--status-interval-ms N] [--probe] [--json PATH] "
    "[--journal-out FILE] [--verify-single] [--help]\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

bool parseCount(const char *S, long Min, long Max, long *Out) {
  char *End = nullptr;
  long V = std::strtol(S, &End, 10);
  if (End == S || *End != '\0' || V < Min || V > Max)
    return false;
  *Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  cluster::ClusterOptions Opts;
  std::string WorkerList;
  std::string JsonOut;
  std::string JournalOut;
  long StatusIntervalMs = 0;
  bool Probe = false;
  bool VerifySingle = false;

  for (int I = 1; I < Argc; ++I) {
    long N = 0;
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--workers") && I + 1 < Argc) {
      WorkerList = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--space") && I + 1 < Argc) {
      Opts.Space = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--strategy") && I + 1 < Argc) {
      Opts.Strategy = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--limit") && I + 1 < Argc) {
      if (!parseCount(Argv[++I], 0, 1L << 40, &N)) {
        std::fprintf(stderr, "dahlia-dse-cluster: invalid --limit\n");
        return 2;
      }
      Opts.Limit = static_cast<size_t>(N);
    } else if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      if (!parseCount(Argv[++I], 0, 1024, &N)) {
        std::fprintf(stderr, "dahlia-dse-cluster: invalid --threads\n");
        return 2;
      }
      Opts.SweepThreads = static_cast<unsigned>(N);
    } else if (!std::strcmp(Argv[I], "--exact-top-rung")) {
      Opts.ExactTopRung = true;
    } else if (!std::strcmp(Argv[I], "--shards") && I + 1 < Argc) {
      if (!parseCount(Argv[++I], 0, 1 << 20, &N)) {
        std::fprintf(stderr, "dahlia-dse-cluster: invalid --shards\n");
        return 2;
      }
      Opts.Shards = static_cast<unsigned>(N);
    } else if (!std::strcmp(Argv[I], "--retry") && I + 1 < Argc) {
      if (!parseCount(Argv[++I], 0, 1000, &N)) {
        std::fprintf(stderr, "dahlia-dse-cluster: invalid --retry\n");
        return 2;
      }
      Opts.Retry = static_cast<unsigned>(N);
    } else if (!std::strcmp(Argv[I], "--shard-timeout-ms") && I + 1 < Argc) {
      if (!parseCount(Argv[++I], 0, 1L << 31, &N)) {
        std::fprintf(stderr,
                     "dahlia-dse-cluster: invalid --shard-timeout-ms\n");
        return 2;
      }
      Opts.ShardTimeoutMs = static_cast<int>(N);
    } else if (!std::strcmp(Argv[I], "--sync-cache")) {
      Opts.SyncCacheAfter = true;
    } else if (!std::strcmp(Argv[I], "--status-interval-ms") &&
               I + 1 < Argc) {
      if (!parseCount(Argv[++I], 1, 1L << 31, &StatusIntervalMs)) {
        std::fprintf(stderr,
                     "dahlia-dse-cluster: invalid --status-interval-ms\n");
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--probe")) {
      Probe = true;
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      JsonOut = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--journal-out") && I + 1 < Argc) {
      JournalOut = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--verify-single")) {
      VerifySingle = true;
    } else {
      return usage();
    }
  }

  if (WorkerList.empty())
    return usage();
  std::string Err;
  std::optional<std::vector<cluster::WorkerSpec>> Workers =
      cluster::parseWorkerList(WorkerList, &Err);
  if (!Workers) {
    std::fprintf(stderr, "dahlia-dse-cluster: %s\n", Err.c_str());
    return 2;
  }
  Opts.Workers = std::move(*Workers);

  if (!JournalOut.empty() && !eventlog::journalStart(JournalOut)) {
    std::fprintf(stderr, "dahlia-dse-cluster: cannot write journal '%s'\n",
                 JournalOut.c_str());
    return 2;
  }

  cluster::ClusterCoordinator Coord(std::move(Opts));

  if (Probe) {
    // The fleet view of the existing `watch` machinery: one progress
    // snapshot per reachable worker.
    std::printf("%s\n", Coord.probeWorkers().dump().c_str());
    if (!JournalOut.empty())
      eventlog::journalStop();
    return 0;
  }

  // Live cluster-status lines on stderr while the sweep runs.
  std::atomic<bool> Done{false};
  std::thread Status;
  if (StatusIntervalMs > 0)
    Status = std::thread([&] {
      while (!Done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(StatusIntervalMs));
        if (!Done.load(std::memory_order_relaxed))
          std::fprintf(stderr, "%s\n", Coord.statusJson().dump().c_str());
      }
    });

  cluster::ClusterResult Result = Coord.run();
  Done.store(true, std::memory_order_relaxed);
  if (Status.joinable())
    Status.join();
  if (!JournalOut.empty())
    eventlog::journalStop();

  Json Out = Result.toJson();
  for (const std::string &E : Result.Errors)
    std::fprintf(stderr, "dahlia-dse-cluster: error: %s\n", E.c_str());

  int Rc = Result.Ok ? 0 : 1;
  if (Result.Ok && VerifySingle) {
    // The acceptance check: an in-process single-machine sweep of the
    // same space must produce the identical front and hash.
    service::CompileService Svc{service::ServiceOptions{}};
    service::ServiceClient Ref(Svc);
    service::Request R;
    R.Kind = service::Op::DseSweep;
    R.Space = Coord.options().Space;
    R.Strategy = Coord.options().Strategy;
    R.Limit = Coord.options().Limit;
    R.ExactTopRung = Coord.options().ExactTopRung;
    service::ClientResponse Single = Ref.call(std::move(R));
    if (!Single.R.Ok) {
      std::fprintf(stderr,
                   "dahlia-dse-cluster: --verify-single reference sweep "
                   "failed\n");
      Rc = 1;
    } else {
      const Json &S = Single.R.Sweep;
      bool Match =
          S.at("front_hash").asString() == Result.FrontHash &&
          S.at("front").dump() ==
              dse::indicesToJson(Result.Fronts.Front).dump() &&
          S.at("accepted_front").dump() ==
              dse::indicesToJson(Result.Fronts.AcceptedFront).dump();
      Out["verify_single"] = Match ? "match" : "MISMATCH";
      Out["single_front_hash"] = S.at("front_hash");
      if (!Match) {
        std::fprintf(stderr,
                     "dahlia-dse-cluster: cluster front %s does not match "
                     "single-machine front %s\n",
                     Result.FrontHash.c_str(),
                     S.at("front_hash").asString().c_str());
        Rc = 1;
      }
    }
  }

  std::string Dump = Out.dump();
  if (!JsonOut.empty()) {
    std::ofstream F(JsonOut);
    if (!F) {
      std::fprintf(stderr, "dahlia-dse-cluster: cannot write %s\n",
                   JsonOut.c_str());
      return 1;
    }
    F << Dump << "\n";
    std::fprintf(stderr,
                 "dahlia-dse-cluster: %zu shards on %zu workers, front %s "
                 "-> %s\n",
                 Result.Stats.ShardsDone, Result.Stats.Workers,
                 Result.FrontHash.c_str(), JsonOut.c_str());
  } else {
    std::printf("%s\n", Dump.c_str());
  }
  return Rc;
}
