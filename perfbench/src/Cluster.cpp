//===- Cluster.cpp - cluster-cold workload -----------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// cluster::ClusterCoordinator in this process against three freshly
// launched `dahlia-serve --threads 1 --cache-dir ""` worker processes:
// the full gemm-blocked space, exhaustive, 8 shards, default options
// (speculation on). Every sweep gets a new, cold fleet. The merged front
// and its hashes are checked against the reference.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cluster/Cluster.h"
#include "service/ServiceClient.h"
#include "support/Socket.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace dahlia;

namespace perfbench {
namespace {

constexpr unsigned Workers = 3;
constexpr unsigned Shards = 8;
/// Fleets launched and torn down before the first sweep, so setup_s is a
/// median over several launches even when only one sweep fits the run.
constexpr unsigned ExtraSetups = 3;
constexpr int ListenTimeoutMs = 20000;

struct Worker {
  pid_t Pid = -1;
  int ErrFd = -1;
  int Port = -1;
};

/// Reads the worker's stderr until it announces its port.
int readPort(int Fd) {
  std::string Buf;
  const std::string Tag = "listening on 127.0.0.1:";
  uint64_t Deadline = nowNs() + uint64_t(ListenTimeoutMs) * 1000000;
  while (nowNs() < Deadline) {
    pollfd P{Fd, POLLIN, 0};
    if (poll(&P, 1, 100) <= 0)
      continue;
    char C[256];
    ssize_t N = read(Fd, C, sizeof(C));
    if (N <= 0)
      return -1;
    Buf.append(C, static_cast<size_t>(N));
    size_t At = Buf.find(Tag);
    if (At != std::string::npos && Buf.find('\n', At) != std::string::npos)
      return std::atoi(Buf.c_str() + At + Tag.size());
  }
  return -1;
}

/// The worker processes of one cold fleet; the destructor stops and reaps
/// every one of them.
class Fleet {
public:
  Fleet() = default;
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;
  ~Fleet() { stop(); }

  bool launch(const std::string &Bin, std::string &Err) {
    for (unsigned I = 0; I != Workers; ++I) {
      int P[2];
      if (pipe2(P, O_CLOEXEC) != 0) {
        Err = "pipe failed";
        return false;
      }
      posix_spawn_file_actions_t FA;
      posix_spawn_file_actions_init(&FA);
      posix_spawn_file_actions_adddup2(&FA, P[1], STDERR_FILENO);
      const char *Argv[] = {Bin.c_str(), "--port", "0",  "--threads",
                            "1",         "--cache-dir", "", nullptr};
      Worker W;
      int Rc = posix_spawn(&W.Pid, Bin.c_str(), &FA, nullptr,
                           const_cast<char **>(Argv), environ);
      posix_spawn_file_actions_destroy(&FA);
      close(P[1]);
      W.ErrFd = P[0];
      if (Rc != 0) {
        close(W.ErrFd);
        Err = "cannot launch " + Bin + ": " + std::strerror(Rc);
        return false;
      }
      Ws.push_back(W);
    }
    for (Worker &W : Ws) {
      W.Port = readPort(W.ErrFd);
      if (W.Port <= 0) {
        Err = "a worker did not announce its port";
        return false;
      }
    }
    return true;
  }

  void stop() {
    for (Worker &W : Ws)
      if (W.Pid > 0)
        kill(W.Pid, SIGTERM);
    for (Worker &W : Ws) {
      if (W.Pid > 0) {
        uint64_t Deadline = nowNs() + 5000000000ULL;
        int St = 0;
        while (waitpid(W.Pid, &St, WNOHANG) == 0) {
          if (nowNs() > Deadline) {
            kill(W.Pid, SIGKILL);
            waitpid(W.Pid, &St, 0);
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (W.ErrFd >= 0)
        close(W.ErrFd);
    }
    Ws.clear();
  }

  const std::vector<Worker> &workers() const { return Ws; }

private:
  std::vector<Worker> Ws;
};

/// Milliseconds worker \p Port spent inside requests, from its metrics op.
double busyMs(int Port) {
  int Fd = connectLoopback(Port);
  if (Fd < 0)
    return 0;
  double Ms = 0;
  {
    FdStreamBuf Buf(Fd);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    service::ServiceClient C(In, Out);
    service::ClientResponse M = C.metrics();
    const Json &H =
        M.Raw.at("metrics").at("histograms").at("service.request_ms");
    Ms = H.at("mean_ms").asDouble() * H.at("count").asDouble();
  }
  closeFd(Fd);
  return Ms;
}

void verify(const Reference &Ref, const cluster::ClusterResult &CR,
            RunResult &R) {
  const Json &Sp = Ref.space(SpaceId::Gemm);
  uint64_t Size = static_cast<uint64_t>(Sp.at("size").asInt());
  R.Attempted += Size;
  if (!CR.Ok) {
    R.fail(Size, "cluster run failed: " +
                     (CR.Errors.empty() ? std::string("?") : CR.Errors[0]));
    return;
  }
  uint64_t Explored = CR.Stats.Explored;
  R.fail(Explored > Size ? Explored - Size : Size - Explored,
         "explored count differs from the space");
  uint64_t Acc = Ref.acceptedList(SpaceId::Gemm).size();
  uint64_t Got = CR.Stats.Accepted;
  R.fail(Got > Acc ? Got - Acc : Acc - Got,
         "accepted count differs from the reference");
  std::vector<dse::Objectives> Front, AccFront;
  for (const dse::FrontPoint &P : CR.Points) {
    if (std::binary_search(CR.Fronts.Front.begin(), CR.Fronts.Front.end(),
                           P.Index))
      Front.push_back(P.Obj);
    if (std::binary_search(CR.Fronts.AcceptedFront.begin(),
                           CR.Fronts.AcceptedFront.end(), P.Index))
      AccFront.push_back(P.Obj);
  }
  size_t Wrong = objectiveMismatches(
      sortedObjectives(Front), Ref.front(SpaceId::Gemm, "exhaustive", "front"));
  size_t WrongAcc = objectiveMismatches(
      sortedObjectives(AccFront),
      Ref.front(SpaceId::Gemm, "exhaustive", "accepted_front"));
  const Json &Ex = Sp.at("exhaustive");
  if (CR.FrontHash != Ex.at("front_hash").asString())
    Wrong = std::max<size_t>(Wrong, 1);
  if (CR.AcceptedFrontHash != Ex.at("accepted_front_hash").asString())
    WrongAcc = std::max<size_t>(WrongAcc, 1);
  R.fail(Wrong, "merged front differs from the reference");
  R.fail(WrongAcc, "merged accepted front differs from the reference");
}

} // namespace

int runClusterCold(const Options &O, const Reference &Ref, RunResult &R) {
  if (O.ServeBin.empty() || !haveSockets()) {
    std::fprintf(stderr, "cluster-cold: needs sockets and dahlia-serve\n");
    return 1;
  }
  // The seed orders the worker list; the swept space itself is fixed.
  Rng Rg(O.Seed ^ 0x636c7573746572ULL);
  std::vector<size_t> Order = permutation(Workers, Rg);
  Digest D;
  for (size_t I : Order)
    D.add(static_cast<uint64_t>(I));
  R.Info["input_digest"] = D.hex();
  R.Info["workers"] = Workers;
  R.Info["shards"] = Shards;
  R.Info["worker_threads"] = 1;

  std::vector<double> Times;
  std::string Err;
  auto Launch = [&](Fleet &F) {
    trace::Span S("setup");
    uint64_t T0 = nowNs();
    bool Ok = F.launch(O.ServeBin, Err);
    Times.push_back((nowNs() - T0) * 1e-9);
    return Ok;
  };
  for (unsigned I = 0; I != ExtraSetups; ++I) {
    Fleet F;
    if (!Launch(F)) {
      std::fprintf(stderr, "cluster-cold: %s\n", Err.c_str());
      return 1;
    }
  }

  std::vector<double> Walls;
  size_t ShardsRun = 0, Dispatches = 0, Speculative = 0, Retries = 0;
  double Busy = 0, WorkerWall = 0;
  bool Broken = false;
  forBudget(O.Seconds, [&] {
    if (Broken)
      return;
    Fleet F;
    if (!Launch(F)) {
      Broken = true;
      return;
    }
    cluster::ClusterOptions CO;
    for (size_t I : Order)
      CO.Workers.push_back({"127.0.0.1", F.workers()[I].Port});
    CO.Space = "gemm-blocked";
    CO.Strategy = "exhaustive";
    CO.Shards = Shards;
    cluster::ClusterCoordinator Coord(CO);
    uint64_t T0 = nowNs();
    cluster::ClusterResult CR = [&] {
      trace::Span S("cluster.run");
      return Coord.run();
    }();
    double Wall = (nowNs() - T0) * 1e-9;
    verify(Ref, CR, R);
    Walls.push_back(Wall);
    ShardsRun += CR.Stats.Shards;
    Dispatches += CR.Stats.Dispatches;
    Speculative += CR.Stats.SpeculativeDispatches;
    Retries += CR.Stats.Retries;
    if (trace::on()) {
      trace::Span S("cluster.metrics");
      for (const Worker &W : F.workers())
        Busy += busyMs(W.Port);
      WorkerWall += Wall * 1e3 * Workers;
    }
  });
  if (Broken) {
    std::fprintf(stderr, "cluster-cold: %s\n", Err.c_str());
    return 1;
  }

  roundMetrics(Walls, Ref.space(SpaceId::Gemm).at("size").asInt(), Times, R);
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  R.Info["worker_peak_rss_mb"] = static_cast<double>(U.ru_maxrss) / 1024.0;

  if (trace::on()) {
    double Sweeps = static_cast<double>(Walls.size());
    R.layer("cluster.useful_dispatch_ratio",
            Dispatches ? static_cast<double>(ShardsRun) / Dispatches : 0,
            "ratio");
    R.layer("cluster.duplicate_runs", Speculative / Sweeps, "count");
    R.layer("cluster.retries", Retries / Sweeps, "count");
    R.layer("cluster.worker_busy_fraction",
            WorkerWall > 0 ? Busy / WorkerWall : 0, "ratio");
  }
  return 0;
}

} // namespace perfbench
