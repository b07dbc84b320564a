//===- Cluster.cpp - Distributed DSE coordinator ----------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "cluster/Cluster.h"

#include "service/ServiceClient.h"
#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/Socket.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <istream>
#include <map>
#include <thread>

using namespace dahlia;
using namespace dahlia::cluster;

//===----------------------------------------------------------------------===//
// Worker list parsing
//===----------------------------------------------------------------------===//

std::optional<std::vector<WorkerSpec>>
dahlia::cluster::parseWorkerList(const std::string &List, std::string *Err) {
  std::vector<WorkerSpec> Workers;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    std::string Entry = List.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? List.size() + 1 : Comma + 1;
    if (Entry.empty()) {
      if (Err)
        *Err = "empty worker entry in '" + List + "'";
      return std::nullopt;
    }

    WorkerSpec W;
    std::string PortStr = Entry;
    size_t Colon = Entry.rfind(':');
    if (Colon != std::string::npos) {
      W.Host = Entry.substr(0, Colon);
      PortStr = Entry.substr(Colon + 1);
    }
    // Everything in this repo binds loopback only; a coordinator must not
    // be pointable at arbitrary hosts.
    if (W.Host != "127.0.0.1" && W.Host != "localhost") {
      if (Err)
        *Err = "worker host '" + W.Host + "' is not loopback "
               "(127.0.0.1/localhost only)";
      return std::nullopt;
    }
    char *End = nullptr;
    errno = 0;
    long Port = std::strtol(PortStr.c_str(), &End, 10);
    if (errno != 0 || End == PortStr.c_str() || *End != '\0' || Port < 1 ||
        Port > 65535) {
      if (Err)
        *Err = "malformed worker port '" + PortStr + "'";
      return std::nullopt;
    }
    W.Port = static_cast<int>(Port);
    Workers.push_back(std::move(W));
  }
  if (Workers.empty()) {
    if (Err)
      *Err = "no workers in '" + List + "'";
    return std::nullopt;
  }
  return Workers;
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

/// Key-residue slices per cache-export (keeps each response line under
/// the server's line cap for giant caches).
constexpr unsigned kCacheSlices = 4;
/// Entries per cache-import request when re-shipping the union.
constexpr size_t kCacheImportChunk = 4096;

std::string joinErrors(const std::vector<Error> &Errors) {
  if (Errors.empty())
    return "unknown error";
  std::string Out;
  for (const Error &E : Errors) {
    if (!Out.empty())
      Out += "; ";
    Out += E.message();
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// ClusterCoordinator
//===----------------------------------------------------------------------===//

ClusterCoordinator::ClusterCoordinator(ClusterOptions O) : Opts(std::move(O)) {
  if (Opts.Shards == 0)
    Opts.Shards = static_cast<unsigned>(Opts.Workers.size()) * 2;
  // Sharded responses are the form that carries mergeable front_points
  // (see docs/protocol.md); a 1-shard "cluster" still runs as 2 shards.
  if (Opts.Shards < 2)
    Opts.Shards = 2;
  if (Opts.Strategy.empty())
    Opts.Strategy = "exhaustive";

  ShardStates.resize(Opts.Shards);
  WorkerStates.resize(Opts.Workers.size());
  for (size_t I = 0; I != Opts.Workers.size(); ++I)
    WorkerStates[I].Spec = Opts.Workers[I];
  Stats.Workers = Opts.Workers.size();
  Stats.Shards = Opts.Shards;
}

int ClusterCoordinator::pickPending() const {
  for (size_t I = 0; I != ShardStates.size(); ++I)
    if (ShardStates[I].Ph == Phase::Pending)
      return static_cast<int>(I);
  return -1;
}

bool ClusterCoordinator::anyWorkerAlive() const {
  for (const WorkerState &W : WorkerStates)
    if (!W.Dead)
      return true;
  return false;
}

bool ClusterCoordinator::attemptShard(size_t W, unsigned Shard,
                                      std::string *Err,
                                      std::vector<dse::FrontPoint> *Points,
                                      Json *Sweep) {
  TRACE_SPAN("cluster.shard_attempt");
  const WorkerSpec &Spec = Opts.Workers[W];
  int Fd = connectLoopback(Spec.Port);
  if (Fd < 0) {
    *Err = "connect to " + Spec.Host + ":" + std::to_string(Spec.Port) +
           " failed";
    return false;
  }
  // A stalled worker must look exactly like a dead one: SO_RCVTIMEO turns
  // the stall into a read failure, FdStreamBuf reports EOF, and
  // ServiceClient synthesizes its structured mid-stream error.
  if (Opts.ShardTimeoutMs > 0)
    setRecvTimeout(Fd, Opts.ShardTimeoutMs);
  FdStreamBuf Buf(Fd);
  std::iostream Ios(&Buf);

  service::ServiceClient C(Ios, Ios);
  // Strict decoding: hostile chunk streams become structured errors,
  // never silent front corruption.
  C.setStrict(true);
  service::Request R;
  R.Kind = service::Op::DseSweep;
  R.Space = Opts.Space;
  R.Strategy = Opts.Strategy;
  R.Limit = Opts.Limit;
  R.Threads = Opts.SweepThreads;
  R.ExactTopRung = Opts.ExactTopRung;
  R.Shard = std::to_string(Shard) + "/" + std::to_string(Opts.Shards);
  // Streamed: a worker crash mid-sweep exercises the structured
  // mid-stream-EOF path instead of losing the whole reply shape.
  R.Stream = true;
  service::ClientResponse Resp = C.call(std::move(R));
  closeFd(Fd);

  if (!Resp.R.Ok) {
    *Err = joinErrors(Resp.R.Errors);
    return false;
  }
  const Json &S = Resp.R.Sweep;
  if (!S.isObject()) {
    *Err = "sweep response carries no sweep object";
    return false;
  }
  // The worker must echo the shard it was asked for — a duplicate or
  // crossed reply merged into the front would corrupt it silently.
  if (S.at("shard_index").asInt(-1) != static_cast<int64_t>(Shard) ||
      S.at("shard_count").asInt(-1) != static_cast<int64_t>(Opts.Shards)) {
    *Err = "worker echoed shard " + S.at("shard_index").dump() + "/" +
           S.at("shard_count").dump() + ", expected " +
           std::to_string(Shard) + "/" + std::to_string(Opts.Shards);
    return false;
  }
  if (!S.contains("front_points")) {
    *Err = "sharded sweep response lacks front_points";
    return false;
  }
  std::string ParseErr;
  std::optional<std::vector<dse::FrontPoint>> Parsed =
      dse::frontPointsFromJson(S.at("front_points"), &ParseErr);
  if (!Parsed) {
    *Err = "malformed front_points: " + ParseErr;
    return false;
  }
  std::sort(Parsed->begin(), Parsed->end(),
            [](const dse::FrontPoint &A, const dse::FrontPoint &B) {
              return A.Index < B.Index;
            });
  // Partition and bounds checks: a point outside this shard's StableHash
  // partition (or duplicated) can only come from a confused or hostile
  // worker, and would poison the merged front.
  dse::ShardSpec Partition;
  Partition.Index = Shard;
  Partition.Count = Opts.Shards;
  for (size_t I = 0; I != Parsed->size(); ++I) {
    const dse::FrontPoint &P = (*Parsed)[I];
    if (I > 0 && P.Index == (*Parsed)[I - 1].Index) {
      *Err = "duplicate front point for config " + std::to_string(P.Index);
      return false;
    }
    if (Opts.Limit && P.Index >= Opts.Limit) {
      *Err = "front point index " + std::to_string(P.Index) +
             " outside the limited space";
      return false;
    }
    if (Partition.shardOf(P.Index) != Partition.Index) {
      *Err = "front point " + std::to_string(P.Index) +
             " is outside shard " + std::to_string(Shard) + "'s partition";
      return false;
    }
  }

  *Points = std::move(*Parsed);
  // Keep the summary (for aggregation) without the bulky point array.
  *Sweep = service::jsonWithoutKey(S, "front_points");
  return true;
}

void ClusterCoordinator::workerLoop(size_t W) {
  static metrics::Counter &Dispatched =
      metrics::counter("cluster.shards_dispatched");
  static metrics::Counter &RetriesC =
      metrics::counter("cluster.shard_retries");
  static metrics::Counter &ReassignedC =
      metrics::counter("cluster.shard_reassigned");
  static metrics::Counter &DeathsC = metrics::counter("cluster.worker_deaths");
  static metrics::Histogram &ShardMs = metrics::histogram("cluster.shard_ms");

  for (;;) {
    int Shard = -1;
    bool Reassigned = false;
    unsigned Attempt = 0;
    {
      std::unique_lock<std::mutex> Lock(M);
      for (;;) {
        if (Aborted || DoneCount == ShardStates.size())
          return;
        if (WorkerStates[W].Dead)
          return;
        Shard = pickPending();
        if (Shard >= 0)
          break;
        CV.wait_for(Lock, std::chrono::milliseconds(50));
      }
      ShardState &S = ShardStates[Shard];
      S.Ph = Phase::InFlight;
      ++S.Dispatches;
      Attempt = S.Dispatches;
      Reassigned = S.LastWorker >= 0 && S.LastWorker != static_cast<int>(W);
      S.LastWorker = static_cast<int>(W);
      WorkerStates[W].InFlightShard = Shard;
      ++Stats.Dispatches;
      if (Reassigned)
        ++Stats.Reassignments;
    }
    Dispatched.inc();
    if (Reassigned)
      ReassignedC.inc();
    if (eventlog::enabled()) {
      eventlog::emit("shard-dispatch", eventlog::Record()
                                           .field("shard", Shard)
                                           .field("worker", W)
                                           .field("attempt", Attempt));
      if (Reassigned)
        eventlog::emit("shard-reassign", eventlog::Record()
                                             .field("shard", Shard)
                                             .field("to_worker", W)
                                             .field("attempt", Attempt));
    }

    auto T0 = std::chrono::steady_clock::now();
    std::string Err;
    std::vector<dse::FrontPoint> Points;
    Json Sweep;
    bool OK = attemptShard(W, static_cast<unsigned>(Shard), &Err, &Points,
                           &Sweep);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    ShardMs.recordMs(Ms);

    bool WorkerDied = false;
    size_t NumPoints = Points.size();
    unsigned Backoff = 0;
    {
      std::unique_lock<std::mutex> Lock(M);
      // This worker is the shard's only runner: no other attempt races
      // this update.
      ShardState &S = ShardStates[Shard];
      WorkerStates[W].InFlightShard = -1;
      if (OK) {
        WorkerStates[W].ConsecutiveFailures = 0;
        ++WorkerStates[W].ShardsDone;
        S.Ph = Phase::Done;
        S.Points = std::move(Points);
        S.Sweep = std::move(Sweep);
        ++DoneCount;
        ++Stats.ShardsDone;
        CV.notify_all();
      } else {
        ++WorkerStates[W].Failures;
        ++WorkerStates[W].ConsecutiveFailures;
        ++Stats.Retries;
        ++S.FailedAttempts;
        S.Ph = Phase::Pending; // Requeue: the next idle worker takes it.
        if (S.FailedAttempts > Opts.Retry) {
          Errors.push_back("shard " + std::to_string(Shard) + " failed after " +
                           std::to_string(S.FailedAttempts) +
                           " attempts (retry cap " +
                           std::to_string(Opts.Retry) + "): " + Err);
          Aborted = true;
        }
        if (WorkerStates[W].ConsecutiveFailures >= kWorkerFailureLimit) {
          WorkerStates[W].Dead = true;
          WorkerDied = true;
          ++Stats.WorkerDeaths;
          if (!anyWorkerAlive() && DoneCount != ShardStates.size()) {
            Errors.push_back("all workers dead with " +
                             std::to_string(ShardStates.size() - DoneCount) +
                             " shards unfinished");
            Aborted = true;
          }
        }
        Backoff = std::min(
            1000u, static_cast<unsigned>(Opts.RetryBackoffMs)
                       << std::min(5u, WorkerStates[W].ConsecutiveFailures -
                                           1));
        CV.notify_all();
      }
    }

    if (eventlog::enabled()) {
      if (OK) {
        eventlog::emit("shard-done", eventlog::Record()
                                         .field("shard", Shard)
                                         .field("worker", W)
                                         .field("points", NumPoints)
                                         .field("ms", Ms));
      } else {
        eventlog::emit("shard-retry", eventlog::Record()
                                          .field("shard", Shard)
                                          .field("worker", W)
                                          .field("attempt", Attempt)
                                          .field("reason", Err));
      }
      if (WorkerDied)
        eventlog::emit("worker-dead",
                       eventlog::Record()
                           .field("worker", W)
                           .field("failures", WorkerStates[W].Failures));
    }
    if (!OK)
      RetriesC.inc();
    if (WorkerDied) {
      DeathsC.inc();
      return;
    }
    if (!OK && Backoff > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(Backoff));
  }
}

ClusterResult ClusterCoordinator::run() {
  TRACE_SPAN("cluster.run");
  auto T0 = std::chrono::steady_clock::now();
  ClusterResult Result;
  if (Opts.Workers.empty()) {
    Result.Errors.push_back("no workers configured");
    return Result;
  }
  // Every worker would reject the shard requests anyway; failing here
  // keeps a typo from burning the retry budget and retiring the fleet.
  if (!dse::parseStrategy(Opts.Strategy)) {
    Result.Errors.push_back("unknown sweep strategy '" + Opts.Strategy +
                            "' (" + dse::kStrategyNames + ")");
    return Result;
  }

  if (eventlog::enabled())
    eventlog::emit("cluster-begin", eventlog::Record()
                                        .field("workers", Opts.Workers.size())
                                        .field("shards", Opts.Shards)
                                        .field("space", Opts.Space)
                                        .field("strategy", Opts.Strategy)
                                        .field("limit", Opts.Limit));
  {
    std::lock_guard<std::mutex> Lock(M);
    Running = true;
  }

  std::vector<std::thread> Threads;
  Threads.reserve(WorkerStates.size());
  for (size_t W = 0; W != WorkerStates.size(); ++W)
    Threads.emplace_back([this, W] { workerLoop(W); });
  for (std::thread &T : Threads)
    T.join();

  {
    std::lock_guard<std::mutex> Lock(M);
    Running = false;
    Result.Errors = Errors;
    Result.Stats = Stats;

    // Merge the completed shards with the dahlia-dse-merge union logic.
    for (const ShardState &S : ShardStates) {
      if (S.Ph != Phase::Done)
        continue;
      Result.Points.insert(Result.Points.end(), S.Points.begin(),
                           S.Points.end());
      if (S.Sweep.isObject()) {
        Result.Stats.Explored += S.Sweep.at("explored").asInt();
        Result.Stats.Accepted += S.Sweep.at("accepted").asInt();
        Result.Stats.Estimated += S.Sweep.at("estimated").asInt();
        Result.Stats.Pruned += S.Sweep.at("pruned").asInt();
        Result.Stats.VerdictCacheHits +=
            S.Sweep.at("verdict_cache_hits").asInt();
        Result.Stats.EstimateCacheHits +=
            S.Sweep.at("estimate_cache_hits").asInt();
      }
    }
  }
  std::sort(Result.Points.begin(), Result.Points.end(),
            [](const dse::FrontPoint &A, const dse::FrontPoint &B) {
              return A.Index < B.Index;
            });
  Result.Fronts = dse::mergeFrontPoints(Result.Points);
  std::map<size_t, const dse::Objectives *> ObjByIndex;
  for (const dse::FrontPoint &P : Result.Points)
    ObjByIndex[P.Index] = &P.Obj;
  auto ObjOf = [&](size_t I) -> const dse::Objectives & {
    return *ObjByIndex.at(I);
  };
  Result.FrontHash =
      dse::hashString(dse::frontHash(Result.Fronts.Front, ObjOf));
  Result.AcceptedFrontHash =
      dse::hashString(dse::frontHash(Result.Fronts.AcceptedFront, ObjOf));
  Result.Stats.Seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  Result.Ok =
      Result.Errors.empty() && Result.Stats.ShardsDone == Opts.Shards;

  if (Result.Ok && Opts.SyncCacheAfter) {
    std::string SyncErr;
    size_t Shipped = 0;
    if (!syncCaches(&SyncErr, &Shipped))
      Result.Errors.push_back("cache sync failed: " + SyncErr);
    Result.Stats.CacheEntriesShipped = Shipped;
    Result.Ok = Result.Errors.empty();
  }

  if (eventlog::enabled())
    eventlog::emit("cluster-end",
                   eventlog::Record()
                       .field("ok", Result.Ok)
                       .field("shards_done", Result.Stats.ShardsDone)
                       .field("retries", Result.Stats.Retries)
                       .field("reassignments", Result.Stats.Reassignments)
                       .field("worker_deaths", Result.Stats.WorkerDeaths)
                       .raw("front", dse::indicesToJson(Result.Fronts.Front)
                                         .dump())
                       .field("front_hash", Result.FrontHash));
  return Result;
}

Json ClusterCoordinator::statusJson() const {
  std::lock_guard<std::mutex> Lock(M);
  Json J = Json::object();
  J["running"] = Running;
  J["space"] = Opts.Space;
  J["strategy"] = Opts.Strategy;
  J["shards"] = Opts.Shards;
  size_t Pending = 0, InFlight = 0, Done = 0;
  for (const ShardState &S : ShardStates) {
    if (S.Ph == Phase::Pending)
      ++Pending;
    else if (S.Ph == Phase::InFlight)
      ++InFlight;
    else
      ++Done;
  }
  Json Phases = Json::object();
  Phases["pending"] = Pending;
  Phases["in_flight"] = InFlight;
  Phases["done"] = Done;
  J["shard_phases"] = std::move(Phases);
  Json Workers = Json::array();
  for (size_t I = 0; I != WorkerStates.size(); ++I) {
    const WorkerState &W = WorkerStates[I];
    Json WJ = Json::object();
    WJ["worker"] = I;
    WJ["host"] = W.Spec.Host;
    WJ["port"] = W.Spec.Port;
    WJ["dead"] = W.Dead;
    WJ["shards_done"] = W.ShardsDone;
    WJ["failures"] = W.Failures;
    WJ["in_flight_shard"] = W.InFlightShard;
    Workers.push_back(std::move(WJ));
  }
  J["workers"] = std::move(Workers);
  J["dispatches"] = Stats.Dispatches;
  J["retries"] = Stats.Retries;
  J["reassignments"] = Stats.Reassignments;
  J["worker_deaths"] = Stats.WorkerDeaths;
  return J;
}

Json ClusterCoordinator::probeWorkers() const {
  std::vector<WorkerSpec> Targets;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (const WorkerState &W : WorkerStates)
      if (!W.Dead)
        Targets.push_back(W.Spec);
  }
  Json Probes = Json::array();
  for (size_t I = 0; I != Targets.size(); ++I) {
    Json P = Json::object();
    P["worker"] = I;
    P["host"] = Targets[I].Host;
    P["port"] = Targets[I].Port;
    int Fd = connectLoopback(Targets[I].Port);
    if (Fd < 0) {
      P["error"] = "connect failed";
      Probes.push_back(std::move(P));
      continue;
    }
    setRecvTimeout(Fd, 2000);
    FdStreamBuf Buf(Fd);
    std::iostream Ios(&Buf);
    service::ServiceClient C(Ios, Ios);
    service::ClientResponse R = C.watch();
    closeFd(Fd);
    if (R.R.Ok)
      P["watch"] = R.R.Watch;
    else
      P["error"] = joinErrors(R.R.Errors);
    Probes.push_back(std::move(P));
  }
  return Probes;
}

bool ClusterCoordinator::syncCaches(std::string *Err, size_t *Shipped) {
  static metrics::Counter &ShippedC =
      metrics::counter("cluster.cache_entries_shipped");
  std::vector<std::pair<size_t, WorkerSpec>> Targets;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I != WorkerStates.size(); ++I)
      if (!WorkerStates[I].Dead)
        Targets.emplace_back(I, WorkerStates[I].Spec);
  }
  if (Targets.empty()) {
    if (Err)
      *Err = "no live workers";
    return false;
  }

  // Pull every live worker's cache, slice by slice, into one union.
  std::map<uint64_t, bool> Verdicts;
  std::map<uint64_t, hlsim::Estimate> Estimates;
  for (const auto &[Idx, Spec] : Targets) {
    int Fd = connectLoopback(Spec.Port);
    if (Fd < 0) {
      if (Err)
        *Err = "worker " + std::to_string(Idx) + ": connect failed";
      return false;
    }
    if (Opts.ShardTimeoutMs > 0)
      setRecvTimeout(Fd, Opts.ShardTimeoutMs);
    FdStreamBuf Buf(Fd);
    std::iostream Ios(&Buf);
    service::ServiceClient C(Ios, Ios);
    C.setStrict(true);
    bool Failed = false;
    for (unsigned S = 0; S != kCacheSlices && !Failed; ++S) {
      service::ClientResponse R = C.cacheExport(
          std::to_string(S) + "/" + std::to_string(kCacheSlices));
      if (!R.R.Ok) {
        if (Err)
          *Err = "worker " + std::to_string(Idx) +
                 ": cache-export failed: " + joinErrors(R.R.Errors);
        Failed = true;
        break;
      }
      std::vector<std::pair<uint64_t, bool>> V;
      std::vector<std::pair<uint64_t, hlsim::Estimate>> E;
      std::string ParseErr;
      if (!service::cacheFromJson(R.R.Cache, V, E, &ParseErr)) {
        if (Err)
          *Err = "worker " + std::to_string(Idx) +
                 ": malformed cache-export payload: " + ParseErr;
        Failed = true;
        break;
      }
      for (auto &KV : V)
        Verdicts.insert(KV);
      for (auto &KE : E)
        Estimates.insert(std::move(KE));
    }
    closeFd(Fd);
    if (Failed)
      return false;
  }

  // Ship the union back to every live worker in bounded chunks (imports
  // merge, so chunking is safe).
  std::vector<std::pair<uint64_t, bool>> AllV(Verdicts.begin(),
                                              Verdicts.end());
  std::vector<std::pair<uint64_t, hlsim::Estimate>> AllE(Estimates.begin(),
                                                         Estimates.end());
  for (const auto &[Idx, Spec] : Targets) {
    int Fd = connectLoopback(Spec.Port);
    if (Fd < 0) {
      if (Err)
        *Err = "worker " + std::to_string(Idx) + ": connect failed";
      return false;
    }
    if (Opts.ShardTimeoutMs > 0)
      setRecvTimeout(Fd, Opts.ShardTimeoutMs);
    FdStreamBuf Buf(Fd);
    std::iostream Ios(&Buf);
    service::ServiceClient C(Ios, Ios);
    C.setStrict(true);
    for (size_t VOff = 0, EOff = 0;
         VOff < AllV.size() || EOff < AllE.size();) {
      size_t VEnd = std::min(AllV.size(), VOff + kCacheImportChunk);
      size_t EEnd = std::min(AllE.size(), EOff + kCacheImportChunk);
      std::vector<std::pair<uint64_t, bool>> V(AllV.begin() + VOff,
                                               AllV.begin() + VEnd);
      std::vector<std::pair<uint64_t, hlsim::Estimate>> E(
          AllE.begin() + EOff, AllE.begin() + EEnd);
      VOff = VEnd;
      EOff = EEnd;
      service::ClientResponse R =
          C.cacheImport(service::cacheToJson(V, E));
      if (!R.R.Ok) {
        if (Err)
          *Err = "worker " + std::to_string(Idx) +
                 ": cache-import failed: " + joinErrors(R.R.Errors);
        closeFd(Fd);
        return false;
      }
    }
    closeFd(Fd);
  }

  size_t Total = AllV.size() + AllE.size();
  ShippedC.inc(Total * Targets.size());
  if (Shipped)
    *Shipped = Total;
  {
    std::lock_guard<std::mutex> Lock(M);
    Stats.CacheEntriesShipped = Total;
  }
  if (eventlog::enabled())
    eventlog::emit("cache-sync", eventlog::Record()
                                     .field("workers", Targets.size())
                                     .field("verdicts", AllV.size())
                                     .field("estimates", AllE.size()));
  return true;
}

//===----------------------------------------------------------------------===//
// ClusterResult
//===----------------------------------------------------------------------===//

Json ClusterResult::toJson() const {
  Json J = Json::object();
  J["ok"] = Ok;
  if (!Errors.empty()) {
    Json Arr = Json::array();
    for (const std::string &E : Errors)
      Arr.push_back(E);
    J["errors"] = std::move(Arr);
  }
  J["workers"] = Stats.Workers;
  J["shards"] = Stats.Shards;
  J["shards_done"] = Stats.ShardsDone;
  J["dispatches"] = Stats.Dispatches;
  J["retries"] = Stats.Retries;
  J["reassignments"] = Stats.Reassignments;
  J["worker_deaths"] = Stats.WorkerDeaths;
  J["explored"] = Stats.Explored;
  J["accepted"] = Stats.Accepted;
  J["estimated"] = Stats.Estimated;
  J["pruned"] = Stats.Pruned;
  J["verdict_cache_hits"] = Stats.VerdictCacheHits;
  J["estimate_cache_hits"] = Stats.EstimateCacheHits;
  J["cache_entries_shipped"] = Stats.CacheEntriesShipped;
  J["seconds"] = Stats.Seconds;
  J["configs_per_sec"] =
      Stats.Seconds > 0 ? static_cast<double>(Stats.Explored) / Stats.Seconds
                        : 0.0;
  J["pareto_points"] = Fronts.Front.size();
  J["accepted_pareto_points"] = Fronts.AcceptedFront.size();
  J["front"] = dse::indicesToJson(Fronts.Front);
  J["accepted_front"] = dse::indicesToJson(Fronts.AcceptedFront);
  J["front_hash"] = FrontHash;
  J["accepted_front_hash"] = AcceptedFrontHash;
  return J;
}
