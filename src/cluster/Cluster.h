//===- Cluster.h - Distributed DSE coordinator ------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed DSE coordinator (`dse-cluster`): carves one sweep space
/// into M hash-partitioned shards (the existing StableHash ShardSpec
/// partitioning), dispatches them to N `dahlia-serve` workers over the TCP
/// `dse-sweep` protocol (streamed, strict-mode client decoding), and merges
/// the partial fronts with the dahlia-dse-merge union logic into a front
/// bit-identical to a single-machine exhaustive run.
///
/// Robustness model (docs/cluster.md has the full state machine):
///
///   * every shard attempt runs on a fresh connection with SO_RCVTIMEO
///     armed, so a stalled worker surfaces as the same structured
///     mid-stream error a crashed one does (ServiceClient's EOF path);
///   * a failed attempt requeues the shard (capped retries with
///     exponential backoff); a worker that fails repeatedly is declared
///     dead and its shards are reassigned;
///   * every shard has at most one runner at a time, so a completion is
///     final and retry/reassignment alone cover dead and stalled workers;
///   * `syncCaches` ships every worker's memo cache to every other
///     worker (the `cache-export`/`cache-import` ops), converging a
///     fleet to all-hit for the next sweep.
///
/// The shard lifecycle emits `shard-dispatch` / `shard-done` /
/// `shard-retry` / `shard-reassign` / `worker-dead` journal events
/// (framed by `cluster-begin` / `cluster-end`) and counts into the
/// `cluster.*` metrics; `statusJson` is the `cluster-status` snapshot the
/// `dahlia-dse-cluster` binary prints, and `probeWorkers` rides the
/// existing `watch` op for per-worker live progress.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_CLUSTER_CLUSTER_H
#define DAHLIA_CLUSTER_CLUSTER_H

#include "dse/SearchStrategy.h"
#include "support/Json.h"

#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dahlia::cluster {

/// One worker address. Everything in this repo is loopback-only by
/// design; parseWorkerList rejects non-loopback hosts.
struct WorkerSpec {
  std::string Host = "127.0.0.1";
  int Port = 0;
};

/// Parses "host:port,host:port,..." (bare "port" means 127.0.0.1).
/// Returns std::nullopt and sets \p Err on malformed entries or
/// non-loopback hosts.
std::optional<std::vector<WorkerSpec>>
parseWorkerList(const std::string &List, std::string *Err = nullptr);

struct ClusterOptions {
  std::vector<WorkerSpec> Workers;

  // The sweep (forwarded to every shard request).
  std::string Space = "gemm-blocked";
  std::string Strategy = "exhaustive";
  size_t Limit = 0;
  unsigned SweepThreads = 0; ///< Per-worker sweep threads (0 = server pick).
  bool ExactTopRung = false;

  /// Shard count M; 0 defaults to 2x the worker count. The coordinator
  /// always uses at least 2 shards: sharded sweep responses are the form
  /// that carries mergeable front_points.
  unsigned Shards = 0;
  /// Max failed attempts per shard before the run aborts with a
  /// structured error.
  unsigned Retry = 3;
  /// Per-attempt receive timeout: a worker that stalls longer fails the
  /// attempt (and eventually dies). <= 0 disables the timeout.
  int ShardTimeoutMs = 30000;
  /// Base backoff after a failed attempt; doubles per consecutive
  /// failure of that worker, capped at 1s.
  int RetryBackoffMs = 25;
  /// Ship the union of all workers' memo caches back to every worker
  /// after the sweep (see syncCaches).
  bool SyncCacheAfter = false;
};

/// Consecutive failed attempts after which a worker is declared dead.
constexpr unsigned kWorkerFailureLimit = 3;

/// Aggregate counters of one cluster run.
struct ClusterStats {
  size_t Workers = 0, Shards = 0, ShardsDone = 0;
  size_t Dispatches = 0;
  /// Always 0: a shard never has a second runner. Kept for callers that
  /// still read it.
  size_t SpeculativeDispatches = 0;
  size_t Retries = 0;         ///< Failed attempts (each emits shard-retry).
  size_t Reassignments = 0;   ///< Dispatches to a different worker than last.
  size_t WorkerDeaths = 0;
  // Sums over the completed shard sweeps.
  size_t Explored = 0, Accepted = 0, Estimated = 0, Pruned = 0;
  size_t VerdictCacheHits = 0, EstimateCacheHits = 0;
  size_t CacheEntriesShipped = 0; ///< syncCaches total (verdicts+estimates).
  double Seconds = 0;
};

/// Everything one cluster run produces. On failure (Ok == false) the
/// merged front covers only the shards that completed; Errors says what
/// was lost.
struct ClusterResult {
  bool Ok = false;
  std::vector<std::string> Errors;
  /// Union of the completed shards' front points (ascending by index).
  std::vector<dse::FrontPoint> Points;
  dse::MergedFronts Fronts;
  std::string FrontHash, AcceptedFrontHash; ///< dse::hashString renderings.
  ClusterStats Stats;

  Json toJson() const;
};

class ClusterCoordinator {
public:
  explicit ClusterCoordinator(ClusterOptions O);

  /// Runs the sweep to completion (or abort). One thread per worker;
  /// blocks until every shard is done or the run fails. Not reentrant.
  ClusterResult run();

  /// The `cluster-status` snapshot: shard phase counts, per-worker
  /// health, and the run counters so far. Thread-safe; callable from a
  /// status thread while run() is in flight.
  Json statusJson() const;

  /// Sends each live worker a plain `watch` request and returns the
  /// per-worker progress snapshots (the existing watch machinery as a
  /// fleet view): [{"worker":i,"host":...,"port":...,"watch":{...}},...].
  /// Workers that cannot be reached report {"error":...} instead.
  Json probeWorkers() const;

  /// Ships the union of every live worker's memo cache to every live
  /// worker (cache-export slices -> merged -> chunked cache-import), so
  /// the fleet converges to all-hit regardless of how shards land next
  /// run. Returns false and sets \p Err when any worker fails to
  /// export/import. \p Shipped (optional) counts entries shipped.
  bool syncCaches(std::string *Err = nullptr, size_t *Shipped = nullptr);

  const ClusterOptions &options() const { return Opts; }

private:
  enum class Phase { Pending, InFlight, Done };

  struct ShardState {
    Phase Ph = Phase::Pending;
    unsigned FailedAttempts = 0; ///< Failed attempts (retry cap).
    unsigned Dispatches = 0;
    int LastWorker = -1;
    std::vector<dse::FrontPoint> Points;
    Json Sweep; ///< Terminal sweep summary (front_points stripped).
  };

  struct WorkerState {
    WorkerSpec Spec;
    bool Dead = false;
    unsigned ConsecutiveFailures = 0;
    size_t ShardsDone = 0;
    size_t Failures = 0;
    int InFlightShard = -1; ///< Shard this worker is running now (-1 idle).
  };

  void workerLoop(size_t W);
  /// One shard attempt over a fresh connection. Returns false and sets
  /// \p Err on any failure (connect, timeout, structured error, shard
  /// echo mismatch, malformed or out-of-partition front points).
  bool attemptShard(size_t W, unsigned Shard, std::string *Err,
                    std::vector<dse::FrontPoint> *Points, Json *Sweep);
  /// Lowest-index pending shard, or -1.
  int pickPending() const;
  bool anyWorkerAlive() const;

  ClusterOptions Opts;

  mutable std::mutex M;
  std::condition_variable CV;
  std::vector<ShardState> ShardStates;
  std::vector<WorkerState> WorkerStates;
  size_t DoneCount = 0;
  bool Aborted = false;
  bool Running = false;
  std::vector<std::string> Errors;
  ClusterStats Stats;
};

} // namespace dahlia::cluster

#endif // DAHLIA_CLUSTER_CLUSTER_H
