//===- CompileService.h - Streaming batch compile service -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived compile service over the \c CompilerPipeline: it accepts
/// streaming `check` / `estimate` / `lower` / `simulate` / `dse-sweep`
/// requests as line-delimited JSON (see Protocol.h and docs/protocol.md),
/// batches them per epoch to amortize pipeline setup, shards each epoch
/// across the shared work-stealing pool, and answers with structured
/// diagnostics, estimates, and per-request latencies — the server-style
/// front end the ROADMAP calls for. The concurrent TCP front end lives in
/// TcpServer.h; this class is transport-agnostic.
///
/// Three layers of reuse make repeated traffic cheap:
///
///   * a \c dse::DseCache memoizes type-check verdicts (by source hash)
///     and estimates (by spec and source hash) across requests AND across
///     the DSE sweeps the service runs, since both share one cache;
///   * a \c service::PersistentCache persists that cache under
///     `.dahlia-cache/` (crash-safe write-temp-then-rename), so a
///     restarted service — or a re-run Figure 7 sweep — starts warm;
///   * a session layer keeps one pristine parsed AST per session and
///     re-checks bank/unroll rewrites against clones of it, skipping the
///     parser entirely (incremental re-checking).
///
/// Batching semantics: requests accumulate into the current epoch until
/// the batch cap is hit, a blank line arrives (explicit flush), or the
/// stream ends. Each epoch is processed in parallel; responses are
/// written in request order. Requests that establish a session (both
/// `session` and `source`) are processed at the start of their epoch so
/// later requests in the same epoch can use the session.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SERVICE_COMPILESERVICE_H
#define DAHLIA_SERVICE_COMPILESERVICE_H

#include "service/PersistentCache.h"
#include "service/Protocol.h"

#include <atomic>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dahlia::service {

/// Service configuration.
struct ServiceOptions {
  /// Worker threads per epoch; 0 resolves like the DSE engine
  /// (DAHLIA_DSE_THREADS, then hardware concurrency).
  unsigned Threads = 0;
  /// Epoch size cap: a full batch is flushed even mid-stream.
  size_t MaxBatch = 64;
  /// Memoize verdicts/estimates across requests and sweeps.
  bool Memoize = true;
  /// When non-empty, load the memo cache from this directory at startup
  /// and save it back on destruction (and on savePersistentCache()).
  std::string CacheDir;
  /// Structured slow-request log threshold: a request whose latency
  /// exceeds this many milliseconds emits one JSON line on stderr
  /// (trace_id, op, latency_ms, ...). 0 disables the log.
  double SlowRequestMs = 0;
};

/// Aggregate counters over the service's lifetime.
struct ServiceStats {
  size_t Requests = 0;
  size_t Epochs = 0;
  size_t Malformed = 0;     ///< Lines that failed to parse as requests.
  size_t CacheHits = 0;     ///< Requests served from the memo cache.
  size_t ParseReuses = 0;   ///< Session re-checks that skipped the parser.
  size_t CacheableRequests = 0; ///< check/estimate requests (hit denominator).
  double BusySeconds = 0;   ///< Wall clock spent inside epochs.
  bool WarmStart = false;   ///< Persistent cache was loaded at startup.
  size_t WarmVerdicts = 0, WarmEstimates = 0;

  double requestsPerSecond() const {
    return BusySeconds > 0 ? static_cast<double>(Requests) / BusySeconds : 0;
  }
  /// Fraction of cacheable requests served from the memo cache.
  double cacheHitRate() const {
    return CacheableRequests > 0
               ? static_cast<double>(CacheHits) / CacheableRequests
               : 0;
  }

  Json toJson() const;
};

/// The service. One instance may serve many streams sequentially; epochs
/// are internally parallel, so callers need no locking of their own.
class CompileService {
public:
  explicit CompileService(ServiceOptions O = ServiceOptions());
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Handles one already-parsed request (bypasses JSON decode; used by
  /// the in-process client and by processBatch).
  Response handle(const Request &R);

  /// One decoded line of an epoch: the parsed request (absent when the
  /// line was malformed) and its response. Callers that route responses
  /// per-connection (TcpServer) or render streams (serveStream) need the
  /// request back — e.g. its Stream flag — without re-parsing the line.
  struct BatchEntry {
    std::optional<Request> Req;
    Response Resp;
  };

  /// Processes one epoch: every line in \p Lines, in parallel, entries
  /// index-aligned with the inputs. Malformed lines produce error
  /// responses (ok=false, id echoed when recoverable) rather than tearing
  /// down the stream.
  std::vector<BatchEntry> processBatchEx(const std::vector<std::string> &Lines);

  /// processBatchEx without the echoed requests.
  std::vector<Response> processBatch(const std::vector<std::string> &Lines);

  /// Reads the line protocol from \p In until EOF, writing one response
  /// line per request to \p Out (flushed after every epoch). Blank lines
  /// flush the current epoch early.
  void serveStream(std::istream &In, std::ostream &Out);

  /// Saves the memo cache through the persistent layer now. Returns false
  /// when persistence is disabled or the write failed.
  bool savePersistentCache();

  const ServiceStats &stats() const { return Stats; }
  const ServiceOptions &options() const { return Opts; }
  /// The shared memo cache (never null when Memoize is set).
  const std::shared_ptr<dse::DseCache> &cache() const { return Cache; }

  /// Installs (or clears, with nullptr) the live progress publisher: every
  /// dse-sweep progress tick calls it with the flat progress record the
  /// `watch` op snapshots. The TCP front end installs one to feed its
  /// watch streams; the callback runs on whatever thread is running the
  /// sweep, so publishers must be thread-aware.
  void setProgressPublisher(std::function<void(const Json &)> Pub);

  /// The latest dse-sweep progress record plus `"running"`: the `watch`
  /// op's one-shot payload. `{"running":false,"phase":"idle"}` before any
  /// sweep has run.
  Json progressSnapshotJson() const;

private:
  struct Session {
    Program Pristine;        ///< Parsed, never type-checked.
    uint64_t SourceHash = 0; ///< Hash of the establishing source.
  };

  Response checkOrEstimate(const Request &R);
  Response dseSweep(const Request &R);
  /// The cache-shipping ops (fleet warm-up; see docs/cluster.md): export
  /// snapshots the memo cache (optionally one "i/N" key-residue slice),
  /// import bulk-merges a payload in the same wire shape.
  Response cacheExportOp(const Request &R);
  Response cacheImportOp(const Request &R);

  /// Applies \p Rw to \p P (bank factors onto decl types, unroll factors
  /// onto for-loops by iterator name). Returns the first error when a
  /// named memory/iterator is missing or a bank vector's arity is wrong.
  static std::optional<Error> applyRewrite(Program &P, const Rewrite &Rw);

  /// Serves a memoized outcome for \p Key if one exists: an accepted
  /// verdict, a rejection with replayable diagnostics, or (estimate op) a
  /// source-keyed estimate. Returns true when \p Out was filled.
  bool serveFromCache(uint64_t Key, Op Kind, Response &Out);
  void rememberRejection(uint64_t Key, const std::vector<Error> &Errors);

  ServiceOptions Opts;
  ServiceStats Stats;
  std::shared_ptr<dse::DseCache> Cache;
  std::unique_ptr<PersistentCache> Persist;

  std::mutex SessionsM;
  std::map<std::string, std::shared_ptr<const Session>> Sessions;

  /// Diagnostics of memoized rejections. The DseCache persists only the
  /// verdict bit; this side table lets repeated rejections replay their
  /// errors without re-checking. Re-populated lazily after a restart.
  std::mutex RejectM;
  std::map<uint64_t, std::vector<Error>> RejectDiags;

  /// Next server-stamped trace ID (requests without a client-supplied
  /// "trace_id" get one of these; see Request::TraceId).
  std::atomic<uint64_t> NextTraceId{1};

  /// Progress observability (the `watch` op). LatestProgress is the last
  /// record a sweep's OnProgress tick stored; SweepRunning tracks whether
  /// a sweep is inside explore() right now.
  mutable std::mutex ProgressM;
  Json LatestProgress;
  bool SweepRunning = false;
  std::function<void(const Json &)> ProgressPublisher;

  std::mutex StatsM;
};

} // namespace dahlia::service

#endif // DAHLIA_SERVICE_COMPILESERVICE_H
