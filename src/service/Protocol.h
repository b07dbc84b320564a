//===- Protocol.h - Compile service wire protocol ---------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-delimited JSON protocol of the compile service, plus the JSON
/// serializers for diagnostics, estimates, and timings that the service
/// shares with `dahliac --json`.
///
/// One request per line:
///
///   {"id":1,"op":"check","source":"decl A: float[4]; A[0] := 1.0;"}
///   {"id":2,"op":"estimate","source":"..."}
///   {"id":3,"op":"lower","source":"..."}
///   {"id":4,"op":"dse-sweep","space":"gemm-blocked","limit":2000}
///   {"id":7,"op":"dse-sweep","space":"gemm-blocked",
///    "strategy":"pareto-prune","shard":"0/3"}             // pruned shard
///   {"id":5,"op":"check","session":"s1","source":"..."}       // parse+cache
///   {"id":6,"op":"check","session":"s1",
///    "rewrite":{"banks":{"A":[2,4]},"unrolls":{"i":4}}}       // re-check
///
/// One response per line, in request order:
///
///   {"id":1,"op":"check","ok":true,"cached":false,"latency_ms":0.4}
///   {"id":1,"op":"check","ok":false,
///    "errors":[{"kind":"affine","message":"...","line":1,"col":20}]}
///
/// A `session` names a server-side parse cache: a request carrying both
/// `session` and `source` parses once and remembers the pristine AST; a
/// later request carrying `session` and a `rewrite` (bank factors keyed by
/// memory name, unroll factors keyed by iterator name) clones the cached
/// AST, applies the rewrite, and re-runs only the type checker —
/// incremental re-checking for DSE-style sweeps. Such responses report
/// `"parse_reused":true`.
///
/// Streaming: a `dse-sweep` or `simulate` request carrying `"stream":true`
/// answers as a *sequence* of lines instead of one — a header
/// `{"id":N,"op":...,"stream":true}`, one chunk line per payload record
/// (`{"id":N,"front_point":{...}}` per Pareto-front member, or
/// `{"id":N,"nest":{...}}` per simulated nest), and a terminal summary
/// that is the ordinary response with the bulky array removed and
/// `"stream_end":true` added. Reassembling the chunks into the summary
/// reproduces the batch response byte-for-byte (see ResponseStream and
/// ServiceClient). Failed requests and non-streamable ops answer with the
/// plain single-line response even when streaming was requested.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SERVICE_PROTOCOL_H
#define DAHLIA_SERVICE_PROTOCOL_H

#include "cyclesim/CycleSim.h"
#include "driver/CompilerPipeline.h"
#include "hlsim/Estimator.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dahlia::service {

/// Operations the service answers. \c Simulate runs the cycle-level
/// banked-memory simulator (the Exact estimation rung) and additionally
/// ships the per-nest schedule breakdown. \c Metrics snapshots the
/// process-wide metrics registry (support/Metrics.h) as JSON — a live
/// observability scrape that needs no source. \c Watch observes running
/// dse-sweep progress: a plain watch answers one snapshot; a watch with
/// `"stream":true` over the TCP front end streams periodic progress
/// records (see docs/protocol.md) until `count` records were sent.
/// \c CacheExport / \c CacheImport ship the server's memo cache (verdicts
/// and estimates) between fleet members: an export snapshots entries (an
/// optional `shard` "i/N" selects the key-residue slice so giant caches
/// fit the line-size cap), an import bulk-merges entries into the
/// server's cache — how the DSE cluster coordinator converges a fleet of
/// workers to all-hit (see docs/cluster.md).
enum class Op {
  Check,
  Estimate,
  Lower,
  Simulate,
  DseSweep,
  Metrics,
  Watch,
  CacheExport,
  CacheImport,
};

/// The op's wire name ("check", "dse-sweep", ...), and its inverse
/// (std::nullopt for a name no op has).
const char *opName(Op O);
std::optional<Op> opFromName(std::string_view Name);

/// A bank/unroll rewrite applied to a session's cached parse.
struct Rewrite {
  /// Memory name -> per-dimension banking factors.
  std::map<std::string, std::vector<int64_t>> Banks;
  /// Loop iterator name -> unroll factor.
  std::map<std::string, int64_t> Unrolls;

  bool empty() const { return Banks.empty() && Unrolls.empty(); }
};

/// One parsed request.
struct Request {
  int64_t Id = 0;
  Op Kind = Op::Check;
  std::string Source;  ///< Dahlia source (check/estimate/lower).
  std::string Session; ///< Optional session for parse reuse.
  std::optional<Rewrite> Rw;
  // dse-sweep parameters.
  std::string Space;   ///< "gemm-blocked", "stencil2d", "md-knn", "md-grid".
  size_t Limit = 0;    ///< Truncate the space (0 = full).
  unsigned Threads = 0;
  /// Search strategy: "exhaustive" (default) or "pareto-prune".
  std::string Strategy;
  /// Shard of the space as "i/N" (whole space when empty). Sharded sweep
  /// responses carry the partial front's points so clients can merge
  /// shards with dahlia-dse-merge semantics.
  std::string Shard;
  /// dse-sweep "exact": promote the front to cycle-level simulated
  /// estimates (DseOptions::ExactTopRung).
  bool ExactTopRung = false;
  /// "stream": answer dse-sweep/simulate as chunked lines (header,
  /// incremental records, terminal summary) instead of one response line.
  /// On a watch request it selects live progress streaming (TCP only).
  bool Stream = false;
  /// watch "interval_ms": minimum milliseconds between streamed progress
  /// records (0 = the server default, 250 ms).
  double WatchIntervalMs = 0;
  /// watch "count": end the stream after this many progress records
  /// (0 = stream until the connection closes).
  uint64_t WatchCount = 0;
  /// Per-request trace ID. Clients may supply "trace_id"; when absent the
  /// service stamps one. It threads through every span the request opens
  /// (support/Trace.h) and is echoed in the response, so a slow request
  /// in a server-side trace is attributable from the client side alone.
  uint64_t TraceId = 0;
  /// cache-import "cache": the entries to merge, in the cache-export wire
  /// shape ({"verdicts":[...],"estimates":[...]}, see cacheToJson).
  Json CachePayload;

  /// Parses one protocol line. Returns std::nullopt and sets \p Err on
  /// malformed input (not valid JSON, unknown op, missing fields).
  static std::optional<Request> fromJson(const std::string &Line,
                                         std::string *Err = nullptr);
  Json toJson() const;
};

/// One response. Only the fields of the request's op are populated.
struct Response {
  int64_t Id = 0;
  Op Kind = Op::Check;
  bool Ok = false;
  bool Cached = false;      ///< Served from the memo cache.
  bool ParseReused = false; ///< Session AST reuse (no parse ran).
  double LatencyMs = 0;
  std::vector<Error> Errors;
  std::optional<hlsim::Estimate> Est; ///< estimate op (Exact for simulate).
  std::optional<cyclesim::SimResult> Sim; ///< simulate op breakdown.
  std::string Lowered;                ///< lower op.
  Json Sweep;                         ///< dse-sweep op summary (object).
  Json Metrics;                       ///< metrics op snapshot (object).
  Json Watch;                         ///< watch op progress snapshot.
  Json Cache;                         ///< cache-export/-import payload.
  uint64_t TraceId = 0;               ///< Echo of the request's trace ID.

  Json toJson() const;
  /// Inverse of toJson. A value that is not a protocol response (no
  /// id/op/ok) decodes as a failed response whose one error carries the
  /// payload's own `errors`/`message`/`error` text, so the operator sees
  /// the server's words, not "unparseable".
  static Response fromJson(const Json &J);
};

//===----------------------------------------------------------------------===//
// ResponseStream: chunked rendering of one streamed response
//===----------------------------------------------------------------------===//

/// Renders one response in the streamed wire form, one line at a time, so
/// a server can interleave a giant sweep answer with other connections'
/// traffic under a bounded write buffer: the producer only serializes the
/// next line when the buffer has room (pull model — this is the service's
/// back-pressure mechanism).
///
/// Line sequence: header, then one chunk per front point (dse-sweep) or
/// per nest (simulate), then the terminal summary. The terminal summary is
/// Response::toJson() with the streamed array removed and
/// `"stream_end":true` added; re-inserting the collected chunks yields the
/// batch response exactly (ServiceClient's stream assembler does this).
class ResponseStream {
public:
  /// \p R must be a successful dse-sweep or simulate response (see
  /// wantsStream); anything else renders as a single plain line.
  explicit ResponseStream(Response R);

  /// The next line (without trailing newline), or std::nullopt when the
  /// stream is exhausted.
  std::optional<std::string> next();

  bool done() const { return Idx > Chunks.size() + 1; }

  /// True when \p R asked for streaming and \p Ok response of its op kind
  /// would stream (dse-sweep / simulate).
  static bool wantsStream(const Request &R, const Response &Resp);

private:
  Response R;
  std::vector<Json> Chunks; ///< Payload records (already split out of R).
  std::string ChunkKey;     ///< "front_point" or "nest".
  size_t Idx = 0;           ///< 0 header, 1..N chunks, N+1 terminal.
};

//===----------------------------------------------------------------------===//
// Shared serializers (service responses and `dahliac --json`)
//===----------------------------------------------------------------------===//

/// One diagnostic as {"kind","message","line","col"}, and its inverse
/// (an unknown kind decodes as internal).
Json toJson(const Error &E);
Error errorFromJson(const Json &E);

/// All diagnostics of \p D as an array.
Json toJson(const driver::DiagnosticEngine &D);

/// An estimate as {"cycles","ii","lut","ff","bram","dsp","lutmem",
/// "runtime_ms","incorrect","predictable"}, and its inverse (used by
/// Response::fromJson and by the cache-import payload decoder).
Json toJson(const hlsim::Estimate &E);
hlsim::Estimate estimateFromJson(const Json &E);

/// A simulation as {"cycles","ii","truncated","walked_groups","nests":
/// [{"ii","effective_ii","groups","cycles","walked_groups",
///   "conflict_groups","stall_cycles","max_port_pressure",
///   "period_complete"}]}, and its inverse.
Json toJson(const cyclesim::SimResult &S);
cyclesim::SimResult simFromJson(const Json &S);

/// Per-stage timings as {"parse":ms,...,"total":ms}.
Json timingsToJson(const driver::CompileResult &R);

/// Copy of \p J (an object) with \p Key removed. Shared by the stream
/// producer (ResponseStream) and consumer (ServiceClient's reassembly),
/// which must stay exact inverses.
Json jsonWithoutKey(const Json &J, const std::string &Key);

/// Cache entries in the cache-export/-import wire shape: keys render as
/// "0x..." hex strings (uint64 does not survive a signed JSON int), and
/// both sides are sorted by key so the payload is deterministic.
///
///   {"verdicts":[{"key":"0x1a","accepted":true},...],
///    "estimates":[{"key":"0x2b","estimate":{...}},...]}
Json cacheToJson(const std::vector<std::pair<uint64_t, bool>> &Verdicts,
                 const std::vector<std::pair<uint64_t, hlsim::Estimate>>
                     &Estimates);

/// Parsed cache payload. Returns false and sets \p Err on malformed
/// input (bad key strings, missing fields).
bool cacheFromJson(const Json &J,
                   std::vector<std::pair<uint64_t, bool>> &Verdicts,
                   std::vector<std::pair<uint64_t, hlsim::Estimate>> &Estimates,
                   std::string *Err = nullptr);

} // namespace dahlia::service

#endif // DAHLIA_SERVICE_PROTOCOL_H
