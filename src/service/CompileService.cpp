//===- CompileService.cpp - Streaming batch compile service -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "cyclesim/CycleSim.h"
#include "driver/SpecExtractor.h"
#include "dse/SearchStrategy.h"
#include "filament/Syntax.h"
#include "kernels/Kernels.h"
#include "lower/Desugar.h"
#include "sema/TypeChecker.h"
#include "support/Metrics.h"
#include "support/StableHash.h"
#include "support/Trace.h"
#include "support/WorkStealingPool.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <istream>
#include <ostream>
#include <thread>

using namespace dahlia;
using namespace dahlia::service;

namespace {

/// Distinguishes source-keyed estimate entries from spec-keyed ones inside
/// the shared DseCache (both live in the same 64-bit keyspace).
constexpr uint64_t kSourceEstimateTag = 0xE57E57E57E57E57EULL;

/// Distinguishes session-rewrite verdict keys from plain source hashes.
constexpr uint64_t kRewriteTag = 0x5E55105E55105E55ULL;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Canonical hash of a rewrite: the serialized form is deterministic
/// (Json objects are key-sorted), so equal rewrites hash equally.
uint64_t rewriteHash(const Rewrite &Rw) {
  Request Tmp;
  Tmp.Rw = Rw;
  return stableHash(Tmp.toJson().at("rewrite").dump());
}

} // namespace

//===----------------------------------------------------------------------===//
// ServiceStats
//===----------------------------------------------------------------------===//

Json ServiceStats::toJson() const {
  Json J = Json::object();
  J["requests"] = Requests;
  J["epochs"] = Epochs;
  J["malformed"] = Malformed;
  J["cache_hits"] = CacheHits;
  J["cacheable_requests"] = CacheableRequests;
  J["cache_hit_rate"] = cacheHitRate();
  J["parse_reuses"] = ParseReuses;
  J["busy_seconds"] = BusySeconds;
  J["requests_per_sec"] = requestsPerSecond();
  J["warm_start"] = WarmStart;
  J["warm_verdicts"] = WarmVerdicts;
  J["warm_estimates"] = WarmEstimates;
  return J;
}

//===----------------------------------------------------------------------===//
// Construction / persistence
//===----------------------------------------------------------------------===//

CompileService::CompileService(ServiceOptions O) : Opts(std::move(O)) {
  if (Opts.Memoize)
    Cache = std::make_shared<dse::DseCache>();
  if (!Opts.CacheDir.empty()) {
    Persist = std::make_unique<PersistentCache>(Opts.CacheDir);
    if (Cache) {
      PersistentCacheLoadStats LS;
      Stats.WarmStart = Persist->load(*Cache, &LS);
      Stats.WarmVerdicts = LS.Verdicts;
      Stats.WarmEstimates = LS.Estimates;
    }
  }
}

CompileService::~CompileService() { savePersistentCache(); }

bool CompileService::savePersistentCache() {
  if (!Persist || !Cache)
    return false;
  return Persist->save(*Cache);
}

//===----------------------------------------------------------------------===//
// Rewrite application (session layer)
//===----------------------------------------------------------------------===//

std::optional<Error> CompileService::applyRewrite(Program &P,
                                                  const Rewrite &Rw) {
  for (const auto &[Mem, Factors] : Rw.Banks) {
    bool Found = false;
    for (ExternDecl &D : P.Decls) {
      if (D.Name != Mem)
        continue;
      Found = true;
      if (!D.Ty || !D.Ty->isMem())
        return Error(ErrorKind::Internal,
                     "rewrite target '" + Mem + "' is not a memory");
      const std::vector<MemDim> &Old = D.Ty->memDims();
      if (Factors.size() != Old.size())
        return Error(ErrorKind::Internal,
                     "rewrite for '" + Mem + "' has " +
                         std::to_string(Factors.size()) + " bank factors; " +
                         "memory has " + std::to_string(Old.size()) +
                         " dimensions");
      std::vector<MemDim> Dims = Old;
      for (size_t I = 0; I != Dims.size(); ++I)
        Dims[I].Banks = Factors[I];
      D.Ty = Type::getMem(D.Ty->memElem(), std::move(Dims), D.Ty->memPorts());
      break;
    }
    if (!Found)
      return Error(ErrorKind::Internal,
                   "rewrite names unknown memory '" + Mem + "'");
  }

  if (Rw.Unrolls.empty())
    return std::nullopt;
  std::map<std::string, bool> Applied;
  for (const auto &[Iter, Factor] : Rw.Unrolls) {
    (void)Factor;
    Applied[Iter] = false;
  }

  // Recursive walk over every command that can contain a for-loop.
  auto Walk = [&](auto &&Self, Cmd &C) -> void {
    switch (C.kind()) {
    case CmdKind::For: {
      auto &F = *C.as<ForCmd>();
      auto It = Rw.Unrolls.find(F.iter());
      if (It != Rw.Unrolls.end()) {
        F.setUnroll(It->second);
        Applied[F.iter()] = true;
      }
      Self(Self, F.body());
      if (F.combine())
        Self(Self, *F.combine());
      break;
    }
    case CmdKind::If: {
      auto &I = *C.as<IfCmd>();
      Self(Self, I.thenCmd());
      if (I.elseCmd())
        Self(Self, *I.elseCmd());
      break;
    }
    case CmdKind::While:
      Self(Self, C.as<WhileCmd>()->body());
      break;
    case CmdKind::Seq:
      for (CmdPtr &Sub : C.as<SeqCmd>()->cmds())
        Self(Self, *Sub);
      break;
    case CmdKind::Par:
      for (CmdPtr &Sub : C.as<ParCmd>()->cmds())
        Self(Self, *Sub);
      break;
    case CmdKind::Block:
      Self(Self, C.as<BlockCmd>()->body());
      break;
    default:
      break;
    }
  };
  if (P.Body)
    Walk(Walk, *P.Body);
  for (FuncDef &F : P.Funcs)
    if (F.Body)
      Walk(Walk, *F.Body);

  for (const auto &[Iter, Done] : Applied)
    if (!Done)
      return Error(ErrorKind::Internal,
                   "rewrite names unknown loop iterator '" + Iter + "'");
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

Response CompileService::handle(const Request &R) {
  auto Start = std::chrono::steady_clock::now();
  // Stamp a trace ID when the client did not supply one; scoped so every
  // span this request opens (pipeline, DSE, cache) carries it.
  uint64_t TraceId =
      R.TraceId ? R.TraceId : NextTraceId.fetch_add(1, std::memory_order_relaxed);
  trace::TraceIdScope IdScope(TraceId);
  TRACE_SPAN("service.request");

  Response Out;
  if (R.Kind == Op::Metrics) {
    Out.Ok = true;
    Out.Metrics = metrics::snapshot();
  } else if (R.Kind == Op::Watch) {
    Out.Ok = true;
    Out.Watch = progressSnapshotJson();
  } else if (R.Kind == Op::DseSweep) {
    Out = dseSweep(R);
  } else if (R.Kind == Op::CacheExport) {
    Out = cacheExportOp(R);
  } else if (R.Kind == Op::CacheImport) {
    Out = cacheImportOp(R);
  } else {
    Out = checkOrEstimate(R);
  }
  Out.Id = R.Id;
  Out.Kind = R.Kind;
  Out.TraceId = TraceId;
  Out.LatencyMs = secondsSince(Start) * 1e3;

  static metrics::Counter &Requests = metrics::counter("service.requests");
  static metrics::Histogram &Latency = metrics::histogram("service.request_ms");
  Requests.inc();
  Latency.recordMs(Out.LatencyMs);

  if (Opts.SlowRequestMs > 0 && Out.LatencyMs > Opts.SlowRequestMs) {
    // Structured slow-request log: one JSON object per line on stderr,
    // greppable without disturbing the protocol stream on stdout.
    Json L = Json::object();
    L["slow_request"] = true;
    L["trace_id"] = TraceId;
    L["id"] = R.Id;
    L["op"] = opName(R.Kind);
    L["latency_ms"] = Out.LatencyMs;
    L["threshold_ms"] = Opts.SlowRequestMs;
    L["ok"] = Out.Ok;
    L["cached"] = Out.Cached;
    if (R.Kind == Op::DseSweep) {
      // Sweep requests are the ones that trip the threshold in practice;
      // the extra fields make the log line attributable without a journal.
      L["space"] = R.Space;
      L["strategy"] = R.Strategy.empty() ? "exhaustive" : R.Strategy;
      if (Out.Sweep.isObject()) {
        L["explored"] = Out.Sweep.at("explored");
        L["pruned"] = Out.Sweep.at("pruned");
      }
    }
    std::cerr << L.dump() << '\n';
  }

  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.Requests;
    if (R.Kind == Op::Check || R.Kind == Op::Estimate ||
        R.Kind == Op::Simulate) {
      ++Stats.CacheableRequests;
      if (Out.Cached)
        ++Stats.CacheHits;
    }
    if (Out.ParseReused)
      ++Stats.ParseReuses;
  }
  return Out;
}

bool CompileService::serveFromCache(uint64_t Key, Op Kind, Response &Out) {
  if (!Cache)
    return false;

  if (Kind == Op::Estimate) {
    hlsim::Estimate Est;
    if (Cache->lookupEstimate(stableHashCombine(Key, kSourceEstimateTag),
                              Est)) {
      Out.Ok = true;
      Out.Cached = true;
      Out.Est = Est;
      return true;
    }
  }

  bool Accepted;
  if (!Cache->lookupVerdict(Key, Accepted))
    return false;
  if (Accepted) {
    if (Kind != Op::Check)
      return false; // Estimate/lower still need the artifact.
    Out.Ok = true;
    Out.Cached = true;
    return true;
  }
  // Rejected: replay the remembered diagnostics if we have them (after a
  // restart only the verdict bit survives; the first re-check repopulates).
  std::lock_guard<std::mutex> Lock(RejectM);
  auto It = RejectDiags.find(Key);
  if (It == RejectDiags.end())
    return false;
  Out.Ok = false;
  Out.Cached = true;
  Out.Errors = It->second;
  return true;
}

void CompileService::rememberRejection(uint64_t Key,
                                       const std::vector<Error> &Errors) {
  std::lock_guard<std::mutex> Lock(RejectM);
  // Crude bound: a memo table of rejection diagnostics, not an LRU. A
  // sweep's worth of distinct rejections fits comfortably; beyond that we
  // start over rather than grow without limit.
  if (RejectDiags.size() >= (1u << 16))
    RejectDiags.clear();
  RejectDiags.emplace(Key, Errors);
}

Response CompileService::checkOrEstimate(const Request &R) {
  Response Out;
  Out.Kind = R.Kind;

  // Resolve the program: a fresh parse, or a clone of a session's pristine
  // AST with the rewrite applied.
  Program Prog;
  uint64_t Key = 0; // Memo key for this request's verdict/estimate.
  bool HaveProgram = false;

  if (!R.Session.empty() && R.Source.empty() && R.Rw) {
    std::shared_ptr<const Session> S;
    {
      std::lock_guard<std::mutex> Lock(SessionsM);
      auto It = Sessions.find(R.Session);
      if (It != Sessions.end())
        S = It->second;
    }
    if (!S) {
      Out.Errors.push_back(Error(ErrorKind::Internal,
                                 "unknown session '" + R.Session + "'"));
      return Out;
    }
    Key = stableHashCombine(stableHashCombine(S->SourceHash, kRewriteTag),
                            rewriteHash(*R.Rw));

    // Memo fast path before paying for the clone.
    if (serveFromCache(Key, R.Kind, Out))
      return Out;

    Prog = S->Pristine.clone();
    if (std::optional<Error> E = applyRewrite(Prog, *R.Rw)) {
      Out.Errors.push_back(std::move(*E));
      return Out;
    }
    Out.ParseReused = true;
    HaveProgram = true;
  } else {
    Key = stableHash(R.Source);

    // Memo fast paths that skip the parse entirely. Session-establishing
    // requests always parse (the session needs the AST).
    if (R.Session.empty() && serveFromCache(Key, R.Kind, Out))
      return Out;
  }

  driver::CompilerPipeline Pipeline;
  if (!HaveProgram) {
    driver::CompileResult P = Pipeline.parse(R.Source);
    if (!P) {
      // Parse failures are rejections too: memoize the verdict and the
      // diagnostics so replays are served from cache.
      if (Cache) {
        Cache->insertVerdict(Key, false);
        rememberRejection(Key, P.Diags.errors());
      }
      Out.Errors = P.Diags.errors();
      return Out;
    }
    Prog = std::move(*P.Prog);

    // Establish/replace the session with the pristine (unchecked) parse.
    if (!R.Session.empty()) {
      auto S = std::make_shared<Session>();
      S->Pristine = Prog.clone();
      S->SourceHash = Key;
      std::lock_guard<std::mutex> Lock(SessionsM);
      Sessions[R.Session] = std::move(S);
    }
  }

  // Check stage (all ops need it).
  std::vector<Error> CheckErrors = typeCheck(Prog);
  bool Accepted = CheckErrors.empty();
  if (Cache) {
    Cache->insertVerdict(Key, Accepted);
    if (!Accepted)
      rememberRejection(Key, CheckErrors);
  }
  if (!Accepted) {
    Out.Errors = std::move(CheckErrors);
    return Out;
  }

  switch (R.Kind) {
  case Op::Check:
    Out.Ok = true;
    return Out;

  case Op::Estimate: {
    Result<hlsim::KernelSpec> Spec = driver::extractKernelSpec(Prog);
    if (!Spec) {
      Out.Errors.push_back(Spec.error());
      return Out;
    }
    // Spec-keyed entries are shared with the DSE engine's sweeps, whose
    // keys carry the estimator fidelity; the service always estimates at
    // full fidelity.
    uint64_t SpecKey =
        hlsim::fidelityCacheKey(hlsim::specHash(*Spec), hlsim::Fidelity::Full);
    hlsim::Estimate Est;
    bool SpecHit = Cache && Cache->lookupEstimate(SpecKey, Est);
    if (!SpecHit) {
      Est = hlsim::estimate(*Spec);
      if (Cache)
        Cache->insertEstimate(SpecKey, Est);
    }
    if (Cache)
      Cache->insertEstimate(stableHashCombine(Key, kSourceEstimateTag), Est);
    Out.Ok = true;
    Out.Est = Est;
    return Out;
  }

  case Op::Simulate: {
    Result<hlsim::KernelSpec> Spec = driver::extractKernelSpec(Prog);
    if (!Spec) {
      Out.Errors.push_back(Spec.error());
      return Out;
    }
    // The simulated (Exact-fidelity) estimate shares the DSE engine's
    // fidelity-tagged keyspace, so a sweep's exact-top-rung promotions
    // and service simulate requests serve each other — including through
    // the persistent cache.
    uint64_t SpecKey = hlsim::fidelityCacheKey(hlsim::specHash(*Spec),
                                               hlsim::Fidelity::Exact);
    // The per-nest schedule breakdown is the op's real payload, so the
    // simulator runs exactly once; the cache (which stores only the
    // aggregate estimate) spares the analytic area model on hits and
    // seeds exact-top-rung sweeps.
    cyclesim::SimResult Sim = cyclesim::simulate(*Spec);
    hlsim::Estimate Est;
    bool SpecHit = Cache && Cache->lookupEstimate(SpecKey, Est);
    if (!SpecHit) {
      Est = cyclesim::exactEstimate(*Spec, Sim);
      if (Cache)
        Cache->insertEstimate(SpecKey, Est);
    }
    Out.Ok = true;
    Out.Cached = SpecHit;
    Out.Est = Est;
    Out.Sim = std::move(Sim);
    return Out;
  }

  case Op::Lower: {
    Result<LoweredProgram> L = lowerProgram(Prog);
    if (!L) {
      Out.Errors.push_back(L.error());
      return Out;
    }
    Out.Ok = true;
    Out.Lowered = filament::printCmd(*L->Program);
    return Out;
  }

  case Op::DseSweep:
  case Op::Metrics:
  case Op::Watch:
    break; // Unreachable; dispatched in handle().
  }
  Out.Errors.push_back(Error(ErrorKind::Internal, "unhandled op"));
  return Out;
}

Response CompileService::dseSweep(const Request &R) {
  Response Out;
  Out.Kind = Op::DseSweep;

  dse::DseProblem P;
  if (R.Space == "gemm-blocked")
    P = kernels::gemmBlockedProblem();
  else if (R.Space == "stencil2d")
    P = kernels::stencil2dProblem();
  else if (R.Space == "md-knn")
    P = kernels::mdKnnProblem();
  else if (R.Space == "md-grid")
    P = kernels::mdGridProblem();
  else {
    Out.Errors.push_back(
        Error(ErrorKind::Internal, "unknown sweep space '" + R.Space + "'"));
    return Out;
  }
  if (R.Limit && R.Limit < P.Size)
    P.Size = R.Limit;

  std::optional<dse::StrategyKind> Strategy = dse::parseStrategy(R.Strategy);
  if (!Strategy) {
    Out.Errors.push_back(Error(ErrorKind::Internal,
                               "unknown sweep strategy '" + R.Strategy +
                                   "' (" + dse::kStrategyNames + ")"));
    return Out;
  }
  dse::ShardSpec Shard;
  if (!R.Shard.empty()) {
    std::optional<dse::ShardSpec> S = dse::parseShard(R.Shard);
    if (!S) {
      Out.Errors.push_back(Error(
          ErrorKind::Internal,
          "malformed sweep shard '" + R.Shard + "' (expected \"i/N\")"));
      return Out;
    }
    Shard = *S;
  }

  dse::DseOptions EO;
  // Client-requested thread counts are capped at the machine: a sweep is
  // compute-bound, and an oversized request must not be able to exhaust
  // pthread resources on the server.
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  EO.Threads =
      std::min(dse::resolveThreadCount(R.Threads ? R.Threads : Opts.Threads),
               HW);
  EO.Memoize = Opts.Memoize;
  EO.Cache = Cache; // Sweeps share the service's (persistent) memo cache.
  EO.Strategy = *Strategy;
  EO.Shard = Shard;
  EO.ExactTopRung = R.ExactTopRung;
  // Progress observability: every tick updates the `watch` op's snapshot
  // and feeds the installed publisher (the TCP front end's watch streams).
  // Sweeps run serially on the caller's thread (see processBatchEx), and
  // ProgressSink ticks only from the calling thread, so the publisher runs
  // on the thread that called handle().
  EO.OnProgress = [this](const dse::DseProgress &Pr) {
    Json Rec = Json::object();
    Rec["phase"] = Pr.Phase;
    Rec["done"] = Pr.Done;
    Rec["total"] = Pr.Total;
    Rec["front_size"] = Pr.FrontSize;
    Rec["configs_per_sec"] = Pr.ConfigsPerSec;
    Rec["eta_seconds"] = Pr.EtaSeconds;
    Rec["running"] = true;
    std::function<void(const Json &)> Pub;
    {
      std::lock_guard<std::mutex> Lock(ProgressM);
      LatestProgress = Rec;
      SweepRunning = true;
      Pub = ProgressPublisher;
    }
    if (Opts.OnSweepProgress)
      Opts.OnSweepProgress(Rec);
    if (Pub)
      Pub(Rec);
  };
  dse::DseResult DR = dse::DseEngine(EO).explore(P);
  {
    std::lock_guard<std::mutex> Lock(ProgressM);
    SweepRunning = false;
  }

  Json Sweep = Json::object();
  Sweep["space"] = R.Space;
  Sweep["strategy"] = dse::strategyName(*Strategy);
  Sweep["shard_index"] = static_cast<int64_t>(Shard.Index);
  Sweep["shard_count"] = static_cast<int64_t>(Shard.Count);
  Sweep["explored"] = DR.Stats.Explored;
  Sweep["accepted"] = DR.Stats.Accepted;
  Sweep["estimated"] = DR.Stats.Estimated;
  Sweep["low_fidelity_estimates"] = DR.Stats.LowFidelityEstimates;
  Sweep["pruned"] = DR.Stats.Pruned;
  Sweep["exact_top_rung"] = R.ExactTopRung;
  Sweep["exact_estimates"] = DR.Stats.ExactEstimates;
  Sweep["pareto_points"] = DR.Front.size();
  Sweep["accepted_pareto_points"] = DR.AcceptedFront.size();
  Sweep["threads"] = DR.Stats.Threads;
  Sweep["seconds"] = DR.Stats.Seconds;
  Sweep["configs_per_sec"] = DR.Stats.configsPerSecond();
  Sweep["verdict_cache_hits"] = DR.Stats.VerdictCacheHits;
  Sweep["estimate_cache_hits"] = DR.Stats.EstimateCacheHits;
  Sweep["front"] = dse::indicesToJson(DR.Front);
  Sweep["accepted_front"] = dse::indicesToJson(DR.AcceptedFront);
  auto ObjOf = [&](size_t I) -> const dse::Objectives & {
    return DR.Points[I].Obj;
  };
  Sweep["front_hash"] = dse::hashString(dse::frontHash(DR.Front, ObjOf));
  // Sharded sweeps ship the partial front's points so a client can union
  // shards into the single-process membership (see dahlia-dse-merge).
  // Streamed sweeps always ship them: they are the incremental
  // front_point records of the chunked response (ResponseStream splits
  // them back out of the summary).
  if (!Shard.isWhole() || R.Stream)
    Sweep["front_points"] =
        dse::frontPointsToJson(dse::collectFrontPoints(DR));
  Out.Sweep = std::move(Sweep);
  Out.Ok = true;
  return Out;
}

Response CompileService::cacheExportOp(const Request &R) {
  Response Out;
  Out.Kind = Op::CacheExport;
  if (!Cache) {
    Out.Errors.push_back(Error(
        ErrorKind::Internal, "cache-export: memoization is disabled"));
    return Out;
  }

  // An optional "i/N" shard selects the key-residue slice, so a cache too
  // large for one protocol line ships in N bounded pieces (keys are
  // StableHash outputs, so residues are evenly spread).
  dse::ShardSpec Slice;
  if (!R.Shard.empty()) {
    std::optional<dse::ShardSpec> S = dse::parseShard(R.Shard);
    if (!S) {
      Out.Errors.push_back(Error(
          ErrorKind::Internal,
          "malformed cache slice '" + R.Shard + "' (expected \"i/N\")"));
      return Out;
    }
    Slice = *S;
  }
  auto InSlice = [&](uint64_t Key) {
    return Slice.isWhole() || Key % Slice.Count == Slice.Index;
  };

  std::vector<std::pair<uint64_t, bool>> Verdicts;
  for (auto &Entry : Cache->snapshotVerdicts())
    if (InSlice(Entry.first))
      Verdicts.push_back(std::move(Entry));
  std::vector<std::pair<uint64_t, hlsim::Estimate>> Estimates;
  for (auto &Entry : Cache->snapshotEstimates())
    if (InSlice(Entry.first))
      Estimates.push_back(std::move(Entry));

  Out.Cache = cacheToJson(Verdicts, Estimates);
  Out.Ok = true;
  static metrics::Counter &Exports = metrics::counter("service.cache_exports");
  Exports.inc();
  return Out;
}

Response CompileService::cacheImportOp(const Request &R) {
  Response Out;
  Out.Kind = Op::CacheImport;
  if (!Cache) {
    Out.Errors.push_back(Error(
        ErrorKind::Internal, "cache-import: memoization is disabled"));
    return Out;
  }

  std::vector<std::pair<uint64_t, bool>> Verdicts;
  std::vector<std::pair<uint64_t, hlsim::Estimate>> Estimates;
  std::string Err;
  if (!cacheFromJson(R.CachePayload, Verdicts, Estimates, &Err)) {
    Out.Errors.push_back(
        Error(ErrorKind::Internal, "cache-import: " + Err));
    return Out;
  }
  for (const auto &[Key, Accepted] : Verdicts)
    Cache->insertVerdict(Key, Accepted);
  for (const auto &[Key, Est] : Estimates)
    Cache->insertEstimate(Key, Est);

  Json Summary = Json::object();
  Summary["imported_verdicts"] = Verdicts.size();
  Summary["imported_estimates"] = Estimates.size();
  Summary["verdicts"] = Cache->verdictCount();
  Summary["estimates"] = Cache->estimateCount();
  Out.Cache = std::move(Summary);
  Out.Ok = true;
  static metrics::Counter &Imports = metrics::counter("service.cache_imports");
  Imports.inc();
  return Out;
}

void CompileService::setProgressPublisher(
    std::function<void(const Json &)> Pub) {
  std::lock_guard<std::mutex> Lock(ProgressM);
  ProgressPublisher = std::move(Pub);
}

Json CompileService::progressSnapshotJson() const {
  std::lock_guard<std::mutex> Lock(ProgressM);
  if (!LatestProgress.isObject()) {
    Json Idle = Json::object();
    Idle["running"] = false;
    Idle["phase"] = "idle";
    Idle["done"] = 0;
    Idle["total"] = 0;
    Idle["front_size"] = 0;
    Idle["configs_per_sec"] = 0.0;
    Idle["eta_seconds"] = 0.0;
    return Idle;
  }
  Json Snap = LatestProgress;
  Snap["running"] = SweepRunning;
  return Snap;
}

//===----------------------------------------------------------------------===//
// Batching
//===----------------------------------------------------------------------===//

std::vector<CompileService::BatchEntry>
CompileService::processBatchEx(const std::vector<std::string> &Lines) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<BatchEntry> Entries(Lines.size());

  // Decode serially (cheap), producing malformed-line responses inline.
  size_t MalformedHere = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string Err;
    Entries[I].Req = Request::fromJson(Lines[I], &Err);
    if (!Entries[I].Req) {
      ++MalformedHere;
      Response &Bad = Entries[I].Resp;
      // Salvage the id when the line was at least valid JSON.
      if (std::optional<Json> J = Json::parse(Lines[I]))
        Bad.Id = J->at("id").asInt();
      Bad.Ok = false;
      Bad.Errors.push_back(
          Error(ErrorKind::Internal, "malformed request: " + Err));
    }
  }

  // Session-establishing requests run first, serially and in order, so
  // later requests of the same epoch can address the session. Sweeps run
  // serially too: each one already saturates the machine with its own
  // worker pool, and nesting pools inside the epoch pool would
  // oversubscribe threads quadratically.
  std::vector<size_t> ParallelIdx;
  for (size_t I = 0; I != Lines.size(); ++I) {
    if (!Entries[I].Req)
      continue;
    const Request &R = *Entries[I].Req;
    if ((!R.Session.empty() && !R.Source.empty()) || R.Kind == Op::DseSweep)
      Entries[I].Resp = handle(R);
    else
      ParallelIdx.push_back(I);
  }

  unsigned Threads = dse::resolveThreadCount(Opts.Threads);
  workStealingFor(ParallelIdx.size(), Threads, /*Grain=*/1,
                  [&](unsigned, size_t B, size_t E) {
                    for (size_t I = B; I != E; ++I)
                      Entries[ParallelIdx[I]].Resp =
                          handle(*Entries[ParallelIdx[I]].Req);
                  });

  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.Epochs;
    Stats.Malformed += MalformedHere;
    Stats.BusySeconds += secondsSince(Start);
  }
  return Entries;
}

std::vector<Response>
CompileService::processBatch(const std::vector<std::string> &Lines) {
  std::vector<Response> Responses;
  Responses.reserve(Lines.size());
  for (BatchEntry &E : processBatchEx(Lines))
    Responses.push_back(std::move(E.Resp));
  return Responses;
}

void CompileService::serveStream(std::istream &In, std::ostream &Out) {
  std::vector<std::string> Batch;
  auto Flush = [&] {
    if (Batch.empty())
      return;
    for (BatchEntry &E : processBatchEx(Batch)) {
      if (E.Req && ResponseStream::wantsStream(*E.Req, E.Resp)) {
        // Chunked rendering; over a blocking stream the lines simply go
        // out back to back (the pull model matters on the TCP server,
        // where the write buffer is bounded).
        ResponseStream S(std::move(E.Resp));
        while (std::optional<std::string> Line = S.next())
          Out << *Line << '\n';
      } else {
        Out << E.Resp.toJson().dump() << '\n';
      }
    }
    Out.flush();
    Batch.clear();
  };

  std::string Line;
  while (std::getline(In, Line)) {
    // Strip a trailing CR so TCP clients may send CRLF.
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty()) { // Blank line: explicit epoch flush.
      Flush();
      continue;
    }
    Batch.push_back(Line);
    if (Batch.size() >= Opts.MaxBatch)
      Flush();
  }
  Flush();
}
