//===- Protocol.cpp - Compile service wire protocol -------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace dahlia;
using namespace dahlia::service;

namespace {

/// The one spelling of each op on the wire.
constexpr std::pair<Op, const char *> OpNames[] = {
    {Op::Check, "check"},
    {Op::Estimate, "estimate"},
    {Op::Lower, "lower"},
    {Op::Simulate, "simulate"},
    {Op::DseSweep, "dse-sweep"},
    {Op::Metrics, "metrics"},
    {Op::Watch, "watch"},
    {Op::CacheExport, "cache-export"},
    {Op::CacheImport, "cache-import"},
};

} // namespace

const char *dahlia::service::opName(Op O) {
  for (const auto &[K, Name] : OpNames)
    if (K == O)
      return Name;
  return "?";
}

std::optional<Op> dahlia::service::opFromName(std::string_view Name) {
  for (const auto &[K, KName] : OpNames)
    if (Name == KName)
      return K;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Request
//===----------------------------------------------------------------------===//

std::optional<Request> Request::fromJson(const std::string &Line,
                                         std::string *Err) {
  std::optional<Json> J = Json::parse(Line, Err);
  if (!J)
    return std::nullopt;
  if (!J->isObject()) {
    if (Err)
      *Err = "request must be a JSON object";
    return std::nullopt;
  }

  Request R;
  R.Id = J->at("id").asInt();

  const std::string &OpStr = J->at("op").asString();
  // check is the default op.
  std::optional<Op> Kind = OpStr.empty() ? Op::Check : opFromName(OpStr);
  if (!Kind) {
    if (Err)
      *Err = "unknown op '" + OpStr + "'";
    return std::nullopt;
  }
  R.Kind = *Kind;

  R.Source = J->at("source").asString();
  R.Session = J->at("session").asString();
  R.Space = J->at("space").asString();
  R.Strategy = J->at("strategy").asString();
  R.Shard = J->at("shard").asString();
  R.ExactTopRung = J->at("exact").asBool();
  R.Stream = J->at("stream").asBool();
  int64_t Limit = J->at("limit").asInt();
  int64_t Threads = J->at("threads").asInt();
  if (Limit < 0 || Threads < 0 || Threads > 4096) {
    if (Err)
      *Err = "'limit'/'threads' out of range";
    return std::nullopt;
  }
  R.Limit = static_cast<size_t>(Limit);
  R.Threads = static_cast<unsigned>(Threads);
  int64_t TraceId = J->at("trace_id").asInt();
  if (TraceId < 0) {
    if (Err)
      *Err = "'trace_id' out of range";
    return std::nullopt;
  }
  R.TraceId = static_cast<uint64_t>(TraceId);
  double IntervalMs = J->at("interval_ms").asDouble();
  int64_t Count = J->at("count").asInt();
  if (IntervalMs < 0 || Count < 0 || Count > (1 << 20)) {
    if (Err)
      *Err = "'interval_ms'/'count' out of range";
    return std::nullopt;
  }
  R.WatchIntervalMs = IntervalMs;
  R.WatchCount = static_cast<uint64_t>(Count);

  if (J->contains("rewrite")) {
    const Json &RwJ = J->at("rewrite");
    if (!RwJ.isObject()) {
      if (Err)
        *Err = "rewrite must be an object";
      return std::nullopt;
    }
    Rewrite Rw;
    for (const auto &[Mem, Factors] : RwJ.at("banks").asObject()) {
      std::vector<int64_t> F;
      for (const Json &B : Factors.asArray())
        F.push_back(B.asInt());
      Rw.Banks[Mem] = std::move(F);
    }
    for (const auto &[Iter, Factor] : RwJ.at("unrolls").asObject())
      Rw.Unrolls[Iter] = Factor.asInt();
    R.Rw = std::move(Rw);
  }

  if (R.Kind == Op::CacheImport) {
    if (!J->at("cache").isObject()) {
      if (Err)
        *Err = "cache-import requires a 'cache' object";
      return std::nullopt;
    }
    R.CachePayload = J->at("cache");
  }

  if (R.Kind == Op::DseSweep) {
    if (R.Space.empty()) {
      if (Err)
        *Err = "dse-sweep requires a 'space'";
      return std::nullopt;
    }
  } else if (R.Kind == Op::Metrics || R.Kind == Op::Watch ||
             R.Kind == Op::CacheExport || R.Kind == Op::CacheImport) {
    // Registry scrapes, progress watches, and cache shipping need no
    // source.
  } else if (!R.Source.empty() && R.Rw) {
    // Ambiguous: would the rewrite apply to this source or not? Make the
    // client pick one (establish with source, then rewrite by session).
    if (Err)
      *Err = "request cannot carry both 'source' and 'rewrite'";
    return std::nullopt;
  } else if (R.Source.empty() && !(R.Rw && !R.Session.empty())) {
    if (Err)
      *Err = "request requires 'source' (or 'session' + 'rewrite')";
    return std::nullopt;
  }
  return R;
}

Json Request::toJson() const {
  Json J = Json::object();
  J["id"] = Id;
  J["op"] = opName(Kind);
  if (!Source.empty())
    J["source"] = Source;
  if (!Session.empty())
    J["session"] = Session;
  if (Rw) {
    Json RwJ = Json::object();
    Json BanksJ = Json::object();
    for (const auto &[Mem, Factors] : Rw->Banks) {
      Json Arr = Json::array();
      for (int64_t F : Factors)
        Arr.push_back(F);
      BanksJ[Mem] = std::move(Arr);
    }
    Json UnrollsJ = Json::object();
    for (const auto &[Iter, Factor] : Rw->Unrolls)
      UnrollsJ[Iter] = Factor;
    RwJ["banks"] = std::move(BanksJ);
    RwJ["unrolls"] = std::move(UnrollsJ);
    J["rewrite"] = std::move(RwJ);
  }
  if (Kind == Op::DseSweep) {
    J["space"] = Space;
    if (Limit)
      J["limit"] = Limit;
    if (Threads)
      J["threads"] = Threads;
    if (!Strategy.empty())
      J["strategy"] = Strategy;
    if (!Shard.empty())
      J["shard"] = Shard;
    if (ExactTopRung)
      J["exact"] = true;
  }
  if (Kind == Op::Watch) {
    if (WatchIntervalMs > 0)
      J["interval_ms"] = WatchIntervalMs;
    if (WatchCount)
      J["count"] = WatchCount;
  }
  if (Kind == Op::CacheExport && !Shard.empty())
    J["shard"] = Shard;
  if (Kind == Op::CacheImport)
    J["cache"] = CachePayload;
  if (Stream)
    J["stream"] = true;
  if (TraceId)
    J["trace_id"] = TraceId;
  return J;
}

//===----------------------------------------------------------------------===//
// Response
//===----------------------------------------------------------------------===//

Json Response::toJson() const {
  Json J = Json::object();
  J["id"] = Id;
  J["op"] = opName(Kind);
  J["ok"] = Ok;
  J["latency_ms"] = LatencyMs;
  if (Cached)
    J["cached"] = true;
  if (ParseReused)
    J["parse_reused"] = true;
  if (!Errors.empty()) {
    Json Arr = Json::array();
    for (const Error &E : Errors)
      Arr.push_back(service::toJson(E));
    J["errors"] = std::move(Arr);
  }
  if (Est)
    J["estimate"] = service::toJson(*Est);
  if (Sim)
    J["sim"] = service::toJson(*Sim);
  if (!Lowered.empty())
    J["lowered"] = Lowered;
  if (Kind == Op::DseSweep && Sweep.isObject())
    J["sweep"] = Sweep;
  if (Kind == Op::Metrics && Metrics.isObject())
    J["metrics"] = Metrics;
  if (Kind == Op::Watch && Watch.isObject())
    J["watch"] = Watch;
  if ((Kind == Op::CacheExport || Kind == Op::CacheImport) &&
      Cache.isObject())
    J["cache"] = Cache;
  if (TraceId)
    J["trace_id"] = TraceId;
  return J;
}

namespace {

/// Digs a human-readable message out of a JSON payload that is not a
/// well-formed protocol response: the server's own words beat a generic
/// "unparseable" (the error-shape contract of docs/protocol.md).
std::string serverMessageIn(const Json &J) {
  if (!J.at("errors").asArray().empty()) {
    const Json &First = J.at("errors").asArray().front();
    if (First.isString())
      return First.asString();
    if (!First.at("message").asString().empty())
      return First.at("message").asString();
  }
  if (!J.at("message").asString().empty())
    return J.at("message").asString();
  if (J.at("error").isString() && !J.at("error").asString().empty())
    return J.at("error").asString();
  if (!J.at("error").at("message").asString().empty())
    return J.at("error").at("message").asString();
  return {};
}

} // namespace

Response Response::fromJson(const Json &J) {
  Response R;
  R.Id = J.at("id").asInt();
  if (!J.isObject() || !J.contains("id") || !J.contains("op") ||
      !J.contains("ok")) {
    // Valid JSON, but not a protocol response. Surface whatever message
    // the payload carries instead of swallowing it.
    std::string Msg = serverMessageIn(J);
    R.Errors.push_back(Error(
        ErrorKind::Internal,
        Msg.empty() ? "malformed response: JSON lacks id/op/ok fields"
                    : "server error: " + Msg));
    return R;
  }
  R.Kind = opFromName(J.at("op").asString()).value_or(Op::Check);
  R.Ok = J.at("ok").asBool();
  R.Cached = J.at("cached").asBool();
  R.ParseReused = J.at("parse_reused").asBool();
  R.LatencyMs = J.at("latency_ms").asDouble();
  for (const Json &E : J.at("errors").asArray())
    R.Errors.push_back(errorFromJson(E));
  if (J.contains("estimate"))
    R.Est = estimateFromJson(J.at("estimate"));
  if (J.contains("sim"))
    R.Sim = simFromJson(J.at("sim"));
  R.Lowered = J.at("lowered").asString();
  if (J.contains("sweep"))
    R.Sweep = J.at("sweep");
  if (J.contains("metrics"))
    R.Metrics = J.at("metrics");
  if (J.contains("watch"))
    R.Watch = J.at("watch");
  if (J.contains("cache"))
    R.Cache = J.at("cache");
  int64_t TraceId = J.at("trace_id").asInt();
  if (TraceId > 0)
    R.TraceId = static_cast<uint64_t>(TraceId);
  return R;
}

//===----------------------------------------------------------------------===//
// ResponseStream
//===----------------------------------------------------------------------===//

Json dahlia::service::jsonWithoutKey(const Json &J, const std::string &Key) {
  Json::Object O = J.asObject();
  O.erase(Key);
  return Json(std::move(O));
}

bool dahlia::service::ResponseStream::wantsStream(const Request &R,
                                                  const Response &Resp) {
  return R.Stream && Resp.Ok &&
         (R.Kind == Op::DseSweep || R.Kind == Op::Simulate);
}

ResponseStream::ResponseStream(Response Resp) : R(std::move(Resp)) {
  // The bulky array moves out of the retained response: a stream queued
  // behind a slow connection holds its payload once, not twice, and the
  // terminal line serializes cheaply.
  if (R.Kind == Op::DseSweep && R.Ok) {
    ChunkKey = "front_point";
    Chunks = R.Sweep.at("front_points").asArray();
    R.Sweep = jsonWithoutKey(R.Sweep, "front_points");
  } else if (R.Kind == Op::Simulate && R.Ok && R.Sim) {
    ChunkKey = "nest";
    Chunks = service::toJson(*R.Sim).at("nests").asArray();
    R.Sim->Nests.clear();
  }
  // Anything else renders as the plain response: an empty chunk list with
  // an empty ChunkKey degenerates to header-less single-line output.
  if (ChunkKey.empty())
    Idx = Chunks.size() + 1; // Jump straight to the terminal line.
}

std::optional<std::string> ResponseStream::next() {
  if (done())
    return std::nullopt;

  if (Idx == 0) { // Header.
    ++Idx;
    Json H = Json::object();
    H["id"] = R.Id;
    H["op"] = opName(R.Kind);
    H["stream"] = true;
    return H.dump();
  }

  if (Idx <= Chunks.size()) { // One payload record per line.
    Json C = Json::object();
    C["id"] = R.Id;
    C[ChunkKey] = Chunks[Idx - 1];
    ++Idx;
    return C.dump();
  }

  // Terminal summary: the batch response minus the streamed array
  // (already detached in the constructor; the sim object still carries
  // an empty "nests" key to drop). The plain (non-streaming) degenerate
  // case lands here directly and emits the unmodified response.
  ++Idx;
  Json J = R.toJson();
  if (ChunkKey.empty())
    return J.dump();
  if (J.contains("sim"))
    J["sim"] = jsonWithoutKey(J.at("sim"), "nests");
  J["stream_end"] = true;
  return J.dump();
}

//===----------------------------------------------------------------------===//
// Shared serializers
//===----------------------------------------------------------------------===//

Json dahlia::service::toJson(const Error &E) {
  Json J = Json::object();
  J["kind"] = errorKindName(E.kind());
  J["message"] = E.message();
  J["line"] = static_cast<int64_t>(E.loc().Line);
  J["col"] = static_cast<int64_t>(E.loc().Col);
  return J;
}

Error dahlia::service::errorFromJson(const Json &E) {
  return Error(errorKindFromName(E.at("kind").asString())
                   .value_or(ErrorKind::Internal),
               E.at("message").asString(),
               SourceLoc(static_cast<uint32_t>(E.at("line").asInt()),
                         static_cast<uint32_t>(E.at("col").asInt())));
}

Json dahlia::service::toJson(const driver::DiagnosticEngine &D) {
  Json Arr = Json::array();
  for (const Error &E : D.errors())
    Arr.push_back(toJson(E));
  return Arr;
}

Json dahlia::service::toJson(const hlsim::Estimate &E) {
  Json J = Json::object();
  J["cycles"] = E.Cycles;
  J["runtime_ms"] = E.RuntimeMs;
  J["ii"] = E.II;
  J["lut"] = E.Lut;
  J["ff"] = E.Ff;
  J["bram"] = E.Bram;
  J["dsp"] = E.Dsp;
  J["lutmem"] = E.LutMem;
  J["incorrect"] = E.Incorrect;
  J["predictable"] = E.Predictable;
  return J;
}

hlsim::Estimate dahlia::service::estimateFromJson(const Json &E) {
  hlsim::Estimate Est;
  Est.Cycles = E.at("cycles").asDouble();
  Est.RuntimeMs = E.at("runtime_ms").asDouble();
  Est.II = E.at("ii").asDouble();
  Est.Lut = E.at("lut").asInt();
  Est.Ff = E.at("ff").asInt();
  Est.Bram = E.at("bram").asInt();
  Est.Dsp = E.at("dsp").asInt();
  Est.LutMem = E.at("lutmem").asInt();
  Est.Incorrect = E.at("incorrect").asBool();
  Est.Predictable = E.at("predictable").asBool();
  return Est;
}

Json dahlia::service::toJson(const cyclesim::SimResult &S) {
  Json J = Json::object();
  J["cycles"] = S.Cycles;
  J["ii"] = S.II;
  J["truncated"] = S.Truncated;
  J["walked_groups"] = S.WalkedGroups;
  Json Nests = Json::array();
  for (const cyclesim::NestSim &N : S.Nests) {
    Json NJ = Json::object();
    NJ["ii"] = N.II;
    NJ["effective_ii"] = N.EffectiveII;
    NJ["groups"] = N.Groups;
    NJ["cycles"] = N.Cycles;
    NJ["walked_groups"] = N.WalkedGroups;
    NJ["conflict_groups"] = N.ConflictGroups;
    NJ["stall_cycles"] = N.StallCycles;
    NJ["max_port_pressure"] = N.MaxPortPressure;
    NJ["period_complete"] = N.PeriodComplete;
    Nests.push_back(std::move(NJ));
  }
  J["nests"] = std::move(Nests);
  return J;
}

cyclesim::SimResult dahlia::service::simFromJson(const Json &S) {
  cyclesim::SimResult Sim;
  Sim.Cycles = S.at("cycles").asDouble();
  Sim.II = S.at("ii").asDouble();
  Sim.Truncated = S.at("truncated").asBool();
  Sim.WalkedGroups = static_cast<uint64_t>(S.at("walked_groups").asInt());
  for (const Json &N : S.at("nests").asArray()) {
    cyclesim::NestSim NS;
    NS.II = N.at("ii").asDouble();
    NS.EffectiveII = N.at("effective_ii").asDouble();
    NS.Groups = N.at("groups").asDouble();
    NS.Cycles = N.at("cycles").asDouble();
    NS.WalkedGroups = static_cast<uint64_t>(N.at("walked_groups").asInt());
    NS.ConflictGroups = static_cast<uint64_t>(N.at("conflict_groups").asInt());
    NS.StallCycles = static_cast<uint64_t>(N.at("stall_cycles").asInt());
    NS.MaxPortPressure = N.at("max_port_pressure").asInt();
    NS.PeriodComplete = N.at("period_complete").asBool();
    Sim.Nests.push_back(NS);
  }
  return Sim;
}

namespace {

std::string hexKey(uint64_t K) {
  char Buf[2 + 16 + 1];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(K));
  return Buf;
}

std::optional<uint64_t> parseHexKey(const std::string &S) {
  if (S.size() < 3 || S[0] != '0' || (S[1] != 'x' && S[1] != 'X'))
    return std::nullopt;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str() + 2, &End, 16);
  if (errno != 0 || End == S.c_str() + 2 || *End != '\0')
    return std::nullopt;
  return static_cast<uint64_t>(V);
}

} // namespace

Json dahlia::service::cacheToJson(
    const std::vector<std::pair<uint64_t, bool>> &Verdicts,
    const std::vector<std::pair<uint64_t, hlsim::Estimate>> &Estimates) {
  Json J = Json::object();
  Json VArr = Json::array();
  for (const auto &[Key, Accepted] : Verdicts) {
    Json E = Json::object();
    E["key"] = hexKey(Key);
    E["accepted"] = Accepted;
    VArr.push_back(std::move(E));
  }
  Json EArr = Json::array();
  for (const auto &[Key, Est] : Estimates) {
    Json E = Json::object();
    E["key"] = hexKey(Key);
    E["estimate"] = toJson(Est);
    EArr.push_back(std::move(E));
  }
  J["verdicts"] = std::move(VArr);
  J["estimates"] = std::move(EArr);
  return J;
}

bool dahlia::service::cacheFromJson(
    const Json &J, std::vector<std::pair<uint64_t, bool>> &Verdicts,
    std::vector<std::pair<uint64_t, hlsim::Estimate>> &Estimates,
    std::string *Err) {
  if (!J.isObject()) {
    if (Err)
      *Err = "cache payload must be an object";
    return false;
  }
  // A mistyped section must fail loudly: asArray() on a non-array decays
  // to empty, which would turn a garbled payload into a silent no-op.
  for (const char *Key : {"verdicts", "estimates"})
    if (J.contains(Key) && !J.at(Key).isArray()) {
      if (Err)
        *Err = std::string("cache payload '") + Key + "' must be an array";
      return false;
    }
  for (const Json &E : J.at("verdicts").asArray()) {
    std::optional<uint64_t> Key = parseHexKey(E.at("key").asString());
    if (!Key) {
      if (Err)
        *Err = "cache verdict entry with malformed key: " +
               E.at("key").asString();
      return false;
    }
    Verdicts.emplace_back(*Key, E.at("accepted").asBool());
  }
  for (const Json &E : J.at("estimates").asArray()) {
    std::optional<uint64_t> Key = parseHexKey(E.at("key").asString());
    if (!Key || !E.at("estimate").isObject()) {
      if (Err)
        *Err = "cache estimate entry with malformed key/estimate";
      return false;
    }
    Estimates.emplace_back(*Key, estimateFromJson(E.at("estimate")));
  }
  return true;
}

Json dahlia::service::timingsToJson(const driver::CompileResult &R) {
  Json J = Json::object();
  for (const driver::StageTiming &T : R.Timings)
    J[driver::stageName(T.S)] = T.Seconds * 1e3;
  J["total"] = R.totalSeconds() * 1e3;
  return J;
}
