//===- ServiceTest.cpp - Compile service and protocol tests -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The service contract: the JSON wire format round-trips; batches answer
// in request order with per-request latencies; the memo cache serves
// repeats (including rejections, with their diagnostics); sessions reuse
// the parse across bank/unroll rewrites and agree with full re-compiles;
// dse-sweep requests match the engine run directly; and a service restart
// over a cache directory starts warm.
//
// The concurrent layer's contract (TcpServer): eight parallel TCP clients
// mixing check/estimate/dse-sweep each get their own responses intact;
// streamed dse-sweep/simulate responses reassemble byte-identically to
// the batch form; and a slow reader's buffered output is bounded by the
// back-pressure cap without stalling the other clients.
//
//===----------------------------------------------------------------------===//

#include "service/ServiceClient.h"

#include "driver/CompilerPipeline.h"
#include "dse/SearchStrategy.h"
#include "fuzz/ProtoFuzz.h"
#include "kernels/Kernels.h"
#include "service/TcpServer.h"
#include "support/Metrics.h"
#include "support/Socket.h"
#include "support/StableHash.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <thread>

using namespace dahlia;
using namespace dahlia::service;

namespace fs = std::filesystem;

namespace {

/// Polls \p Done until it holds, or until a generous deadline passes that
/// only a wedged server reaches. Tests wait on the state they need, never
/// on elapsed time. Returns whether \p Done held.
template <typename Pred> bool waitUntil(Pred Done) {
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!Done()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

const char *AcceptedSrc = "decl A: float[8 bank 4];\n"
                          "for (let i = 0..8) unroll 4 { A[i] := 1.0; }\n";
const char *RejectedSrc = "decl A: float[10];\n"
                          "let x = A[0]; A[1] := 1.0;\n";

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(Json, ParseDumpRoundTrip) {
  const char *Text =
      R"({"a":[1,2.5,true,null,"x\n\"y\""],"b":{"c":-7},"d":""})";
  std::string Err;
  auto J = Json::parse(Text, &Err);
  ASSERT_TRUE(J.has_value()) << Err;
  EXPECT_EQ(J->at("a").size(), 5u);
  EXPECT_EQ(J->at("a").asArray()[0].asInt(), 1);
  EXPECT_DOUBLE_EQ(J->at("a").asArray()[1].asDouble(), 2.5);
  EXPECT_TRUE(J->at("a").asArray()[2].asBool());
  EXPECT_TRUE(J->at("a").asArray()[3].isNull());
  EXPECT_EQ(J->at("a").asArray()[4].asString(), "x\n\"y\"");
  EXPECT_EQ(J->at("b").at("c").asInt(), -7);

  // dump -> parse -> dump is a fixed point (keys are sorted).
  std::string Dumped = J->dump();
  auto Again = Json::parse(Dumped, &Err);
  ASSERT_TRUE(Again.has_value()) << Err;
  EXPECT_EQ(Again->dump(), Dumped);
}

TEST(Json, RejectsMalformedInput) {
  for (const char *Bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterm",
                          "{\"a\":1}trailing", "nan", "01x"})
    EXPECT_FALSE(Json::parse(Bad).has_value()) << Bad;
}

TEST(Json, IntegersRoundTripExactly) {
  int64_t Big = 9007199254740993; // 2^53 + 1: not representable as double.
  Json J = Json::object();
  J["v"] = Big;
  auto Back = Json::parse(J.dump());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->at("v").asInt(), Big);
}

/// Dump of 200k doubles drawn from a fixed-seed generator: raw 64-bit
/// patterns (every exponent, subnormals, NaNs and infinities), then short
/// decimals (a 7-digit mantissa over a power of ten).
std::string seededDoublesDump() {
  static const double Pow10[] = {1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8};
  std::mt19937_64 Rng(20200615);
  Json Arr = Json::array();
  for (int I = 0; I != 100000; ++I) {
    uint64_t Bits = Rng();
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    Arr.push_back(D);
  }
  for (int I = 0; I != 100000; ++I) {
    double Mantissa = static_cast<double>(Rng() % 10000000);
    Arr.push_back(Mantissa / Pow10[Rng() % 9]);
  }
  return Arr.dump();
}

TEST(Json, DumpTextIsPinned) {
  // The wire text of numbers and strings, recorded from the
  // snprintf/strtod serializer this one replaced: any byte that moves
  // changes every cache payload and reference file. A double prints as
  // the shortest %.{P}g that round-trips, so 6180 and 1200000 take the
  // exponent form a shortest-digits printer would not.
  const std::pair<double, const char *> Doubles[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1e21, "1e+21"},
      {1e-7, "1e-07"},
      {0.1 + 0.2, "0.30000000000000004"},
      {5e-324, "5e-324"},
      {2.2250738585072014e-308, "2.2250738585072014e-308"},
      {1.7976931348623157e+308, "1.7976931348623157e+308"},
      {6180.0, "6.18e+03"},
      {1200000.0, "1.2e+06"},
      {0.0001, "0.0001"},
      {1.0 / 3.0, "0.3333333333333333"},
      {std::numeric_limits<double>::infinity(), "null"},
      {std::numeric_limits<double>::quiet_NaN(), "null"},
  };
  for (const auto &[D, Text] : Doubles)
    EXPECT_EQ(Json(D).dump(), Text) << Text;
  EXPECT_EQ(Json(std::numeric_limits<int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<int64_t>::max()).dump(),
            "9223372036854775807");

  std::string Controls;
  for (int C = 0; C != 0x20; ++C)
    Controls += static_cast<char>(C);
  Controls += "\"\\/\x7f";
  EXPECT_EQ(Json(Controls).dump(),
            R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n)"
            R"(\u000b\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015)"
            R"(\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e)"
            R"(\u001f\"\\/)"
            "\x7f\"");

  std::ifstream In(DAHLIA_PERFBENCH_REFERENCE);
  ASSERT_TRUE(In) << DAHLIA_PERFBENCH_REFERENCE;
  std::stringstream Text;
  Text << In.rdbuf();
  std::optional<Json> Ref = Json::parse(Text.str());
  ASSERT_TRUE(Ref.has_value());
  std::string RefDump = Ref->dump();
  EXPECT_EQ(RefDump.size(), 366666u);
  EXPECT_EQ(stableHash(RefDump), 0xc164b33a6ce1b39bULL);

  std::string Seeded = seededDoublesDump();
  EXPECT_EQ(Seeded.size(), 3252190u);
  EXPECT_EQ(stableHash(Seeded), 0xb3c0f9c172835d9bULL);
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrip) {
  Request R;
  R.Id = 42;
  R.Kind = Op::Check;
  R.Session = "s1";
  Rewrite Rw;
  Rw.Banks["A"] = {2, 4};
  Rw.Unrolls["i"] = 4;
  R.Rw = Rw;

  std::string Err;
  auto Back = Request::fromJson(R.toJson().dump(), &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(Back->Id, 42);
  EXPECT_EQ(Back->Session, "s1");
  ASSERT_TRUE(Back->Rw.has_value());
  EXPECT_EQ(Back->Rw->Banks.at("A"), (std::vector<int64_t>{2, 4}));
  EXPECT_EQ(Back->Rw->Unrolls.at("i"), 4);
}

TEST(Protocol, RejectsInvalidRequests) {
  std::string Err;
  EXPECT_FALSE(Request::fromJson("not json", &Err).has_value());
  EXPECT_FALSE(Request::fromJson("[1,2]", &Err).has_value());
  EXPECT_FALSE(
      Request::fromJson(R"({"id":1,"op":"frobnicate","source":"x"})", &Err)
          .has_value());
  EXPECT_FALSE(Request::fromJson(R"({"id":1,"op":"check"})", &Err)
                   .has_value()); // no source
  EXPECT_FALSE(Request::fromJson(R"({"id":1,"op":"dse-sweep"})", &Err)
                   .has_value()); // no space
  // A thread/limit request outside sane bounds must not reach the worker
  // pool (a negative value would otherwise wrap to a huge unsigned).
  EXPECT_FALSE(
      Request::fromJson(
          R"({"id":1,"op":"dse-sweep","space":"gemm-blocked","threads":-1})",
          &Err)
          .has_value());
  EXPECT_FALSE(
      Request::fromJson(
          R"({"id":1,"op":"dse-sweep","space":"gemm-blocked","limit":-5})",
          &Err)
          .has_value());
  // source + rewrite is ambiguous; the client must pick one.
  EXPECT_FALSE(
      Request::fromJson(
          R"({"id":1,"op":"check","session":"s","source":"x","rewrite":{}})",
          &Err)
          .has_value());
}

TEST(Protocol, ResponseRoundTrip) {
  // Every field of every op's response survives toJson -> dump ->
  // decodeResponse, and the decoded response re-dumps to the same bytes.
  const Op Ops[] = {Op::Check,    Op::Estimate,    Op::Lower,
                    Op::Simulate, Op::DseSweep,    Op::Metrics,
                    Op::Watch,    Op::CacheExport, Op::CacheImport};
  const ErrorKind Kinds[] = {
      ErrorKind::Lex,    ErrorKind::Parse,  ErrorKind::Type,
      ErrorKind::Affine, ErrorKind::Banking, ErrorKind::Unroll,
      ErrorKind::View,   ErrorKind::Semantics, ErrorKind::Internal};

  hlsim::Estimate Est;
  Est.Cycles = 6180;
  Est.RuntimeMs = 0.1 + 0.2;
  Est.II = 2;
  Est.Lut = 1234;
  Est.Ff = 5678;
  Est.Bram = 9;
  Est.Dsp = 10;
  Est.LutMem = 11;
  Est.Incorrect = true;
  Est.Predictable = false;

  cyclesim::SimResult Sim;
  Sim.Cycles = 1200000;
  Sim.II = 3;
  Sim.Truncated = true;
  Sim.WalkedGroups = 77;
  for (int I = 0; I != 2; ++I) {
    cyclesim::NestSim N;
    N.II = 1 + I;
    N.EffectiveII = 2.5 + I;
    N.Groups = 64 << I;
    N.Cycles = 1.0 / 3.0 + I;
    N.WalkedGroups = 5 + I;
    N.ConflictGroups = 2 + I;
    N.StallCycles = 40 + I;
    N.MaxPortPressure = 4 + I;
    N.PeriodComplete = I == 0;
    Sim.Nests.push_back(N);
  }

  for (Op K : Ops) {
    SCOPED_TRACE(opName(K));
    EXPECT_EQ(opFromName(opName(K)), K);
    Response R;
    R.Id = 9007199254740993; // 2^53 + 1
    R.Kind = K;
    R.Ok = true;
    R.Cached = true;
    R.ParseReused = true;
    R.LatencyMs = 0.0001;
    uint32_t Line = 1;
    for (ErrorKind EK : Kinds) {
      EXPECT_EQ(errorKindFromName(errorKindName(EK)), EK);
      R.Errors.push_back(Error(EK, std::string("bad ") + errorKindName(EK),
                               SourceLoc(Line, Line + 10)));
      ++Line;
    }
    R.Est = Est;
    R.Sim = Sim;
    R.Lowered = "decl A: bit<32>[4];\n";
    R.Sweep = Json::object();
    R.Sweep["front_hash"] = "0x9631c78d9cd7f284";
    R.Sweep["explored"] = 32000;
    R.Metrics = Json::object();
    R.Metrics["counters"]["service.requests"] = 3;
    R.Watch = Json::object();
    R.Watch["progress"] = 0.5;
    R.Cache = Json::object();
    R.Cache["verdicts"] = Json::array();
    R.TraceId = 0xfeedULL;

    std::string Line1 = R.toJson().dump();
    ClientResponse C = decodeResponse(Line1);
    const Response &D = C.R;
    EXPECT_EQ(D.Id, R.Id);
    EXPECT_EQ(D.Kind, K);
    EXPECT_TRUE(D.Ok);
    EXPECT_TRUE(D.Cached);
    EXPECT_TRUE(D.ParseReused);
    EXPECT_EQ(D.LatencyMs, R.LatencyMs);
    ASSERT_EQ(D.Errors.size(), R.Errors.size());
    for (size_t I = 0; I != R.Errors.size(); ++I) {
      EXPECT_EQ(D.Errors[I].kind(), R.Errors[I].kind());
      EXPECT_EQ(D.Errors[I].message(), R.Errors[I].message());
      EXPECT_EQ(D.Errors[I].loc(), R.Errors[I].loc());
    }
    ASSERT_TRUE(D.Est.has_value());
    EXPECT_EQ(D.Est->Cycles, Est.Cycles);
    EXPECT_EQ(D.Est->RuntimeMs, Est.RuntimeMs);
    EXPECT_EQ(D.Est->II, Est.II);
    EXPECT_EQ(D.Est->Lut, Est.Lut);
    EXPECT_EQ(D.Est->Ff, Est.Ff);
    EXPECT_EQ(D.Est->Bram, Est.Bram);
    EXPECT_EQ(D.Est->Dsp, Est.Dsp);
    EXPECT_EQ(D.Est->LutMem, Est.LutMem);
    EXPECT_EQ(D.Est->Incorrect, Est.Incorrect);
    EXPECT_EQ(D.Est->Predictable, Est.Predictable);
    ASSERT_TRUE(D.Sim.has_value());
    EXPECT_EQ(D.Sim->Cycles, Sim.Cycles);
    EXPECT_EQ(D.Sim->II, Sim.II);
    EXPECT_EQ(D.Sim->Truncated, Sim.Truncated);
    EXPECT_EQ(D.Sim->WalkedGroups, Sim.WalkedGroups);
    ASSERT_EQ(D.Sim->Nests.size(), 2u);
    for (size_t I = 0; I != 2; ++I) {
      const cyclesim::NestSim &A = D.Sim->Nests[I], &B = Sim.Nests[I];
      EXPECT_EQ(A.II, B.II);
      EXPECT_EQ(A.EffectiveII, B.EffectiveII);
      EXPECT_EQ(A.Groups, B.Groups);
      EXPECT_EQ(A.Cycles, B.Cycles);
      EXPECT_EQ(A.WalkedGroups, B.WalkedGroups);
      EXPECT_EQ(A.ConflictGroups, B.ConflictGroups);
      EXPECT_EQ(A.StallCycles, B.StallCycles);
      EXPECT_EQ(A.MaxPortPressure, B.MaxPortPressure);
      EXPECT_EQ(A.PeriodComplete, B.PeriodComplete);
    }
    EXPECT_EQ(D.Lowered, R.Lowered);
    // Each op's payload object rides only on that op's responses.
    auto Expect = [&](const Json &Got, const Json &Want, bool Rides) {
      EXPECT_EQ(Got.dump(), Rides ? Want.dump() : "null");
    };
    Expect(D.Sweep, R.Sweep, K == Op::DseSweep);
    Expect(D.Metrics, R.Metrics, K == Op::Metrics);
    Expect(D.Watch, R.Watch, K == Op::Watch);
    Expect(D.Cache, R.Cache, K == Op::CacheExport || K == Op::CacheImport);
    EXPECT_EQ(D.TraceId, R.TraceId);

    EXPECT_EQ(C.Raw.dump(), Line1);
    EXPECT_EQ(D.toJson().dump(), Line1);
  }
}

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

ServiceOptions testOptions() {
  ServiceOptions O;
  O.Threads = 2;
  O.MaxBatch = 8;
  return O; // No cache dir: persistence is tested separately.
}

TEST(Service, CheckEstimateLowerAnswer) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  ClientResponse Ok = C.check(AcceptedSrc);
  EXPECT_TRUE(Ok.R.Ok);
  EXPECT_TRUE(Ok.R.Errors.empty());
  EXPECT_GE(Ok.R.LatencyMs, 0.0);

  ClientResponse Bad = C.check(RejectedSrc);
  EXPECT_FALSE(Bad.R.Ok);
  ASSERT_FALSE(Bad.R.Errors.empty());
  EXPECT_EQ(Bad.R.Errors[0].kind(), ErrorKind::Affine);
  EXPECT_EQ(Bad.R.Errors[0].loc().Line, 2u);

  ClientResponse Est = C.estimate(AcceptedSrc);
  ASSERT_TRUE(Est.R.Ok);
  ASSERT_TRUE(Est.R.Est.has_value());
  EXPECT_GT(Est.R.Est->Cycles, 0.0);
  EXPECT_GT(Est.R.Est->Lut, 0);

  ClientResponse Low = C.lower("decl O: bit<32>[1];\nO[0] := 7;");
  ASSERT_TRUE(Low.R.Ok);
  EXPECT_NE(Low.R.Lowered.find(":="), std::string::npos);

  ClientResponse ParseErr = C.check("let = garbage ;;;");
  EXPECT_FALSE(ParseErr.R.Ok);
  EXPECT_FALSE(ParseErr.R.Errors.empty());
}

TEST(Service, PhysicalBankAccessEstimateKeepsServing) {
  // A well-typed physical-bank access into a 2-D memory: the estimate and
  // simulate requests get answers, and the service keeps answering.
  CompileService Svc(testOptions());
  ServiceClient C(Svc);
  const char *Phys = "decl a: bit<32>[8 bank 2][8 bank 2];\n"
                     "for (let i = 0..8) { a{1}[0] := 1; }\n";
  ClientResponse Est = C.estimate(Phys);
  ASSERT_TRUE(Est.R.Ok);
  ASSERT_TRUE(Est.R.Est.has_value());
  EXPECT_GT(Est.R.Est->Cycles, 0.0);
  Request Sim;
  Sim.Kind = Op::Simulate;
  Sim.Source = Phys;
  ClientResponse Simulated = C.call(Sim);
  ASSERT_TRUE(Simulated.R.Ok);
  ASSERT_TRUE(Simulated.R.Sim.has_value());
  EXPECT_EQ(Simulated.R.Sim->II, 1.0);
  EXPECT_TRUE(C.check(AcceptedSrc).R.Ok);
  EXPECT_TRUE(C.estimate(AcceptedSrc).R.Ok);
}

TEST(Service, EstimateAgreesWithPipeline) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);
  std::string Src = kernels::gemmBlockedDahlia(kernels::GemmBlockedConfig());

  ClientResponse Est = C.estimate(Src);
  ASSERT_TRUE(Est.R.Ok);
  driver::CompileResult Ref = driver::CompilerPipeline().estimate(Src);
  ASSERT_TRUE(Ref.ok());
  EXPECT_DOUBLE_EQ(Est.R.Est->Cycles, Ref.Est->Cycles);
  EXPECT_EQ(Est.R.Est->Lut, Ref.Est->Lut);
}

TEST(Service, MemoCacheServesRepeatsIncludingRejections) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  EXPECT_FALSE(C.check(AcceptedSrc).R.Cached);
  ClientResponse Hit = C.check(AcceptedSrc);
  EXPECT_TRUE(Hit.R.Ok);
  EXPECT_TRUE(Hit.R.Cached);

  ClientResponse Miss = C.check(RejectedSrc);
  EXPECT_FALSE(Miss.R.Cached);
  std::string FirstMsg = Miss.R.Errors.at(0).message();
  ClientResponse RejHit = C.check(RejectedSrc);
  EXPECT_FALSE(RejHit.R.Ok);
  EXPECT_TRUE(RejHit.R.Cached);
  ASSERT_FALSE(RejHit.R.Errors.empty());
  EXPECT_EQ(RejHit.R.Errors.at(0).message(), FirstMsg);

  EXPECT_FALSE(C.estimate(AcceptedSrc).R.Cached); // First estimate computes...
  EXPECT_TRUE(C.estimate(AcceptedSrc).R.Cached);  // ...repeat is served.

  EXPECT_EQ(Svc.stats().CacheHits, 3u);
  EXPECT_GT(Svc.stats().cacheHitRate(), 0.0);
}

TEST(Service, BatchAnswersInRequestOrder) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  std::vector<Request> Batch;
  for (int I = 0; I != 20; ++I) {
    Request R;
    R.Kind = Op::Check;
    R.Source = I % 3 == 0 ? RejectedSrc : AcceptedSrc;
    Batch.push_back(R);
  }
  std::vector<ClientResponse> Rs = C.callBatch(Batch);
  ASSERT_EQ(Rs.size(), 20u);
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(Rs[I].R.Ok, I % 3 != 0) << I;
  EXPECT_EQ(Svc.stats().Requests, 20u);
  EXPECT_GE(Svc.stats().Epochs, 1u);
}

TEST(Service, MalformedLinesGetErrorResponsesNotTeardown) {
  CompileService Svc(testOptions());
  std::vector<Response> Rs = Svc.processBatch({
      R"({"id":7,"op":"check","source":"decl A: float[4]; A[0] := 1.0;"})",
      "garbage",
      R"({"id":9,"op":"nope","source":"x"})",
  });
  ASSERT_EQ(Rs.size(), 3u);
  EXPECT_TRUE(Rs[0].Ok);
  EXPECT_EQ(Rs[0].Id, 7);
  EXPECT_FALSE(Rs[1].Ok);
  EXPECT_FALSE(Rs[2].Ok);
  EXPECT_EQ(Rs[2].Id, 9); // Id salvaged from valid JSON with a bad op.
  EXPECT_EQ(Svc.stats().Malformed, 2u);
}

TEST(Service, SessionRewritesAgreeWithFullRecompiles) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  // Establish the session with the U=4/B=4 variant.
  ASSERT_TRUE(C.check(AcceptedSrc, "s").R.Ok);

  // Sweep bank/unroll combinations through the session and compare each
  // verdict against the pipeline on equivalent full source.
  for (int64_t Bank : {1, 2, 4, 8}) {
    for (int64_t Unroll : {1, 2, 4, 8}) {
      Rewrite Rw;
      Rw.Banks["A"] = {Bank};
      Rw.Unrolls["i"] = Unroll;
      ClientResponse Got = C.recheck("s", Rw);

      std::ostringstream Src;
      Src << "decl A: float[8 bank " << Bank << "];\n"
          << "for (let i = 0..8) unroll " << Unroll
          << " { A[i] := 1.0; }\n";
      bool Want = driver::checksSource(Src.str());
      EXPECT_EQ(Got.R.Ok, Want) << "bank " << Bank << " unroll " << Unroll;
      EXPECT_TRUE(Got.R.ParseReused || Got.R.Cached)
          << "bank " << Bank << " unroll " << Unroll;
    }
  }
  EXPECT_GT(Svc.stats().ParseReuses, 0u);

  // Unknown names surface as errors rather than silent no-ops.
  Rewrite BadMem;
  BadMem.Banks["Z"] = {2};
  EXPECT_FALSE(C.recheck("s", BadMem).R.Ok);
  Rewrite BadIter;
  BadIter.Unrolls["nope"] = 2;
  EXPECT_FALSE(C.recheck("s", BadIter).R.Ok);
  Rewrite BadArity;
  BadArity.Banks["A"] = {2, 2};
  EXPECT_FALSE(C.recheck("s", BadArity).R.Ok);
  EXPECT_FALSE(C.recheck("missing-session", BadMem).R.Ok);
}

TEST(Service, SessionRewriteEstimatesMatchFullSource) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);
  ASSERT_TRUE(C.check(AcceptedSrc, "s").R.Ok);

  Rewrite Rw;
  Rw.Banks["A"] = {2};
  Rw.Unrolls["i"] = 2;
  Request R;
  R.Kind = Op::Estimate;
  R.Session = "s";
  R.Rw = Rw;
  ClientResponse Got = C.call(R);
  ASSERT_TRUE(Got.R.Ok);
  ASSERT_TRUE(Got.R.Est.has_value());

  driver::CompileResult Ref = driver::CompilerPipeline().estimate(
      "decl A: float[8 bank 2];\nfor (let i = 0..8) unroll 2 "
      "{ A[i] := 1.0; }\n");
  ASSERT_TRUE(Ref.ok()) << Ref.firstError();
  EXPECT_DOUBLE_EQ(Got.R.Est->Cycles, Ref.Est->Cycles);
  EXPECT_EQ(Got.R.Est->Lut, Ref.Est->Lut);
}

TEST(Service, SimulateOpReturnsExactEstimateAndBreakdown) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  Request R;
  R.Kind = Op::Simulate;
  R.Source = AcceptedSrc;
  ClientResponse Got = C.call(R);
  ASSERT_TRUE(Got.R.Ok);
  ASSERT_TRUE(Got.R.Est.has_value());
  ASSERT_TRUE(Got.R.Sim.has_value());
  // The op returns the Exact-rung estimate: its cycles are the simulated
  // schedule's, and the per-nest breakdown ships alongside.
  EXPECT_EQ(Got.R.Est->Cycles, Got.R.Sim->Cycles);
  ASSERT_FALSE(Got.R.Sim->Nests.empty());
  EXPECT_GE(Got.R.Sim->Nests[0].Groups, 1.0);

  // Matches the pipeline's Simulate stage on the same source.
  driver::CompileResult Ref = driver::CompilerPipeline().simulate(AcceptedSrc);
  ASSERT_TRUE(Ref.ok()) << Ref.firstError();
  EXPECT_EQ(Got.R.Sim->Cycles, Ref.Sim->Cycles);
  EXPECT_EQ(Got.R.Sim->II, Ref.Sim->II);

  // A repeat serves the Exact estimate from the shared spec-keyed cache.
  ClientResponse Again = C.call(R);
  ASSERT_TRUE(Again.R.Ok);
  EXPECT_TRUE(Again.R.Cached);
  EXPECT_EQ(Again.R.Est->Cycles, Got.R.Est->Cycles);

  // The wire form carries the breakdown.
  Json J = Got.R.toJson();
  ASSERT_TRUE(J.at("sim").isObject());
  EXPECT_EQ(J.at("sim").at("cycles").asDouble(), Got.R.Sim->Cycles);
}

TEST(Service, DseSweepMatchesEngine) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  ClientResponse S = C.dseSweep("gemm-blocked", /*Limit=*/200, /*Threads=*/2);
  ASSERT_TRUE(S.R.Ok);
  EXPECT_EQ(S.R.Sweep.at("explored").asInt(), 200);

  dse::DseProblem P = kernels::gemmBlockedProblem();
  P.Size = 200;
  dse::DseResult Ref = dse::DseEngine().explore(P);
  EXPECT_EQ(S.R.Sweep.at("accepted").asInt(),
            static_cast<int64_t>(Ref.Stats.Accepted));
  EXPECT_EQ(S.R.Sweep.at("pareto_points").asInt(),
            static_cast<int64_t>(Ref.Front.size()));

  EXPECT_FALSE(C.dseSweep("no-such-space", 10).R.Ok);
}

TEST(Service, DseSweepStrategiesAndShardsMergeExactly) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  auto Sweep = [&](const std::string &Strategy, const std::string &Shard) {
    Request R;
    R.Kind = Op::DseSweep;
    R.Space = "gemm-blocked";
    R.Limit = 400;
    R.Threads = 2;
    R.Strategy = Strategy;
    R.Shard = Shard;
    return C.call(R);
  };

  ClientResponse Whole = Sweep("exhaustive", "");
  ASSERT_TRUE(Whole.R.Ok);
  std::string WholeFront = Whole.R.Sweep.at("front").dump();
  std::string WholeHash = Whole.R.Sweep.at("front_hash").asString();
  EXPECT_FALSE(WholeHash.empty());
  // Unsharded sweeps carry no merge payload.
  EXPECT_FALSE(Whole.R.Sweep.contains("front_points"));

  // A pruned sweep reports the identical front with fewer full estimates.
  ClientResponse Pruned = Sweep("pareto-prune", "");
  ASSERT_TRUE(Pruned.R.Ok);
  EXPECT_EQ(Pruned.R.Sweep.at("front").dump(), WholeFront);
  EXPECT_EQ(Pruned.R.Sweep.at("front_hash").asString(), WholeHash);
  EXPECT_LT(Pruned.R.Sweep.at("estimated").asInt(),
            Whole.R.Sweep.at("estimated").asInt());
  EXPECT_GT(Pruned.R.Sweep.at("pruned").asInt(), 0);
  EXPECT_FALSE(Pruned.R.Sweep.contains("rescued"));

  // The removed successive-halving strategy is a structured error that
  // names the strategies that do exist.
  ClientResponse Removed = Sweep("halving", "");
  ASSERT_FALSE(Removed.R.Ok);
  ASSERT_FALSE(Removed.R.Errors.empty());
  EXPECT_NE(Removed.R.Errors.front().message().find(
                "unknown sweep strategy 'halving' (exhaustive, pareto-prune)"),
            std::string::npos)
      << Removed.R.Errors.front().message();

  // Three sharded sweeps union back into the whole-space membership.
  std::vector<dse::FrontPoint> Points;
  int64_t Explored = 0;
  for (unsigned S = 0; S != 3; ++S) {
    ClientResponse Part = Sweep("exhaustive", std::to_string(S) + "/3");
    ASSERT_TRUE(Part.R.Ok);
    EXPECT_EQ(Part.R.Sweep.at("shard_index").asInt(),
              static_cast<int64_t>(S));
    Explored += Part.R.Sweep.at("explored").asInt();
    ASSERT_TRUE(Part.R.Sweep.contains("front_points"));
    std::string Err;
    std::optional<std::vector<dse::FrontPoint>> FP =
        dse::frontPointsFromJson(Part.R.Sweep.at("front_points"), &Err);
    ASSERT_TRUE(FP) << Err;
    Points.insert(Points.end(), FP->begin(), FP->end());
  }
  EXPECT_EQ(Explored, 400);
  dse::MergedFronts M = dse::mergeFrontPoints(Points);
  EXPECT_EQ(dse::indicesToJson(M.Front).dump(), WholeFront);

  // Malformed strategy/shard fields answer with structured errors.
  EXPECT_FALSE(Sweep("bayesian", "").R.Ok);
  EXPECT_FALSE(Sweep("", "3/3").R.Ok);
}

TEST(Service, ServeStreamSpeaksTheLineProtocol) {
  CompileService Svc(testOptions());
  std::istringstream In(
      R"({"id":1,"op":"check","source":"decl A: float[4]; A[0] := 1.0;"})"
      "\n\n" // Blank line: epoch flush.
      R"({"id":2,"op":"check","source":"decl A: float[4]; A[0] := 1.0;"})"
      "\n");
  std::ostringstream Out;
  Svc.serveStream(In, Out);

  std::istringstream Lines(Out.str());
  std::string L1, L2;
  ASSERT_TRUE(std::getline(Lines, L1));
  ASSERT_TRUE(std::getline(Lines, L2));
  ClientResponse R1 = decodeResponse(L1), R2 = decodeResponse(L2);
  EXPECT_EQ(R1.R.Id, 1);
  EXPECT_TRUE(R1.R.Ok);
  EXPECT_EQ(R2.R.Id, 2);
  EXPECT_TRUE(R2.R.Ok);
  EXPECT_TRUE(R2.R.Cached); // Second epoch hits the first epoch's memo.
  EXPECT_EQ(Svc.stats().Epochs, 2u);
}

/// Strict UTF-8 (RFC 3629): no overlong forms, surrogates or code points
/// past U+10FFFF.
bool isValidUtf8(std::string_view S) {
  size_t I = 0;
  while (I < S.size()) {
    auto B = static_cast<unsigned char>(S[I]);
    size_t Len = B < 0x80 ? 1 : B >= 0xc2 && B < 0xe0 ? 2
                              : B >= 0xe0 && B < 0xf0 ? 3
                              : B >= 0xf0 && B < 0xf5 ? 4
                                                      : 0;
    if (Len == 0 || I + Len > S.size())
      return false;
    auto Next = [&](size_t K) { return static_cast<unsigned char>(S[I + K]); };
    for (size_t K = 1; K != Len; ++K)
      if ((Next(K) & 0xc0) != 0x80)
        return false;
    if ((B == 0xe0 && Next(1) < 0xa0) || (B == 0xed && Next(1) >= 0xa0) ||
        (B == 0xf0 && Next(1) < 0x90) || (B == 0xf4 && Next(1) >= 0x90))
      return false;
    I += Len;
  }
  return true;
}

TEST(Service, LexErrorOnNonAsciiSourceRepliesInUtf8) {
  CompileService Svc(testOptions());
  // "é" is two bytes; the lexer stops at the first, 2:5.
  std::istringstream In(
      "{\"id\":1,\"op\":\"check\",\"source\":\"decl A: float[4];\\n"
      "let \xc3\xa9 = 1;\"}\n");
  std::ostringstream Out;
  Svc.serveStream(In, Out);
  std::istringstream Lines(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Lines, Line));
  EXPECT_TRUE(isValidUtf8(Line)) << Line;
  ClientResponse R = decodeResponse(Line);
  EXPECT_EQ(R.R.Id, 1);
  ASSERT_EQ(R.R.Errors.size(), 1u) << Line;
  EXPECT_EQ(R.R.Errors[0].kind(), ErrorKind::Lex);
  EXPECT_EQ(R.R.Errors[0].loc(), SourceLoc(2, 5));
  EXPECT_EQ(R.R.Errors[0].message(), "unexpected character '\\xc3'");
}

TEST(Client, SurfacesServerMessageOnMalformedResponses) {
  // Not JSON at all: the snippet rides along instead of a bare
  // "unparseable".
  ClientResponse NotJson = decodeResponse("half a {respon");
  EXPECT_FALSE(NotJson.R.Ok);
  ASSERT_FALSE(NotJson.R.Errors.empty());
  EXPECT_NE(NotJson.R.Errors[0].message().find("half a {respon"),
            std::string::npos);

  // Valid JSON that is not a protocol response but carries the server's
  // structured errors: the message field surfaces verbatim.
  ClientResponse WithErrors = decodeResponse(
      R"({"errors":[{"kind":"internal","message":"cache shard offline"}]})");
  EXPECT_FALSE(WithErrors.R.Ok);
  ASSERT_FALSE(WithErrors.R.Errors.empty());
  EXPECT_NE(WithErrors.R.Errors[0].message().find("cache shard offline"),
            std::string::npos);

  // Bare message / error fields surface too.
  for (const char *Line :
       {R"({"message":"server overloaded"})", R"({"error":"server overloaded"})",
        R"({"error":{"message":"server overloaded"}})"}) {
    ClientResponse C = decodeResponse(Line);
    EXPECT_FALSE(C.R.Ok) << Line;
    ASSERT_FALSE(C.R.Errors.empty()) << Line;
    EXPECT_NE(C.R.Errors[0].message().find("server overloaded"),
              std::string::npos)
        << Line;
  }

  // JSON with no message at all still names the defect, not "unparseable".
  ClientResponse Bare = decodeResponse(R"({"foo":1})");
  EXPECT_FALSE(Bare.R.Ok);
  ASSERT_FALSE(Bare.R.Errors.empty());
  EXPECT_NE(Bare.R.Errors[0].message().find("id/op/ok"), std::string::npos);

  // A well-formed response still decodes as one (no regression).
  ClientResponse Good =
      decodeResponse(R"({"id":3,"op":"check","ok":true,"latency_ms":0.1})");
  EXPECT_TRUE(Good.R.Ok);
  EXPECT_TRUE(Good.R.Errors.empty());
}

/// The deterministic slice of a sweep summary: membership, hashes, and
/// shard bookkeeping (timing and cache-hit fields vary run to run).
std::string sweepFingerprint(const Json &Sweep) {
  return Sweep.at("space").dump() + "|" + Sweep.at("strategy").dump() + "|" +
         Sweep.at("shard_index").dump() + "/" + Sweep.at("shard_count").dump() +
         "|" + Sweep.at("explored").dump() + "|" + Sweep.at("accepted").dump() +
         "|" + Sweep.at("front").dump() + "|" +
         Sweep.at("accepted_front").dump() + "|" +
         Sweep.at("front_hash").dump() + "|" + Sweep.at("front_points").dump();
}

TEST(Service, StreamedResponsesReassembleByteIdentical) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  auto SweepReq = [](bool Stream, const std::string &Shard) {
    Request R;
    R.Kind = Op::DseSweep;
    R.Space = "gemm-blocked";
    R.Limit = 300;
    R.Threads = 2;
    R.Shard = Shard;
    R.Stream = Stream;
    return R;
  };

  // Sharded: the batch response carries front_points; the streamed form
  // ships them as chunks and must reassemble to the identical payload.
  ClientResponse Batch = C.call(SweepReq(false, "0/2"));
  ASSERT_TRUE(Batch.R.Ok);
  EXPECT_FALSE(Batch.Streamed);
  ClientResponse Streamed = C.call(SweepReq(true, "0/2"));
  ASSERT_TRUE(Streamed.R.Ok);
  EXPECT_TRUE(Streamed.Streamed);
  EXPECT_EQ(Streamed.StreamChunks,
            Batch.Raw.at("sweep").at("front_points").size());
  EXPECT_GT(Streamed.StreamChunks, 0u);
  EXPECT_EQ(sweepFingerprint(Streamed.Raw.at("sweep")),
            sweepFingerprint(Batch.Raw.at("sweep")));

  // Unsharded: the batch summary has no front_points; the streamed form
  // still chunks the front but reassembles to the same summary.
  ClientResponse B2 = C.call(SweepReq(false, ""));
  ClientResponse S2 = C.call(SweepReq(true, ""));
  ASSERT_TRUE(B2.R.Ok);
  ASSERT_TRUE(S2.R.Ok);
  EXPECT_TRUE(S2.Streamed);
  EXPECT_GT(S2.StreamChunks, 0u);
  EXPECT_FALSE(S2.Raw.at("sweep").contains("front_points"));
  EXPECT_EQ(sweepFingerprint(S2.Raw.at("sweep")),
            sweepFingerprint(B2.Raw.at("sweep")));

  // Simulate: per-nest chunks reassemble into the batch sim object.
  Request SimB;
  SimB.Kind = Op::Simulate;
  SimB.Source = AcceptedSrc;
  Request SimS = SimB;
  SimS.Stream = true;
  ClientResponse SimBatch = C.call(SimB);
  ClientResponse SimStream = C.call(SimS);
  ASSERT_TRUE(SimBatch.R.Ok);
  ASSERT_TRUE(SimStream.R.Ok);
  EXPECT_TRUE(SimStream.Streamed);
  EXPECT_EQ(SimStream.StreamChunks, SimBatch.Raw.at("sim").at("nests").size());
  EXPECT_EQ(SimStream.Raw.at("sim").dump(), SimBatch.Raw.at("sim").dump());
  ASSERT_TRUE(SimStream.R.Sim.has_value());
  EXPECT_EQ(SimStream.R.Sim->Cycles, SimBatch.R.Sim->Cycles);

  // Failed and non-streamable requests answer plain even when streaming
  // was requested.
  Request BadReq;
  BadReq.Kind = Op::DseSweep;
  BadReq.Space = "no-such-space";
  BadReq.Stream = true;
  ClientResponse Bad = C.call(BadReq);
  EXPECT_FALSE(Bad.R.Ok);
  EXPECT_FALSE(Bad.Streamed);
  ASSERT_FALSE(Bad.R.Errors.empty());
  Request Chk;
  Chk.Kind = Op::Check;
  Chk.Source = AcceptedSrc;
  Chk.Stream = true;
  ClientResponse Plain = C.call(Chk);
  EXPECT_TRUE(Plain.R.Ok);
  EXPECT_FALSE(Plain.Streamed);
}

//===----------------------------------------------------------------------===//
// TcpServer: concurrent clients, streaming, back-pressure
//===----------------------------------------------------------------------===//

TEST(TcpServer, EightParallelClientsKeepResponseIntegrity) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  CompileService Svc(testOptions());
  TcpServer Srv(Svc);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;
  std::thread Loop([&] { Srv.run(); });

  driver::CompileResult Ref = driver::CompilerPipeline().estimate(AcceptedSrc);
  ASSERT_TRUE(Ref.ok());

  constexpr int NumClients = 8, Iters = 12;
  std::vector<std::thread> Clients;
  std::vector<std::string> Failures(NumClients);
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&, T] {
      auto Fail = [&](const std::string &Msg) {
        if (Failures[T].empty())
          Failures[T] = Msg;
      };
      int Fd = connectLoopback(Srv.port());
      if (Fd < 0)
        return Fail("connect failed");
      {
        FdStreamBuf Buf(Fd);
        std::istream In(&Buf);
        std::ostream Out(&Buf);
        ServiceClient C(In, Out);
        for (int I = 0; I != Iters && Failures[T].empty(); ++I) {
          std::vector<Request> Batch;
          Request Chk;
          Chk.Kind = Op::Check;
          Chk.Source = AcceptedSrc;
          Batch.push_back(Chk);
          Request Rej;
          Rej.Kind = Op::Check;
          Rej.Source = RejectedSrc;
          Batch.push_back(Rej);
          Request Est;
          Est.Kind = Op::Estimate;
          Est.Source = AcceptedSrc;
          Batch.push_back(Est);
          bool WithSweep = I % 4 == T % 4;
          if (WithSweep) {
            Request Sw;
            Sw.Kind = Op::DseSweep;
            Sw.Space = "gemm-blocked";
            Sw.Limit = 120;
            Batch.push_back(Sw);
          }
          std::vector<ClientResponse> Rs = C.callBatch(Batch);
          if (Rs.size() != Batch.size())
            return Fail("short batch");
          if (!Rs[0].R.Ok || !Rs[0].R.Errors.empty())
            return Fail("check flipped");
          if (Rs[1].R.Ok || Rs[1].R.Errors.empty())
            return Fail("rejection flipped");
          if (!Rs[2].R.Ok || !Rs[2].R.Est ||
              Rs[2].R.Est->Cycles != Ref.Est->Cycles ||
              Rs[2].R.Est->Lut != Ref.Est->Lut)
            return Fail("estimate drifted");
          if (WithSweep &&
              (!Rs[3].R.Ok || Rs[3].R.Sweep.at("explored").asInt() != 120))
            return Fail("sweep drifted");
        }
      }
      closeFd(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  for (int T = 0; T != NumClients; ++T)
    EXPECT_EQ(Failures[T], "") << "client " << T;

  TcpServerStats St = Srv.stats();
  EXPECT_EQ(St.Accepted, static_cast<size_t>(NumClients));
  EXPECT_GE(St.RequestLines, static_cast<size_t>(NumClients * Iters * 3));
  EXPECT_GT(St.Epochs, 0u);
  // The whole point of the shared event loop: lines from different
  // clients coalesce into common epochs (8 clients hammering concurrently
  // make this overwhelmingly likely every run).
  EXPECT_GT(St.CoalescedEpochs, 0u);

  Srv.stop();
  Loop.join();
}

TEST(TcpServer, SlowStreamReaderIsBoundedAndDoesNotStallOthers) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  CompileService Svc(testOptions());
  TcpServerOptions TO;
  TO.MaxWriteBuffer = 4096; // Small cap: back-pressure engages quickly.
  TO.SendBufferBytes = 4096; // Small kernel buffer: it cannot hide the cap.
  TcpServer Srv(Svc, TO);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;
  std::thread Loop([&] { Srv.run(); });

  auto SweepReq = [](int64_t Id, bool Stream) {
    Request R;
    R.Id = Id;
    R.Kind = Op::DseSweep;
    R.Space = "gemm-blocked";
    R.Limit = 400;
    R.Threads = 1;
    R.Shard = "0/2";
    R.Stream = Stream;
    return R;
  };

  // Reference: the batch response of the identical sweep, over TCP.
  Json RefSweep;
  {
    int Fd = connectLoopback(Srv.port());
    ASSERT_GE(Fd, 0);
    FdStreamBuf Buf(Fd);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    ServiceClient C(In, Out);
    ClientResponse Ref = C.call(SweepReq(0, false));
    ASSERT_TRUE(Ref.R.Ok);
    RefSweep = Ref.Raw.at("sweep");
    closeFd(Fd);
  }
  const std::string RefPoints = RefSweep.at("front_points").dump();
  const size_t RefPointCount = RefSweep.at("front_points").size();
  ASSERT_GT(RefPointCount, 0u);

  // The slow reader: pipeline 24 streamed copies of the sweep, then stop
  // touching the socket while everyone else works.
  constexpr int NumStreams = 24;
  int Slow = connectLoopback(Srv.port());
  ASSERT_GE(Slow, 0);
  FdStreamBuf SlowBuf(Slow);
  std::istream SlowIn(&SlowBuf);
  std::ostream SlowOut(&SlowBuf);
  for (int I = 0; I != NumStreams; ++I)
    SlowOut << SweepReq(I + 1, true).toJson().dump() << '\n';
  SlowOut << '\n';
  SlowOut.flush();

  // Wait until the server has computed enough of the sweeps to wedge the
  // slow connection's output against the cap.
  EXPECT_TRUE(waitUntil([&] {
    return Srv.stats().PeakConnectionBufferedBytes >= TO.MaxWriteBuffer;
  })) << "the slow connection never reached its write cap";

  // Four other clients run full workloads to completion while the slow
  // reader's responses sit queued: joining these threads is the liveness
  // assertion.
  constexpr int NumOthers = 4;
  std::vector<std::thread> Others;
  std::vector<std::string> Failures(NumOthers);
  for (int T = 0; T != NumOthers; ++T)
    Others.emplace_back([&, T] {
      int Fd = connectLoopback(Srv.port());
      if (Fd < 0) {
        Failures[T] = "connect failed";
        return;
      }
      {
        FdStreamBuf Buf(Fd);
        std::istream In(&Buf);
        std::ostream Out(&Buf);
        ServiceClient C(In, Out);
        for (int I = 0; I != 20 && Failures[T].empty(); ++I) {
          if (!C.check(AcceptedSrc).R.Ok)
            Failures[T] = "check failed";
          ClientResponse E = C.estimate(AcceptedSrc);
          if (!E.R.Ok || !E.R.Est)
            Failures[T] = "estimate failed";
        }
      }
      closeFd(Fd);
    });
  for (std::thread &T : Others)
    T.join();
  for (int T = 0; T != NumOthers; ++T)
    EXPECT_EQ(Failures[T], "") << "client " << T;

  // Now drain the slow connection: all 24 streams must arrive complete,
  // with the full Pareto front byte-identical to the batch response.
  std::map<int64_t, std::vector<Json>> ChunksById;
  std::map<int64_t, Json> TerminalById;
  int Headers = 0;
  std::string L;
  while (TerminalById.size() != NumStreams && std::getline(SlowIn, L)) {
    if (L.empty())
      continue;
    std::optional<Json> J = Json::parse(L);
    ASSERT_TRUE(J.has_value()) << L;
    int64_t Id = J->at("id").asInt();
    if (J->at("stream").asBool() && !J->contains("stream_end")) {
      ++Headers;
      continue;
    }
    if (J->contains("front_point")) {
      ChunksById[Id].push_back(J->at("front_point"));
      continue;
    }
    if (J->contains("stream_end"))
      TerminalById[Id] = *J;
  }
  EXPECT_EQ(Headers, NumStreams);
  ASSERT_EQ(TerminalById.size(), static_cast<size_t>(NumStreams));
  for (int I = 0; I != NumStreams; ++I) {
    int64_t Id = I + 1;
    Json Points = Json::array();
    for (const Json &P : ChunksById[Id])
      Points.push_back(P);
    EXPECT_EQ(Points.dump(), RefPoints) << "stream " << Id;
    const Json &Sweep = TerminalById[Id].at("sweep");
    EXPECT_EQ(Sweep.at("front").dump(), RefSweep.at("front").dump());
    EXPECT_EQ(Sweep.at("front_hash").dump(), RefSweep.at("front_hash").dump());
    EXPECT_FALSE(Sweep.contains("front_points")) << "terminal carries bulk";
  }
  closeFd(Slow);

  TcpServerStats St = Srv.stats();
  EXPECT_EQ(St.StreamedResponses, static_cast<size_t>(NumStreams));
  // The back-pressure invariant: buffered bytes never exceeded the cap
  // plus one protocol line, despite ~NumStreams responses pending — and
  // the cap was genuinely reached (the kernel buffers could not absorb
  // 24 sweep responses), so the bound was exercised, not idle.
  EXPECT_LE(St.PeakConnectionBufferedBytes, TO.MaxWriteBuffer + 4096u);
  EXPECT_GE(St.PeakConnectionBufferedBytes, TO.MaxWriteBuffer);

  Srv.stop();
  Loop.join();
}

TEST(Service, RestartOverCacheDirStartsWarm) {
  std::string Dir =
      (fs::temp_directory_path() / "dahlia-service-test-cache").string();
  fs::remove_all(Dir);

  ServiceOptions O = testOptions();
  O.CacheDir = Dir;
  {
    CompileService Svc(O);
    ServiceClient C(Svc);
    EXPECT_FALSE(Svc.stats().WarmStart);
    C.check(AcceptedSrc);
    C.check(RejectedSrc);
    C.estimate(AcceptedSrc);
  } // Destructor persists the cache.

  {
    CompileService Svc(O);
    ServiceClient C(Svc);
    EXPECT_TRUE(Svc.stats().WarmStart);
    EXPECT_GT(Svc.stats().WarmVerdicts, 0u);
    // Accepted verdicts and estimates are served straight from disk.
    EXPECT_TRUE(C.check(AcceptedSrc).R.Cached);
    EXPECT_TRUE(C.estimate(AcceptedSrc).R.Cached);
    // A rejection's diagnostics do not survive the restart; the first
    // replay recomputes them, the second is served.
    ClientResponse First = C.check(RejectedSrc);
    EXPECT_FALSE(First.R.Ok);
    ASSERT_FALSE(First.R.Errors.empty());
    ClientResponse Second = C.check(RejectedSrc);
    EXPECT_TRUE(Second.R.Cached);
  }
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Observability: the metrics op and request trace IDs
//===----------------------------------------------------------------------===//

/// The metrics registry is process-global, so these tests only assert on
/// before/after deltas — absolute values include every other test's work.
int64_t counterOf(const ClientResponse &M, const char *Name) {
  return M.R.Metrics.at("counters").at(Name).asInt();
}

TEST(Service, MetricsOpCountsRequestsAndWarmCacheHits) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  ClientResponse Before = C.metrics();
  ASSERT_TRUE(Before.R.Ok);
  ASSERT_TRUE(Before.R.Metrics.isObject());
  ASSERT_TRUE(Before.R.Metrics.at("counters").isObject());
  int64_t Requests0 = counterOf(Before, "service.requests");
  int64_t VerdictHits0 = counterOf(Before, "dse.memo.verdict_hits");
  int64_t HistCount0 = Before.R.Metrics.at("histograms")
                           .at("service.request_ms")
                           .at("count")
                           .asInt();

  EXPECT_TRUE(C.check(AcceptedSrc).R.Ok); // Cold: populates the memo.
  ClientResponse Warm = C.check(AcceptedSrc); // Warm repeat: a memo hit.
  EXPECT_TRUE(Warm.R.Ok);
  EXPECT_TRUE(Warm.R.Cached);

  ClientResponse After = C.metrics();
  ASSERT_TRUE(After.R.Ok);
  // The two checks plus the metrics ops themselves were counted...
  EXPECT_GE(counterOf(After, "service.requests"), Requests0 + 3);
  // ...the warm repeat moved the cache-hit counter...
  EXPECT_GT(counterOf(After, "dse.memo.verdict_hits"), VerdictHits0);
  // ...and each counted request recorded a latency sample.
  EXPECT_GE(After.R.Metrics.at("histograms")
                .at("service.request_ms")
                .at("count")
                .asInt(),
            HistCount0 + 3);
}

TEST(Service, TraceIdsEchoClientValuesAndStampFreshOnes) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  // A client-supplied trace ID is echoed back verbatim.
  Request R;
  R.Kind = Op::Check;
  R.Source = AcceptedSrc;
  R.TraceId = 987654;
  ClientResponse Echoed = C.call(std::move(R));
  EXPECT_TRUE(Echoed.R.Ok);
  EXPECT_EQ(Echoed.R.TraceId, 987654u);

  // Without one, the server stamps a fresh nonzero ID — distinct per
  // request, so a slow-request log line maps to exactly one request.
  ClientResponse A = C.check(AcceptedSrc);
  ClientResponse B = C.estimate(AcceptedSrc);
  EXPECT_NE(A.R.TraceId, 0u);
  EXPECT_NE(B.R.TraceId, 0u);
  EXPECT_NE(A.R.TraceId, B.R.TraceId);

  // The wire format round-trips it.
  std::string Err;
  auto Back = Request::fromJson(
      R"({"id":1,"op":"check","source":"x","trace_id":42})", &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(Back->TraceId, 42u);
  EXPECT_FALSE(
      Request::fromJson(
          R"({"id":1,"op":"check","source":"x","trace_id":-3})", &Err)
          .has_value()); // Negative IDs are rejected, not wrapped.
}

TEST(TcpServer, MetricsOpSeesCoalescedEpochsAndCacheHits) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  CompileService Svc(testOptions());
  ServiceClient Local(Svc);
  ClientResponse Before = Local.metrics();
  ASSERT_TRUE(Before.R.Ok);
  int64_t Coalesced0 = counterOf(Before, "server.coalesced_epochs");
  int64_t VerdictHits0 = counterOf(Before, "dse.memo.verdict_hits");
  int64_t Accepted0 = counterOf(Before, "server.connections_accepted");

  TcpServer Srv(Svc);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;
  std::thread Loop([&] { Srv.run(); });

  // Warm the memo once so the hammer below is mostly cache hits.
  EXPECT_TRUE(Local.check(AcceptedSrc).R.Ok);

  constexpr int NumClients = 8, Iters = 20;
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&] {
      int Fd = connectLoopback(Srv.port());
      if (Fd < 0) {
        ++Failures;
        return;
      }
      {
        FdStreamBuf Buf(Fd);
        std::istream In(&Buf);
        std::ostream Out(&Buf);
        ServiceClient C(In, Out);
        for (int I = 0; I != Iters; ++I)
          if (!C.check(AcceptedSrc).R.Ok)
            ++Failures;
      }
      closeFd(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // The acceptance snapshot rides the same wire as any other op.
  int Fd = connectLoopback(Srv.port());
  ASSERT_GE(Fd, 0);
  {
    FdStreamBuf Buf(Fd);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    ServiceClient C(In, Out);
    ClientResponse After = C.metrics();
    ASSERT_TRUE(After.R.Ok);
    EXPECT_GT(counterOf(After, "server.coalesced_epochs"), Coalesced0);
    EXPECT_GT(counterOf(After, "dse.memo.verdict_hits"), VerdictHits0);
    EXPECT_GE(counterOf(After, "server.connections_accepted"),
              Accepted0 + NumClients);
  }
  closeFd(Fd);

  Srv.stop();
  Loop.join();
}

TEST(Client, MidStreamEofSurfacesStructuredError) {
  // A server killed mid-exchange used to look like a clean end of stream:
  // the client returned fewer responses than requests and callers
  // misread the silence as success. Pin the hardening: every missing
  // reply must come back as a structured error naming the truncation.
  Request First;
  First.Kind = Op::Check;
  First.Source = AcceptedSrc;
  Request Second = First;

  // The canned server answers request id 1, then dies (EOF) before id 2.
  std::istringstream In(
      R"({"id":1,"op":"check","ok":true,"latency_ms":0.1})" "\n");
  std::ostringstream Out;
  ServiceClient C(In, Out);
  std::vector<ClientResponse> Rs = C.callBatch({First, Second});

  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_TRUE(Rs[0].R.Ok);
  EXPECT_FALSE(Rs[1].R.Ok);
  ASSERT_FALSE(Rs[1].R.Errors.empty());
  EXPECT_EQ(Rs[1].R.Errors[0].kind(), ErrorKind::Internal);
  EXPECT_NE(Rs[1].R.Errors[0].message().find(
                "connection closed before response (1 of 2 replies"),
            std::string::npos)
      << Rs[1].R.Errors[0].message();
}

TEST(TcpServer, HostileSoakKeepsWellBehavedClientsLive) {
  // The tier-1 slice of the nightly hostile-client soak, and the TSan
  // assertion from the fuzz issue: garbage/truncated/oversized frames,
  // half-open connections, floods and slow readers must neither stall
  // nor corrupt a well-behaved client's in-flight batches. The nightly
  // leg runs the same harness via dahlia-fuzz-proto with more rounds.
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  fuzz::ProtoFuzzOptions O;
  O.Rounds = 2;
  fuzz::ProtoFuzzReport R = fuzz::runProtoFuzz(O);
  for (const fuzz::ProtoFailure &F : R.Failures)
    ADD_FAILURE() << "round " << F.Round << " [" << F.Attack << "] "
                  << F.Detail;
  EXPECT_GT(R.Stats.Attacks, 0u);
  EXPECT_GT(R.Stats.HostileConnections, 0u);
  EXPECT_GT(R.Stats.WellBehavedBatches, 0u)
      << "well-behaved clients never completed a batch during the soak";
}

//===----------------------------------------------------------------------===//
// Watch op and observability surfaces
//===----------------------------------------------------------------------===//

TEST(Service, WatchSnapshotsSweepProgress) {
  CompileService Svc(testOptions());
  ServiceClient C(Svc);

  // Before any sweep: the idle snapshot.
  ClientResponse Idle = C.watch();
  ASSERT_TRUE(Idle.R.Ok);
  ASSERT_TRUE(Idle.R.Watch.isObject());
  EXPECT_FALSE(Idle.R.Watch.at("running").asBool(true));
  EXPECT_EQ(Idle.R.Watch.at("phase").asString(), "idle");
  EXPECT_EQ(Idle.R.Watch.at("total").asInt(), 0);

  // After a sweep: the final forced progress tick, no longer running.
  ASSERT_TRUE(C.dseSweep("gemm-blocked", 120, 2).R.Ok);
  ClientResponse Done = C.watch();
  ASSERT_TRUE(Done.R.Ok);
  EXPECT_FALSE(Done.R.Watch.at("running").asBool(true));
  EXPECT_NE(Done.R.Watch.at("phase").asString(), "idle");
  EXPECT_GT(Done.R.Watch.at("total").asInt(), 0);
}

TEST(Service, SlowRequestLogCarriesSweepFields) {
  ServiceOptions O = testOptions();
  O.SlowRequestMs = 1e-6; // Everything is slow: every request logs.
  CompileService Svc(O);
  ServiceClient C(Svc);

  testing::internal::CaptureStderr();
  ASSERT_TRUE(C.dseSweep("gemm-blocked", 120, 2).R.Ok);
  std::string Log = testing::internal::GetCapturedStderr();

  // One structured line per slow request; the sweep line carries the
  // sweep-attribution fields.
  std::istringstream Ls(Log);
  std::string Line;
  std::optional<Json> Sweep;
  while (std::getline(Ls, Line)) {
    std::optional<Json> J = Json::parse(Line);
    if (J && J->isObject() && J->at("op").asString() == "dse-sweep")
      Sweep = *J;
  }
  ASSERT_TRUE(Sweep) << "no dse-sweep slow-request line in: " << Log;
  EXPECT_TRUE(Sweep->at("slow_request").asBool());
  EXPECT_EQ(Sweep->at("space").asString(), "gemm-blocked");
  EXPECT_EQ(Sweep->at("strategy").asString(), "exhaustive");
  EXPECT_EQ(Sweep->at("explored").asInt(), 120);
  EXPECT_TRUE(Sweep->contains("pruned"));
  EXPECT_TRUE(Sweep->contains("latency_ms"));
}

TEST(Client, SkipsUnknownRecordsInStreamTransport) {
  // A record the protocol does not model (no op/ok envelope, no error
  // payload) is skipped with a warning; the real response behind it
  // still lands. Error payloads keep their pinned surfacing behavior.
  {
    std::istringstream In("{\"notice\":\"server gossip\",\"id\":1}\n"
                          "{\"id\":1,\"op\":\"check\",\"ok\":true}\n");
    std::ostringstream Out;
    ServiceClient C(In, Out);
    testing::internal::CaptureStderr();
    ClientResponse R = C.check(AcceptedSrc);
    std::string Warn = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(R.R.Ok);
    EXPECT_TRUE(R.R.Errors.empty());
    EXPECT_NE(Warn.find("skipping unknown record"), std::string::npos)
        << Warn;
    EXPECT_NE(Warn.find("server gossip"), std::string::npos) << Warn;
  }
  {
    // An error payload is consumed as the reply and surfaced verbatim.
    std::istringstream In("{\"message\":\"service melting\"}\n");
    std::ostringstream Out;
    ServiceClient C(In, Out);
    ClientResponse R = C.check(AcceptedSrc);
    EXPECT_FALSE(R.R.Ok);
    ASSERT_FALSE(R.R.Errors.empty());
    EXPECT_NE(R.R.Errors[0].message().find("service melting"),
              std::string::npos);
  }
}

TEST(Client, StrictModeTurnsUnknownRecordsIntoErrors) {
  // The cluster coordinator's decoding mode: what the lenient client
  // warns-and-skips (previous test) must become a structured error — a
  // coordinator merging shard fronts cannot guess around gossip.
  std::istringstream In("{\"notice\":\"server gossip\",\"id\":1}\n"
                        "{\"id\":1,\"op\":\"check\",\"ok\":true}\n");
  std::ostringstream Out;
  ServiceClient C(In, Out);
  C.setStrict(true);
  ClientResponse R = C.check(AcceptedSrc);
  EXPECT_FALSE(R.R.Ok);
  ASSERT_FALSE(R.R.Errors.empty());
  EXPECT_NE(R.R.Errors[0].message().find("unknown record"),
            std::string::npos)
      << R.R.Errors[0].message();
}

TEST(Client, StrictModeRejectsHostileSweepStreams) {
  // Four ways a hostile (or buggy) worker can mangle a streamed sweep
  // without breaking JSON framing. Lenient decoding tolerates the first
  // two for forward compatibility; strict mode must refuse all four with
  // an error naming the violation — never reassemble a wrong sweep.
  const std::string Header =
      R"({"id":1,"op":"dse-sweep","stream":true})" "\n";
  const std::string Point0 =
      R"({"front_point":{"accepted":true,"index":0,"latency":10,"lut":1,"ff":1,"dsp":1,"bram":1},"id":1})"
      "\n";
  const std::string TermFront0 =
      R"({"id":1,"op":"dse-sweep","ok":true,"stream_end":true,"sweep":{"front":[0],"accepted_front":[0],"shard_index":0,"shard_count":1,"explored":1}})"
      "\n";
  const std::string TermFront05 =
      R"({"id":1,"op":"dse-sweep","ok":true,"stream_end":true,"sweep":{"front":[0,5],"accepted_front":[0],"shard_index":0,"shard_count":1,"explored":6}})"
      "\n";

  struct Case {
    const char *Name;
    std::string Wire;
    const char *Expect;
    bool LenientOk;
  } Cases[] = {
      {"duplicate front_point chunk", Header + Point0 + Point0 + TermFront0,
       "duplicate front_point chunk", true},
      {"unknown stream chunk",
       Header + "{\"id\":1,\"chunk\":\"garbage\"}\n" + Point0 + TermFront0,
       "unknown stream chunk", true},
      {"premature stream_end", Header + Point0 + TermFront05,
       "premature stream_end", true},
  };

  for (const Case &TC : Cases) {
    SCOPED_TRACE(TC.Name);
    {
      std::istringstream In(TC.Wire);
      std::ostringstream Out;
      ServiceClient C(In, Out);
      C.setStrict(true);
      Request R;
      R.Kind = Op::DseSweep;
      R.Space = "gemm-blocked";
      R.Stream = true;
      ClientResponse Resp = C.call(std::move(R));
      EXPECT_FALSE(Resp.R.Ok);
      ASSERT_FALSE(Resp.R.Errors.empty());
      EXPECT_NE(Resp.R.Errors[0].message().find(TC.Expect),
                std::string::npos)
          << Resp.R.Errors[0].message();
    }
    {
      // The same wire decoded leniently: skipped, not fatal.
      std::istringstream In(TC.Wire);
      std::ostringstream Out;
      ServiceClient C(In, Out);
      Request R;
      R.Kind = Op::DseSweep;
      R.Space = "gemm-blocked";
      R.Stream = true;
      ClientResponse Resp = C.call(std::move(R));
      EXPECT_EQ(Resp.R.Ok, TC.LenientOk);
    }
  }
}

TEST(Service, CacheExportImportRoundTripMakesColdServiceWarm) {
  // The cluster warm-cache shipping primitive: a fresh service fed
  // another's exported memo cache answers the same sweep entirely from
  // cache. Slice exports ("i/N") must partition the same entries.
  CompileService Warm(testOptions());
  ServiceClient WarmC(Warm);
  ClientResponse First = WarmC.dseSweep("gemm-blocked", 150, 2);
  ASSERT_TRUE(First.R.Ok);
  size_t Explored =
      static_cast<size_t>(First.Raw.at("sweep").at("explored").asInt());
  ASSERT_GT(Explored, 0u);

  ClientResponse Full = WarmC.cacheExport();
  ASSERT_TRUE(Full.R.Ok);
  size_t FullVerdicts = Full.R.Cache.at("verdicts").size();
  size_t FullEstimates = Full.R.Cache.at("estimates").size();
  EXPECT_GE(FullEstimates, Explored);

  // Slices are disjoint and cover: counts add up to the whole export.
  size_t SlicedVerdicts = 0, SlicedEstimates = 0;
  for (const char *Slice : {"0/3", "1/3", "2/3"}) {
    ClientResponse S = WarmC.cacheExport(Slice);
    ASSERT_TRUE(S.R.Ok) << Slice;
    SlicedVerdicts += S.R.Cache.at("verdicts").size();
    SlicedEstimates += S.R.Cache.at("estimates").size();
  }
  EXPECT_EQ(SlicedVerdicts, FullVerdicts);
  EXPECT_EQ(SlicedEstimates, FullEstimates);
  EXPECT_FALSE(WarmC.cacheExport("7/3").R.Ok); // malformed slice
  EXPECT_FALSE(WarmC.cacheExport("nope").R.Ok);

  CompileService Cold(testOptions());
  ServiceClient ColdC(Cold);
  ClientResponse Imported = ColdC.cacheImport(Full.R.Cache);
  ASSERT_TRUE(Imported.R.Ok);
  EXPECT_EQ(static_cast<size_t>(
                Imported.R.Cache.at("imported_estimates").asInt()),
            FullEstimates);

  ClientResponse Second = ColdC.dseSweep("gemm-blocked", 150, 2);
  ASSERT_TRUE(Second.R.Ok);
  const Json &S2 = Second.Raw.at("sweep");
  EXPECT_EQ(S2.at("estimate_cache_hits").asInt(),
            static_cast<int64_t>(Explored));
  EXPECT_EQ(S2.at("front_hash").asString(),
            First.Raw.at("sweep").at("front_hash").asString());

  // Garbage payloads are a structured error, not a poisoned cache.
  Json Bad = Json::object();
  Bad["verdicts"] = "not an array";
  EXPECT_FALSE(ColdC.cacheImport(std::move(Bad)).R.Ok);
}

TEST(TcpServer, WatchStreamsLiveProgressDuringSweep) {
  if (!haveSockets())
    GTEST_SKIP() << "no sockets on this platform";
  CompileService Svc(testOptions());
  TcpServer Srv(Svc);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;
  std::thread Loop([&] { Srv.run(); });

  // Watcher connection: a bounded stream of 12 records at 100ms. The
  // call blocks until the terminal line, so it runs on its own thread
  // while the main thread drives a sweep through a second connection.
  const metrics::Counter &WatchStreams =
      metrics::counter("server.watch_streams");
  const uint64_t WatchStreamsBefore = WatchStreams.value();
  ClientResponse WatchR;
  std::atomic<bool> WatchOk{false};
  std::thread Watcher([&] {
    int Fd = connectLoopback(Srv.port());
    if (Fd < 0)
      return;
    FdStreamBuf Buf(Fd);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    ServiceClient C(In, Out);
    WatchR = C.watch(/*Stream=*/true, /*Count=*/12, /*IntervalMs=*/100);
    WatchOk.store(true);
  });

  // Wait until the server has registered the watch, then run a sweep
  // long enough to span several watch intervals: the whole space, which
  // takes well over half a second at two threads.
  EXPECT_TRUE(
      waitUntil([&] { return WatchStreams.value() > WatchStreamsBefore; }))
      << "the watch was never registered";
  {
    int Fd = connectLoopback(Srv.port());
    ASSERT_GE(Fd, 0);
    FdStreamBuf Buf(Fd);
    std::istream In(&Buf);
    std::ostream Out(&Buf);
    ServiceClient C(In, Out);
    ClientResponse Sweep = C.dseSweep("gemm-blocked", 0, 2);
    ASSERT_TRUE(Sweep.R.Ok);
    EXPECT_EQ(Sweep.R.Sweep.at("explored").asInt(), 32000);
  }
  Watcher.join();
  Srv.stop();
  Loop.join();

  ASSERT_TRUE(WatchOk.load());
  ASSERT_TRUE(WatchR.R.Ok);
  EXPECT_TRUE(WatchR.Streamed);
  const std::vector<Json> &Recs =
      WatchR.Raw.at("progress_records").asArray();
  ASSERT_EQ(Recs.size(), 12u);
  size_t Live = 0;
  for (const Json &R : Recs) {
    EXPECT_TRUE(R.contains("phase"));
    if (R.at("running").asBool())
      ++Live;
  }
  EXPECT_GE(Live, 2u)
      << "the watcher must observe the sweep in flight, not just idle "
         "heartbeats";
}

} // namespace
