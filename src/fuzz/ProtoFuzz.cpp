//===- ProtoFuzz.cpp - Protocol fuzzer + hostile-client soak --------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProtoFuzz.h"

#include "cluster/Cluster.h"
#include "cluster/FaultInject.h"
#include "fuzz/ProgramGen.h"
#include "service/CompileService.h"
#include "service/Protocol.h"
#include "service/ServiceClient.h"
#include "service/TcpServer.h"
#include "support/Socket.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define DAHLIA_FUZZ_HAVE_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#endif

using namespace dahlia;
using namespace dahlia::fuzz;

Json ProtoFailure::toJson() const {
  Json J = Json::object();
  J["round"] = Round;
  J["attack"] = Attack;
  J["detail"] = Detail;
  return J;
}

Json ProtoFuzzStats::toJson() const {
  Json J = Json::object();
  J["skipped"] = Skipped;
  J["rounds"] = static_cast<int64_t>(Rounds);
  J["attacks"] = static_cast<int64_t>(Attacks);
  J["hostile_connections"] = static_cast<int64_t>(HostileConnections);
  J["hostile_bytes"] = static_cast<int64_t>(HostileBytes);
  J["well_behaved_batches"] = static_cast<int64_t>(WellBehavedBatches);
  return J;
}

Json ProtoFuzzReport::toJson() const {
  Json J = Json::object();
  J["stats"] = Stats.toJson();
  Json Fails = Json::array();
  for (const ProtoFailure &F : Failures)
    Fails.push_back(F.toJson());
  J["failures"] = std::move(Fails);
  J["clean"] = clean();
  return J;
}

#ifndef DAHLIA_FUZZ_HAVE_SOCKETS

ProtoFuzzReport dahlia::fuzz::runProtoFuzz(const ProtoFuzzOptions &) {
  ProtoFuzzReport R;
  R.Stats.Skipped = true;
  return R;
}

ProtoFuzzReport dahlia::fuzz::runClusterFuzz(const ClusterFuzzOptions &) {
  ProtoFuzzReport R;
  R.Stats.Skipped = true;
  return R;
}

#else

namespace {

constexpr const char *GoodSrc = "decl A: float[8 bank 2];\n"
                                "for (let i = 0..8) unroll 2 {\n"
                                "  A[i] := 1.5;\n"
                                "}\n";

/// A hostile connection: raw fd plus a timeout-guarded line reader. All
/// writes go through send(MSG_NOSIGNAL) so a server-side close can never
/// SIGPIPE the harness.
class HostileConn {
public:
  explicit HostileConn(int Port) : Fd(connectLoopback(Port)) {}
  ~HostileConn() { closeFd(Fd); }

  bool ok() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Sends every byte (short writes retried). False when the peer closed.
  bool sendAll(const std::string &Data, uint64_t *Bytes) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
                         MSG_NOSIGNAL);
      if (N > 0) {
        Off += static_cast<size_t>(N);
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      break;
    }
    if (Bytes)
      *Bytes += Off;
    return Off == Data.size();
  }

  /// Half-closes the write side, leaving the read side open.
  void shutdownWrite() { ::shutdown(Fd, SHUT_WR); }

  enum class ReadStatus { Line, Eof, Timeout };

  /// Reads one newline-terminated line within \p TimeoutMs.
  ReadStatus readLine(std::string &Line, int TimeoutMs) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    while (true) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return ReadStatus::Line;
      }
      auto Now = std::chrono::steady_clock::now();
      if (Now >= Deadline)
        return ReadStatus::Timeout;
      int Wait = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(Deadline -
                                                                Now)
              .count());
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, std::max(1, Wait));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        return ReadStatus::Timeout;
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N > 0) {
        Buf.append(Chunk, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      return ReadStatus::Eof; // Orderly close (or a hard error).
    }
  }

private:
  int Fd;
  std::string Buf;
};

struct Soak {
  const ProtoFuzzOptions &O;
  ProtoFuzzReport &R;
  int Port;
  int Round = 0;

  void fail(const std::string &Attack, const std::string &Detail) {
    R.Failures.push_back(ProtoFailure{Round, Attack, Detail});
  }

  /// Opens a hostile connection, recording the stat; null Detail on
  /// success.
  bool connect(HostileConn &C, const std::string &Attack) {
    ++R.Stats.HostileConnections;
    if (!C.ok()) {
      fail(Attack, "connect to 127.0.0.1:" + std::to_string(Port) +
                       " failed: " + std::strerror(errno));
      return false;
    }
    return true;
  }

  std::string validCheckLine(int64_t Id) {
    service::Request Q;
    Q.Id = Id;
    Q.Kind = service::Op::Check;
    Q.Source = GoodSrc;
    return Q.toJson().dump() + "\n";
  }

  /// Reads one response line and verifies id/ok against expectations.
  /// Empty \p Attack suppresses failure recording (probe reads).
  bool expectResponse(HostileConn &C, const std::string &Attack, int64_t Id,
                      bool WantOk) {
    std::string Line;
    HostileConn::ReadStatus S = C.readLine(Line, O.RecvTimeoutMs);
    if (S != HostileConn::ReadStatus::Line) {
      fail(Attack, S == HostileConn::ReadStatus::Timeout
                       ? "no response within timeout"
                       : "connection closed before response");
      return false;
    }
    std::optional<Json> J = Json::parse(Line);
    if (!J || !J->isObject()) {
      fail(Attack, "response is not a JSON object: " + Line);
      return false;
    }
    if (Id >= 0 && J->at("id").asInt(-1) != Id) {
      fail(Attack, "response id mismatch (want " + std::to_string(Id) +
                       "): " + Line);
      return false;
    }
    if (J->at("ok").asBool(!WantOk) != WantOk) {
      fail(Attack, std::string("expected ok:") + (WantOk ? "true" : "false") +
                       ", got: " + Line);
      return false;
    }
    return true;
  }

  // Attack catalog ---------------------------------------------------------

  /// Random binary garbage must get an error response, and the connection
  /// must still answer a valid request afterwards.
  void attackGarbage(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "garbage"))
      return;
    std::string Junk;
    size_t N = 16 + Rnd.below(512);
    for (size_t I = 0; I < N; ++I) {
      char B = static_cast<char>(Rnd.below(256));
      Junk.push_back(B == '\n' ? '\r' : B);
    }
    Junk.push_back('\n');
    C.sendAll(Junk, &R.Stats.HostileBytes);
    if (!expectResponse(C, "garbage", -1, false))
      return;
    C.sendAll(validCheckLine(7), &R.Stats.HostileBytes);
    expectResponse(C, "garbage", 7, true);
  }

  /// A valid request frame cut mid-JSON must get exactly one error
  /// response (never be silently swallowed), and the connection must keep
  /// working.
  void attackTruncatedFrame(Rng &Rnd) {
    std::string Full = validCheckLine(9);
    // Cut somewhere strictly inside the JSON (keep >= 1 byte, lose >= 2:
    // the brace and the newline) so the frame can never be valid.
    size_t Cut = 1 + Rnd.below(Full.size() - 3);
    std::string Frame = Full.substr(0, Cut) + "\n";
    std::string FromJsonErr;
    bool StillParses =
        service::Request::fromJson(Frame.substr(0, Frame.size() - 1),
                                   &FromJsonErr)
            .has_value();

    HostileConn C(Port);
    if (!connect(C, "truncated-frame"))
      return;
    C.sendAll(Frame, &R.Stats.HostileBytes);

    std::string Line;
    HostileConn::ReadStatus S = C.readLine(Line, O.RecvTimeoutMs);
    // Self-test injection: simulate a server that swallowed the frame by
    // discarding whatever it answered.
    if (O.InjectSwallowTruncated)
      S = HostileConn::ReadStatus::Timeout;
    if (S != HostileConn::ReadStatus::Line) {
      fail("truncated-frame",
           "truncated frame produced no response (cut at byte " +
               std::to_string(Cut) + ")");
      return;
    }
    std::optional<Json> J = Json::parse(Line);
    bool Ok = J && J->at("ok").asBool(true);
    if (Ok != StillParses) {
      fail("truncated-frame", "verdict disagrees with Request::fromJson ('" +
                                  FromJsonErr + "'): " + Line);
      return;
    }
    C.sendAll(validCheckLine(11), &R.Stats.HostileBytes);
    expectResponse(C, "truncated-frame", 11, true);
  }

  /// A line over the server's byte cap must get one error response and a
  /// close — bounded memory, no hang.
  void attackOversized(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "oversized"))
      return;
    std::string Huge(O.MaxLineBytes + 4096 + Rnd.below(4096), 'a');
    C.sendAll(Huge, &R.Stats.HostileBytes);
    if (!expectResponse(C, "oversized", -1, false))
      return;
    std::string Line;
    if (C.readLine(Line, O.RecvTimeoutMs) != HostileConn::ReadStatus::Eof)
      fail("oversized", "server kept the over-cap connection open");
  }

  /// A valid request dribbled in 1..7-byte writes must reassemble into a
  /// normal response.
  void attackInterleaved(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "interleaved"))
      return;
    std::string Full = validCheckLine(13);
    size_t Off = 0;
    while (Off < Full.size()) {
      size_t N = std::min<size_t>(1 + Rnd.below(7), Full.size() - Off);
      if (!C.sendAll(Full.substr(Off, N), &R.Stats.HostileBytes)) {
        fail("interleaved", "server closed mid-dribble");
        return;
      }
      Off += N;
    }
    expectResponse(C, "interleaved", 13, true);
  }

  /// Deeply nested JSON must be rejected with an error response, not a
  /// stack overflow (the parser's recursion is depth-limited).
  void attackDeepJson(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "deep-json"))
      return;
    size_t Depth = 2048 + Rnd.below(32768);
    std::string Deep(std::min(Depth, O.MaxLineBytes - 64), '[');
    Deep.push_back('\n');
    C.sendAll(Deep, &R.Stats.HostileBytes);
    expectResponse(C, "deep-json", -1, false);
  }

  /// Half-open: send a partial line then FIN. The server must drop the
  /// incomplete frame and close its side promptly.
  void attackHalfOpen(Rng &) {
    HostileConn C(Port);
    if (!connect(C, "half-open"))
      return;
    C.sendAll("{\"id\":1,\"op\":\"chec", &R.Stats.HostileBytes);
    C.shutdownWrite();
    std::string Line;
    HostileConn::ReadStatus S = C.readLine(Line, O.RecvTimeoutMs);
    if (S == HostileConn::ReadStatus::Timeout)
      fail("half-open", "server left the half-open connection dangling");
    // Line (an eager error) or Eof are both acceptable; hanging is not.
  }

  /// Abandon: queue several requests and vanish without reading. The
  /// server must absorb the dead connection (no SIGPIPE, no leak —
  /// ASan/TSan enforce the rest).
  void attackAbandon(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "abandon"))
      return;
    int N = 3 + static_cast<int>(Rnd.below(5));
    for (int I = 0; I < N; ++I)
      C.sendAll(validCheckLine(100 + I), &R.Stats.HostileBytes);
    // Destructor closes with responses still in flight.
  }

  /// Flood without reading, then drain: every line must still be answered
  /// exactly once, in order.
  void attackFloodThenDrain(Rng &Rnd) {
    HostileConn C(Port);
    if (!connect(C, "flood-drain"))
      return;
    int N = 8 + static_cast<int>(Rnd.below(24));
    std::string Burst;
    for (int I = 0; I < N; ++I)
      Burst += validCheckLine(200 + I);
    C.sendAll(Burst, &R.Stats.HostileBytes);
    for (int I = 0; I < N; ++I)
      if (!expectResponse(C, "flood-drain", 200 + I, true))
        return;
  }

  /// Blank and CRLF lines are protocol no-ops; responses must line up
  /// with the real requests around them.
  void attackBlankLines(Rng &) {
    HostileConn C(Port);
    if (!connect(C, "blank-lines"))
      return;
    C.sendAll("\r\n\n\r\n" + validCheckLine(17) + "\n" + validCheckLine(19),
              &R.Stats.HostileBytes);
    if (expectResponse(C, "blank-lines", 17, true))
      expectResponse(C, "blank-lines", 19, true);
  }

  void runRound(int RoundIdx) {
    Round = RoundIdx;
    using Attack = void (Soak::*)(Rng &);
    static constexpr Attack Catalog[] = {
        &Soak::attackGarbage,       &Soak::attackTruncatedFrame,
        &Soak::attackOversized,     &Soak::attackInterleaved,
        &Soak::attackDeepJson,      &Soak::attackHalfOpen,
        &Soak::attackAbandon,       &Soak::attackFloodThenDrain,
        &Soak::attackBlankLines,
    };
    for (size_t A = 0; A < sizeof(Catalog) / sizeof(Catalog[0]); ++A) {
      Rng Rnd(O.Seed * 1000003 + static_cast<uint64_t>(RoundIdx) * 131 + A);
      ++R.Stats.Attacks;
      // Through a local: g++ 12's UBSan misreads the index of a
      // member-pointer array inside `this->*` as out of bounds.
      Attack Run = Catalog[A];
      (this->*Run)(Rnd);
    }
    ++R.Stats.Rounds;
  }
};

} // namespace

ProtoFuzzReport dahlia::fuzz::runProtoFuzz(const ProtoFuzzOptions &O) {
  TRACE_SPAN("fuzz.runProtoFuzz");
  ProtoFuzzReport R;
  if (!haveSockets()) {
    R.Stats.Skipped = true;
    return R;
  }

  service::ServiceOptions SO;
  SO.Threads = 2;
  SO.MaxBatch = 8;
  service::CompileService Svc(SO);
  service::TcpServerOptions TO;
  TO.MaxLineBytes = O.MaxLineBytes;
  service::TcpServer Srv(Svc, TO);
  std::string Err;
  if (!Srv.start(&Err)) {
    R.Failures.push_back(ProtoFailure{0, "start", "server start: " + Err});
    return R;
  }
  std::thread Loop([&] { Srv.run(); });

  // Well-behaved clients validate batches for the whole soak: the core
  // liveness property is that no hostile traffic disturbs them.
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Batches{0};
  std::atomic<int> FirstBatchDone{0};
  std::vector<std::thread> Good;
  std::vector<std::string> GoodFail(
      static_cast<size_t>(std::max(0, O.WellBehaved)));
  for (int T = 0; T < O.WellBehaved; ++T)
    Good.emplace_back([&, T] {
      int Fd = connectLoopback(Srv.port());
      if (Fd < 0) {
        GoodFail[T] = "connect failed";
        FirstBatchDone.fetch_add(1);
        return;
      }
      bool FirstDone = false;
      {
        FdStreamBuf Buf(Fd);
        std::istream In(&Buf);
        std::ostream Out(&Buf);
        service::ServiceClient C(In, Out);
        while (!Stop.load(std::memory_order_relaxed) && GoodFail[T].empty()) {
          std::vector<service::Request> Batch;
          service::Request Chk;
          Chk.Kind = service::Op::Check;
          Chk.Source = GoodSrc;
          Batch.push_back(Chk);
          service::Request Est;
          Est.Kind = service::Op::Estimate;
          Est.Source = GoodSrc;
          Batch.push_back(Est);
          std::vector<service::ClientResponse> Rs = C.callBatch(Batch);
          if (Rs.size() != 2)
            GoodFail[T] = "short batch";
          else if (!Rs[0].R.Ok)
            GoodFail[T] = "check flipped: " + Rs[0].Raw.dump();
          else if (!Rs[1].R.Ok || !Rs[1].R.Est || Rs[1].R.Est->Cycles <= 0)
            GoodFail[T] = "estimate broke: " + Rs[1].Raw.dump();
          else
            Batches.fetch_add(1, std::memory_order_relaxed);
          if (!FirstDone) {
            FirstDone = true;
            FirstBatchDone.fetch_add(1);
          }
        }
      }
      closeFd(Fd);
    });

  // Hostile rounds start once every client has a first batch in, so a
  // client the scheduler starts late cannot miss a short soak entirely.
  for (int Ms = 0; Ms < 10000 && FirstBatchDone.load() < O.WellBehaved; ++Ms)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  Soak S{O, R, Srv.port()};
  for (int Round = 0; Round < O.Rounds; ++Round)
    S.runRound(Round);

  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Good)
    T.join();
  R.Stats.WellBehavedBatches = Batches.load();
  for (size_t T = 0; T < GoodFail.size(); ++T)
    if (!GoodFail[T].empty())
      R.Failures.push_back(ProtoFailure{
          -1, "well-behaved",
          "client " + std::to_string(T) + ": " + GoodFail[T]});
  if (O.WellBehaved > 0 && Batches.load() == 0 &&
      std::all_of(GoodFail.begin(), GoodFail.end(),
                  [](const std::string &F) { return F.empty(); }))
    R.Failures.push_back(ProtoFailure{
        -1, "well-behaved", "no validated batch completed during the soak"});

  // Final liveness probe: a fresh client must still get correct answers.
  {
    HostileConn Probe(Srv.port());
    S.Round = -1;
    if (Probe.ok()) {
      Probe.sendAll(S.validCheckLine(999), &R.Stats.HostileBytes);
      S.expectResponse(Probe, "liveness-probe", 999, true);
    } else {
      R.Failures.push_back(
          ProtoFailure{-1, "liveness-probe", "connect failed after soak"});
    }
  }

  Srv.stop();
  Loop.join();
  return R;
}

//===----------------------------------------------------------------------===//
// Cluster dialect: hostile workers vs a real coordinator
//===----------------------------------------------------------------------===//

namespace {

/// One catalog entry of the worker-fault schedule.
struct WorkerAttack {
  const char *Slug;
  cluster::FaultMode Mode;
};

constexpr WorkerAttack kWorkerCatalog[] = {
    {"garbage-chunk", cluster::FaultMode::GarbageChunk},
    {"duplicate-chunk", cluster::FaultMode::DuplicateChunk},
    {"premature-end", cluster::FaultMode::PrematureEnd},
    {"truncate-frame", cluster::FaultMode::TruncateFrame},
    {"kill-mid-stream", cluster::FaultMode::KillMidStream},
    {"scripted-reply", cluster::FaultMode::Scripted},
};

/// Seeded garbage scripts for the scripted-reply attack: duplicate
/// terminals, shard-echo lies, half-JSON — replies that parse (or don't)
/// but can never validate as the requested shard.
std::vector<std::string> hostileScript(Rng &Rnd) {
  std::vector<std::string> Script;
  switch (Rnd.below(4)) {
  case 0: // duplicate full reply for the same id
    Script.push_back(
        R"({"id":1,"op":"dse-sweep","ok":true,"sweep":{"front":[0],"accepted_front":[],"shard_index":0,"shard_count":2,"explored":1,"front_points":[]}})");
    Script.push_back(Script.back());
    break;
  case 1: // shard echo lie: claims a different shard than asked
    Script.push_back(
        R"({"id":1,"op":"dse-sweep","ok":true,"sweep":{"front":[],"accepted_front":[],"shard_index":7,"shard_count":9,"explored":0,"front_points":[]}})");
    break;
  case 2: // premature stream_end with no header context
    Script.push_back(R"({"id":1,"op":"dse-sweep","ok":true,"stream_end":true})");
    break;
  default: // half a JSON object, then silence
    Script.push_back(R"({"id":1,"op":"dse-sweep","ok":tru)");
    break;
  }
  return Script;
}

} // namespace

ProtoFuzzReport dahlia::fuzz::runClusterFuzz(const ClusterFuzzOptions &O) {
  TRACE_SPAN("fuzz.runClusterFuzz");
  ProtoFuzzReport R;
  if (!haveSockets()) {
    R.Stats.Skipped = true;
    return R;
  }

  // The single-machine reference front the oracle compares against.
  service::ServiceOptions RefSO;
  RefSO.Threads = 2;
  std::string RefHash, RefFront;
  {
    service::CompileService RefSvc(RefSO);
    service::ServiceClient RefC(RefSvc);
    service::ClientResponse Ref =
        RefC.dseSweep("gemm-blocked", O.Limit, 2);
    if (!Ref.R.Ok) {
      R.Failures.push_back(
          ProtoFailure{0, "reference", "reference sweep failed"});
      return R;
    }
    RefHash = Ref.Raw.at("sweep").at("front_hash").asString();
    RefFront = Ref.Raw.at("sweep").at("front").dump();
  }

  for (int Round = 0; Round < O.Rounds; ++Round) {
    size_t NAttacks = sizeof(kWorkerCatalog) / sizeof(kWorkerCatalog[0]);
    for (size_t A = 0; A < NAttacks; ++A) {
      Rng Rnd(O.Seed * 6364136223846793005ULL +
              static_cast<uint64_t>(Round) * 1442695040888963407ULL + A);
      const WorkerAttack &Attack = kWorkerCatalog[A];
      ++R.Stats.Attacks;

      service::ServiceOptions SO;
      SO.Threads = 2;
      service::CompileService HonestSvc(SO);
      service::TcpServer Honest(HonestSvc);
      std::string Err;
      if (!Honest.start(&Err)) {
        R.Failures.push_back(
            ProtoFailure{Round, Attack.Slug, "honest start: " + Err});
        continue;
      }
      std::thread HonestLoop([&] { Honest.run(); });

      cluster::FaultOptions FO;
      FO.Mode = Attack.Mode;
      // 0 = hostile forever (the worker must be retired), else hostile
      // for a seeded prefix of connections (retries must converge).
      FO.TriggerConnections =
          Rnd.chance(40) ? 0 : static_cast<unsigned>(Rnd.range(1, 2));
      FO.AfterChunks = static_cast<unsigned>(Rnd.range(0, 3));
      if (Attack.Mode == cluster::FaultMode::Scripted)
        FO.Script = hostileScript(Rnd);
      cluster::FaultyWorker Hostile(FO, SO);
      if (!Hostile.start()) {
        R.Failures.push_back(
            ProtoFailure{Round, Attack.Slug, "hostile worker start failed"});
        Honest.stop();
        HonestLoop.join();
        continue;
      }
      ++R.Stats.HostileConnections;

      cluster::ClusterOptions CO;
      cluster::WorkerSpec W1, W2;
      W1.Port = Honest.port();
      W2.Port = Hostile.port();
      CO.Workers = {W1, W2};
      CO.Space = "gemm-blocked";
      CO.Limit = O.Limit;
      CO.SweepThreads = 2;
      CO.Shards = static_cast<unsigned>(Rnd.range(2, 5));
      CO.Retry = 5;
      CO.RetryBackoffMs = 5;
      CO.ShardTimeoutMs = 10000;
      cluster::ClusterResult CR = cluster::ClusterCoordinator(std::move(CO)).run();

      // Exact-front-or-structured-error: the two honest outcomes. A
      // wrong front behind ok:true — or a failure with no error to act
      // on — is a coordinator bug, worth a minimized corpus entry.
      if (CR.Ok) {
        if (CR.FrontHash != RefHash)
          R.Failures.push_back(ProtoFailure{
              Round, Attack.Slug,
              "front diverged: cluster " + CR.FrontHash + " (" +
                  dse::indicesToJson(CR.Fronts.Front).dump() +
                  ") vs single-machine " + RefHash + " (" + RefFront + ")"});
      } else if (CR.Errors.empty()) {
        R.Failures.push_back(ProtoFailure{
            Round, Attack.Slug, "run failed without a structured error"});
      }

      // Per-round liveness probe: the honest worker survived the round.
      {
        int Fd = connectLoopback(Honest.port());
        if (Fd < 0) {
          R.Failures.push_back(ProtoFailure{
              Round, Attack.Slug, "honest worker unreachable after round"});
        } else {
          setRecvTimeout(Fd, 5000);
          FdStreamBuf Buf(Fd);
          std::iostream Ios(&Buf);
          service::ServiceClient Probe(Ios, Ios);
          if (!Probe.check(GoodSrc).R.Ok)
            R.Failures.push_back(ProtoFailure{
                Round, Attack.Slug, "honest worker broke after round"});
          closeFd(Fd);
        }
      }

      Hostile.stop();
      Honest.stop();
      HonestLoop.join();
    }
    ++R.Stats.Rounds;
  }
  return R;
}

#endif // DAHLIA_FUZZ_HAVE_SOCKETS
