//===- Service.cpp - service-mixed workload ----------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// A closed loop of four TCP connections against an in-process TcpServer
// whose CompileService runs two epoch threads. Each connection sends its
// next request when the previous reply arrives. The seeded request mix:
//
//   40%  check of a never-seen variant   lex, parse, check, memo write
//   30%  check of an earlier variant     memo read
//   15%  session rewrite                 parse reuse, check
//   10%  estimate of an accepted config  spec extraction, Full estimate
//    5%  simulate of an accepted config  cycle-level simulation
//
// Every reply is checked against the reference: verdicts for checks and
// rewrites, bit-exact estimates and simulations for the rest.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cyclesim/CycleSim.h"
#include "driver/SpecExtractor.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "service/ServiceClient.h"
#include "service/TcpServer.h"
#include "support/Socket.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <memory>
#include <ostream>
#include <thread>

using namespace dahlia;
using namespace dahlia::service;

namespace perfbench {
namespace {

constexpr unsigned Clients = 4;
constexpr unsigned EpochThreads = 2;
constexpr unsigned SetupReps = 9;
/// Requests per client covered by the printed input digest.
constexpr size_t DigestPrefix = 4096;
/// Requests per client replayed through the layers in the traced run.
constexpr size_t ReplayPerClient = 2500;
/// The end-to-end statistics are medians over windows of this length, so
/// a stall of the machine shorter than half the run does not decide them.
constexpr double WindowSec = 1.0;

enum class Kind : uint8_t { NewCheck, RepeatCheck, Rewrite, Estimate, Simulate };

const char *kindName(Kind K) {
  switch (K) {
  case Kind::NewCheck:
    return "check-new";
  case Kind::RepeatCheck:
    return "check-repeat";
  case Kind::Rewrite:
    return "rewrite";
  case Kind::Estimate:
    return "estimate";
  case Kind::Simulate:
    return "simulate";
  }
  return "?";
}

/// One generated request, before rendering. Salt > 0 marks a never-seen
/// variant drawn after the spaces ran out: a trailing comment makes its
/// source (and memo key) new while its verdict stays the config's.
struct Desc {
  Kind K;
  SpaceId Space;
  uint32_t Index;
  uint32_t Salt;
};

/// Every (space, config) pair, in one seeded order shared by the clients:
/// client c takes positions c, c + Clients, ... for its never-seen checks.
std::vector<std::pair<SpaceId, uint32_t>> neverSeenOrder(const Spaces &Sp,
                                                         uint64_t Seed) {
  std::vector<std::pair<SpaceId, uint32_t>> All;
  for (unsigned S = 0; S != NumSpaces; ++S)
    for (size_t I = 0; I != Sp.size(static_cast<SpaceId>(S)); ++I)
      All.push_back({static_cast<SpaceId>(S), static_cast<uint32_t>(I)});
  Rng R(Seed ^ 0x6e657665722d7365ULL);
  std::vector<size_t> P = permutation(All.size(), R);
  std::vector<std::pair<SpaceId, uint32_t>> Out(All.size());
  for (size_t I = 0; I != P.size(); ++I)
    Out[I] = All[P[I]];
  return Out;
}

/// The per-client request stream: deterministic in (seed, client).
class Stream {
public:
  Stream(uint64_t Seed, unsigned Client,
         const std::vector<std::pair<SpaceId, uint32_t>> &NeverSeen,
         const Spaces &Sp, const Reference &Ref)
      : R(Seed * 0x2545f4914f6cdd1dULL + Client + 1), Client(Client),
        NeverSeen(NeverSeen), Sp(Sp), Ref(Ref) {}

  Desc next() {
    uint64_t U = R.below(100);
    if (U >= 40 && U < 70 && !History.empty())
      return History[R.below(History.size())];
    if (U < 70) {
      size_t Pos = Client + NewCount++ * Clients;
      auto [S, I] = NeverSeen[Pos % NeverSeen.size()];
      Desc D{Kind::NewCheck, S, I,
             static_cast<uint32_t>(Pos / NeverSeen.size())};
      History.push_back({Kind::RepeatCheck, S, I, D.Salt});
      return D;
    }
    SpaceId S = static_cast<SpaceId>(R.below(NumSpaces));
    if (U < 85)
      return {Kind::Rewrite, S, static_cast<uint32_t>(R.below(Sp.size(S))), 0};
    const std::vector<size_t> &Acc = Ref.acceptedList(S);
    uint32_t I = static_cast<uint32_t>(Acc[R.below(Acc.size())]);
    return {U < 95 ? Kind::Estimate : Kind::Simulate, S, I, 0};
  }

private:
  Rng R;
  unsigned Client;
  size_t NewCount = 0;
  std::vector<Desc> History;
  const std::vector<std::pair<SpaceId, uint32_t>> &NeverSeen;
  const Spaces &Sp;
  const Reference &Ref;
};

std::string sessionName(unsigned Client, SpaceId S) {
  return "c" + std::to_string(Client) + "-" + spaceName(S);
}

Request render(const Desc &D, unsigned Client, const Spaces &Sp) {
  Request Q;
  Q.Kind = D.K == Kind::Estimate   ? Op::Estimate
           : D.K == Kind::Simulate ? Op::Simulate
                                   : Op::Check;
  if (D.K == Kind::Rewrite) {
    Q.Session = sessionName(Client, D.Space);
    Q.Rw = Sp.rewrite(D.Space, D.Index);
    return Q;
  }
  Q.Source = Sp.source(D.Space, D.Index);
  if (D.Salt)
    Q.Source += "// variant " + std::to_string(D.Salt) + "\n";
  return Q;
}

/// Whether reply \p C answers \p D as the reference says it must.
bool correct(const Desc &D, const ClientResponse &C, const Reference &Ref) {
  const Response &Rp = C.R;
  for (const Error &E : Rp.Errors)
    if (E.kind() == ErrorKind::Internal)
      return false;
  if (D.K == Kind::NewCheck || D.K == Kind::RepeatCheck ||
      D.K == Kind::Rewrite) {
    bool Acc = Ref.accepted(D.Space, D.Index);
    return Rp.Ok == Acc && (Acc || !Rp.Errors.empty());
  }
  if (!Rp.Ok || !Rp.Est)
    return false;
  const Json &Want =
      Ref.space(D.Space).at("service").at(std::to_string(D.Index));
  if (D.K == Kind::Estimate)
    return sameJson(toJson(*Rp.Est), Want.at("estimate"));
  return Rp.Sim && sameJson(toJson(*Rp.Est), Want.at("exact")) &&
         sameJson(toJson(*Rp.Sim), Want.at("sim"));
}

/// One client connection; the stream objects reference the fd buffer.
struct Conn {
  int Fd = -1;
  std::unique_ptr<FdStreamBuf> Buf;
  std::unique_ptr<std::istream> In;
  std::unique_ptr<std::ostream> Out;
  std::unique_ptr<ServiceClient> Client;

  explicit Conn(int Port) : Fd(connectLoopback(Port)) {
    if (Fd < 0)
      return;
    Buf = std::make_unique<FdStreamBuf>(Fd);
    In = std::make_unique<std::istream>(Buf.get());
    Out = std::make_unique<std::ostream>(Buf.get());
    Client = std::make_unique<ServiceClient>(*In, *Out);
  }
  ~Conn() {
    Client.reset();
    Out.reset();
    In.reset();
    Buf.reset();
    closeFd(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
};

/// Service, server, serving thread and client connections of one set-up.
/// Teardown order: clients close, the server stops, its thread joins.
struct Rig {
  std::unique_ptr<CompileService> Svc;
  std::unique_ptr<TcpServer> Srv;
  std::thread Loop;
  std::vector<std::unique_ptr<Conn>> Conns;
  bool Stopped = false;

  bool start(std::string &Err) {
    ServiceOptions SO;
    SO.Threads = EpochThreads;
    Svc = std::make_unique<CompileService>(SO);
    Srv = std::make_unique<TcpServer>(*Svc);
    if (!Srv->start(&Err))
      return false;
    Loop = std::thread([this] { Srv->run(); });
    for (unsigned C = 0; C != Clients; ++C) {
      Conns.push_back(std::make_unique<Conn>(Srv->port()));
      if (!Conns.back()->Client) {
        Err = "cannot connect to the server";
        return false;
      }
    }
    return true;
  }

  void stop() {
    if (Stopped)
      return;
    Stopped = true;
    Conns.clear();
    if (Srv)
      Srv->stop();
    if (Loop.joinable())
      Loop.join();
  }

  ~Rig() { stop(); }
};

/// What one client saw, in send order.
struct ClientLog {
  std::vector<Desc> Sent;
  std::vector<double> RttMs, ServerMs;
  std::vector<uint64_t> DoneNs; ///< Completion time of each request.
  std::vector<char> Cached, Reused;
  std::vector<std::string> Lines; ///< Reply lines of the replay prefix.
  std::vector<uint64_t> Walked;   ///< Walked groups per simulate reply.
  uint64_t Failed = 0;
  std::string FirstFailure;
};

void clientLoop(unsigned C, Conn &Cn, Stream &St, const Spaces &Sp,
                const Reference &Ref, uint64_t DeadlineNs, ClientLog &L) {
  while (nowNs() < DeadlineNs) {
    Desc D = St.next();
    Request Q = render(D, C, Sp);
    uint64_t T0 = nowNs();
    ClientResponse Rsp = [&] {
      trace::Span S("service.request");
      return Cn.Client->call(std::move(Q));
    }();
    uint64_t T1 = nowNs();
    L.Sent.push_back(D);
    L.RttMs.push_back((T1 - T0) * 1e-6);
    L.DoneNs.push_back(T1);
    L.ServerMs.push_back(Rsp.R.LatencyMs);
    L.Cached.push_back(Rsp.R.Cached);
    L.Reused.push_back(Rsp.R.ParseReused);
    if (D.K == Kind::Simulate && Rsp.R.Sim)
      L.Walked.push_back(Rsp.R.Sim->WalkedGroups);
    if (trace::on() && L.Lines.size() < ReplayPerClient)
      L.Lines.push_back(Rsp.Raw.dump());
    if (!correct(D, Rsp, Ref)) {
      if (!L.Failed++)
        L.FirstFailure = std::string(kindName(D.K)) + " " +
                         spaceName(D.Space) + "#" + std::to_string(D.Index) +
                         " answered wrongly";
    }
  }
}

/// Replays the first requests each client sent through the layer
/// functions, repeating only the work the server reported doing (a memo
/// hit did none; a session rewrite skipped the parse).
void replayService(const std::vector<ClientLog> &Logs, const Spaces &Sp,
                   size_t &Checked, size_t &Accepted) {
  trace::Span Root("replay");
  for (unsigned C = 0; C != Logs.size(); ++C) {
    const ClientLog &L = Logs[C];
    size_t N = std::min(L.Sent.size(), ReplayPerClient);
    for (size_t I = 0; I != N; ++I) {
      const Desc &D = L.Sent[I];
      Request Q = render(D, C, Sp);
      if (I < L.Lines.size()) {
        trace::Span S("service.json");
        std::string Line = Q.toJson().dump();
        (void)Request::fromJson(Line);
        (void)Json::parse(L.Lines[I]);
        (void)decodeResponse(L.Lines[I]);
      }
      bool Simulate = D.K == Kind::Simulate;
      if (L.Cached[I] && !Simulate)
        continue;
      std::string Src =
          D.K == Kind::Rewrite ? Sp.source(D.Space, D.Index) : Q.Source;
      if (D.K != Kind::Rewrite || !L.Reused[I]) {
        trace::Span S("lexer.lex");
        (void)lex(Src);
      }
      dahlia::Result<Program> Prog = [&] {
        if (D.K == Kind::Rewrite && L.Reused[I])
          return parseProgram(Src); // The server cloned a parse instead.
        trace::Span S("parser.parse");
        return parseProgram(Src);
      }();
      if (!Prog)
        continue;
      bool Ok = false;
      {
        trace::Span S("sema.check");
        Ok = typeCheck(*Prog).empty();
      }
      ++Checked;
      Accepted += Ok ? 1 : 0;
      if (!Ok || (D.K != Kind::Estimate && !Simulate))
        continue;
      dahlia::Result<hlsim::KernelSpec> Spec = [&] {
        trace::Span S("driver.spec");
        return driver::extractKernelSpec(*Prog);
      }();
      if (!Spec)
        continue;
      if (Simulate) {
        trace::Span S("cyclesim.sim");
        (void)cyclesim::simulate(*Spec);
      }
      if (!L.Cached[I]) {
        trace::Span S("hlsim.full");
        (void)hlsim::estimate(*Spec);
      }
    }
  }
}

} // namespace

int runServiceMixed(const Options &O, const Reference &Ref, RunResult &R) {
  if (!haveSockets()) {
    std::fprintf(stderr, "service-mixed: this build has no sockets\n");
    return 1;
  }
  struct Inputs {
    std::shared_ptr<const Spaces> Sp;
    std::shared_ptr<const std::vector<std::pair<SpaceId, uint32_t>>> Order;
  };
  // Set up SetupReps times; each earlier rig is torn down untimed.
  std::vector<double> Times;
  std::unique_ptr<Rig> Live;
  std::string Err;
  Inputs In;
  for (unsigned Rep = 0; Rep != SetupReps && Err.empty(); ++Rep) {
    Live.reset();
    uint64_t T0 = nowNs();
    trace::Span S("setup");
    In.Sp = std::make_shared<const Spaces>();
    In.Order =
        std::make_shared<const std::vector<std::pair<SpaceId, uint32_t>>>(
            neverSeenOrder(*In.Sp, O.Seed));
    Live = std::make_unique<Rig>();
    if (!Live->start(Err))
      break;
    // Each client opens one session per space on configuration 0.
    for (unsigned C = 0; C != Clients; ++C)
      for (unsigned Sid = 0; Sid != NumSpaces; ++Sid) {
        SpaceId Sp = static_cast<SpaceId>(Sid);
        ClientResponse Rsp = Live->Conns[C]->Client->check(
            In.Sp->source(Sp, 0), sessionName(C, Sp));
        if (Rsp.R.Ok != Ref.accepted(Sp, 0))
          Err = "session set-up answered wrongly";
      }
    Times.push_back((nowNs() - T0) * 1e-9);
  }
  if (!Err.empty()) {
    std::fprintf(stderr, "service-mixed: %s\n", Err.c_str());
    return 1;
  }

  Digest D;
  std::vector<std::unique_ptr<Stream>> Streams;
  for (unsigned C = 0; C != Clients; ++C) {
    Stream Probe(O.Seed, C, *In.Order, *In.Sp, Ref);
    for (size_t K = 0; K != DigestPrefix; ++K) {
      Desc X = Probe.next();
      D.add((static_cast<uint64_t>(X.K) << 56) |
            (static_cast<uint64_t>(X.Space) << 48) |
            (static_cast<uint64_t>(X.Salt) << 32) | X.Index);
    }
    Streams.push_back(
        std::make_unique<Stream>(O.Seed, C, *In.Order, *In.Sp, Ref));
  }
  R.Info["input_digest"] = D.hex();
  R.Info["clients"] = Clients;
  R.Info["epoch_threads"] = EpochThreads;

  std::vector<ClientLog> Logs(Clients);
  uint64_t StartNs = nowNs();
  uint64_t DeadlineNs = StartNs + static_cast<uint64_t>(O.Seconds * 1e9);
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        clientLoop(C, *Live->Conns[C], *Streams[C], *In.Sp, Ref, DeadlineNs,
                   Logs[C]);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  Live->stop();
  TcpServerStats Tcp = Live->Srv->stats();
  ServiceStats Svc = Live->Svc->stats();

  std::vector<double> Rtt, Server, Wait;
  size_t Counts[5] = {0, 0, 0, 0, 0};
  std::vector<uint64_t> Walked;
  for (const ClientLog &L : Logs) {
    Rtt.insert(Rtt.end(), L.RttMs.begin(), L.RttMs.end());
    Server.insert(Server.end(), L.ServerMs.begin(), L.ServerMs.end());
    for (size_t I = 0; I != L.RttMs.size(); ++I)
      Wait.push_back(L.RttMs[I] - L.ServerMs[I]);
    for (const Desc &X : L.Sent)
      ++Counts[static_cast<unsigned>(X.K)];
    Walked.insert(Walked.end(), L.Walked.begin(), L.Walked.end());
    R.Attempted += L.Sent.size();
    R.fail(L.Failed, L.FirstFailure);
  }
  // Whole windows of the run: requests completed, and the median and p99
  // round trip of each (thousands of samples per window, so tens lie
  // beyond its p99).
  size_t NumWindows = static_cast<size_t>(O.Seconds / WindowSec);
  std::vector<std::vector<double>> Win(NumWindows);
  for (const ClientLog &L : Logs)
    for (size_t I = 0; I != L.RttMs.size(); ++I) {
      size_t W = static_cast<size_t>((L.DoneNs[I] - StartNs) * 1e-9 / WindowSec);
      if (W < NumWindows)
        Win[W].push_back(L.RttMs[I]);
    }
  std::vector<double> Rates, P50s, P99s;
  size_t Beyond = 0;
  for (const std::vector<double> &W : Win) {
    if (W.empty())
      continue;
    Rates.push_back(W.size() / WindowSec);
    P50s.push_back(median(W));
    double P99 = latencyP99(W);
    P99s.push_back(P99);
    for (double V : W)
      Beyond += V > P99 ? 1 : 0;
  }
  R.metric("configs_per_s", median(Rates), "1/s");
  R.metric("latency_p50_ms", median(P50s), "ms");
  R.metric("latency_p99_ms", median(P99s), "ms");
  R.metric("setup_s", median(Times), "s");
  R.Info["windows"] = Rates.size();
  R.Info["overall_req_per_s"] = Rtt.size() / O.Seconds;
  R.Info["overall_latency_p99_ms"] = latencyP99(Rtt);
  R.Info["samples_beyond_window_p99"] = Beyond;
  R.Info["latency_samples"] = Rtt.size();
  Json Mix = Json::object();
  for (unsigned K = 0; K != 5; ++K)
    Mix[kindName(static_cast<Kind>(K))] = Counts[K];
  R.Info["request_mix"] = std::move(Mix);

  if (trace::on()) {
    size_t Checked = 0, Accepted = 0;
    replayService(Logs, *In.Sp, Checked, Accepted);
    trace::Totals Lex = trace::totals("lexer.lex");
    trace::Totals Parse = trace::totals("parser.parse");
    size_t Estimates = 0, Simulates = Counts[static_cast<unsigned>(Kind::Simulate)];
    for (const ClientLog &L : Logs)
      for (size_t I = 0; I != L.Sent.size(); ++I)
        if (!L.Cached[I] && (L.Sent[I].K == Kind::Estimate ||
                             L.Sent[I].K == Kind::Simulate))
          ++Estimates;
    uint64_t WalkedSum = 0;
    for (uint64_t W : Walked)
      WalkedSum += W;
    R.layer("lexer.lex_us", Lex.meanUs(), "us");
    R.layer("parser.parse_us", Parse.meanUs() - Lex.meanUs(), "us");
    R.layer("sema.check_us", trace::totals("sema.check").meanUs(), "us");
    R.layer("sema.accept_ratio",
            Checked ? static_cast<double>(Accepted) / Checked : 0, "ratio");
    R.layer("driver.spec_us", trace::totals("driver.spec").meanUs(), "us");
    R.layer("hlsim.full_us", trace::totals("hlsim.full").meanUs(), "us");
    R.layer("hlsim.full_calls", static_cast<double>(Estimates), "count");
    R.layer("cyclesim.sim_us", trace::totals("cyclesim.sim").meanUs(), "us");
    R.layer("cyclesim.calls", static_cast<double>(Simulates), "count");
    R.layer("cyclesim.walked_groups",
            Walked.empty() ? 0 : static_cast<double>(WalkedSum) / Walked.size(),
            "count");
    R.layer("service.server_ms_p50", median(Server), "ms");
    R.layer("service.server_ms_p99", quantile(Server, 0.99), "ms");
    R.layer("service.json_us", trace::totals("service.json").meanUs(), "us");
    R.layer("service.cache_hit_ratio", Svc.cacheHitRate(), "ratio");
    size_t Rewrites = Counts[static_cast<unsigned>(Kind::Rewrite)];
    R.layer("service.parse_reuse_ratio",
            Rewrites ? static_cast<double>(Svc.ParseReuses) / Rewrites : 0,
            "ratio");
    R.layer("service.requests_per_epoch",
            Tcp.Epochs ? static_cast<double>(Tcp.RequestLines) / Tcp.Epochs : 0,
            "count");
    R.layer("tcp.wait_ms_p50", median(Wait), "ms");
    R.layer("tcp.wait_ms_p99", quantile(Wait, 0.99), "ms");
    R.layer("tcp.coalesced_epoch_ratio",
            Tcp.Epochs ? static_cast<double>(Tcp.CoalescedEpochs) / Tcp.Epochs
                       : 0,
            "ratio");
  }
  return 0;
}

} // namespace perfbench
