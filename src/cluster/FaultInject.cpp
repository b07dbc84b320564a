//===- FaultInject.cpp - Fault-injecting dahlia-serve worker ----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "cluster/FaultInject.h"

#include "support/Socket.h"

#include <chrono>
#include <istream>
#include <ostream>
#include <thread>

using namespace dahlia;
using namespace dahlia::cluster;

namespace {

/// A chunk line of a streamed dse-sweep reply. The worker never streams
/// simulate replies in these tests, so front_point is the only chunk key
/// the faults need to recognize.
bool isChunkLine(const std::string &Line) {
  return Line.find("\"front_point\"") != std::string::npos;
}

/// Sleeps \p Ms in small slices, bailing early when \p Stop flips — a
/// stalled worker must not also stall its own harness teardown.
void interruptibleSleep(int Ms, const std::atomic<bool> &Stop) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (!Stop.load(std::memory_order_relaxed) &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

} // namespace

FaultyWorker::FaultyWorker(FaultOptions FO, service::ServiceOptions SO)
    : Opts(std::move(FO)), Svc(std::move(SO)) {}

FaultyWorker::~FaultyWorker() { stop(); }

bool FaultyWorker::start() {
  if (!haveSockets())
    return false;
  ListenFd = listenLoopback(0);
  if (ListenFd < 0)
    return false;
  Port = boundPort(ListenFd);
  if (Port < 0) {
    closeFd(ListenFd);
    ListenFd = -1;
    return false;
  }
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void FaultyWorker::stop() {
  if (ListenFd < 0)
    return;
  Stopping.store(true, std::memory_order_relaxed);
  // accept() does not reliably wake on a cross-thread close; poke the
  // listener with one throwaway connection instead.
  closeFd(connectLoopback(Port));
  if (Acceptor.joinable())
    Acceptor.join();
  closeFd(ListenFd);
  ListenFd = -1;
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(HandlersM);
    ToJoin.swap(Handlers);
  }
  for (std::thread &T : ToJoin)
    if (T.joinable())
      T.join();
}

void FaultyWorker::acceptLoop() {
  for (;;) {
    int Fd = acceptConnection(ListenFd);
    if (Stopping.load(std::memory_order_relaxed)) {
      closeFd(Fd);
      return;
    }
    if (Fd < 0)
      continue;
    unsigned Serial = static_cast<unsigned>(
        Accepted.fetch_add(1, std::memory_order_relaxed) + 1);
    std::lock_guard<std::mutex> Lock(HandlersM);
    Handlers.emplace_back(
        [this, Fd, Serial] { serveConnection(Fd, Serial); });
  }
}

void FaultyWorker::serveConnection(int Fd, unsigned Serial) {
  // A client that holds the connection open without sending must not pin
  // this handler past teardown; the timeout surfaces as EOF below.
  setRecvTimeout(Fd, 10000);
  FdStreamBuf Buf(Fd);
  std::istream In(&Buf);

  std::string Line;
  std::vector<std::string> Epoch;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty()) {
      Epoch.push_back(Line);
      continue;
    }
    if (Epoch.empty())
      continue;

    std::vector<std::string> OutLines;
    if (Opts.Mode == FaultMode::Scripted &&
        (Opts.TriggerConnections == 0 ||
         Serial <= Opts.TriggerConnections)) {
      OutLines = Opts.Script;
      Faulted.fetch_add(1, std::memory_order_relaxed);
      writeLines(Fd, OutLines, 0); // 0: already transformed, write verbatim
      break;                       // scripted connections answer once
    }

    // The genuine service computes every reply; streamed dse-sweeps
    // expand through ResponseStream exactly as dahlia-serve writes them.
    std::vector<service::CompileService::BatchEntry> Entries =
        Svc.processBatchEx(Epoch);
    Epoch.clear();
    for (service::CompileService::BatchEntry &E : Entries) {
      if (E.Req && service::ResponseStream::wantsStream(*E.Req, E.Resp)) {
        service::ResponseStream S(std::move(E.Resp));
        while (std::optional<std::string> L = S.next())
          OutLines.push_back(std::move(*L));
      } else {
        OutLines.push_back(E.Resp.toJson().dump());
      }
    }
    if (!writeLines(Fd, OutLines, Serial))
      break;
  }
  closeFd(Fd);
}

bool FaultyWorker::writeLines(int Fd, const std::vector<std::string> &Lines,
                              unsigned Serial) {
  FdStreamBuf Buf(Fd);
  std::ostream Os(&Buf);
  bool Triggered = Serial != 0 && Opts.Mode != FaultMode::None &&
                   (Opts.TriggerConnections == 0 ||
                    Serial <= Opts.TriggerConnections);
  bool Injected = false;
  unsigned ChunksSeen = 0;

  for (const std::string &Line : Lines) {
    bool Chunk = isChunkLine(Line);

    if (Triggered && Chunk && ChunksSeen == Opts.AfterChunks) {
      switch (Opts.Mode) {
      case FaultMode::KillMidStream:
        Os.flush();
        Faulted.fetch_add(1, std::memory_order_relaxed);
        return false;
      case FaultMode::Stall:
        Os.flush();
        Faulted.fetch_add(1, std::memory_order_relaxed);
        interruptibleSleep(Opts.StallMs, Stopping);
        Triggered = false; // stall once, then finish honestly
        break;
      case FaultMode::TruncateFrame:
        Os << Line.substr(0, Line.size() / 2);
        Os.flush();
        Faulted.fetch_add(1, std::memory_order_relaxed);
        return false;
      case FaultMode::GarbageChunk: {
        // Same id, unrecognized chunk key: the strict client must turn
        // this into a structured error, never merge past it.
        Json G = Json::object();
        if (std::optional<Json> J = Json::parse(Line))
          G["id"] = J->at("id");
        G["chunk"] = "garbage";
        G["payload"] = Json::array();
        Os << G.dump() << "\n";
        Injected = true;
        Triggered = false;
        break;
      }
      case FaultMode::DuplicateChunk:
        Os << Line << "\n"; // once here, once below: exact duplicate
        Injected = true;
        Triggered = false;
        break;
      case FaultMode::None:
      case FaultMode::Scripted:
      case FaultMode::PrematureEnd:
        break;
      }
    }

    if (Triggered && Chunk && Opts.Mode == FaultMode::PrematureEnd) {
      Injected = true;
      ++ChunksSeen;
      continue; // drop every chunk; the terminal still announces them
    }

    Os << Line << "\n";
    if (Chunk)
      ++ChunksSeen;
  }
  Os.flush();
  if (Injected)
    Faulted.fetch_add(1, std::memory_order_relaxed);
  return true;
}
