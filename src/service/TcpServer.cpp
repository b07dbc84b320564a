//===- TcpServer.cpp - Concurrent multi-client compile server ---*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/TcpServer.h"

#include "support/Metrics.h"
#include "support/Socket.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define DAHLIA_HAVE_SOCKETS 1
#include <sys/socket.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#endif

using namespace dahlia;
using namespace dahlia::service;

TcpServer::TcpServer(CompileService &S, TcpServerOptions O)
    : Svc(S), Opts(O) {
  Opts.MaxWriteBuffer = std::max<size_t>(Opts.MaxWriteBuffer, 1);
}

TcpServer::~TcpServer() {
  for (auto &[Serial, C] : Conns)
    closeFd(C.Fd);
  Conns.clear();
  closeFd(ListenFd);
}

TcpServerStats TcpServer::stats() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return Stats;
}

bool TcpServer::start(std::string *Err) {
  if (!haveSockets() || !Loop.valid()) {
    if (Err)
      *Err = "sockets are unavailable on this platform";
    return false;
  }
  ListenFd = listenLoopback(Opts.Port);
  if (ListenFd < 0) {
    if (Err)
      *Err = "bind/listen on 127.0.0.1:" + std::to_string(Opts.Port) +
             " failed: " + std::strerror(errno);
    return false;
  }
  setNonBlocking(ListenFd);
  BoundPort = boundPort(ListenFd);
  Loop.add(ListenFd, /*WantRead=*/true, /*WantWrite=*/false,
           [this](int, EventLoop::Events) { acceptReady(); });
  return true;
}

void TcpServer::run() {
  if (ListenFd < 0)
    return;
  if (trace::enabled())
    trace::traceSetThreadName("tcp-server");
  // Live watch streams: sweeps run serially on this thread (inside
  // dispatchEpochs), so their progress ticks surface here and may touch
  // connection state directly.
  LoopThread = std::this_thread::get_id();
  Svc.setProgressPublisher([this](const Json &Rec) { onProgress(Rec); });
  while (!Loop.stopRequested()) {
    if (Loop.poll(pollTimeoutMs()) < 0)
      break;
    // Epoch aggregation: with several clients connected, their requests
    // are usually in flight *concurrently* — but the first arrival wakes
    // us before the rest hit the socket. A few zero-timeout polls with
    // yields in between let the peer threads complete their sends, so
    // one epoch coalesces the whole wavefront instead of draining one
    // request per wake-up. Bounded (it never sleeps), and skipped
    // entirely for a single connection, whose latency it could only hurt.
    if (Conns.size() > 1) {
      size_t MaxBatch = std::max<size_t>(Svc.options().MaxBatch, 1);
      for (unsigned Idle = 0; Idle < 2 && Pending.size() < MaxBatch &&
                              !Loop.stopRequested();) {
        if (Loop.poll(0) > 0) {
          Idle = 0;
          continue;
        }
        std::this_thread::yield();
        if (Loop.poll(0) > 0)
          Idle = 0;
        else
          ++Idle;
      }
    }
    // Idle heartbeat for watch streams whose interval elapsed with no
    // live sweep tick (also what ends a bounded watch on a quiet server).
    serviceDueWatchers(trace::nowUs());
    // Everything read this round — from however many connections were
    // ready — forms the next epoch(s): this is the cross-client
    // coalescing that raises warm throughput.
    dispatchEpochs();
  }
  Svc.setProgressPublisher(nullptr);
  // Orderly teardown: no further reads; drop connections. One cache
  // save covers them all — per-close saves would repeat identical
  // full-directory writes N times.
  InTeardown = true;
  std::vector<uint64_t> Serials;
  for (const auto &[Serial, C] : Conns)
    Serials.push_back(Serial);
  for (uint64_t Serial : Serials)
    closeConnection(Serial);
  InTeardown = false;
  if (!Serials.empty())
    Svc.savePersistentCache();
}

void TcpServer::stop() { Loop.stop(); }

//===----------------------------------------------------------------------===//
// Accept / close
//===----------------------------------------------------------------------===//

void TcpServer::acceptReady() {
#ifdef DAHLIA_HAVE_SOCKETS
  while (true) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN (drained) or transient error: poll again.
    if (Conns.size() >= Opts.MaxConnections) {
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    if (Opts.SendBufferBytes > 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SendBufferBytes,
                   sizeof(Opts.SendBufferBytes));
    uint64_t Serial = NextSerial++;
    Connection &C = Conns[Serial];
    C.Fd = Fd;
    // Each connection gets its own named trace track; its lifetime span
    // is emitted at close so Perfetto shows one row per client.
    C.TrackId = trace::traceMakeTrack("conn-" + std::to_string(Serial));
    C.AcceptUs = C.TrackId ? trace::nowUs() : 0;
    static metrics::Counter &AcceptedC =
        metrics::counter("server.connections_accepted");
    AcceptedC.inc();
    FdToSerial[Fd] = Serial;
    Loop.add(Fd, /*WantRead=*/true, /*WantWrite=*/false,
             [this, Serial](int, EventLoop::Events E) {
               connectionReady(Serial, E);
             });
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.Accepted;
    Stats.MaxConcurrentConnections =
        std::max(Stats.MaxConcurrentConnections, Conns.size());
  }
#endif
}

void TcpServer::closeConnection(uint64_t Serial) {
  auto It = Conns.find(Serial);
  if (It == Conns.end())
    return;
  if (It->second.TrackId)
    trace::traceSpanOnTrack(It->second.TrackId, "server.connection",
                            It->second.AcceptUs,
                            trace::nowUs() - It->second.AcceptUs);
  static metrics::Counter &ClosedC =
      metrics::counter("server.connections_closed");
  ClosedC.inc();
  int Fd = It->second.Fd;
  Loop.remove(Fd);
  FdToSerial.erase(Fd);
  closeFd(Fd);
  Conns.erase(It);
  // Lines already framed for this connection can no longer be answered;
  // drop them rather than computing responses nobody will read.
  Pending.erase(std::remove_if(
                    Pending.begin(), Pending.end(),
                    [Serial](const auto &P) { return P.first == Serial; }),
                Pending.end());
  // Watch streams die with their connection.
  Watchers.erase(std::remove_if(Watchers.begin(), Watchers.end(),
                                [Serial](const Watcher &W) {
                                  return W.Serial == Serial;
                                }),
                 Watchers.end());
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.Closed;
  }
  // Persist on every close, so the cache survives abrupt server exits.
  if (!InTeardown)
    Svc.savePersistentCache();
}

//===----------------------------------------------------------------------===//
// Reading and framing
//===----------------------------------------------------------------------===//

void TcpServer::connectionReady(uint64_t Serial, EventLoop::Events E) {
  auto It = Conns.find(Serial);
  if (It == Conns.end())
    return;
  if (E.Error) {
    closeConnection(Serial);
    return;
  }
  if (E.Readable)
    readFrom(Serial, It->second);
  // readFrom may have closed (and erased) the connection; re-resolve.
  It = Conns.find(Serial);
  if (It != Conns.end())
    pump(Serial, It->second);
}

void TcpServer::readFrom(uint64_t Serial, Connection &C) {
#ifdef DAHLIA_HAVE_SOCKETS
  char Buf[1 << 16];
  while (true) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.InBuf.append(Buf, static_cast<size_t>(N));
      std::lock_guard<std::mutex> Lock(StatsM);
      Stats.BytesRead += static_cast<uint64_t>(N);
      // One drink per round: fairness to the other ready connections
      // (level-triggered poll re-reports leftover data next round).
      break;
    }
    if (N == 0) {
      C.ReadClosed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    closeConnection(Serial);
    return;
  }

  // Frame complete lines.
  size_t Start = 0;
  size_t FramedLines = 0;
  while (true) {
    size_t Nl = C.InBuf.find('\n', Start);
    if (Nl == std::string::npos)
      break;
    std::string Line = C.InBuf.substr(Start, Nl - Start);
    Start = Nl + 1;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    // Blank lines are the protocol's explicit epoch flush; the event loop
    // already flushes every round, so they are a framing no-op here.
    if (Line.empty())
      continue;
    Pending.emplace_back(Serial, std::move(Line));
    ++C.PendingLines;
    ++FramedLines;
  }
  C.InBuf.erase(0, Start);

  if (FramedLines) {
    std::lock_guard<std::mutex> Lock(StatsM);
    Stats.RequestLines += FramedLines;
  }

  // A single line larger than the cap can never complete: answer with a
  // protocol error and close once it drains.
  if (C.InBuf.size() > Opts.MaxLineBytes) {
    Response Bad;
    Bad.Ok = false;
    Bad.Errors.push_back(Error(
        ErrorKind::Internal,
        "request line exceeds " + std::to_string(Opts.MaxLineBytes) +
            " bytes"));
    C.OutQ.push_back(OutItem{Bad.toJson().dump() + "\n", nullptr});
    C.InBuf.clear();
    C.ReadClosed = true;
    C.CloseAfterFlush = true;
  }
#else
  (void)Serial;
  (void)C;
#endif
}

//===----------------------------------------------------------------------===//
// Epoch dispatch
//===----------------------------------------------------------------------===//

void TcpServer::dispatchEpochs() {
  while (!Pending.empty()) {
    size_t MaxBatch = std::max<size_t>(Svc.options().MaxBatch, 1);
    size_t Take = std::min(Pending.size(), MaxBatch);

    std::vector<uint64_t> Owners;
    std::vector<std::string> Lines;
    Owners.reserve(Take);
    Lines.reserve(Take);
    for (size_t I = 0; I != Take; ++I) {
      Owners.push_back(Pending[I].first);
      Lines.push_back(std::move(Pending[I].second));
      auto It = Conns.find(Pending[I].first);
      if (It != Conns.end() && It->second.PendingLines > 0)
        --It->second.PendingLines;
    }
    Pending.erase(Pending.begin(), Pending.begin() + Take);

    bool Coalesced =
        std::adjacent_find(Owners.begin(), Owners.end(),
                           std::not_equal_to<>()) != Owners.end();
    // Epoch width: how many distinct clients this epoch coalesced.
    std::vector<uint64_t> Distinct(Owners);
    std::sort(Distinct.begin(), Distinct.end());
    Distinct.erase(std::unique(Distinct.begin(), Distinct.end()),
                   Distinct.end());

    static metrics::Counter &EpochsC = metrics::counter("server.epochs");
    static metrics::Counter &CoalescedC =
        metrics::counter("server.coalesced_epochs");
    static metrics::Gauge &WidthG = metrics::gauge("server.max_epoch_width");
    EpochsC.inc();
    if (Coalesced)
      CoalescedC.inc();
    WidthG.setMax(static_cast<int64_t>(Distinct.size()));

    TRACE_SPAN("server.epoch");
    std::vector<CompileService::BatchEntry> Entries =
        Svc.processBatchEx(Lines);

    size_t Streamed = 0;
    for (size_t I = 0; I != Entries.size(); ++I) {
      auto It = Conns.find(Owners[I]);
      if (It == Conns.end())
        continue; // Client vanished mid-epoch.
      CompileService::BatchEntry &E = Entries[I];
      if (E.Req && E.Req->Kind == Op::Watch && E.Req->Stream && E.Resp.Ok) {
        // Live watch stream: header now, then serviceDueWatchers /
        // onProgress push the periodic records, then the pre-built
        // terminal. The first record is due immediately.
        Json Header = Json::object();
        Header["id"] = E.Resp.Id;
        Header["op"] = opName(Op::Watch);
        Header["stream"] = true;
        It->second.OutQ.push_back(OutItem{Header.dump() + "\n", nullptr});
        Watcher W;
        W.WatchId = NextWatchId++;
        W.Serial = Owners[I];
        W.ReqId = E.Resp.Id;
        W.Terminal = jsonWithoutKey(E.Resp.toJson(), "watch");
        W.Terminal["stream_end"] = true;
        W.IntervalUs = E.Req->WatchIntervalMs > 0
                           ? static_cast<uint64_t>(E.Req->WatchIntervalMs *
                                                   1000)
                           : 250000;
        W.NextDueUs = trace::nowUs();
        W.Bounded = E.Req->WatchCount > 0;
        W.Remaining = E.Req->WatchCount;
        Watchers.push_back(std::move(W));
        static metrics::Counter &StreamsC =
            metrics::counter("server.watch_streams");
        StreamsC.inc();
        ++Streamed;
      } else if (E.Req && ResponseStream::wantsStream(*E.Req, E.Resp)) {
        It->second.OutQ.push_back(OutItem{
            std::string(),
            std::make_unique<ResponseStream>(std::move(E.Resp))});
        ++Streamed;
      } else {
        It->second.OutQ.push_back(
            OutItem{E.Resp.toJson().dump() + "\n", nullptr});
      }
    }
    {
      std::lock_guard<std::mutex> Lock(StatsM);
      ++Stats.Epochs;
      Stats.CoalescedEpochs += Coalesced ? 1 : 0;
      Stats.StreamedResponses += Streamed;
    }

    // Pump every connection that just got output (dead ones were skipped).
    for (uint64_t Serial : Owners) {
      auto It = Conns.find(Serial);
      if (It != Conns.end())
        pump(Serial, It->second);
    }
  }

  // EOF'd connections with nothing queued and nothing pending can close
  // now (those with queued output close from pump once drained). A live
  // watch stream keeps its half-closed connection open: the peer is
  // still reading records.
  std::vector<uint64_t> Drained;
  for (auto &[Serial, C] : Conns)
    if (C.ReadClosed && C.drained() && !hasWatcher(Serial))
      Drained.push_back(Serial);
  for (uint64_t Serial : Drained)
    closeConnection(Serial);
}

//===----------------------------------------------------------------------===//
// Watch streams
//===----------------------------------------------------------------------===//

bool TcpServer::hasWatcher(uint64_t Serial) const {
  for (const Watcher &W : Watchers)
    if (W.Serial == Serial)
      return true;
  return false;
}

int TcpServer::pollTimeoutMs() const {
  if (Watchers.empty())
    return -1;
  uint64_t Now = trace::nowUs();
  uint64_t MinDue = UINT64_MAX;
  for (const Watcher &W : Watchers)
    MinDue = std::min(MinDue, W.NextDueUs);
  if (MinDue <= Now)
    return 0;
  return static_cast<int>(std::min<uint64_t>((MinDue - Now + 999) / 1000,
                                             60000));
}

void TcpServer::onProgress(const Json &Rec) {
  // ProgressSink only ticks on the thread that called explore(), and
  // sweeps run serially on the loop thread — but an embedder driving the
  // same CompileService from another thread must not corrupt connection
  // state, so anything foreign is dropped (and counted).
  if (std::this_thread::get_id() != LoopThread) {
    static metrics::Counter &ForeignC =
        metrics::counter("server.watch_foreign_drops");
    ForeignC.inc();
    return;
  }
  if (Watchers.empty())
    return;
  deliverProgress(Rec, trace::nowUs());
}

void TcpServer::serviceDueWatchers(uint64_t NowUs) {
  for (const Watcher &W : Watchers)
    if (NowUs >= W.NextDueUs)
      return deliverProgress(Svc.progressSnapshotJson(), NowUs);
}

void TcpServer::deliverProgress(const Json &Rec, uint64_t NowUs) {
  // Iterate by stable WatchId: pump() below can close a connection,
  // which erases its watchers out from under any index/iterator walk.
  std::vector<uint64_t> Due;
  for (const Watcher &W : Watchers)
    if (NowUs >= W.NextDueUs)
      Due.push_back(W.WatchId);
  for (uint64_t Id : Due) {
    auto WIt = std::find_if(
        Watchers.begin(), Watchers.end(),
        [Id](const Watcher &W) { return W.WatchId == Id; });
    if (WIt == Watchers.end())
      continue; // Its connection died earlier in this loop.
    Watcher &W = *WIt;
    uint64_t Serial = W.Serial;
    auto CIt = Conns.find(Serial);
    if (CIt == Conns.end()) {
      Watchers.erase(WIt);
      continue;
    }
    Connection &C = CIt->second;
    W.NextDueUs = NowUs + W.IntervalUs;
    // Drop-on-backpressure: a watcher on a full connection loses this
    // record instead of growing the buffer past the cap. Bounded streams
    // still count the record down, so a stalled reader cannot pin the
    // stream open forever.
    if (C.WriteBuf.size() - C.WriteOff >= Opts.MaxWriteBuffer) {
      static metrics::Counter &DroppedC =
          metrics::counter("server.watch_dropped_records");
      DroppedC.inc();
    } else {
      Json Line = Json::object();
      Line["id"] = W.ReqId;
      Line["progress"] = Rec;
      C.OutQ.push_back(OutItem{Line.dump() + "\n", nullptr});
      static metrics::Counter &RecordsC =
          metrics::counter("server.watch_records");
      RecordsC.inc();
    }
    bool Finished = W.Bounded && --W.Remaining == 0;
    if (Finished) {
      C.OutQ.push_back(OutItem{W.Terminal.dump() + "\n", nullptr});
      Watchers.erase(WIt);
    }
    auto PIt = Conns.find(Serial);
    if (PIt != Conns.end())
      pump(Serial, PIt->second);
  }
}

//===----------------------------------------------------------------------===//
// Writing: the bounded pump
//===----------------------------------------------------------------------===//

void TcpServer::pump(uint64_t Serial, Connection &C) {
#ifdef DAHLIA_HAVE_SOCKETS
  while (true) {
    // Refill: serialize queued output only while under the cap — a lazy
    // ResponseStream is pulled one line at a time, so the buffer never
    // holds more than MaxWriteBuffer plus one line.
    while (C.WriteBuf.size() - C.WriteOff < Opts.MaxWriteBuffer &&
           !C.OutQ.empty()) {
      OutItem &Item = C.OutQ.front();
      if (!Item.Stream) {
        C.WriteBuf += Item.Text;
        C.OutQ.pop_front();
        continue;
      }
      std::optional<std::string> Line = Item.Stream->next();
      if (!Line) {
        C.OutQ.pop_front();
        continue;
      }
      C.WriteBuf += *Line;
      C.WriteBuf += '\n';
    }
    {
      std::lock_guard<std::mutex> Lock(StatsM);
      Stats.PeakConnectionBufferedBytes = std::max(
          Stats.PeakConnectionBufferedBytes, C.WriteBuf.size() - C.WriteOff);
    }
    static metrics::Gauge &HighWater =
        metrics::gauge("server.write_buffer_high_water");
    HighWater.setMax(static_cast<int64_t>(C.WriteBuf.size() - C.WriteOff));

    // Drain what the socket will take right now.
    bool WouldBlock = false;
    while (C.WriteOff < C.WriteBuf.size()) {
      // MSG_NOSIGNAL: a client that disconnected with responses still in
      // flight must surface as EPIPE here, not as a process-killing
      // SIGPIPE (the hostile-client soak closes connections mid-write on
      // purpose).
      ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WriteOff,
                         C.WriteBuf.size() - C.WriteOff, MSG_NOSIGNAL);
      if (N > 0) {
        C.WriteOff += static_cast<size_t>(N);
        std::lock_guard<std::mutex> Lock(StatsM);
        Stats.BytesWritten += static_cast<uint64_t>(N);
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        WouldBlock = true;
        break;
      }
      if (N < 0 && errno == EINTR)
        continue;
      closeConnection(Serial);
      return;
    }
    if (C.WriteOff == C.WriteBuf.size()) {
      C.WriteBuf.clear();
      C.WriteOff = 0;
    } else if (C.WriteOff > (1u << 16)) {
      C.WriteBuf.erase(0, C.WriteOff); // Compact occasionally.
      C.WriteOff = 0;
    }

    if (WouldBlock || C.OutQ.empty())
      break;
    // Otherwise the socket still accepts data and more output is queued:
    // refill and keep going.
  }

  // Close only once genuinely drained: an EOF'd connection may still
  // have framed lines awaiting dispatch (the aggregation loop can see
  // the FIN before the epoch runs) whose responses it is owed — and a
  // live watch stream on a half-closed connection is still being read.
  if (C.drained() &&
      (C.CloseAfterFlush || (C.ReadClosed && !hasWatcher(Serial)))) {
    closeConnection(Serial);
    return;
  }
  updateInterest(Serial, C);
#else
  (void)Serial;
  (void)C;
#endif
}

void TcpServer::updateInterest(uint64_t, Connection &C) {
  bool OutputPending =
      !C.OutQ.empty() || C.WriteBuf.size() - C.WriteOff > 0;
  // Read-side back-pressure: while this connection's output is at the
  // cap, stop reading from it — its own flood cannot grow server memory,
  // and everyone else keeps being served.
  bool Backpressured =
      C.WriteBuf.size() - C.WriteOff >= Opts.MaxWriteBuffer;
  if (Backpressured && !C.Stalled) {
    // Count entries into the stalled state, not polls while in it.
    static metrics::Counter &Stalls =
        metrics::counter("server.backpressure_stalls");
    Stalls.inc();
  }
  C.Stalled = Backpressured;
  Loop.update(C.Fd, /*WantRead=*/!C.ReadClosed && !Backpressured,
              /*WantWrite=*/OutputPending);
}
