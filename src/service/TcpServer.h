//===- TcpServer.h - Concurrent multi-client compile server -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent TCP front end of the compile service: one EventLoop
/// thread multiplexes every connection (accept, line framing, writes)
/// while the CompileService's epoch machinery supplies the parallelism —
/// request lines read from *different* clients in the same loop round
/// coalesce into the same parallel epoch, so N interactive clients batch
/// as well as one bulk client (this is where the multi-client throughput
/// win comes from; bench/service_throughput --clients measures it).
///
/// Responses are written through bounded per-connection buffers:
///
///   * plain responses are serialized into the connection's write buffer
///     in request order;
///   * streamed responses (dse-sweep/simulate with `"stream":true`) are
///     queued as lazy ResponseStream producers, and the write pump only
///     pulls the next chunk line when the buffer is below the cap
///     (TcpServerOptions::MaxWriteBuffer) — back-pressure instead of
///     unbounded buffering;
///   * a connection whose buffered output is at the cap stops being read
///     from until it drains, so a client that floods requests without
///     reading responses cannot grow server memory, and a slow reader
///     never stalls other clients (the loop keeps serving them).
///
/// The peak buffered bytes ever observed on one connection is tracked in
/// TcpServerStats and asserted by tests and the bench: it stays under
/// MaxWriteBuffer plus one protocol line.
///
/// Lifecycle: construct over a CompileService, start() (binds/listens —
/// port 0 picks an ephemeral port, see port()), run() on the serving
/// thread, stop() from anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SERVICE_TCPSERVER_H
#define DAHLIA_SERVICE_TCPSERVER_H

#include "service/CompileService.h"
#include "support/EventLoop.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace dahlia::service {

/// Tunables of the TCP front end.
struct TcpServerOptions {
  /// Port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (tests and the bench use this; the bound port is in port()).
  int Port = 0;
  /// Per-connection write-buffer cap: the back-pressure threshold. The
  /// pump stops serializing queued output above it and the reader stops
  /// reading from the connection until it drains.
  size_t MaxWriteBuffer = 1 << 20;
  /// Connection cap; excess accepts are closed immediately.
  size_t MaxConnections = 256;
  /// A single request line longer than this closes the connection (after
  /// an error response) rather than buffering without bound.
  size_t MaxLineBytes = 1 << 22;
  /// When non-zero, SO_SNDBUF for accepted connections. Tests shrink it
  /// so kernel buffering cannot mask the write pump's back-pressure.
  int SendBufferBytes = 0;
};

/// Aggregate counters; stats() returns a consistent copy at any time.
struct TcpServerStats {
  size_t Accepted = 0;
  size_t Closed = 0;
  size_t MaxConcurrentConnections = 0;
  size_t RequestLines = 0;   ///< Framed lines handed to the service.
  size_t Epochs = 0;         ///< processBatchEx calls issued by the server.
  size_t CoalescedEpochs = 0; ///< Epochs mixing lines from >1 connection.
  size_t StreamedResponses = 0;
  size_t PeakConnectionBufferedBytes = 0; ///< Max write-buffer fill seen.
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
};

class TcpServer {
public:
  explicit TcpServer(CompileService &Svc, TcpServerOptions O = {});
  ~TcpServer();

  TcpServer(const TcpServer &) = delete;
  TcpServer &operator=(const TcpServer &) = delete;

  /// Binds and listens. Returns false (with \p Err set when non-null) on
  /// failure — including platforms without sockets.
  bool start(std::string *Err = nullptr);

  /// The bound port after a successful start() (resolves Port == 0).
  int port() const { return BoundPort; }

  /// Serves until stop(). Call on the serving thread after start().
  void run();

  /// Thread-safe shutdown request; run() returns promptly, closing every
  /// connection.
  void stop();

  TcpServerStats stats() const;

private:
  /// One queued output item: either a fully serialized line (with its
  /// trailing newline) or a lazy stream the pump pulls under the cap.
  struct OutItem {
    std::string Text; ///< Used when Stream is null.
    std::unique_ptr<ResponseStream> Stream;
  };

  struct Connection {
    int Fd = -1;
    uint64_t TrackId = 0;       ///< Synthetic trace track (0 = tracing off).
    uint64_t AcceptUs = 0;      ///< Accept time on the tracing clock.
    bool Stalled = false;       ///< Currently read-side back-pressured.
    std::string InBuf;          ///< Read bytes not yet framed into lines.
    size_t Scanned = 0;         ///< InBuf prefix known to hold no '\n'.
    size_t PendingLines = 0;    ///< Framed lines not yet dispatched.
    std::deque<OutItem> OutQ;   ///< Responses not yet in the write buffer.
    std::string WriteBuf;       ///< Serialized bytes awaiting the socket.
    size_t WriteOff = 0;        ///< Consumed prefix of WriteBuf.
    bool ReadClosed = false;    ///< Peer sent EOF (half-close or close).
    bool CloseAfterFlush = false; ///< Fatal framing error: drain and close.

    /// Nothing left to answer or flush: every framed line was
    /// dispatched, every response serialized, every byte written.
    bool drained() const {
      return PendingLines == 0 && OutQ.empty() &&
             WriteBuf.size() == WriteOff;
    }
  };

  /// One live watch stream (a `watch` request with `"stream":true`): the
  /// server pushes a `{"id":N,"progress":{...}}` line whenever a sweep
  /// progress tick arrives or the interval elapses (idle heartbeat), then
  /// the pre-built terminal once \c Remaining records were sent. Watchers
  /// die with their connection; back-pressured records are dropped (and
  /// counted) rather than buffered past the write cap.
  struct Watcher {
    uint64_t WatchId = 0;  ///< Stable handle (erase-safe iteration).
    uint64_t Serial = 0;   ///< Owning connection.
    int64_t ReqId = 0;     ///< Echoed in every record line.
    Json Terminal;         ///< Final line (stream_end pre-added).
    uint64_t IntervalUs = 250000;
    uint64_t NextDueUs = 0;
    uint64_t Remaining = 0; ///< Records left before the terminal.
    bool Bounded = false;   ///< count was nonzero (else until close).
  };

  void acceptReady();
  void connectionReady(uint64_t Serial, EventLoop::Events E);
  void readFrom(uint64_t Serial, Connection &C);
  /// Serializes queued output under the cap and writes what the socket
  /// takes; updates poll interest and closes drained dead connections.
  void pump(uint64_t Serial, Connection &C);
  void updateInterest(uint64_t Serial, Connection &C);
  void closeConnection(uint64_t Serial);
  /// Hands every pending line to the service (in MaxBatch slices) and
  /// routes the responses to their connections.
  void dispatchEpochs();

  /// Live progress from the service's sweep ticks. Safe only on the loop
  /// thread (sweeps run there — see processBatchEx); records arriving on
  /// any other thread are dropped and counted.
  void onProgress(const Json &Rec);
  /// Pushes the idle-heartbeat snapshot to every watcher whose interval
  /// elapsed.
  void serviceDueWatchers(uint64_t NowUs);
  /// Delivers \p Rec to every due watcher, advancing deadlines, counting
  /// down bounded streams, and sending terminals.
  void deliverProgress(const Json &Rec, uint64_t NowUs);
  /// Poll timeout: -1 (forever) without watchers, else the time to the
  /// nearest watcher deadline.
  int pollTimeoutMs() const;
  bool hasWatcher(uint64_t Serial) const;

  CompileService &Svc;
  TcpServerOptions Opts;
  EventLoop Loop;
  int ListenFd = -1;
  int BoundPort = -1;

  uint64_t NextSerial = 1;
  std::map<uint64_t, Connection> Conns;
  std::map<int, uint64_t> FdToSerial;
  /// run() teardown closes every connection; the per-disconnect cache
  /// save is suppressed then in favor of one save at the end.
  bool InTeardown = false;

  /// Lines framed but not yet dispatched, with their owning connection.
  std::vector<std::pair<uint64_t, std::string>> Pending;

  /// Live watch streams (loop thread only).
  std::vector<Watcher> Watchers;
  uint64_t NextWatchId = 1;
  std::thread::id LoopThread;

  mutable std::mutex StatsM;
  TcpServerStats Stats;
};

} // namespace dahlia::service

#endif // DAHLIA_SERVICE_TCPSERVER_H
