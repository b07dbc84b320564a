//===- FaultInject.h - Fault-injecting dahlia-serve worker ------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A loopback TCP worker that speaks the real compile-service protocol —
/// every reply is computed by a genuine \c CompileService — but mangles
/// its wire output on demand: it can die mid-stream, stall past the
/// coordinator's shard timeout, truncate a frame, inject garbage or
/// duplicate chunks, or end a stream before its chunks arrived. The
/// cluster integration tests and the `dahlia-fuzz-proto --cluster`
/// dialect point a \c ClusterCoordinator at fleets of these to prove the
/// robustness story: every injected fault must surface as retry/reassign
/// (and ultimately an exact front) or as a structured error — never a
/// silently wrong front.
///
/// Faults fire on the first \c FaultOptions::TriggerConnections accepted
/// connections and only on streamed dse-sweep replies (the cluster wire
/// form); later connections answer honestly, so a coordinator with
/// retries converges. \c Scripted mode ignores the service entirely and
/// replays fixed lines — how the minimized fuzz-corpus repros are pinned.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_CLUSTER_FAULTINJECT_H
#define DAHLIA_CLUSTER_FAULTINJECT_H

#include "service/CompileService.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace dahlia::cluster {

enum class FaultMode {
  None,              ///< Honest worker (still useful as a harness).
  KillMidStream,     ///< Close the socket after AfterChunks chunk lines.
  Stall,             ///< Sleep StallMs mid-stream (trips SO_RCVTIMEO).
  TruncateFrame,     ///< Send half of a chunk line, then close.
  GarbageChunk,      ///< Inject a non-protocol JSON line mid-stream.
  DuplicateChunk,    ///< Repeat a front_point chunk line.
  PrematureEnd,      ///< Drop the chunk lines, send the terminal anyway.
  Scripted,          ///< Ignore the service; replay Script verbatim.
};

struct FaultOptions {
  FaultMode Mode = FaultMode::None;
  /// Fault the first this-many connections, then behave honestly (so a
  /// retrying coordinator can converge). 0 = fault every connection.
  unsigned TriggerConnections = 1;
  /// Chunk lines delivered before KillMidStream / Stall / TruncateFrame
  /// fire (a mid-stream fault needs some stream to be mid of).
  unsigned AfterChunks = 2;
  /// Stall duration; set it past the coordinator's ShardTimeoutMs.
  int StallMs = 30000;
  /// Scripted replies: raw lines written (with newlines) per connection
  /// after one request epoch was read, regardless of its content.
  std::vector<std::string> Script;
};

/// A real worker with a fault hook between the service and the socket.
/// One blocking accept thread, one thread per connection; connections
/// read request lines until a blank-line epoch flush (or EOF), answer
/// through the wrapped CompileService (streamed dse-sweeps expand through
/// ResponseStream exactly like dahlia-serve), then apply the fault
/// transform to the outgoing lines.
class FaultyWorker {
public:
  explicit FaultyWorker(FaultOptions FO = {},
                        service::ServiceOptions SO = {});
  ~FaultyWorker();

  FaultyWorker(const FaultyWorker &) = delete;
  FaultyWorker &operator=(const FaultyWorker &) = delete;

  /// Binds an ephemeral loopback port and starts serving. Returns false
  /// on platforms without sockets or bind failure.
  bool start();
  int port() const { return Port; }
  /// Stops accepting, closes the listener, and joins every thread.
  void stop();

  size_t connectionsAccepted() const {
    return Accepted.load(std::memory_order_relaxed);
  }
  size_t faultsInjected() const {
    return Faulted.load(std::memory_order_relaxed);
  }

  service::CompileService &service() { return Svc; }

private:
  void acceptLoop();
  void serveConnection(int Fd, unsigned Serial);
  /// Renders one epoch's replies as wire lines (streamed dse-sweeps
  /// expanded), then applies the fault when \p Serial is within the
  /// trigger window. Returns false when the connection must be closed
  /// without sending the remaining lines (kill/truncate faults).
  bool writeLines(int Fd, const std::vector<std::string> &Lines,
                  unsigned Serial);

  FaultOptions Opts;
  service::CompileService Svc;
  int ListenFd = -1;
  int Port = -1;
  std::thread Acceptor;
  std::vector<std::thread> Handlers;
  std::mutex HandlersM;
  std::atomic<bool> Stopping{false};
  std::atomic<size_t> Accepted{0};
  std::atomic<size_t> Faulted{0};
};

} // namespace dahlia::cluster

#endif // DAHLIA_CLUSTER_FAULTINJECT_H
