//===- ServiceClient.h - Client helper for the compile service --*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small client for the compile service's line protocol. Two transports:
///
///   * in-process: wraps a \c CompileService and still round-trips every
///     request and response through the JSON wire format, so tests and the
///     throughput bench exercise exactly what a remote client would see;
///   * stream: speaks the protocol over any std::iostream pair (a TCP
///     socket wrapped in a streambuf, a pipe to `dahlia-serve`, ...).
///
/// The client assigns request ids automatically and matches responses by
/// id, so callers think in Requests and Responses, not lines.
///
/// Streamed responses (requests sent with `"stream":true`) are
/// reassembled transparently: the client collects the header, the
/// front_point/nest chunk lines, and the terminal summary, and rebuilds
/// the batch-equivalent response (byte-identical `sweep`/`sim` objects),
/// flagging it with ClientResponse::Streamed.
///
/// Malformed response lines never vanish into a generic parse failure:
/// when the server (or a proxy) answers with JSON that is not a protocol
/// response, the client surfaces the payload's own `message`/`errors`
/// text so the operator sees the server's words, not "unparseable"
/// (Response::fromJson does this).
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SERVICE_SERVICECLIENT_H
#define DAHLIA_SERVICE_SERVICECLIENT_H

#include "service/CompileService.h"

#include <iosfwd>
#include <memory>
#include <vector>

namespace dahlia::service {

/// Decoded response line. \c Raw is the parsed line itself (moved in, not
/// re-parsed), kept for fields the struct does not model; for a streamed
/// response it is the *reassembled* batch-equivalent object.
struct ClientResponse {
  Response R;
  Json Raw;
  bool Streamed = false;   ///< Arrived as header + chunks + terminal.
  size_t StreamChunks = 0; ///< Chunk lines collected while reassembling.
};

/// Decodes one response line: one parse, then Response::fromJson (the
/// decoder beside Response::toJson in Protocol.cpp). Fields the protocol
/// does not define remain visible through \c Raw; a line that is not
/// JSON decodes as a failed response quoting the line.
ClientResponse decodeResponse(const std::string &Line);

class ServiceClient {
public:
  /// In-process transport over \p Svc (not owned).
  explicit ServiceClient(CompileService &Svc);
  /// Stream transport: writes request lines to \p Out, reads response
  /// lines from \p In (neither owned).
  ServiceClient(std::istream &In, std::ostream &Out);
  ~ServiceClient();

  /// Strict decoding: instead of warning-and-skipping, an unknown
  /// record, a duplicate front_point chunk, an unknown chunk kind inside
  /// a stream, or a stream whose terminal front indices are not all
  /// covered by the collected chunks (a premature `stream_end`) becomes a
  /// structured ok=false response. The DSE cluster coordinator runs in
  /// strict mode: a hostile or corrupted worker must surface as an error
  /// it can retry, never as a silently wrong front. Default off —
  /// interactive clients keep the forward-compatible skip.
  void setStrict(bool S) { Strict = S; }
  bool strict() const { return Strict; }

  /// Sends one request and waits for its response. The request's id is
  /// overwritten with a fresh one.
  ClientResponse call(Request R);

  /// Sends a whole batch as one epoch (in-process: one processBatch call;
  /// stream: all lines then a blank-line flush) and returns the responses
  /// in request order.
  std::vector<ClientResponse> callBatch(std::vector<Request> Rs);

  // Convenience wrappers --------------------------------------------------

  ClientResponse check(const std::string &Source,
                       const std::string &Session = {});
  ClientResponse recheck(const std::string &Session, const Rewrite &Rw);
  ClientResponse estimate(const std::string &Source);
  ClientResponse lower(const std::string &Source);
  ClientResponse dseSweep(const std::string &Space, size_t Limit = 0,
                          unsigned Threads = 0);
  /// Snapshot of the server's memo cache (the `cache-export` op).
  /// \p Slice optionally selects one "i/N" key-residue slice.
  ClientResponse cacheExport(const std::string &Slice = {});
  /// Bulk-merges \p Payload (cache-export wire shape) into the server's
  /// memo cache (the `cache-import` op).
  ClientResponse cacheImport(Json Payload);
  /// Live scrape of the server's metrics registry (the `metrics` op).
  ClientResponse metrics();
  /// Sweep-progress snapshot (the `watch` op). With \p Stream true over
  /// the TCP transport the call blocks until \p Count streamed progress
  /// records arrive (reassembled into `progress_records` in Raw), so a
  /// bounded count is mandatory there. \p IntervalMs 0 = server default.
  ClientResponse watch(bool Stream = false, uint64_t Count = 2,
                       double IntervalMs = 0);

private:
  /// Sends \p Lines and collects one decoded reply per line (a
  /// reassembled stream counts as one).
  std::vector<ClientResponse> exchange(const std::vector<std::string> &Lines);

  CompileService *Local = nullptr;
  std::istream *In = nullptr;
  std::ostream *Out = nullptr;
  int64_t NextId = 1;
  bool Strict = false;
};

} // namespace dahlia::service

#endif // DAHLIA_SERVICE_SERVICECLIENT_H
