//===- ServiceClient.cpp - Client helper for the compile service -*- C++ -*-=//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceClient.h"

#include <iostream>
#include <istream>
#include <map>
#include <ostream>
#include <set>

using namespace dahlia;
using namespace dahlia::service;

namespace {

/// The client's view of one reply value: the typed decode, with \c Raw
/// taking over the parsed value itself.
ClientResponse decoded(Json J) {
  ClientResponse C;
  C.R = Response::fromJson(J);
  C.Raw = std::move(J);
  return C;
}

/// The reply to a line that is not JSON at all: the snippet rides along
/// instead of a bare "unparseable".
ClientResponse notJson(const std::string &Line) {
  ClientResponse C;
  C.R.Errors.push_back(Error(ErrorKind::Internal,
                             "malformed response line (not JSON): \"" +
                                 Line.substr(0, 80) +
                                 (Line.size() > 80 ? "…" : "") + "\""));
  return C;
}

} // namespace

ClientResponse dahlia::service::decodeResponse(const std::string &Line) {
  std::optional<Json> J = Json::parse(Line);
  return J ? decoded(std::move(*J)) : notJson(Line);
}

ServiceClient::ServiceClient(CompileService &Svc) : Local(&Svc) {}
ServiceClient::ServiceClient(std::istream &InS, std::ostream &OutS)
    : In(&InS), Out(&OutS) {}
ServiceClient::~ServiceClient() = default;

namespace {

/// Accumulates the wire lines of one logical response, reassembling
/// streamed sequences (header, chunks, terminal) into the
/// batch-equivalent JSON. Feed lines in order; a completed reply pops out
/// of take() after feed() returns true. Each line is parsed once, here,
/// and the reply is decoded from that parse.
class StreamAssembler {
public:
  /// \p Strict: unknown records, duplicate/unknown stream chunks, and
  /// under-covered stream terminals become structured errors instead of
  /// warn-and-skip (ServiceClient::setStrict; the cluster coordinator's
  /// mode).
  explicit StreamAssembler(bool Strict = false) : Strict(Strict) {}

  /// Returns true when \p Line completed a logical reply.
  bool feed(const std::string &Line) {
    std::optional<Json> J = Json::parse(Line);
    if (!J || !J->isObject()) {
      // Not a JSON object: the decoder reports what it is.
      Done = J ? decoded(std::move(*J)) : notJson(Line);
      return true;
    }

    if (!InStream) {
      if (J->at("stream").asBool() && !J->contains("stream_end")) {
        // Stream header: start collecting.
        InStream = true;
        Chunks.clear();
        SeenPointIndices.clear();
        Poison.clear();
        return false;
      }
      // A JSON object that is neither a protocol response (id/op/ok) nor
      // an error payload (errors/message/error — which Response::fromJson
      // surfaces verbatim) is an unknown record kind. Strict mode turns
      // it into a structured error reply; otherwise skip it with a
      // warning rather than consuming a reply slot and misattributing
      // every later response (forward compatibility).
      if (!(J->contains("op") && J->contains("ok")) &&
          !J->contains("errors") && !J->contains("message") &&
          !J->contains("error")) {
        if (Strict) {
          Done = decoded(errorLine(
              *J, "strict mode: unknown record: " + Line.substr(0, 120)));
          return true;
        }
        std::cerr << "dahlia service client: skipping unknown record: "
                  << Line.substr(0, 120) << "\n";
        return false;
      }
      Done = decoded(std::move(*J));
      return true;
    }

    // Inside a stream: chunk or terminal.
    if (J->contains("stream_end")) {
      InStream = false;
      size_t Collected = Chunks.size();
      Done = decoded(Strict && !Poison.empty()
                         ? errorLine(*J, "strict mode: " + Poison)
                         : reassemble(*J));
      Done.Streamed = true;
      Done.StreamChunks = Collected;
      return true;
    }
    if (J->contains("front_point")) {
      Json &P = (*J)["front_point"];
      if (Strict) {
        int64_t Idx = P.at("index").asInt(-1);
        if (!SeenPointIndices.insert(Idx).second) {
          if (Poison.empty())
            Poison = "duplicate front_point chunk for config " +
                     std::to_string(Idx);
          return false; // First-wins: the duplicate is not collected.
        }
      }
      Chunks.push_back(std::move(P));
    } else if (J->contains("nest")) {
      Chunks.push_back(std::move((*J)["nest"]));
    } else if (J->contains("progress")) {
      Chunks.push_back(std::move((*J)["progress"]));
    } else if (Strict && Poison.empty()) {
      // Unknown chunk kinds are skipped when lenient (forward
      // compatibility) but poison a strict stream.
      Poison = "unknown stream chunk: " + Line.substr(0, 120);
    }
    return false;
  }

  ClientResponse take() { return std::move(Done); }

  /// True between a stream header and its terminal summary — an EOF here
  /// means the server died with a response in flight.
  bool midStream() const { return InStream; }
  size_t pendingChunks() const { return Chunks.size(); }

private:
  /// An ok=false protocol reply carrying \p Msg, echoing the offending
  /// record's id/op so callBatch can still slot it.
  static Json errorLine(const Json &J, const std::string &Msg) {
    Response R;
    R.Id = J.at("id").asInt();
    R.Kind = opFromName(J.at("op").asString()).value_or(Op::Check);
    R.Errors.push_back(Error(ErrorKind::Internal, Msg));
    return R.toJson();
  }

  /// Rebuilds the batch response from the terminal summary + chunks
  /// (moved out of the assembler). The inverse of ResponseStream: front
  /// points go back into the sweep when the batch form carries them
  /// (sharded sweeps), nests always go back into the sim object.
  Json reassemble(const Json &Terminal) {
    Json R = jsonWithoutKey(Terminal, "stream_end");
    std::optional<Op> Kind = opFromName(R.at("op").asString());
    if (Kind == Op::DseSweep && R.at("sweep").isObject()) {
      // In strict mode the terminal's front membership must be covered
      // by the collected chunks — a premature stream_end would otherwise
      // reassemble a silently truncated front.
      if (Strict && R.at("ok").asBool()) {
        for (const char *Key : {"front", "accepted_front"})
          for (const Json &I : R.at("sweep").at(Key).asArray())
            if (!SeenPointIndices.count(I.asInt(-1)))
              return errorLine(
                  Terminal,
                  "strict mode: stream ended before front_point chunk "
                  "for config " + std::to_string(I.asInt(-1)) +
                      " arrived (premature stream_end?)");
      }
      if (R.at("sweep").at("shard_count").asInt() > 1)
        R["sweep"]["front_points"] = std::move(Chunks);
    } else if (Kind == Op::Simulate && R.at("sim").isObject()) {
      R["sim"]["nests"] = std::move(Chunks);
    } else if (Kind == Op::Watch) {
      // A live watch has no batch equivalent; the collected progress
      // records are the stream's whole payload.
      R["progress_records"] = std::move(Chunks);
    }
    return R;
  }

  bool Strict = false;
  bool InStream = false;
  Json::Array Chunks;
  std::set<int64_t> SeenPointIndices;
  std::string Poison; ///< First strict-mode violation inside the stream.
  ClientResponse Done;
};

} // namespace

std::vector<ClientResponse>
ServiceClient::exchange(const std::vector<std::string> &Lines) {
  std::vector<ClientResponse> Result;
  StreamAssembler Asm(Strict);
  auto FeedLine = [&](const std::string &Line) {
    if (Asm.feed(Line))
      Result.push_back(Asm.take());
  };

  if (Local) {
    // The in-process transport renders streamed responses through the
    // same chunked wire form the TCP server emits, so tests exercise the
    // full round trip.
    for (CompileService::BatchEntry &E : Local->processBatchEx(Lines)) {
      if (E.Req && ResponseStream::wantsStream(*E.Req, E.Resp)) {
        ResponseStream S(std::move(E.Resp));
        while (std::optional<std::string> Line = S.next())
          FeedLine(*Line);
      } else {
        FeedLine(E.Resp.toJson().dump());
      }
    }
    return Result;
  }

  for (const std::string &L : Lines)
    *Out << L << '\n';
  *Out << '\n'; // Blank line: flush the epoch.
  Out->flush();
  std::string Line;
  while (Result.size() != Lines.size() && std::getline(*In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (!Line.empty())
      FeedLine(Line);
  }

  // EOF (or a read error) before every reply arrived: the server died or
  // closed the connection mid-exchange. Leaving the missing slots as
  // default-constructed responses would be indistinguishable from "the
  // request was never made" — synthesize a structured error per missing
  // reply so callers see exactly what was lost.
  if (Result.size() != Lines.size()) {
    std::string Why = "connection closed before response (" +
                      std::to_string(Result.size()) + " of " +
                      std::to_string(Lines.size()) + " replies received";
    if (Asm.midStream())
      Why += "; mid-stream after " + std::to_string(Asm.pendingChunks()) +
             " chunks";
    Why += ")";
    ClientResponse Dead;
    Dead.R.Errors.push_back(Error(ErrorKind::Internal, Why));
    Dead.Raw = Dead.R.toJson();
    Result.resize(Lines.size(), Dead);
  }
  return Result;
}

ClientResponse ServiceClient::call(Request R) {
  // callBatch answers every request, if only with an error.
  return std::move(callBatch({std::move(R)}).front());
}

std::vector<ClientResponse> ServiceClient::callBatch(std::vector<Request> Rs) {
  std::vector<std::string> Lines;
  std::map<int64_t, size_t> IdToIndex;
  Lines.reserve(Rs.size());
  for (size_t I = 0; I != Rs.size(); ++I) {
    Rs[I].Id = NextId++;
    IdToIndex[Rs[I].Id] = I;
    Lines.push_back(Rs[I].toJson().dump());
  }

  std::vector<ClientResponse> Decoded(Rs.size());
  size_t Cursor = 0;
  for (ClientResponse &C : exchange(Lines)) {
    auto It = IdToIndex.find(C.R.Id);
    size_t Slot = It != IdToIndex.end() ? It->second : Cursor;
    if (Slot < Decoded.size())
      Decoded[Slot] = std::move(C);
    ++Cursor;
  }
  return Decoded;
}

ClientResponse ServiceClient::check(const std::string &Source,
                                    const std::string &Session) {
  Request R;
  R.Kind = Op::Check;
  R.Source = Source;
  R.Session = Session;
  return call(std::move(R));
}

ClientResponse ServiceClient::recheck(const std::string &Session,
                                      const Rewrite &Rw) {
  Request R;
  R.Kind = Op::Check;
  R.Session = Session;
  R.Rw = Rw;
  return call(std::move(R));
}

ClientResponse ServiceClient::estimate(const std::string &Source) {
  Request R;
  R.Kind = Op::Estimate;
  R.Source = Source;
  return call(std::move(R));
}

ClientResponse ServiceClient::lower(const std::string &Source) {
  Request R;
  R.Kind = Op::Lower;
  R.Source = Source;
  return call(std::move(R));
}

ClientResponse ServiceClient::dseSweep(const std::string &Space, size_t Limit,
                                       unsigned Threads) {
  Request R;
  R.Kind = Op::DseSweep;
  R.Space = Space;
  R.Limit = Limit;
  R.Threads = Threads;
  return call(std::move(R));
}

ClientResponse ServiceClient::cacheExport(const std::string &Slice) {
  Request R;
  R.Kind = Op::CacheExport;
  R.Shard = Slice;
  return call(std::move(R));
}

ClientResponse ServiceClient::cacheImport(Json Payload) {
  Request R;
  R.Kind = Op::CacheImport;
  R.CachePayload = std::move(Payload);
  return call(std::move(R));
}

ClientResponse ServiceClient::metrics() {
  Request R;
  R.Kind = Op::Metrics;
  return call(std::move(R));
}

ClientResponse ServiceClient::watch(bool Stream, uint64_t Count,
                                    double IntervalMs) {
  Request R;
  R.Kind = Op::Watch;
  R.Stream = Stream;
  R.WatchCount = Count;
  R.WatchIntervalMs = IntervalMs;
  return call(std::move(R));
}
