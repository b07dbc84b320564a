//===- Journal.cpp - DSE search-journal analysis --------------------------===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "dse/Journal.h"

#include "support/EventLog.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace dahlia::dse::journal {

namespace {

/// Copies the kind-specific payload of \p E (everything but the
/// envelope) into a fresh object — queries return these so callers see
/// clean records.
Json payload(const Event &E) {
  Json Out = Json::object();
  for (const auto &[K, V] : E.Fields.asObject())
    if (K != "seq" && K != "ts_us" && K != "kind" && K != "trace_id")
      Out[K] = V;
  return Out;
}

uint64_t configOf(const Event &E) {
  return static_cast<uint64_t>(E.Fields.at("config").asInt());
}

/// True when \p Kind matches `[a-z][a-z0-9-]*`.
bool wellFormedKind(const std::string &Kind) {
  if (Kind.empty() || Kind[0] < 'a' || Kind[0] > 'z')
    return false;
  return std::all_of(Kind.begin(), Kind.end(), [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '-';
  });
}

} // namespace

std::optional<SearchJournal>
SearchJournal::parse(const std::vector<std::string> &Lines,
                     std::string *Err) {
  SearchJournal J;
  J.Events.reserve(Lines.size());
  size_t LineNo = 0;
  for (const std::string &Line : Lines) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseErr;
    std::optional<Json> V = Json::parse(Line, &ParseErr);
    if (!V || !V->isObject()) {
      if (Err)
        *Err = "journal line " + std::to_string(LineNo) + ": " +
               (V ? "not a JSON object" : ParseErr);
      return std::nullopt;
    }
    Event E;
    E.Seq = static_cast<uint64_t>(V->at("seq").asInt());
    E.TsUs = V->at("ts_us").asInt();
    E.TraceId = static_cast<uint64_t>(V->at("trace_id").asInt());
    E.Kind = V->at("kind").asString();
    E.Fields = std::move(*V);
    if (E.Kind == "journal-begin" && J.Schema == 0)
      J.Schema = static_cast<int>(E.Fields.at("schema").asInt());
    J.Events.push_back(std::move(E));
  }
  // Segment into sweeps. An unterminated trailing sweep stays open so
  // queries still work on crashed-run journals.
  for (size_t I = 0; I != J.Events.size(); ++I) {
    if (J.Events[I].Kind == "sweep-begin") {
      SweepRange R;
      R.Begin = I;
      R.End = J.Events.size() - 1;
      J.Sweeps.push_back(R);
    } else if (J.Events[I].Kind == "sweep-end" && !J.Sweeps.empty() &&
               !J.Sweeps.back().Closed) {
      J.Sweeps.back().End = I;
      J.Sweeps.back().Closed = true;
    }
  }
  return J;
}

std::optional<SearchJournal> SearchJournal::load(const std::string &Path,
                                                std::string *Err) {
  std::ifstream In(Path);
  if (!In) {
    if (Err)
      *Err = "cannot open " + Path;
    return std::nullopt;
  }
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return parse(Lines, Err);
}

Json SearchJournal::funnel(size_t Sweep) const {
  Json F = Json::object();
  if (Sweep >= Sweeps.size())
    return F;
  const SweepRange &R = Sweeps[Sweep];
  size_t Verdicts = 0, VerdictHits = 0, Accepted = 0;
  size_t Pruned = 0, Enumerated = 0;
  std::map<std::string, std::pair<size_t, size_t>> Est; // fid -> {n, hits}
  std::map<std::string, size_t> PrunedBy;               // bound fid -> n
  for (size_t I = R.Begin; I <= R.End; ++I) {
    const Event &E = Events[I];
    if (E.Kind == "sweep-begin") {
      F["space"] = E.Fields.at("space");
      F["explored"] = E.Fields.at("explored");
      F["strategy"] = E.Fields.at("strategy");
      F["threads"] = E.Fields.at("threads");
    } else if (E.Kind == "enumerated") {
      ++Enumerated;
    } else if (E.Kind == "verdict") {
      ++Verdicts;
      if (E.Fields.at("cache_hit").asBool())
        ++VerdictHits;
      if (E.Fields.at("accepted").asBool())
        ++Accepted;
    } else if (E.Kind == "estimate") {
      auto &P = Est[E.Fields.at("fidelity").asString()];
      ++P.first;
      if (E.Fields.at("cache_hit").asBool())
        ++P.second;
    } else if (E.Kind == "prune") {
      ++Pruned;
      ++PrunedBy[E.Fields.at("bound_fidelity").asString()];
    } else if (E.Kind == "sweep-end") {
      F["front_size"] = E.Fields.at("front").size();
      F["accepted_front_size"] = E.Fields.at("accepted_front").size();
      F["seconds"] = E.Fields.at("seconds");
    }
  }
  F["enumerated"] = Enumerated;
  Json V = Json::object();
  V["total"] = Verdicts;
  V["accepted"] = Accepted;
  V["cache_hits"] = VerdictHits;
  F["verdicts"] = V;
  Json EstJ = Json::object();
  for (const auto &[Fid, P] : Est) {
    Json One = Json::object();
    One["count"] = P.first;
    One["cache_hits"] = P.second;
    EstJ[Fid] = One;
  }
  F["estimates"] = EstJ;
  Json PJ = Json::object();
  PJ["total"] = Pruned;
  Json By = Json::object();
  for (const auto &[Fid, N] : PrunedBy)
    By[Fid] = N;
  PJ["by_bound_fidelity"] = By;
  F["pruned"] = PJ;
  return F;
}

Json SearchJournal::cacheStats(size_t Sweep) const {
  Json C = Json::object();
  if (Sweep >= Sweeps.size())
    return C;
  const SweepRange &R = Sweeps[Sweep];
  size_t VHit = 0, VMiss = 0;
  std::map<std::string, std::pair<size_t, size_t>> Est; // fid -> {hit, miss}
  for (size_t I = R.Begin; I <= R.End; ++I) {
    const Event &E = Events[I];
    if (E.Kind == "verdict") {
      ++(E.Fields.at("cache_hit").asBool() ? VHit : VMiss);
    } else if (E.Kind == "estimate") {
      auto &P = Est[E.Fields.at("fidelity").asString()];
      ++(E.Fields.at("cache_hit").asBool() ? P.first : P.second);
    }
  }
  Json V = Json::object();
  V["hits"] = VHit;
  V["misses"] = VMiss;
  C["verdict"] = V;
  Json EJ = Json::object();
  for (const auto &[Fid, P] : Est) {
    Json One = Json::object();
    One["hits"] = P.first;
    One["misses"] = P.second;
    EJ[Fid] = One;
  }
  C["estimate"] = EJ;
  return C;
}

Json SearchJournal::timeline(size_t Sweep) const {
  Json T = Json::array();
  if (Sweep >= Sweeps.size())
    return T;
  const SweepRange &R = Sweeps[Sweep];
  std::map<std::string, size_t> Size;
  for (size_t I = R.Begin; I <= R.End; ++I) {
    const Event &E = Events[I];
    if (E.Kind != "front-enter" && E.Kind != "front-evict")
      continue;
    const std::string &Front = E.Fields.at("front").asString();
    size_t &S = Size[Front];
    if (E.Kind == "front-enter")
      ++S;
    else if (S)
      --S;
    Json Row = Json::object();
    Row["seq"] = E.Seq;
    Row["ts_us"] = E.TsUs;
    Row["action"] = E.Kind == "front-enter" ? "enter" : "evict";
    Row["front"] = Front;
    Row["config"] = E.Fields.at("config");
    if (E.Fields.contains("by"))
      Row["by"] = E.Fields.at("by");
    Row["size"] = S;
    T.push_back(std::move(Row));
  }
  return T;
}

Json SearchJournal::whyPruned(uint64_t Config) const {
  Json W = Json::object();
  W["config"] = Config;
  // Scope to the last sweep whose events mention the config.
  std::optional<size_t> Chosen;
  for (size_t S = 0; S != Sweeps.size(); ++S) {
    for (size_t I = Sweeps[S].Begin; I <= Sweeps[S].End; ++I) {
      const Event &E = Events[I];
      if (E.Fields.contains("config") && configOf(E) == Config) {
        Chosen = S;
        break;
      }
    }
  }
  if (!Chosen) {
    W["status"] = "unknown";
    W["detail"] = "configuration never appears in the journal";
    return W;
  }
  const SweepRange &R = Sweeps[*Chosen];
  W["sweep"] = *Chosen;

  const Event *Prune = nullptr;
  const Event *LastFrontEnter = nullptr; // on the "all" front
  const Event *LastFrontEvict = nullptr;
  bool FullEstimate = false, Enumerated = false, OnFinalFront = false;
  std::vector<std::string> Fidelities;
  std::map<uint64_t, Json> EnterObjectives; // config -> objectives seen
  for (size_t I = R.Begin; I <= R.End; ++I) {
    const Event &E = Events[I];
    if (E.Kind == "front-enter" &&
        E.Fields.at("front").asString() == "all") {
      Json Obj = payload(E);
      EnterObjectives[configOf(E)] = Obj;
    }
    if (!E.Fields.contains("config") || configOf(E) != Config) {
      if (E.Kind == "sweep-end")
        for (const Json &M : E.Fields.at("front").asArray())
          if (static_cast<uint64_t>(M.asInt()) == Config)
            OnFinalFront = true;
      continue;
    }
    if (E.Kind == "enumerated")
      Enumerated = true;
    else if (E.Kind == "prune")
      Prune = &E;
    else if (E.Kind == "estimate") {
      const std::string &Fid = E.Fields.at("fidelity").asString();
      Fidelities.push_back(Fid);
      if (Fid == "full" || Fid == "exact")
        FullEstimate = true;
    } else if (E.Kind == "front-enter" &&
               E.Fields.at("front").asString() == "all")
      LastFrontEnter = &E;
    else if (E.Kind == "front-evict" &&
             E.Fields.at("front").asString() == "all")
      LastFrontEvict = &E;
  }
  Json Fids = Json::array();
  for (const std::string &F : Fidelities)
    Fids.push_back(F);
  W["estimates"] = Fids;

  if (Prune) {
    W["status"] = "pruned";
    W["reason"] = Prune->Fields.at("reason");
    W["bound_fidelity"] = Prune->Fields.at("bound_fidelity");
    uint64_t Dom =
        static_cast<uint64_t>(Prune->Fields.at("dominator").asInt());
    Json DomJ = Json::object();
    DomJ["config"] = Dom;
    auto It = EnterObjectives.find(Dom);
    if (It != EnterObjectives.end())
      DomJ["objectives"] = It->second;
    W["dominator"] = DomJ;
    W["detail"] = "lower bound at fidelity '" +
                  Prune->Fields.at("bound_fidelity").asString() +
                  "' strictly dominated by configuration " +
                  std::to_string(Dom) + "'s estimated objectives";
    return W;
  }
  if (!Enumerated) {
    W["status"] = "unknown";
    W["detail"] = "configuration was never enumerated in this sweep";
    return W;
  }
  if (OnFinalFront) {
    W["status"] = "front-member";
    W["detail"] = "configuration is on the final Pareto front";
    return W;
  }
  if (FullEstimate) {
    W["status"] = "estimated";
    if (LastFrontEvict &&
        (!LastFrontEnter || LastFrontEvict->Seq > LastFrontEnter->Seq)) {
      W["evicted_by"] = LastFrontEvict->Fields.at("by");
      W["detail"] =
          "fully estimated, entered the front, later evicted by "
          "configuration " +
          std::to_string(LastFrontEvict->Fields.at("by").asInt());
    } else {
      W["detail"] = "fully estimated but dominated on front insertion";
    }
    return W;
  }
  W["status"] = "bound-only";
  W["detail"] = "never promoted to a full-fidelity estimate and no "
                "explicit prune record (exhaustive journals only record "
                "prunes under pruned strategies)";
  return W;
}

std::string SearchJournal::chromeTrace() const {
  std::string Out = "[";
  bool First = true;
  auto Add = [&](const Json &J) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n";
    Out += J.dump();
  };
  auto Counter = [&](const std::string &Name, int64_t Ts,
                     const std::string &Key, double Value) {
    Json C = Json::object();
    C["name"] = Name;
    C["ph"] = "C";
    C["ts"] = Ts;
    C["pid"] = 1;
    C["tid"] = 1;
    Json Args = Json::object();
    Args[Key] = Value;
    C["args"] = Args;
    Add(C);
  };
  std::map<std::string, size_t> FrontSize;
  for (const Event &E : Events) {
    Json T = Json::object();
    T["name"] = E.Kind;
    T["ph"] = "i";
    T["ts"] = E.TsUs;
    T["pid"] = 1;
    T["tid"] = 1;
    T["s"] = "g";
    T["args"] = payload(E);
    Add(T);
    if (E.Kind == "front-enter" || E.Kind == "front-evict") {
      const std::string &F = E.Fields.at("front").asString();
      size_t &S = FrontSize[F];
      if (E.Kind == "front-enter")
        ++S;
      else if (S)
        --S;
      Counter("front." + F, E.TsUs, "size", static_cast<double>(S));
    } else if (E.Kind == "progress") {
      Counter("dse.configs_per_sec", E.TsUs, "rate",
              E.Fields.at("configs_per_sec").asDouble());
    }
  }
  Out += "\n]\n";
  return Out;
}

std::vector<std::string> SearchJournal::checkConsistent() const {
  std::vector<std::string> V;
  constexpr size_t MaxViolations = 100;
  auto Fail = [&](std::string S) {
    if (V.size() < MaxViolations)
      V.push_back(std::move(S));
  };
  if (Events.empty()) {
    Fail("journal is empty");
    return V;
  }
  if (Events.front().Kind != "journal-begin")
    Fail("first event is '" + Events.front().Kind +
         "', expected journal-begin");
  else if (Schema != 1 && Schema != 2)
    Fail("unsupported schema version " + std::to_string(Schema));
  if (Events.back().Kind != "journal-end")
    Fail("last event is '" + Events.back().Kind +
         "', expected journal-end (truncated journal?)");
  else {
    int64_t Claimed = Events.back().Fields.at("events").asInt();
    if (Claimed != static_cast<int64_t>(Events.size()))
      Fail("journal-end claims " + std::to_string(Claimed) +
           " events, file has " + std::to_string(Events.size()));
  }
  for (size_t I = 0; I != Events.size(); ++I)
    if (Events[I].Seq != I) {
      Fail("seq discontinuity: event " + std::to_string(I) + " has seq " +
           std::to_string(Events[I].Seq));
      break;
    }
  // Envelope types, kind syntax, and each known kind's required payload
  // fields (eventlog::kKindSchemas). Unknown kinds pass.
  for (size_t I = 0; I != Events.size(); ++I) {
    const Json &F = Events[I].Fields;
    auto FailAt = [&](const std::string &What) {
      Fail("event " + std::to_string(I) + ": " + What);
    };
    for (const char *Key : {"seq", "ts_us"})
      if (!F.at(Key).isInt())
        FailAt(std::string("envelope field '") + Key +
               "' missing or not an integer");
    if (!F.at("kind").isString() || !wellFormedKind(Events[I].Kind)) {
      FailAt("malformed kind " + F.at("kind").dump());
      continue;
    }
    if (const eventlog::KindSchema *S = eventlog::kindSchema(Events[I].Kind))
      for (std::string_view Field : S->Fields)
        if (!Field.empty() && !F.contains(std::string(Field)))
          FailAt(Events[I].Kind + " lacks required field '" +
                 std::string(Field) + "'");
  }

  for (size_t S = 0; S != Sweeps.size(); ++S) {
    const SweepRange &R = Sweeps[S];
    std::string Tag = "sweep " + std::to_string(S) + ": ";
    if (!R.Closed)
      Fail(Tag + "no sweep-end (interrupted sweep)");
    std::set<uint64_t> Enumerated, FullyEstimated, PrunedSet;
    std::vector<const Event *> Prunes;
    // Last front action per config on the merged "all" front.
    std::map<uint64_t, const Event *> LastAll;
    std::vector<uint64_t> FinalFront;
    for (size_t I = R.Begin; I <= R.End; ++I) {
      const Event &E = Events[I];
      if (E.Kind == "enumerated") {
        Enumerated.insert(configOf(E));
      } else if (E.Kind == "estimate") {
        const std::string &Fid = E.Fields.at("fidelity").asString();
        if (Fid == "full" || Fid == "exact")
          FullyEstimated.insert(configOf(E));
      } else if (E.Kind == "prune") {
        PrunedSet.insert(configOf(E));
        Prunes.push_back(&E);
      } else if (E.Kind == "front-enter" || E.Kind == "front-evict") {
        if (E.Fields.at("front").asString() == "all")
          LastAll[configOf(E)] = &E;
      } else if (E.Kind == "sweep-end") {
        for (const Json &M : E.Fields.at("front").asArray())
          FinalFront.push_back(static_cast<uint64_t>(M.asInt()));
        // The sweep's counter and its journal must agree on the prunes.
        if (E.Fields.contains("pruned") &&
            E.Fields.at("pruned").asInt() !=
                static_cast<int64_t>(Prunes.size()))
          Fail(Tag + "sweep-end claims " + E.Fields.at("pruned").dump() +
               " pruned, the sweep journals " +
               std::to_string(Prunes.size()) + " prune events");
      }
      // Every config-bearing event must reference an enumerated config.
      if (E.Kind != "enumerated" && E.Fields.contains("config") &&
          !Enumerated.count(configOf(E)))
        Fail(Tag + E.Kind + " (seq " + std::to_string(E.Seq) +
             ") references non-enumerated config " +
             std::to_string(configOf(E)));
    }
    for (uint64_t C : FinalFront) {
      std::string Cfg = "front member " + std::to_string(C);
      if (!FullyEstimated.count(C))
        Fail(Tag + Cfg + " has no full/exact estimate event");
      auto It = LastAll.find(C);
      if (It == LastAll.end())
        Fail(Tag + Cfg + " never entered the 'all' front");
      else if (It->second->Kind != "front-enter")
        Fail(Tag + Cfg + "'s last 'all'-front event is an eviction");
      if (PrunedSet.count(C))
        Fail(Tag + Cfg + " also has a prune event");
    }
    for (const Event *P : Prunes) {
      uint64_t Dom =
          static_cast<uint64_t>(P->Fields.at("dominator").asInt());
      if (!FullyEstimated.count(Dom))
        Fail(Tag + "prune of config " +
             std::to_string(configOf(*P)) + " names dominator " +
             std::to_string(Dom) + " which has no full/exact estimate");
    }
  }
  return V;
}

} // namespace dahlia::dse::journal
