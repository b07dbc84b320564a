//===- dahlia_dse_report.cpp - Explain a DSE search journal -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Offline explainer for the JSONL search journal a sweep records with
// --journal-out (dahliac, fig7_dse_gemm_blocked, dahlia-serve):
//
//   dahlia-dse-report sweep.jsonl                    # funnel + cache stats
//   dahlia-dse-report sweep.jsonl --why-pruned 118   # who dominated 118?
//   dahlia-dse-report sweep.jsonl --timeline         # front evolution
//   dahlia-dse-report sweep.jsonl --trace-out t.json # chrome://tracing
//   dahlia-dse-report sweep.jsonl --assert-consistent  # CI gate
//
// --assert-consistent machine-checks the journal's invariants (framing,
// dense seq numbering, well-typed envelopes, every known kind's required
// fields, each sweep-end's `pruned` equal to its prune events, every
// front member fully estimated and never pruned, every prune's dominator
// estimated) and exits non-zero listing violations —
// CI runs it on the fig7 and cluster smoke journals.
//
//===----------------------------------------------------------------------===//

#include "dse/Journal.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace dahlia;
using dse::journal::SearchJournal;

namespace {

const char *kUsage =
    "usage: dahlia-dse-report JOURNAL.jsonl [--funnel] [--cache-stats]\n"
    "           [--timeline] [--why-pruned CONFIG] [--trace-out PATH]\n"
    "           [--assert-consistent] [--sweep N] [--json] [--help]\n"
    "\n"
    "  --funnel             search-funnel table (default with --cache-stats)\n"
    "  --cache-stats        verdict/estimate cache-hit breakdown\n"
    "  --timeline           Pareto-front evolution (enter/evict rows)\n"
    "  --why-pruned CONFIG  explain why a configuration was pruned\n"
    "  --trace-out PATH     write a Chrome trace (chrome://tracing)\n"
    "  --assert-consistent  machine-check journal invariants; exit 1 on\n"
    "                       violation\n"
    "  --sweep N            restrict to sweep N (default: all sweeps)\n"
    "  --json               machine-readable output\n";

int usage() {
  std::fprintf(stderr, "%s", kUsage);
  return 2;
}

/// Parses \p S as a non-negative decimal integer spanning the whole
/// string ("1l8", "abc", "-1" and "" are all rejected).
std::optional<unsigned long long> parseIndex(const char *S) {
  const char *End = S + std::strlen(S);
  unsigned long long V = 0;
  auto [P, Ec] = std::from_chars(S, End, V);
  if (Ec != std::errc() || P == S || P != End)
    return std::nullopt;
  return V;
}

int badIndex(const char *Flag, const char *Value) {
  std::fprintf(stderr,
               "dahlia-dse-report: %s expects a non-negative integer, got "
               "'%s'\n",
               Flag, Value);
  return usage();
}

void printFunnel(const Json &F, size_t Sweep) {
  std::printf("sweep %zu: strategy=%s space=%lld explored=%lld "
              "threads=%lld seconds=%.3f\n",
              Sweep, F.at("strategy").asString().c_str(),
              static_cast<long long>(F.at("space").asInt()),
              static_cast<long long>(F.at("explored").asInt()),
              static_cast<long long>(F.at("threads").asInt()),
              F.at("seconds").asDouble());
  const Json &V = F.at("verdicts");
  std::printf("  verdicts    %6lld checked  %6lld accepted  %6lld cached\n",
              static_cast<long long>(V.at("total").asInt()),
              static_cast<long long>(V.at("accepted").asInt()),
              static_cast<long long>(V.at("cache_hits").asInt()));
  for (const auto &[Fid, E] : F.at("estimates").asObject())
    std::printf("  est:%-7s %6lld runs     %6lld cached\n", Fid.c_str(),
                static_cast<long long>(E.at("count").asInt()),
                static_cast<long long>(E.at("cache_hits").asInt()));
  const Json &P = F.at("pruned");
  std::printf("  pruned      %6lld",
              static_cast<long long>(P.at("total").asInt()));
  for (const auto &[Fid, N] : P.at("by_bound_fidelity").asObject())
    std::printf("  [%s: %lld]", Fid.c_str(),
                static_cast<long long>(N.asInt()));
  std::printf("\n  front       %6lld members (%lld accepted)\n",
              static_cast<long long>(F.at("front_size").asInt()),
              static_cast<long long>(F.at("accepted_front_size").asInt()));
}

void printCacheStats(const Json &C, size_t Sweep) {
  const Json &V = C.at("verdict");
  std::printf("sweep %zu cache: verdict %lld hits / %lld misses\n", Sweep,
              static_cast<long long>(V.at("hits").asInt()),
              static_cast<long long>(V.at("misses").asInt()));
  for (const auto &[Fid, E] : C.at("estimate").asObject())
    std::printf("  estimate:%-7s %6lld hits / %lld misses\n", Fid.c_str(),
                static_cast<long long>(E.at("hits").asInt()),
                static_cast<long long>(E.at("misses").asInt()));
}

void printTimeline(const Json &T, size_t Sweep) {
  std::printf("sweep %zu front timeline (%zu events):\n", Sweep,
              static_cast<size_t>(T.size()));
  for (const Json &Row : T.asArray()) {
    if (Row.at("action").asString() == "enter")
      std::printf("  +%-6lld enters %-8s (size %lld)\n",
                  static_cast<long long>(Row.at("config").asInt()),
                  Row.at("front").asString().c_str(),
                  static_cast<long long>(Row.at("size").asInt()));
    else
      std::printf("  -%-6lld leaves %-8s evicted by %lld (size %lld)\n",
                  static_cast<long long>(Row.at("config").asInt()),
                  Row.at("front").asString().c_str(),
                  static_cast<long long>(Row.at("by").asInt()),
                  static_cast<long long>(Row.at("size").asInt()));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JournalPath = nullptr;
  const char *TraceOut = nullptr;
  bool Funnel = false, CacheStats = false, Timeline = false;
  bool AssertConsistent = false, AsJson = false;
  std::optional<unsigned long long> WhyPruned, SweepArg;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--help")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (!std::strcmp(Argv[I], "--funnel")) {
      Funnel = true;
    } else if (!std::strcmp(Argv[I], "--cache-stats")) {
      CacheStats = true;
    } else if (!std::strcmp(Argv[I], "--timeline")) {
      Timeline = true;
    } else if (!std::strcmp(Argv[I], "--assert-consistent")) {
      AssertConsistent = true;
    } else if (!std::strcmp(Argv[I], "--json")) {
      AsJson = true;
    } else if (!std::strcmp(Argv[I], "--why-pruned") && I + 1 < Argc) {
      if (!(WhyPruned = parseIndex(Argv[++I])))
        return badIndex("--why-pruned", Argv[I]);
    } else if (!std::strcmp(Argv[I], "--sweep") && I + 1 < Argc) {
      if (!(SweepArg = parseIndex(Argv[++I])))
        return badIndex("--sweep", Argv[I]);
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      TraceOut = Argv[++I];
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "dahlia-dse-report: unknown flag '%s'\n",
                   Argv[I]);
      return usage();
    } else if (!JournalPath) {
      JournalPath = Argv[I];
    } else {
      return usage();
    }
  }
  if (!JournalPath)
    return usage();

  std::string Err;
  std::optional<SearchJournal> J = SearchJournal::load(JournalPath, &Err);
  if (!J) {
    std::fprintf(stderr, "dahlia-dse-report: %s\n", Err.c_str());
    return 1;
  }

  // No mode flag: the default report is funnel + cache stats.
  if (!Funnel && !CacheStats && !Timeline && !WhyPruned && !TraceOut &&
      !AssertConsistent)
    Funnel = CacheStats = true;

  std::vector<size_t> SweepIds;
  if (SweepArg) {
    if (*SweepArg >= J->sweepCount()) {
      std::fprintf(stderr,
                   "dahlia-dse-report: journal has %zu sweep(s); no sweep "
                   "%llu\n",
                   J->sweepCount(), *SweepArg);
      return 1;
    }
    SweepIds.push_back(static_cast<size_t>(*SweepArg));
  } else {
    for (size_t S = 0; S != J->sweepCount(); ++S)
      SweepIds.push_back(S);
  }

  Json Out = Json::object();
  Out["journal"] = JournalPath;
  Out["schema"] = J->schema();
  Out["events"] = J->events().size();
  Out["sweeps"] = J->sweepCount();

  if (Funnel) {
    Json A = Json::array();
    for (size_t S : SweepIds) {
      Json F = J->funnel(S);
      if (!AsJson)
        printFunnel(F, S);
      A.push_back(std::move(F));
    }
    Out["funnel"] = A;
  }
  if (CacheStats) {
    Json A = Json::array();
    for (size_t S : SweepIds) {
      Json C = J->cacheStats(S);
      if (!AsJson)
        printCacheStats(C, S);
      A.push_back(std::move(C));
    }
    Out["cache_stats"] = A;
  }
  if (Timeline) {
    Json A = Json::array();
    for (size_t S : SweepIds) {
      Json T = J->timeline(S);
      if (!AsJson)
        printTimeline(T, S);
      A.push_back(std::move(T));
    }
    Out["timeline"] = A;
  }
  if (WhyPruned) {
    Json W = J->whyPruned(*WhyPruned);
    if (!AsJson)
      std::printf("config %llu: %s — %s\n", *WhyPruned,
                  W.at("status").asString().c_str(),
                  W.at("detail").asString().c_str());
    Out["why_pruned"] = std::move(W);
  }
  if (TraceOut) {
    std::ofstream F(TraceOut);
    if (!F) {
      std::fprintf(stderr, "dahlia-dse-report: cannot write %s\n",
                   TraceOut);
      return 1;
    }
    F << J->chromeTrace();
    if (!AsJson)
      std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                  TraceOut);
    Out["trace_out"] = TraceOut;
  }

  int Exit = 0;
  if (AssertConsistent) {
    std::vector<std::string> Violations = J->checkConsistent();
    Json A = Json::array();
    for (const std::string &V : Violations) {
      if (!AsJson)
        std::fprintf(stderr, "INCONSISTENT %s\n", V.c_str());
      A.push_back(V);
    }
    Out["violations"] = A;
    Out["consistent"] = Violations.empty();
    if (Violations.empty() && !AsJson)
      std::printf("journal consistent: %zu events, %zu sweep(s)\n",
                  J->events().size(), J->sweepCount());
    if (!Violations.empty())
      Exit = 1;
  }

  if (AsJson)
    std::printf("%s\n", Out.dump().c_str());
  return Exit;
}
