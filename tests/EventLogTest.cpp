//===- EventLogTest.cpp - Search-journal emission tests ---------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// The flight recorder's contract: disabled emission allocates nothing,
// concurrent emission loses nothing (dense journal-wide seq numbers, every
// record present — run under TSan in the nightly CI leg), journals are
// well-framed (journal-begin schema header, journal-end count trailer),
// file-mode journals round-trip through the SearchJournal reader, a
// Threads=1 sweep replays to a byte-identical journal modulo timing
// fields, why-pruned explanations name the dominating configuration, and
// checkConsistent rejects every corruption class (framing, sequencing,
// envelope types, kind syntax, and missing required payload fields).
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"

#include "dse/Journal.h"
#include "dse/SearchStrategy.h"
#include "kernels/Kernels.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <thread>
#include <vector>

using namespace dahlia;
using namespace dahlia::dse;
using namespace dahlia::kernels;

// Global allocation counter: every operator new in the process bumps it,
// so a zero delta across a region proves the region allocated nothing.
// Replacement operators must live at global scope (not in the anonymous
// namespace) to actually replace the default ones.
static std::atomic<size_t> GAllocs{0};

void *operator new(std::size_t Sz) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Sz) { return ::operator new(Sz); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// Parses one journal line (they are all JSON objects).
Json parseLine(const std::string &Line) {
  std::optional<Json> J = Json::parse(Line);
  EXPECT_TRUE(J && J->isObject()) << "unparseable journal line: " << Line;
  return J ? *J : Json::object();
}

/// The Bank21 = Bank22 = 1 slice of the Figure 7 space (2,000 configs),
/// truncated to \p Limit for test-speed sweeps.
std::shared_ptr<std::vector<GemmBlockedConfig>> sliceSpace(size_t Limit) {
  auto Space = std::make_shared<std::vector<GemmBlockedConfig>>();
  for (const GemmBlockedConfig &C : gemmBlockedSpace())
    if (C.Bank21 == 1 && C.Bank22 == 1) {
      Space->push_back(C);
      if (Space->size() == Limit)
        break;
    }
  return Space;
}

DseProblem sliceProblem(
    const std::shared_ptr<std::vector<GemmBlockedConfig>> &Space) {
  DseProblem P;
  P.Size = Space->size();
  P.Source = [Space](size_t I) { return gemmBlockedDahlia((*Space)[I]); };
  P.Spec = [Space](size_t I) { return gemmBlockedSpec((*Space)[I]); };
  P.EstimateRejected = true; // Every config reaches the estimate ladder.
  return P;
}

/// Runs one sweep with the journal in buffered mode and returns the
/// captured lines.
std::vector<std::string> journaledSweep(const DseProblem &P, StrategyKind K,
                                        unsigned Threads,
                                        bool ExactTopRung = false) {
  DseOptions O;
  O.Strategy = K;
  O.Threads = Threads;
  O.ExactTopRung = ExactTopRung;
  eventlog::journalStartBuffered();
  DseEngine(O).explore(P);
  eventlog::journalStop();
  return eventlog::journalLines();
}

//===----------------------------------------------------------------------===//
// Disabled-mode cost
//===----------------------------------------------------------------------===//

TEST(EventLog, DisabledEmissionAllocatesNothing) {
  ASSERT_FALSE(eventlog::journalActive());
  ASSERT_FALSE(eventlog::enabled());
  size_t Before = GAllocs.load(std::memory_order_relaxed);
  for (int I = 0; I != 1000; ++I)
    if (eventlog::enabled()) // The guard every emission site uses.
      eventlog::emit("enumerated",
                     eventlog::Record().field("config", I));
  size_t After = GAllocs.load(std::memory_order_relaxed);
  EXPECT_EQ(After - Before, 0u)
      << "a disabled journal must cost one load and a branch, not heap";
}

//===----------------------------------------------------------------------===//
// Framing and sequencing
//===----------------------------------------------------------------------===//

TEST(EventLog, BufferedJournalIsFramedAndDenselySequenced) {
  eventlog::journalStartBuffered();
  ASSERT_TRUE(eventlog::journalActive());
  for (int I = 0; I != 5; ++I)
    eventlog::emit("enumerated", eventlog::Record().field("config", I));
  eventlog::journalStop();
  ASSERT_FALSE(eventlog::journalActive());

  std::vector<std::string> Lines = eventlog::journalLines();
  ASSERT_EQ(Lines.size(), 7u); // begin + 5 + end
  EXPECT_EQ(eventlog::journalEventCount(), 7u);

  Json Begin = parseLine(Lines.front());
  EXPECT_EQ(Begin.at("kind").asString(), "journal-begin");
  EXPECT_EQ(Begin.at("schema").asInt(), eventlog::kSchemaVersion);

  Json End = parseLine(Lines.back());
  EXPECT_EQ(End.at("kind").asString(), "journal-end");
  EXPECT_EQ(End.at("events").asInt(), 7);

  int64_t First = parseLine(Lines[0]).at("seq").asInt();
  for (size_t I = 0; I != Lines.size(); ++I)
    EXPECT_EQ(parseLine(Lines[I]).at("seq").asInt(),
              First + static_cast<int64_t>(I))
        << "seq numbers must be dense, line " << I;
}

TEST(EventLog, ConcurrentEmissionLosesNothing) {
  constexpr int Threads = 4, PerThread = 300;
  eventlog::journalStartBuffered();
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([T] {
      for (int I = 0; I != PerThread; ++I)
        if (eventlog::enabled())
          eventlog::emit("estimate", eventlog::Record()
                                         .field("config", T * PerThread + I)
                                         .field("fidelity", "coarse")
                                         .field("cache_hit", false));
    });
  for (std::thread &W : Workers)
    W.join();
  eventlog::journalStop();

  std::vector<std::string> Lines = eventlog::journalLines();
  ASSERT_EQ(Lines.size(), 2u + Threads * PerThread);

  // Dense seq numbers and every (thread-unique) config exactly once:
  // concurrent emitters interleave but never lose or duplicate.
  std::set<int64_t> Seqs, Configs;
  for (const std::string &L : Lines) {
    Json J = parseLine(L);
    Seqs.insert(J.at("seq").asInt());
    if (J.at("kind").asString() == "estimate")
      Configs.insert(J.at("config").asInt());
  }
  EXPECT_EQ(Seqs.size(), Lines.size());
  EXPECT_EQ(*Seqs.rbegin() - *Seqs.begin() + 1,
            static_cast<int64_t>(Lines.size()));
  ASSERT_EQ(Configs.size(), static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(*Configs.begin(), 0);
  EXPECT_EQ(*Configs.rbegin(), Threads * PerThread - 1);
}

//===----------------------------------------------------------------------===//
// File round-trip
//===----------------------------------------------------------------------===//

TEST(EventLog, FileJournalRoundTripsThroughSearchJournal) {
  std::string Path = testing::TempDir() + "eventlog_roundtrip.jsonl";
  ASSERT_TRUE(eventlog::journalStart(Path));
  for (int I = 0; I != 3; ++I)
    eventlog::emit("enumerated", eventlog::Record().field("config", I));
  eventlog::journalStop();

  std::string Err;
  std::optional<journal::SearchJournal> J =
      journal::SearchJournal::load(Path, &Err);
  ASSERT_TRUE(J) << Err;
  EXPECT_EQ(J->schema(), eventlog::kSchemaVersion);
  ASSERT_EQ(J->events().size(), 5u);
  EXPECT_EQ(J->events().front().Kind, "journal-begin");
  EXPECT_EQ(J->events().back().Kind, "journal-end");
  std::remove(Path.c_str());
}

TEST(EventLog, SchemaOneJournalsStillReplay) {
  // A schema-1 journal of a successive-halving sweep: its rung/rescue
  // kinds and removed fields are skipped as unknown, not rejected.
  std::vector<std::string> Lines = {
      R"({"seq":0,"ts_us":1,"kind":"journal-begin","schema":1})",
      R"({"seq":1,"ts_us":2,"kind":"sweep-begin","space":2,"explored":2,)"
      R"("strategy":"halving","threads":1,"eta":4})",
      R"({"seq":2,"ts_us":3,"kind":"enumerated","config":0})",
      R"({"seq":3,"ts_us":4,"kind":"enumerated","config":1})",
      R"({"seq":4,"ts_us":5,"kind":"rung","rung":1,"candidates":2,)"
      R"("kept":1,"bound_fidelity":"medium"})",
      R"({"seq":5,"ts_us":6,"kind":"estimate","config":0,)"
      R"("fidelity":"full","cache_hit":false})",
      R"({"seq":6,"ts_us":7,"kind":"front-enter","config":0,"front":"all"})",
      R"({"seq":7,"ts_us":8,"kind":"rescue","config":1})",
      R"({"seq":8,"ts_us":9,"kind":"sweep-end","explored":2,"accepted":0,)"
      R"("pruned":0,"rescued":1,"seconds":0.1,"front":[0],)"
      R"("accepted_front":[]})",
      R"({"seq":9,"ts_us":10,"kind":"journal-end","events":10})"};
  std::string Err;
  std::optional<journal::SearchJournal> J =
      journal::SearchJournal::parse(Lines, &Err);
  ASSERT_TRUE(J) << Err;
  EXPECT_EQ(J->schema(), 1);
  EXPECT_TRUE(J->checkConsistent().empty());
  Json F = J->funnel(0);
  EXPECT_EQ(F.at("strategy").asString(), "halving");
  EXPECT_EQ(F.at("front_size").asInt(), 1);
  EXPECT_FALSE(F.contains("rungs"));

  Lines[0] = R"({"seq":0,"ts_us":1,"kind":"journal-begin","schema":3})";
  J = journal::SearchJournal::parse(Lines, &Err);
  ASSERT_TRUE(J) << Err;
  EXPECT_FALSE(J->checkConsistent().empty());
}

TEST(EventLog, JournalStartRejectsUnwritablePath) {
  EXPECT_FALSE(eventlog::journalStart("/nonexistent-dir/journal.jsonl"));
  EXPECT_FALSE(eventlog::journalActive());
  EXPECT_FALSE(eventlog::enabled());
}

//===----------------------------------------------------------------------===//
// Sweep journals: replay determinism and why-pruned
//===----------------------------------------------------------------------===//

/// Normalizes a journal for replay comparison: drops the wall-clock
/// records (`progress` fires on a timer, so its count varies run to run)
/// and the timing envelope/payload fields, keeping everything the search
/// itself decided.
std::vector<std::string> normalized(const std::vector<std::string> &Lines) {
  std::vector<std::string> Out;
  for (const std::string &L : Lines) {
    Json J = parseLine(L);
    const std::string &Kind = J.at("kind").asString();
    if (Kind == "progress")
      continue;
    Json N = Json::object();
    for (const auto &[K, V] : J.asObject()) {
      if (K == "seq" || K == "ts_us" || K == "seconds" || K == "events")
        continue;
      N[K] = V;
    }
    Out.push_back(N.dump());
  }
  return Out;
}

TEST(EventLog, SingleThreadSweepJournalReplaysDeterministically) {
  auto Space = sliceSpace(400);
  DseProblem P = sliceProblem(Space);
  std::vector<std::string> A =
      journaledSweep(P, StrategyKind::ParetoPrune, /*Threads=*/1);
  std::vector<std::string> B =
      journaledSweep(P, StrategyKind::ParetoPrune, /*Threads=*/1);

  std::vector<std::string> NA = normalized(A), NB = normalized(B);
  ASSERT_EQ(NA.size(), NB.size());
  for (size_t I = 0; I != NA.size(); ++I)
    EXPECT_EQ(NA[I], NB[I]) << "journal diverged at record " << I;
}

TEST(EventLog, SweepJournalIsConsistentAndExplainsPrunes) {
  auto Space = sliceSpace(400);
  DseProblem P = sliceProblem(Space);
  std::vector<std::string> Lines =
      journaledSweep(P, StrategyKind::ParetoPrune, /*Threads=*/2);

  std::string Err;
  std::optional<journal::SearchJournal> J =
      journal::SearchJournal::parse(Lines, &Err);
  ASSERT_TRUE(J) << Err;
  EXPECT_EQ(J->sweepCount(), 1u);
  EXPECT_TRUE(J->checkConsistent().empty());

  // Find a dominance prune and check whyPruned names its dominator.
  std::optional<uint64_t> Pruned, Dominator;
  for (const journal::Event &E : J->events())
    if (E.Kind == "prune" &&
        E.Fields.at("reason").asString() == "dominated") {
      Pruned = static_cast<uint64_t>(E.Fields.at("config").asInt());
      Dominator = static_cast<uint64_t>(E.Fields.at("dominator").asInt());
      break;
    }
  ASSERT_TRUE(Pruned) << "a 400-config pruned sweep must prune something";

  Json W = J->whyPruned(*Pruned);
  EXPECT_EQ(W.at("status").asString(), "pruned");
  EXPECT_EQ(W.at("reason").asString(), "dominated");
  ASSERT_TRUE(W.at("dominator").isObject());
  EXPECT_EQ(static_cast<uint64_t>(W.at("dominator").at("config").asInt()),
            *Dominator);
  EXPECT_NE(W.at("detail").asString().find("dominated by configuration"),
            std::string::npos);

  // A final-front member gets the front-member answer.
  const journal::Event &EndEv = J->events()[J->events().size() - 2];
  ASSERT_EQ(EndEv.Kind, "sweep-end");
  const std::vector<Json> &Front = EndEv.Fields.at("front").asArray();
  ASSERT_FALSE(Front.empty());
  Json FrontW =
      J->whyPruned(static_cast<uint64_t>(Front.front().asInt()));
  EXPECT_EQ(FrontW.at("status").asString(), "front-member");
}

TEST(EventLog, EveryStrategyAndRungJournalIsConsistent) {
  // A 600-config prefix of the Figure 7 space under both strategies, with
  // and without the exact top rung: each journal passes the gate, which
  // includes sweep-end's `pruned` agreeing with the prune events.
  std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
  Space.resize(600);
  auto Shared =
      std::make_shared<std::vector<GemmBlockedConfig>>(std::move(Space));
  DseProblem P = sliceProblem(Shared);
  for (StrategyKind K : {StrategyKind::Exhaustive, StrategyKind::ParetoPrune})
    for (bool Exact : {false, true}) {
      std::vector<std::string> Lines =
          journaledSweep(P, K, /*Threads=*/2, Exact);
      std::string Err;
      std::optional<journal::SearchJournal> J =
          journal::SearchJournal::parse(Lines, &Err);
      ASSERT_TRUE(J) << Err;
      EXPECT_EQ(J->checkConsistent(), std::vector<std::string>{})
          << strategyName(K) << (Exact ? " + exact" : "");
      // The front events replay one front per name: what entered minus
      // what was evicted is the final front.
      int64_t Members = 0;
      for (const journal::Event &E : J->events())
        if ((E.Kind == "front-enter" || E.Kind == "front-evict") &&
            E.Fields.at("front").asString() == "all")
          Members += E.Kind == "front-enter" ? 1 : -1;
      const journal::Event &End = J->events()[J->events().size() - 2];
      ASSERT_EQ(End.Kind, "sweep-end");
      EXPECT_EQ(Members,
                static_cast<int64_t>(End.Fields.at("front").asArray().size()))
          << strategyName(K) << (Exact ? " + exact" : "");
    }
}

//===----------------------------------------------------------------------===//
// checkConsistent: every corruption class is caught
//===----------------------------------------------------------------------===//

/// \p Lines with \p Edit applied to the first record of kind \p Kind.
std::vector<std::string>
editFirst(std::vector<std::string> Lines, const std::string &Kind,
          const std::function<void(Json::Object &)> &Edit) {
  for (std::string &L : Lines) {
    Json J = parseLine(L);
    if (J.at("kind").asString() != Kind)
      continue;
    Json::Object O = J.asObject();
    Edit(O);
    L = Json(std::move(O)).dump();
    return Lines;
  }
  ADD_FAILURE() << "no '" << Kind << "' record to corrupt";
  return Lines;
}

std::vector<std::string> violations(const std::vector<std::string> &Lines) {
  std::string Err;
  std::optional<journal::SearchJournal> J =
      journal::SearchJournal::parse(Lines, &Err);
  if (!J)
    return {Err};
  return J->checkConsistent();
}

TEST(EventLog, CheckConsistentRejectsEachCorruption) {
  auto Space = sliceSpace(400);
  const std::vector<std::string> Pristine = journaledSweep(
      sliceProblem(Space), StrategyKind::ParetoPrune, /*Threads=*/1);
  ASSERT_EQ(violations(Pristine), std::vector<std::string>{});

  auto Erase = [](const char *Key) {
    return [Key](Json::Object &O) { O.erase(Key); };
  };
  struct Case {
    const char *Name;
    std::vector<std::string> Lines;
    const char *Expected; ///< A substring of the violation it must raise.
  };
  const Case Cases[] = {
      {"no journal-begin", {Pristine.begin() + 1, Pristine.end()},
       "expected journal-begin"},
      {"no journal-end", {Pristine.begin(), Pristine.end() - 1},
       "expected journal-end"},
      {"seq gap", editFirst(Pristine, "estimate",
                            [](Json::Object &O) {
                              O["seq"] = O["seq"].asInt() + 1000;
                            }),
       "seq discontinuity"},
      {"string seq", editFirst(Pristine, "estimate",
                               [](Json::Object &O) {
                                 O["seq"] = std::to_string(O["seq"].asInt());
                               }),
       "envelope field 'seq' missing or not an integer"},
      {"missing ts_us", editFirst(Pristine, "estimate", Erase("ts_us")),
       "envelope field 'ts_us' missing or not an integer"},
      {"malformed kind", editFirst(Pristine, "verdict",
                                   [](Json::Object &O) {
                                     O["kind"] = "Verdict";
                                   }),
       "malformed kind \"Verdict\""},
      {"prune without bound_fidelity",
       editFirst(Pristine, "prune", Erase("bound_fidelity")),
       "prune lacks required field 'bound_fidelity'"},
      {"verdict without cache_hit",
       editFirst(Pristine, "verdict", Erase("cache_hit")),
       "verdict lacks required field 'cache_hit'"},
      {"sweep-begin without strategy",
       editFirst(Pristine, "sweep-begin", Erase("strategy")),
       "sweep-begin lacks required field 'strategy'"},
      {"sweep-end pruned off by one",
       editFirst(Pristine, "sweep-end",
                 [](Json::Object &O) {
                   O["pruned"] = O["pruned"].asInt() + 1;
                 }),
       "prune events"},
  };
  for (const Case &C : Cases) {
    std::vector<std::string> V = violations(C.Lines);
    EXPECT_TRUE(std::any_of(V.begin(), V.end(),
                            [&](const std::string &S) {
                              return S.find(C.Expected) != std::string::npos;
                            }))
        << C.Name << ": no violation mentions \"" << C.Expected << "\"";
  }
}

} // namespace
