//===- fig7_dse_gemm_blocked.cpp - Figure 7 / Section 5.2 harness -*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Regenerates the design-space exploration of Section 5.2 through the
// parallel DseEngine: all 32,000 gemm-blocked configurations are run
// through the real type checker, and the configured search strategy
// decides which of them receive a full-fidelity hlsim estimate (standing
// in for the paper's 2,666 compute-hours of Vivado HLS estimation). The
// paper reports: Dahlia accepts 354 configurations (~1.1%); the accepted
// points lie primarily on the Pareto frontier; the optimal points Dahlia
// rejects trade many LUTs for BRAMs.
//
// Flags:
//   --threads N     worker threads (also: DAHLIA_DSE_THREADS; default: all
//                   hardware threads) — CI runs deterministically at 1
//   --strategy S    exhaustive (default) | pareto-prune; the pruned
//                   strategy reaches the identical Pareto front with a
//                   fraction of the full-fidelity estimates
//   --exact-top-rung promote the front to cycle-level simulated (Exact)
//                   estimates: membership is then ranked by exact cycles
//                   while only a small fraction of the space is ever
//                   simulated (the acceptance bound is <= 15%)
//   --shard i/N     explore only this hash-partition of the space; the
//                   JSON then carries the partial front for
//                   dahlia-dse-merge to union back together
//   --json PATH     write metrics + front (default: BENCH_fig7_dse.json)
//   --cache-dir D   persist the memo cache under D (e.g. .dahlia-cache);
//                   a second run then starts warm and reports the hit rate
//   --trace-out F   record spans (DSE workers, bound passes, cache I/O) and
//                   write Chrome trace-event JSON to F at exit — load it
//                   in Perfetto (see docs/observability.md)
//   --journal-out F record the structured JSONL search journal to F;
//                   explain it afterwards with dahlia-dse-report (funnel,
//                   why-pruned, front timeline, --assert-consistent)
//   --progress      print live progress lines (phase, done/total, front
//                   size, configs/sec, ETA) to stderr while exploring
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "dse/SearchStrategy.h"
#include "kernels/Kernels.h"
#include "service/PersistentCache.h"
#include "support/EventLog.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

using namespace dahlia;
using namespace dahlia::bench;
using namespace dahlia::kernels;

int main(int Argc, char **Argv) {
  dse::DseOptions Opts;
  const char *JsonPath = "BENCH_fig7_dse.json";
  const char *CacheDir = nullptr;
  const char *TraceOut = nullptr;
  const char *JournalOut = nullptr;
  bool Progress = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--threads") && I + 1 < Argc) {
      char *End = nullptr;
      long N = std::strtol(Argv[++I], &End, 10);
      if (*End != '\0' || N < 0) {
        std::fprintf(stderr, "fig7: invalid --threads value '%s'\n",
                     Argv[I]);
        return 2;
      }
      Opts.Threads = static_cast<unsigned>(N);
    } else if (!std::strcmp(Argv[I], "--strategy") && I + 1 < Argc) {
      std::optional<dse::StrategyKind> K = dse::parseStrategy(Argv[++I]);
      if (!K) {
        std::fprintf(stderr, "fig7: unknown --strategy '%s' (%s)\n", Argv[I],
                     dse::kStrategyNames);
        return 2;
      }
      Opts.Strategy = *K;
    } else if (!std::strcmp(Argv[I], "--exact-top-rung")) {
      Opts.ExactTopRung = true;
    } else if (!std::strcmp(Argv[I], "--shard") && I + 1 < Argc) {
      std::optional<dse::ShardSpec> S = dse::parseShard(Argv[++I]);
      if (!S) {
        std::fprintf(stderr,
                     "fig7: malformed --shard '%s' (expected \"i/N\")\n",
                     Argv[I]);
        return 2;
      }
      Opts.Shard = *S;
    } else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc) {
      JsonPath = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--cache-dir") && I + 1 < Argc) {
      CacheDir = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--trace-out") && I + 1 < Argc) {
      TraceOut = Argv[++I];
      trace::traceEnable();
    } else if (!std::strcmp(Argv[I], "--journal-out") && I + 1 < Argc) {
      JournalOut = Argv[++I];
    } else if (!std::strcmp(Argv[I], "--progress")) {
      Progress = true;
    }
  }
  if (JournalOut && !eventlog::journalStart(JournalOut)) {
    std::fprintf(stderr, "fig7: cannot write journal '%s'\n", JournalOut);
    return 2;
  }
  if (Progress)
    Opts.OnProgress = [](const dse::DseProgress &P) {
      std::fprintf(stderr,
                   "[fig7] %-12s %6zu/%-6zu front=%-4zu %7.0f cfg/s "
                   "eta %.1fs\n",
                   P.Phase, P.Done, P.Total, P.FrontSize, P.ConfigsPerSec,
                   P.EtaSeconds);
    };

  banner(std::string("Figure 7: DSE for gemm-blocked (32,000 configs, ") +
         dse::strategyName(Opts.Strategy) + " strategy)");

  // With --cache-dir, the memo cache round-trips through the persistent
  // on-disk layer: this run starts warm from any previous run's snapshot
  // and leaves a snapshot behind for the next one.
  std::unique_ptr<service::PersistentCache> Persist;
  bool WarmStart = false;
  if (CacheDir && *CacheDir) {
    Opts.Cache = std::make_shared<dse::DseCache>();
    Persist = std::make_unique<service::PersistentCache>(CacheDir);
    WarmStart = Persist->load(*Opts.Cache);
  }

  dse::DseProblem Problem = gemmBlockedProblem();
  dse::DseResult R = dse::DseEngine(Opts).explore(Problem);
  const dse::DseStats &St = R.Stats;

  if (JournalOut) {
    eventlog::journalStop();
    std::printf("journal written to %s (%llu events; explain with "
                "dahlia-dse-report)\n",
                JournalOut,
                static_cast<unsigned long long>(
                    eventlog::journalEventCount()));
  }

  if (Persist && !Persist->save(*Opts.Cache))
    std::fprintf(stderr, "fig7: warning: failed to save cache to %s\n",
                 CacheDir);

  std::vector<GemmBlockedConfig> Space = gemmBlockedSpace();
  std::vector<bool> IsFront(Space.size(), false);
  for (size_t F : R.Front)
    IsFront[F] = true;

  size_t AcceptedOnFront = 0;
  for (size_t I = 0; I != Space.size(); ++I)
    if (R.Points[I].Accepted && IsFront[I])
      ++AcceptedOnFront;

  if (!Opts.Shard.isWhole())
    std::printf("shard:                 %u/%u (%zu of %zu configs)\n",
                Opts.Shard.Index, Opts.Shard.Count, St.Explored,
                Space.size());
  std::printf("space size:            %zu\n", St.Explored);
  std::printf("Dahlia accepts:        %s   (paper: 354/32000 (1.1%%))\n",
              dse::fractionString(St.Accepted, St.Explored).c_str());
  std::printf("Pareto-optimal points: %zu\n", R.Front.size());
  std::printf("accepted on frontier:  %s of accepted\n",
              dse::fractionString(AcceptedOnFront, St.Accepted).c_str());
  double FullFraction =
      St.Explored ? static_cast<double>(St.Estimated) / St.Explored : 0;
  std::printf("full estimates:        %s",
              dse::fractionString(St.Estimated, St.Explored).c_str());
  if (Opts.Strategy != dse::StrategyKind::Exhaustive)
    std::printf("   [+%zu low-fidelity, %zu pruned]",
                St.LowFidelityEstimates, St.Pruned);
  std::printf("\n");
  if (Opts.ExactTopRung)
    std::printf("exact (simulated):     %s of the space promoted to the "
                "cycle-level rung\n",
                dse::fractionString(St.ExactEstimates, St.Explored).c_str());
  std::printf("worker threads:        %u\n", St.Threads);
  std::printf("exploration time:      %.1f s at %.0f configs/sec "
              "(paper: 2,666 compute-hours of Vivado estimation)\n",
              St.Seconds, St.configsPerSecond());
  double VerdictHitRate =
      St.Explored ? static_cast<double>(St.VerdictCacheHits) / St.Explored : 0;
  double EstimateHitRate =
      St.Estimated ? static_cast<double>(St.EstimateCacheHits) / St.Estimated
                   : 0;
  if (St.EstimateCacheHits || St.VerdictCacheHits)
    std::printf("memo cache hits:       %zu estimates (%.1f%%), %zu verdicts "
                "(%.1f%%)%s\n",
                St.EstimateCacheHits, EstimateHitRate * 100,
                St.VerdictCacheHits, VerdictHitRate * 100,
                WarmStart ? " [warm from persistent cache]" : "");

  // Figure 7b flavour: the accepted Pareto points span an area-latency
  // trade-off curve. Print the accepted frontier.
  banner("Accepted Pareto points (latency/LUT trade-off, cf. Fig. 7b)");
  row({"B11", "B12", "B21", "B22", "U1", "U2", "U3", "cycles", "LUTs"}, 9);
  std::vector<size_t> AcceptedFront = R.AcceptedFront;
  std::sort(AcceptedFront.begin(), AcceptedFront.end(),
            [&](size_t A, size_t B) {
              return R.Points[A].Obj.Latency < R.Points[B].Obj.Latency;
            });
  size_t Shown = 0;
  for (size_t I : AcceptedFront) {
    if (++Shown > 16)
      break;
    const GemmBlockedConfig &C = Space[I];
    row({fmtInt(C.Bank11), fmtInt(C.Bank12), fmtInt(C.Bank21),
         fmtInt(C.Bank22), fmtInt(C.Unroll1), fmtInt(C.Unroll2),
         fmtInt(C.Unroll3), fmt(R.Points[I].Obj.Latency, 0),
         fmt(R.Points[I].Obj.Lut, 0)},
        9);
  }
  std::printf("(%zu accepted Pareto points total)\n", R.AcceptedFront.size());

  // How close are accepted points to the frontier? Only the exhaustive
  // sweep estimates every point, so only it can attribute each dominated
  // accepted config to the LUT-hungry rejected optima the paper
  // describes.
  if (Opts.Strategy == dse::StrategyKind::Exhaustive &&
      Opts.Shard.isWhole()) {
    size_t AcceptedDominatedOnlyByHighLut = 0;
    for (size_t I = 0; I != Space.size(); ++I) {
      if (!R.Points[I].Accepted || IsFront[I])
        continue;
      bool OnlyHighLut = true;
      for (size_t F : R.Front)
        if (dse::dominates(R.Points[F].Obj, R.Points[I].Obj) &&
            R.Points[F].Obj.Lut <= R.Points[I].Obj.Lut)
          OnlyHighLut = false;
      AcceptedDominatedOnlyByHighLut += OnlyHighLut ? 1 : 0;
    }
    std::printf("\naccepted dominated only by LUT-hungry optima: %zu "
                "(the paper's rejected-but-optimal cluster)\n",
                AcceptedDominatedOnlyByHighLut);
  }

  if (JsonPath && *JsonPath) {
    auto ObjOf = [&](size_t I) -> const dse::Objectives & {
      return R.Points[I].Obj;
    };
    Json J = Json::object();
    J["bench"] = "fig7_dse_gemm_blocked";
    J["strategy"] = dse::strategyName(Opts.Strategy);
    J["shard_index"] = static_cast<int64_t>(Opts.Shard.Index);
    J["shard_count"] = static_cast<int64_t>(Opts.Shard.Count);
    J["space_size"] = St.Explored;
    J["accepted"] = St.Accepted;
    J["full_estimates"] = St.Estimated;
    J["full_estimate_fraction"] = FullFraction;
    J["low_fidelity_estimates"] = St.LowFidelityEstimates;
    J["pruned"] = St.Pruned;
    J["exact_top_rung"] = Opts.ExactTopRung;
    J["exact_estimates"] = St.ExactEstimates;
    J["exact_estimate_fraction"] =
        St.Explored ? static_cast<double>(St.ExactEstimates) / St.Explored
                    : 0.0;
    J["pareto_points"] = R.Front.size();
    J["accepted_pareto_points"] = R.AcceptedFront.size();
    J["threads"] = St.Threads;
    J["seconds"] = St.Seconds;
    J["configs_per_sec"] = St.configsPerSecond();
    J["estimate_cache_hits"] = St.EstimateCacheHits;
    J["verdict_cache_hits"] = St.VerdictCacheHits;
    J["estimate_hit_rate"] = EstimateHitRate;
    J["verdict_hit_rate"] = VerdictHitRate;
    J["persistent_cache_warm"] = WarmStart;
    J["front"] = dse::indicesToJson(R.Front);
    J["front_hash"] = dse::hashString(dse::frontHash(R.Front, ObjOf));
    J["accepted_front"] = dse::indicesToJson(R.AcceptedFront);
    J["accepted_front_hash"] =
        dse::hashString(dse::frontHash(R.AcceptedFront, ObjOf));
    // The shard interchange payload dahlia-dse-merge consumes.
    J["front_points"] = dse::frontPointsToJson(dse::collectFrontPoints(R));
    std::ofstream Out(JsonPath);
    Out << J.dump() << "\n";
    std::printf("metrics written to %s\n", JsonPath);
  }
  if (TraceOut && *TraceOut) {
    if (trace::traceWriteFile(TraceOut))
      std::printf("trace written to %s\n", TraceOut);
    else
      std::fprintf(stderr, "fig7: cannot write trace '%s'\n", TraceOut);
  }
  return 0;
}
