//===- main.cpp - perfbench workload process ---------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Runs ONE workload in this process and writes its result record.
// perfbench/run.py starts a fresh process per workload, so the
// memo caches, the metrics registry and the worker pool never carry over
// between workloads, and setup_s / peak_rss_mb belong to that workload.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --reference perfbench/reference.json --out RESULT.json
//             [--trace-out TRACE.json]
//   perfbench --record perfbench/reference.json
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SERVE_BIN
#define PERFBENCH_SERVE_BIN ""
#endif

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --reference FILE --out FILE [--trace-out FILE]\n"
               "       perfbench --record FILE\n"
               "workloads: sweep-exhaustive sweep-pruned service-mixed "
               "cluster-cold\n");
  return 2;
}

void printTable(const char *Title, const Json &Metrics) {
  std::printf("%s\n", Title);
  for (const auto &[Name, M] : Metrics.asObject())
    std::printf("  %-32s %14.4f %s\n", Name.c_str(), M.at("value").asDouble(),
                M.at("unit").asString().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.ServeBin = PERFBENCH_SERVE_BIN;
  std::string Record;
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&]() -> const char * { return I + 1 < Argc ? Argv[++I] : ""; };
    if (!std::strcmp(Argv[I], "--workload"))
      O.Workload = Next();
    else if (!std::strcmp(Argv[I], "--seed"))
      O.Seed = std::strtoull(Next(), nullptr, 10);
    else if (!std::strcmp(Argv[I], "--seconds"))
      O.Seconds = std::atof(Next());
    else if (!std::strcmp(Argv[I], "--trace"))
      O.Trace = std::atoi(Next()) != 0;
    else if (!std::strcmp(Argv[I], "--reference"))
      O.Reference = Next();
    else if (!std::strcmp(Argv[I], "--out"))
      O.Out = Next();
    else if (!std::strcmp(Argv[I], "--trace-out"))
      O.TraceOut = Next();
    else if (!std::strcmp(Argv[I], "--record"))
      Record = Next();
    else
      return usage();
  }

  // Timings from an unoptimized or assertion-enabled build are not
  // reported.
#ifndef NDEBUG
  constexpr bool Asserts = true;
#else
  constexpr bool Asserts = false;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || Asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to run from a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!Record.empty())
    return recordReference(Record);

  int (*Run)(const Options &, const Reference &, RunResult &) = nullptr;
  if (O.Workload == "sweep-exhaustive")
    Run = runSweepExhaustive;
  else if (O.Workload == "sweep-pruned")
    Run = runSweepPruned;
  else if (O.Workload == "service-mixed")
    Run = runServiceMixed;
  else if (O.Workload == "cluster-cold")
    Run = runClusterCold;
  if (!Run || O.Out.empty() || O.Reference.empty() || O.Seconds <= 0)
    return usage();

  Reference Ref;
  std::string Err;
  if (!Ref.load(O.Reference, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 1;
  }
  if (O.Trace)
    trace::enable(O.Workload);

  RunResult R;
  if (int Rc = Run(O, Ref, R))
    return Rc;
  R.metric("peak_rss_mb", peakRssMb(), "MB");

  Json Ctx = Json::object();
  Ctx["nproc"] = std::thread::hardware_concurrency();
  Ctx["build_type"] = PERFBENCH_BUILD_TYPE;
  Ctx["compiler"] = __VERSION__;

  Json Out = Json::object();
  Out["workload"] = O.Workload;
  Out["seed"] = O.Seed;
  Out["seconds"] = O.Seconds;
  Out["trace"] = O.Trace;
  Out["attempted"] = R.Attempted;
  Out["failed"] = R.Failed;
  Json Notes = Json::array();
  for (const std::string &N : R.FailureNotes)
    Notes.push_back(N);
  Out["failure_notes"] = std::move(Notes);
  Out["end_to_end"] = R.EndToEnd;
  Out["per_layer"] = R.Layers;
  Out["info"] = R.Info;
  Out["context"] = std::move(Ctx);
  std::ofstream OS(O.Out);
  OS << Out.dump() << "\n";
  if (!OS) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.Out.c_str());
    return 1;
  }

  std::printf("workload %s seed %llu: %llu operations, %llu failed\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (const std::string &N : R.FailureNotes)
    std::printf("  failure: %s\n", N.c_str());
  printTable("end-to-end:", R.EndToEnd);
  if (O.Trace) {
    printTable("per-layer (traced run):", R.Layers);
    if (!O.TraceOut.empty() && !trace::writeChromeTrace(O.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
  }
  return 0;
}
