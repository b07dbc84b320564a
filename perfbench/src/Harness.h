//===- Harness.h - Shared plumbing of the perfbench binary -------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, statistics, the seeded input generator, the in-memory span
/// recorder of the traced run, the reference-output file, and the result
/// record every workload fills. Everything here is benchmark code: it calls
/// into the library only through public headers, and its spans wrap those
/// calls from the outside (METRICS.md lists what each span times).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "dse/DseEngine.h"
#include "kernels/Kernels.h"
#include "service/Protocol.h"
#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using dahlia::Json;

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference; ///< perfbench/reference.json
  std::string Out;       ///< Result JSON written here.
  std::string TraceOut;  ///< Chrome trace JSON (traced run only).
  std::string ServeBin;  ///< dahlia-serve executable (cluster-cold).
};

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

/// Monotonic nanoseconds.
uint64_t nowNs();
/// CPU seconds consumed by this process (all threads).
double processCpuSec();
/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Nearest-rank quantile \p Q of \p V (copied); 0 when empty.
double quantile(std::vector<double> V, double Q);
/// The 99th percentile (nearest rank) of \p V when at least ten samples lie
/// beyond it. With fewer samples (a run of one to four sweeps) no tail is
/// resolved, and this is the median.
double latencyP99(const std::vector<double> &V);
/// Median of \p V (copied), the mean of the middle two for an even count;
/// 0 when empty.
double median(std::vector<double> V);

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// SplitMix64: the whole input stream of a run derives from --seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

/// A seeded permutation of [0, N).
std::vector<size_t> permutation(size_t N, Rng &R);

/// FNV-1a over the generated inputs, printed so two runs can be shown to
/// have used identical inputs.
class Digest {
public:
  void add(uint64_t V);
  std::string hex() const;

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// The four sweep spaces, in the service's naming.
enum class SpaceId : uint8_t { Gemm, Stencil, MdKnn, MdGrid };
constexpr unsigned NumSpaces = 4;
const char *spaceName(SpaceId S);
dahlia::dse::DseProblem spaceProblem(SpaceId S);

/// The configuration vectors of all four spaces, with Dahlia source and
/// the session rewrite that turns configuration 0 into configuration I.
class Spaces {
public:
  Spaces();
  size_t size(SpaceId S) const;
  std::string source(SpaceId S, size_t I) const;
  dahlia::service::Rewrite rewrite(SpaceId S, size_t I) const;

private:
  std::vector<dahlia::kernels::GemmBlockedConfig> Gemm;
  std::vector<dahlia::kernels::Stencil2dConfig> Stencil;
  std::vector<dahlia::kernels::MdKnnConfig> MdKnn;
  std::vector<dahlia::kernels::MdGridConfig> MdGrid;
};

//===----------------------------------------------------------------------===//
// Span recorder (traced run only)
//===----------------------------------------------------------------------===//

namespace trace {

/// Turns span recording on for this process. Off, Span costs one branch.
void enable(const std::string &Workload);
bool on();

/// RAII span around one call into a layer. Nested spans record their
/// parent; every span also feeds the per-name totals below.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name;
  uint64_t Start = 0;
  uint32_t Id = 0;
  uint32_t Parent = 0;
};

/// Count and summed duration of every span named \p Name, all threads.
struct Totals {
  uint64_t Count = 0;
  uint64_t Ns = 0;
  double meanUs() const { return Count ? Ns / 1e3 / Count : 0; }
};
Totals totals(const std::string &Name);

/// Writes every kept span as Chrome trace-event JSON (Perfetto loads it).
/// At most a fixed number of spans are kept; totals count all of them.
bool writeChromeTrace(const std::string &Path);

} // namespace trace

//===----------------------------------------------------------------------===//
// Reference outputs
//===----------------------------------------------------------------------===//

/// Objective vectors of a front, sorted so sets compare by value.
using ObjVec = std::vector<std::vector<double>>;
ObjVec sortedObjectives(const std::vector<dahlia::dse::Objectives> &Os);
/// Members of \p A or \p B that the other lacks (multiset difference).
size_t objectiveMismatches(const ObjVec &A, const ObjVec &B);

/// Structural JSON equality where numbers compare as exact doubles.
bool sameJson(const Json &A, const Json &B);

class Reference {
public:
  bool load(const std::string &Path, std::string &Err);
  const Json &space(SpaceId S) const;
  bool accepted(SpaceId S, size_t I) const;
  /// Accepted configuration indices of \p S, ascending.
  const std::vector<size_t> &acceptedList(SpaceId S) const;
  ObjVec front(SpaceId S, const char *Run, const char *Which) const;

private:
  Json Root;
  std::vector<std::vector<char>> Accepted;
  std::vector<std::vector<size_t>> AcceptedList;
};

//===----------------------------------------------------------------------===//
// Result record
//===----------------------------------------------------------------------===//

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FailureNotes; ///< First few, for the log.
  Json EndToEnd = Json::object();        ///< name -> {value, unit}
  Json Layers = Json::object();          ///< name -> {value, unit}
  Json Info = Json::object();            ///< digests, sample counts, ...

  void fail(uint64_t N, const std::string &Why);
  void metric(const char *Name, double V, const char *Unit);
  void layer(const char *Name, double V, const char *Unit);
};

/// Repeats \p Round while the next one is expected to end inside
/// \p Seconds; always runs at least one.
template <typename Fn> void forBudget(double Seconds, Fn Round) {
  uint64_t Start = nowNs();
  double Last = 0;
  do {
    uint64_t T0 = nowNs();
    Round();
    Last = (nowNs() - T0) * 1e-9;
  } while ((nowNs() - Start) * 1e-9 + Last <= Seconds);
}

/// End-to-end metrics of a workload whose unit of work is a whole sweep
/// (or round of sweeps) of \p ConfigsPerRound configs: configs_per_s and
/// the latencies from the per-round wall times \p Walls, setup_s from the
/// set-up durations \p SetupTimes.
void roundMetrics(const std::vector<double> &Walls, size_t ConfigsPerRound,
                  const std::vector<double> &SetupTimes, RunResult &R);

/// Workload entry points (Sweeps.cpp, Service.cpp, Cluster.cpp).
int runSweepExhaustive(const Options &O, const Reference &Ref, RunResult &R);
int runSweepPruned(const Options &O, const Reference &Ref, RunResult &R);
int runServiceMixed(const Options &O, const Reference &Ref, RunResult &R);
int runClusterCold(const Options &O, const Reference &Ref, RunResult &R);

/// Writes the reference file from the library itself (Record.cpp).
int recordReference(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
