//===- Harness.cpp - Shared plumbing of the perfbench binary -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>

using namespace dahlia;
using namespace dahlia::kernels;

namespace perfbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double processCpuSec() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double latencyP99(const std::vector<double> &V) {
  return V.size() >= 1000 ? quantile(V, 0.99) : median(V);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  return (*std::max_element(V.begin(), V.begin() + Mid) + Hi) / 2;
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::vector<size_t> permutation(size_t N, Rng &R) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I != N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

void Digest::add(uint64_t V) {
  for (int B = 0; B != 8; ++B) {
    H ^= (V >> (8 * B)) & 0xff;
    H *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

const char *spaceName(SpaceId S) {
  switch (S) {
  case SpaceId::Gemm:
    return "gemm-blocked";
  case SpaceId::Stencil:
    return "stencil2d";
  case SpaceId::MdKnn:
    return "md-knn";
  case SpaceId::MdGrid:
    return "md-grid";
  }
  return "?";
}

dse::DseProblem spaceProblem(SpaceId S) {
  switch (S) {
  case SpaceId::Gemm:
    return gemmBlockedProblem();
  case SpaceId::Stencil:
    return stencil2dProblem();
  case SpaceId::MdKnn:
    return mdKnnProblem();
  case SpaceId::MdGrid:
    return mdGridProblem();
  }
  return {};
}

Spaces::Spaces()
    : Gemm(gemmBlockedSpace()), Stencil(stencil2dSpace()),
      MdKnn(mdKnnSpace()), MdGrid(mdGridSpace()) {}

size_t Spaces::size(SpaceId S) const {
  switch (S) {
  case SpaceId::Gemm:
    return Gemm.size();
  case SpaceId::Stencil:
    return Stencil.size();
  case SpaceId::MdKnn:
    return MdKnn.size();
  case SpaceId::MdGrid:
    return MdGrid.size();
  }
  return 0;
}

std::string Spaces::source(SpaceId S, size_t I) const {
  switch (S) {
  case SpaceId::Gemm:
    return gemmBlockedDahlia(Gemm[I]);
  case SpaceId::Stencil:
    return stencil2dDahlia(Stencil[I]);
  case SpaceId::MdKnn:
    return mdKnnDahlia(MdKnn[I]);
  case SpaceId::MdGrid:
    return mdGridDahlia(MdGrid[I]);
  }
  return {};
}

// The `rewrite` payload that turns configuration 0's parse into
// configuration I: bank factors keyed by memory, unroll factors keyed by
// iterator, declaration by declaration as the generators render them.
service::Rewrite Spaces::rewrite(SpaceId S, size_t I) const {
  service::Rewrite Rw;
  switch (S) {
  case SpaceId::Gemm: {
    const GemmBlockedConfig &C = Gemm[I];
    Rw.Banks = {{"m1", {C.Bank11, C.Bank12}},
                {"m2", {C.Bank11, C.Bank12}},
                {"prod", {C.Bank21, C.Bank22}}};
    Rw.Unrolls = {{"i", C.Unroll1}, {"j", C.Unroll2}, {"k", C.Unroll3}};
    break;
  }
  case SpaceId::Stencil: {
    const Stencil2dConfig &C = Stencil[I];
    Rw.Banks = {{"orig", {C.OrigBank1, C.OrigBank2}},
                {"filter", {C.FilterBank1, C.FilterBank2}}};
    Rw.Unrolls = {{"k1", C.Unroll1}, {"k2", C.Unroll2}};
    break;
  }
  case SpaceId::MdKnn: {
    const MdKnnConfig &C = MdKnn[I];
    Rw.Banks = {{"position", {C.BankPos}},
                {"nlpos", {C.UnrollI, C.BankNlPos}},
                {"nl", {C.BankNl, 1}},
                {"force", {C.BankForce}}};
    Rw.Unrolls = {{"i", C.UnrollI}, {"j", C.UnrollJ}};
    break;
  }
  case SpaceId::MdGrid: {
    const MdGridConfig &C = MdGrid[I];
    Rw.Banks = {{"pos", {C.Bank1, C.Bank2, C.Bank3, 1}},
                {"frc", {C.Bank1, C.Bank2, C.Bank3, 1}}};
    Rw.Unrolls = {{"i", C.Unroll1}, {"j", C.Unroll2}, {"k", C.Unroll3}};
    break;
  }
  }
  return Rw;
}

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

namespace trace {
namespace {

/// Spans kept for the Chrome trace; totals keep counting past the cap.
constexpr uint64_t MaxKeptSpans = 400000;

struct SpanRec {
  const char *Name;
  uint64_t Start, End;
  uint32_t Id, Parent;
};

struct ThreadBuf {
  uint32_t Tid = 0;
  std::vector<SpanRec> Spans;
  std::vector<uint32_t> Stack;
  std::unordered_map<const char *, Totals> Tot;
};

struct Registry {
  std::atomic<bool> On{false};
  std::string Workload;
  std::mutex M;
  std::vector<std::unique_ptr<ThreadBuf>> Bufs;
  std::atomic<uint32_t> NextId{1};
  std::atomic<uint64_t> Kept{0};
  uint64_t Origin = 0;
};

Registry &reg() {
  static Registry R;
  return R;
}

ThreadBuf &threadBuf() {
  thread_local ThreadBuf *B = nullptr;
  if (!B) {
    Registry &R = reg();
    std::lock_guard<std::mutex> L(R.M);
    R.Bufs.push_back(std::make_unique<ThreadBuf>());
    B = R.Bufs.back().get();
    B->Tid = static_cast<uint32_t>(R.Bufs.size());
  }
  return *B;
}

} // namespace

void enable(const std::string &Workload) {
  Registry &R = reg();
  R.Workload = Workload;
  R.Origin = nowNs();
  R.On.store(true, std::memory_order_relaxed);
}

bool on() { return reg().On.load(std::memory_order_relaxed); }

Span::Span(const char *N) : Name(nullptr) {
  if (!on())
    return;
  Name = N;
  ThreadBuf &B = threadBuf();
  Id = reg().NextId.fetch_add(1, std::memory_order_relaxed);
  Parent = B.Stack.empty() ? 0 : B.Stack.back();
  B.Stack.push_back(Id);
  Start = nowNs();
}

Span::~Span() {
  if (!Name)
    return;
  uint64_t End = nowNs();
  ThreadBuf &B = threadBuf();
  B.Stack.pop_back();
  Totals &T = B.Tot[Name];
  ++T.Count;
  T.Ns += End - Start;
  if (reg().Kept.fetch_add(1, std::memory_order_relaxed) < MaxKeptSpans)
    B.Spans.push_back({Name, Start, End, Id, Parent});
}

Totals totals(const std::string &Name) {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  Totals Out;
  for (const auto &B : R.Bufs)
    for (const auto &[N, T] : B->Tot)
      if (Name == N) {
        Out.Count += T.Count;
        Out.Ns += T.Ns;
      }
  return Out;
}

bool writeChromeTrace(const std::string &Path) {
  Registry &R = reg();
  std::lock_guard<std::mutex> L(R.M);
  std::ofstream OS(Path);
  if (!OS)
    return false;
  uint64_t Total = R.Kept.load();
  OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
     << R.Workload << "\",\"spans_total\":" << Total
     << ",\"spans_kept\":" << std::min(Total, MaxKeptSpans)
     << "},\"traceEvents\":[";
  bool First = true;
  char Buf[320];
  for (const auto &B : R.Bufs) {
    for (const SpanRec &S : B->Spans) {
      std::snprintf(
          Buf, sizeof(Buf),
          "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
          "\"id\":%u,\"parent\":%u,\"workload\":\"%s\"}}",
          First ? "" : ",", S.Name, (S.Start - R.Origin) / 1e3,
          (S.End - S.Start) / 1e3, B->Tid, S.Id, S.Parent,
          R.Workload.c_str());
      OS << Buf;
      First = false;
    }
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

} // namespace trace

//===----------------------------------------------------------------------===//
// Reference outputs
//===----------------------------------------------------------------------===//

ObjVec sortedObjectives(const std::vector<dse::Objectives> &Os) {
  ObjVec V;
  V.reserve(Os.size());
  for (const dse::Objectives &O : Os)
    V.push_back({O.Latency, O.Lut, O.Ff, O.Bram, O.Dsp});
  std::sort(V.begin(), V.end());
  return V;
}

size_t objectiveMismatches(const ObjVec &A, const ObjVec &B) {
  size_t I = 0, J = 0, Diff = 0;
  while (I != A.size() || J != B.size()) {
    if (J == B.size() || (I != A.size() && A[I] < B[J])) {
      ++Diff;
      ++I;
    } else if (I == A.size() || B[J] < A[I]) {
      ++Diff;
      ++J;
    } else {
      ++I;
      ++J;
    }
  }
  return Diff;
}

bool sameJson(const Json &A, const Json &B) {
  if (A.isNumber() || B.isNumber())
    return A.isNumber() && B.isNumber() && A.asDouble() == B.asDouble();
  if (A.isBool() || B.isBool())
    return A.isBool() && B.isBool() && A.asBool() == B.asBool();
  if (A.isString() || B.isString())
    return A.isString() && B.isString() && A.asString() == B.asString();
  if (A.isArray() || B.isArray()) {
    if (!A.isArray() || !B.isArray() || A.size() != B.size())
      return false;
    for (size_t I = 0; I != A.size(); ++I)
      if (!sameJson(A.asArray()[I], B.asArray()[I]))
        return false;
    return true;
  }
  if (A.isObject() || B.isObject()) {
    if (!A.isObject() || !B.isObject() || A.size() != B.size())
      return false;
    for (const auto &[K, V] : A.asObject())
      if (!B.contains(K) || !sameJson(V, B.at(K)))
        return false;
    return true;
  }
  return A.isNull() && B.isNull();
}

bool Reference::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read reference file '" + Path + "'";
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::optional<Json> J = Json::parse(SS.str(), &Err);
  if (!J)
    return false;
  Root = std::move(*J);
  Accepted.assign(NumSpaces, {});
  AcceptedList.assign(NumSpaces, {});
  for (unsigned S = 0; S != NumSpaces; ++S) {
    const Json &Sp = space(static_cast<SpaceId>(S));
    size_t Size = static_cast<size_t>(Sp.at("size").asInt());
    if (!Size) {
      Err = std::string("reference lacks space ") +
            spaceName(static_cast<SpaceId>(S));
      return false;
    }
    Accepted[S].assign(Size, 0);
    for (const Json &I : Sp.at("accepted").asArray()) {
      size_t Idx = static_cast<size_t>(I.asInt());
      if (Idx >= Size) {
        Err = "reference accepted index out of range";
        return false;
      }
      Accepted[S][Idx] = 1;
      AcceptedList[S].push_back(Idx);
    }
    std::sort(AcceptedList[S].begin(), AcceptedList[S].end());
  }
  return true;
}

const Json &Reference::space(SpaceId S) const {
  return Root.at("spaces").at(spaceName(S));
}

bool Reference::accepted(SpaceId S, size_t I) const {
  const std::vector<char> &A = Accepted[static_cast<unsigned>(S)];
  return I < A.size() && A[I];
}

const std::vector<size_t> &Reference::acceptedList(SpaceId S) const {
  return AcceptedList[static_cast<unsigned>(S)];
}

ObjVec Reference::front(SpaceId S, const char *Run, const char *Which) const {
  ObjVec V;
  for (const Json &P : space(S).at(Run).at(Which).asArray()) {
    std::vector<double> O;
    for (const Json &X : P.asArray())
      O.push_back(X.asDouble());
    V.push_back(std::move(O));
  }
  std::sort(V.begin(), V.end());
  return V;
}

//===----------------------------------------------------------------------===//
// Result record
//===----------------------------------------------------------------------===//

void RunResult::fail(uint64_t N, const std::string &Why) {
  if (!N)
    return;
  Failed += N;
  if (FailureNotes.size() < 16)
    FailureNotes.push_back(Why);
}

namespace {

Json valueUnit(double V, const char *Unit) {
  Json M = Json::object();
  M["value"] = V;
  M["unit"] = Unit;
  return M;
}

} // namespace

void RunResult::metric(const char *Name, double V, const char *Unit) {
  EndToEnd[Name] = valueUnit(V, Unit);
}

void RunResult::layer(const char *Name, double V, const char *Unit) {
  Layers[Name] = valueUnit(V, Unit);
}

void roundMetrics(const std::vector<double> &Walls, size_t ConfigsPerRound,
                  const std::vector<double> &SetupTimes, RunResult &R) {
  std::vector<double> Rates, Ms;
  for (double W : Walls) {
    Rates.push_back(ConfigsPerRound / W);
    Ms.push_back(W * 1e3);
  }
  R.metric("configs_per_s", median(Rates), "1/s");
  R.metric("latency_p50_ms", median(Ms), "ms");
  R.metric("latency_p99_ms", latencyP99(Ms), "ms");
  R.metric("setup_s", median(SetupTimes), "s");
  R.Info["latency_samples"] = Walls.size();
  R.Info["configs_per_round"] = ConfigsPerRound;
  R.Info["round_seconds"] = Json(Json::Array(Walls.begin(), Walls.end()));
}

} // namespace perfbench
