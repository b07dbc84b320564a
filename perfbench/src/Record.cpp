//===- Record.cpp - Writes perfbench/reference.json --------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// `perfbench --record PATH` computes the reference outputs the workloads
// are checked against, straight from the library in natural config order:
// per-space accepted sets, exhaustive and pruned+exact fronts as objective
// vectors, and the estimate/simulate results of every accepted config
// (parse, check, extractKernelSpec, hlsim::estimate, cyclesim::simulate —
// not through the service). It refuses to write a file that disagrees with
// the numbers the repository already pins for Figure 7, with pareto-prune's
// front equal to exhaustive's, or with a session rewrite's verdict.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cyclesim/CycleSim.h"
#include "driver/SpecExtractor.h"
#include "dse/SearchStrategy.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "service/ServiceClient.h"

#include <cstdio>
#include <fstream>

using namespace dahlia;

namespace perfbench {
namespace {

// Pinned by DseEngineTest, RegressionAnchorsTest and the fig7 baseline.
constexpr size_t Fig7Accepted = 153;
constexpr size_t Fig7Front = 110;
constexpr size_t Fig7AcceptedFront = 10;
constexpr const char *Fig7FrontHash = "0x9631c78d9cd7f284";
constexpr const char *Fig7AcceptedFrontHash = "0x7b9561025c211f7d";

Json objectivesJson(const dse::DseResult &DR, const std::vector<size_t> &M) {
  std::vector<dse::Objectives> Os;
  for (size_t I : M)
    Os.push_back(DR.Points[I].Obj);
  Json A = Json::array();
  for (const std::vector<double> &V : sortedObjectives(Os))
    A.push_back(Json(Json::Array(V.begin(), V.end())));
  return A;
}

Json frontsJson(const dse::DseResult &DR) {
  Json F = Json::object();
  F["front"] = objectivesJson(DR, DR.Front);
  F["accepted_front"] = objectivesJson(DR, DR.AcceptedFront);
  auto ObjOf = [&](size_t I) -> const dse::Objectives & {
    return DR.Points[I].Obj;
  };
  F["front_hash"] = dse::hashString(dse::frontHash(DR.Front, ObjOf));
  F["accepted_front_hash"] =
      dse::hashString(dse::frontHash(DR.AcceptedFront, ObjOf));
  return F;
}

dse::DseResult sweep(const dse::DseProblem &P, dse::StrategyKind K,
                     bool Exact) {
  dse::DseOptions O;
  O.Strategy = K;
  O.ExactTopRung = Exact;
  return dse::DseEngine(O).explore(P);
}

bool fail(const std::string &Why) {
  std::fprintf(stderr, "record: %s\n", Why.c_str());
  return false;
}

bool recordSpace(SpaceId S, const Spaces &Sp, Json &Out) {
  const char *Name = spaceName(S);
  dse::DseProblem P = spaceProblem(S);
  dse::DseResult Ex = sweep(P, dse::StrategyKind::Exhaustive, false);
  dse::DseResult Pr = sweep(P, dse::StrategyKind::ParetoPrune, false);
  dse::DseResult PrEx = sweep(P, dse::StrategyKind::ParetoPrune, true);

  Json Accepted = Json::array();
  std::vector<size_t> AccList;
  for (size_t I = 0; I != P.Size; ++I)
    if (Ex.Points[I].Accepted) {
      Accepted.push_back(I);
      AccList.push_back(I);
    }
  Json Exhaustive = frontsJson(Ex);
  if (!sameJson(Exhaustive, frontsJson(Pr)))
    return fail(std::string(Name) + ": pareto-prune front != exhaustive");
  if (S == SpaceId::Gemm &&
      (AccList.size() != Fig7Accepted || Ex.Front.size() != Fig7Front ||
       Ex.AcceptedFront.size() != Fig7AcceptedFront ||
       Exhaustive.at("front_hash").asString() != Fig7FrontHash ||
       Exhaustive.at("accepted_front_hash").asString() !=
           Fig7AcceptedFrontHash))
    return fail("gemm-blocked disagrees with the pinned Figure 7 numbers");

  // Session rewrites of configuration 0 must reach every config's verdict.
  service::CompileService Svc;
  service::ServiceClient Client(Svc);
  Client.check(Sp.source(S, 0), "s");
  for (size_t B = 0; B < P.Size; B += 256) {
    std::vector<service::Request> Batch;
    for (size_t I = B; I != std::min(P.Size, B + 256); ++I) {
      service::Request Q;
      Q.Session = "s";
      Q.Rw = Sp.rewrite(S, I);
      Batch.push_back(std::move(Q));
    }
    std::vector<service::ClientResponse> Rs = Client.callBatch(Batch);
    for (size_t K = 0; K != Rs.size(); ++K)
      if (Rs[K].R.Ok != bool(Ex.Points[B + K].Accepted))
        return fail(std::string(Name) + ": rewrite of config " +
                    std::to_string(B + K) + " disagrees with its source");
  }

  Json Service = Json::object();
  for (size_t I : AccList) {
    dahlia::Result<Program> Prog = parseProgram(Sp.source(S, I));
    if (!Prog || !typeCheck(*Prog).empty())
      return fail(std::string(Name) + ": accepted config does not check");
    dahlia::Result<hlsim::KernelSpec> Spec = driver::extractKernelSpec(*Prog);
    if (!Spec)
      return fail(std::string(Name) + ": no spec for an accepted config");
    cyclesim::SimResult Sim = cyclesim::simulate(*Spec);
    Json E = Json::object();
    E["estimate"] = service::toJson(hlsim::estimate(*Spec));
    E["exact"] = service::toJson(cyclesim::exactEstimate(*Spec, Sim));
    E["sim"] = service::toJson(Sim);
    Service[std::to_string(I)] = std::move(E);
  }

  Json J = Json::object();
  J["size"] = P.Size;
  J["accepted"] = std::move(Accepted);
  J["exhaustive"] = std::move(Exhaustive);
  J["pruned_exact"] = frontsJson(PrEx);
  J["service"] = std::move(Service);
  Out[Name] = std::move(J);
  std::printf("recorded %-12s %zu configs, %zu accepted, front %zu, "
              "pruned+exact front %zu\n",
              Name, P.Size, AccList.size(), Ex.Front.size(),
              PrEx.Front.size());
  return true;
}

} // namespace

int recordReference(const std::string &Path) {
  Spaces Sp;
  Json Spc = Json::object();
  for (unsigned S = 0; S != NumSpaces; ++S)
    if (!recordSpace(static_cast<SpaceId>(S), Sp, Spc))
      return 1;
  Json Root = Json::object();
  Root["format"] = 1;
  Root["spaces"] = std::move(Spc);
  std::ofstream OS(Path);
  OS << Root.dump() << "\n";
  if (!OS) {
    fail("cannot write " + Path);
    return 1;
  }
  std::printf("reference written to %s\n", Path.c_str());
  return 0;
}

} // namespace perfbench
