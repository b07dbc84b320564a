//===- Dse.cpp - Design-space exploration utilities -------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "dse/Dse.h"

#include "dse/DseEngine.h"

#include <sstream>

using namespace dahlia::dse;

bool dahlia::dse::dominates(const Objectives &A, const Objectives &B) {
  bool StrictlyBetter = false;
  auto Check = [&](double X, double Y) {
    if (X > Y)
      return false;
    if (X < Y)
      StrictlyBetter = true;
    return true;
  };
  return Check(A.Latency, B.Latency) && Check(A.Lut, B.Lut) &&
         Check(A.Ff, B.Ff) && Check(A.Bram, B.Bram) && Check(A.Dsp, B.Dsp) &&
         StrictlyBetter;
}

bool dahlia::dse::equalObjectives(const Objectives &A, const Objectives &B) {
  return A.Latency == B.Latency && A.Lut == B.Lut && A.Ff == B.Ff &&
         A.Bram == B.Bram && A.Dsp == B.Dsp;
}

std::vector<size_t>
dahlia::dse::paretoFront(const std::vector<Objectives> &Points) {
  ParetoFront Front;
  for (size_t I = 0; I != Points.size(); ++I)
    Front.insert(I, Points[I]);
  return Front.indices();
}

std::string dahlia::dse::fractionString(size_t Num, size_t Denom) {
  std::ostringstream OS;
  OS << Num << '/' << Denom;
  if (Denom != 0) {
    double Pct = 100.0 * static_cast<double>(Num) /
                 static_cast<double>(Denom);
    OS.setf(std::ios::fixed);
    OS.precision(1);
    OS << " (" << Pct << "%)";
  }
  return OS.str();
}
