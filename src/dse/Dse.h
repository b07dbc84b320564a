//===- Dse.h - Design-space exploration utilities ---------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-objective design-space exploration (Section 5.2): Pareto-front
/// computation over the five objectives the paper uses (cycle latency,
/// LUTs, FFs, BRAMs, DSPs), and small table helpers for the benchmark
/// harness.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_DSE_DSE_H
#define DAHLIA_DSE_DSE_H

#include "hlsim/Estimator.h"

#include <string>
#include <vector>

namespace dahlia::dse {

/// The minimization objectives of Section 5.2.
struct Objectives {
  double Latency = 0;
  double Lut = 0, Ff = 0, Bram = 0, Dsp = 0;

  static Objectives of(const hlsim::Estimate &E) {
    return {E.Cycles, static_cast<double>(E.Lut), static_cast<double>(E.Ff),
            static_cast<double>(E.Bram), static_cast<double>(E.Dsp)};
  }
};

/// True when \p A is no worse than \p B in every objective and strictly
/// better in at least one.
bool dominates(const Objectives &A, const Objectives &B);

/// Exact equality in every objective.
bool equalObjectives(const Objectives &A, const Objectives &B);

/// Indices of the Pareto-optimal points among \p Points (minimization).
/// Exactly-equal objective vectors collapse to the lowest index.
/// Implemented on the incremental \c ParetoFront of DseEngine.h, so batch
/// and streamed exploration agree on membership.
std::vector<size_t> paretoFront(const std::vector<Objectives> &Points);

/// Fraction formatter: "354/32000 (1.1%)".
std::string fractionString(size_t Num, size_t Denom);

} // namespace dahlia::dse

#endif // DAHLIA_DSE_DSE_H
