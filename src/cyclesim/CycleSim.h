//===- CycleSim.h - Cycle-level banked-memory simulator ---------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle-level banked-memory simulator: the exact top rung of the
/// hlsim estimation fidelity ladder (Section 7's predictability argument
/// rests on cycle counts that track banked-memory port conflicts
/// exactly). Where the analytic estimator *samples* the schedule at a
/// handful of iteration points, the simulator *executes* the kernel's
/// loop nests group by group:
///
///   * every sequential iteration group issues its unrolled body in
///     lockstep (one access instance per collapsed unrolled copy, the
///     same sharing model HLS and the estimator use);
///   * each group's memory requests are arbitrated per bank per cycle —
///     a bank with p ports serves ceil(requests / p) back-to-back
///     cycles;
///   * the pipelined loop's initiation interval is *derived from the
///     observed conflicts*: a statically scheduled HLS pipeline must run
///     at the worst-case group's arbitration latency, so the nest's II
///     is the maximum observed over all groups;
///   * nests execute serially in spec order (arbitrary loop-nest
///     structure, including md-knn's hoisted gather phase), and `while`
///     loops run to their recorded trip counts instead of being ignored.
///
/// Bank-access patterns are periodic in each loop variable (the bank of
/// an affine access depends on the iteration only modulo the banking
/// factor), so the walk covers every distinct conflict pattern after at
/// most lcm-of-partitions groups per loop — the simulator caps each loop
/// there and the result is still *exact*. Only when the global walk
/// budget is exhausted does it fall back to clamping against the
/// analytic sampled scan (reported via \c Truncated, never observed on
/// the shipped kernels).
///
/// Lower-bound guarantee: the analytic Full model's sampled schedule
/// points are real iteration groups of this walk, so Full's II — a max
/// over a subset — never exceeds the simulator's, and with identical
/// cost constants around the schedule, Full's cycle estimate
/// lower-bounds the simulated cycle count. That makes
/// Coarse <= Medium <= Full <= Exact hold component-wise and lets the
/// DSE strategies promote survivors to the Exact rung soundly
/// (CycleSimTest pins the property over every shipped kernel spec).
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_CYCLESIM_CYCLESIM_H
#define DAHLIA_CYCLESIM_CYCLESIM_H

#include "hlsim/Estimator.h"
#include "hlsim/Kernel.h"

#include <cstdint>
#include <vector>

namespace dahlia::cyclesim {

/// Observed schedule of one loop nest.
struct NestSim {
  double II = 1;          ///< Static initiation interval derived from the
                          ///< worst observed per-group bank arbitration.
  double EffectiveII = 1; ///< max(II, dependence-bound iteration latency).
  double Groups = 0;      ///< Sequential iteration groups of the nest.
  double Cycles = 0;      ///< Groups * EffectiveII + loop-control overhead.
  uint64_t WalkedGroups = 0;   ///< Groups executed cycle-by-cycle (the
                               ///< conflict-pattern period of the nest).
  uint64_t ConflictGroups = 0; ///< Walked groups with >= 1 port conflict.
  uint64_t StallCycles = 0;    ///< Arbitration cycles beyond one issue slot
                               ///< across the walked groups.
  int64_t MaxPortPressure = 1; ///< Worst same-cycle requests on one bank.
  bool PeriodComplete = true;  ///< Walk covered the whole conflict period
                               ///< (the II is exact, not clamped).
};

/// One simulation outcome.
struct SimResult {
  double Cycles = 0;         ///< End-to-end simulated cycles.
  double II = 1;             ///< Max initiation interval across nests.
  bool Truncated = false;    ///< Some nest exhausted the walk budget.
  uint64_t WalkedGroups = 0; ///< Total groups executed cycle-by-cycle.
  std::vector<NestSim> Nests;
};

/// Simulates \p K cycle-by-cycle under the Full-fidelity cost constants
/// (pipeline depth, loop overhead, accumulator II, noise).
/// Deterministic: the same spec always produces the same result.
SimResult simulate(const hlsim::KernelSpec &K);

/// The Exact-fidelity estimate: the Full-fidelity analytic estimate with
/// cycles, II, and runtime replaced by the simulated schedule. This is
/// what \c hlsim::estimateAt(K, Fidelity::Exact) returns; area components
/// equal Full's, so the fidelity-ladder bound is tight there by
/// construction.
hlsim::Estimate exactEstimate(const hlsim::KernelSpec &K);

/// As above, composed from an already-computed simulation of \p K —
/// callers that need both the estimate and the schedule breakdown (the
/// service's simulate op) simulate once.
hlsim::Estimate exactEstimate(const hlsim::KernelSpec &K,
                              const SimResult &S);

} // namespace dahlia::cyclesim

#endif // DAHLIA_CYCLESIM_CYCLESIM_H
