//===- Estimator.h - HLS resource/latency estimation ------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HLS estimation substrate standing in for Vivado HLS's estimation
/// mode (see docs/architecture.md, "Cost models"). It reproduces the
/// mechanisms the paper's Section 2 analysis identifies:
///
///  1. banks have a fixed number of ports, so parallel PEs that resolve to
///     the same bank serialize (raising the initiation interval);
///  2. when a PE can reach more than one bank (unroll does not divide the
///     banking factor), bank-indirection multiplexers are inserted whose
///     cost grows with the reachable-bank count;
///  3. when banking does not divide the array size, uneven banks require
///     boundary/disable hardware;
///  4. rule-violating configurations additionally receive deterministic,
///     hash-derived "black-box heuristic" perturbation, modelling the
///     erratic area/latency (and occasional mis-synthesis) the paper
///     measures on such points.
///
/// The model's constants are fixed (\c model); \c CostModel holds only
/// what callers set: four switches that disable mechanisms 1-4 for the
/// ablation experiment (E12), and the port-conflict sample count the
/// fidelity ladder lowers.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_HLSIM_ESTIMATOR_H
#define DAHLIA_HLSIM_ESTIMATOR_H

#include "hlsim/Kernel.h"

#include <cstdint>
#include <string>

namespace dahlia::hlsim {

/// The fixed constants of the cost model, shared by the analytic
/// estimator and the cycle-level simulator.
namespace model {

// Base area.
inline constexpr double BaseControlLut = 1400.0; ///< FSM, AXI, counters.
inline constexpr double LutPerLoop = 90.0;       ///< Per loop level.
inline constexpr double LutPerBank = 22.0; ///< Address generation per bank.

// Processing elements.
inline constexpr double LutPerFloatAdd = 360.0;
inline constexpr double LutPerFloatMul = 120.0;
inline constexpr double LutPerIntAdd = 32.0;
inline constexpr double LutPerIntMul = 40.0;
inline constexpr double DspPerFloatMul = 3.0;
inline constexpr double DspPerFloatAdd = 2.0;
inline constexpr double DspPerIntMul = 3.0;

// Bank indirection (mechanism 2).
/// Per reachable bank per data bit.
inline constexpr double MuxLutPerInputBit = 0.55;
inline constexpr double ArbLutPerRequester = 26.0;

// Boundary hardware (mechanism 3).
inline constexpr double BoundaryLutPerBank = 64.0;
inline constexpr double EpilogueLutPerPe = 46.0;

// Registers.
inline constexpr double FfPerPe = 64.0;

// Memory.
inline constexpr double BramKbits = 18.0; ///< One BRAM tile holds 18 Kb.
/// Small banks become LUTRAM.
inline constexpr int64_t LutMemThresholdBits = 1024;

// Timing.
inline constexpr double PipelineDepth = 12.0;
inline constexpr double LoopOverheadCycles = 2.0;
/// Extra II from an accumulation chain (floating point raises this).
inline constexpr double AccumulatorII = 1.0;

// Heuristic noise (mechanism 4).
inline constexpr double NoiseAmplitudeArea = 0.45;
inline constexpr double NoiseAmplitudeLatency = 0.6;
/// P(incorrect hardware) for severe rule violations.
inline constexpr double MisSynthesisRate = 0.08;

} // namespace model

/// The settings of one estimation: the ablation switches (E12) and the
/// port-conflict sample count the fidelity ladder varies.
struct CostModel {
  bool ModelMuxCost = true;
  bool ModelBoundaryCost = true;
  bool ModelHeuristicNoise = true;
  bool ModelPortConflicts = true;
  /// Sampled sequential iteration points for the port-conflict II scan.
  /// Lower values sample a prefix of the default schedule, so the sampled
  /// II (a max over samples) is monotone in the sample count — the
  /// property the fidelity ladder below relies on.
  int PortConflictSamples = 16;
};

/// One estimation result, mirroring the columns of the paper's evaluation
/// (estimated cycles plus LUT/FF/BRAM/DSP, Section 5.1).
struct Estimate {
  double Cycles = 0;
  double RuntimeMs = 0;
  int64_t Lut = 0;
  int64_t Ff = 0;
  int64_t Bram = 0;
  int64_t Dsp = 0;
  int64_t LutMem = 0;
  double II = 1;
  /// Whether the modelled heuristics produced functionally incorrect
  /// hardware (the paper observed such configurations in Fig. 4b).
  bool Incorrect = false;
  /// Whether the configuration satisfies both unwritten rules (unroll
  /// divides banking, banking divides size).
  bool Predictable = true;
};

/// Estimates \p K under \p CM. Deterministic: the same kernel and model
/// always produce the same estimate.
Estimate estimate(const KernelSpec &K, const CostModel &CM = CostModel());

//===----------------------------------------------------------------------===//
// Estimation fidelity ladder
//===----------------------------------------------------------------------===//
//
// Pruned search (dominance pruning) evaluates most of a design space at a
// cheap fidelity and promotes only survivors to the full model. The
// ladder is constructed so that every objective the DSE minimizes
// (cycles, LUT, FF, BRAM, DSP) is a component-wise LOWER BOUND of the
// same objective one fidelity up:
//
//   * Coarse drops the bank-indirection mux/arbitration LUTs (>= 0) and
//     the port-conflict II scan (II >= 1), skipping the expensive
//     processing-element enumeration entirely;
//   * Medium restores the mux model but samples the II scan at 4 of the
//     16 schedule points (a prefix, so its max is <= the full scan's);
//   * Full is the default CostModel;
//   * Exact dispatches to the cycle-level banked-memory simulator
//     (src/cyclesim/): area is Full's, but cycles/II come from executing
//     every iteration group with per-cycle port arbitration. The sampled
//     schedule points of the Full scan are real groups of the exhaustive
//     walk, so Full's II (a max over a subset) never exceeds Exact's —
//     Full lower-bounds Exact just as Coarse/Medium lower-bound Full.
//
// Heuristic noise stays ON at every fidelity: it is a deterministic
// multiplier >= 1 derived from the config hash alone, so including it
// keeps the bound admissible while making it far tighter for
// rule-violating configurations (the simulator applies the identical
// multiplier — it simulates the same erratically-synthesized hardware).
// SearchStrategyTest pins the monotonicity property across the
// gemm-blocked space; CycleSimTest extends it to the Exact rung.

/// Estimator fidelities, cheapest first. \c Exact is the simulator rung.
enum class Fidelity : uint8_t { Coarse = 0, Medium = 1, Full = 2, Exact = 3 };

const char *fidelityName(Fidelity F);

/// The cost model implementing \p F (Full is the default CostModel; Exact
/// uses Full's model around the simulated schedule).
CostModel costModelFor(Fidelity F);

/// Estimates \p K at fidelity \p F. Coarse/Medium/Full run the analytic
/// model; Exact runs the cycle-level simulator for cycles/II on top of
/// Full's area model.
Estimate estimateAt(const KernelSpec &K, Fidelity F);

/// Memo-cache key for an estimate of spec hash \p SpecHash at fidelity
/// \p F. The fidelity is folded into the key so the rungs of the ladder
/// can never serve each other stale estimates — a Coarse entry is
/// invisible to a Full lookup and vice versa (every fidelity, Full
/// included, lives in its own keyspace).
constexpr uint64_t fidelityCacheKey(uint64_t SpecHash, Fidelity F) {
  return stableHashCombine(SpecHash,
                           0xF1DE117F00000000ULL + static_cast<uint64_t>(F));
}

} // namespace dahlia::hlsim

#endif // DAHLIA_HLSIM_ESTIMATOR_H
