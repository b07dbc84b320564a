//===- Kernel.h - Kernel IR for HLS estimation ------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one kernel intermediate representation, consumed by the analytic
/// estimator and the cycle-level simulator alike: cyclically partitioned
/// arrays plus a list of serial loop nests, each with its trip counts,
/// UNROLL factors and affine memory accesses. This mirrors the information
/// an HLS scheduler extracts from pragma-annotated C++ (Section 2): trip
/// counts, UNROLL factors, ARRAY_PARTITION factors, and the affine access
/// functions that determine which bank each processing element touches.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_HLSIM_KERNEL_H
#define DAHLIA_HLSIM_KERNEL_H

#include "support/StableHash.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dahlia::hlsim {

/// An affine index expression: Const + sum of Coeff * loop-variable.
struct AffineExpr {
  std::map<std::string, int64_t> Coeffs;
  int64_t Const = 0;

  static AffineExpr constant(int64_t C) {
    AffineExpr E;
    E.Const = C;
    return E;
  }
  static AffineExpr var(const std::string &Name, int64_t Coeff = 1,
                        int64_t C = 0) {
    AffineExpr E;
    E.Coeffs[Name] = Coeff;
    E.Const = C;
    return E;
  }

  /// Evaluates under a loop-variable assignment (missing vars are 0).
  int64_t eval(const std::map<std::string, int64_t> &Vals) const {
    int64_t V = Const;
    for (const auto &[Name, Coeff] : Coeffs) {
      auto It = Vals.find(Name);
      if (It != Vals.end())
        V += Coeff * It->second;
    }
    return V;
  }
};

/// An on-chip array with per-dimension cyclic partitioning.
struct ArraySpec {
  std::string Name;
  std::vector<int64_t> DimSizes;
  std::vector<int64_t> Partition; ///< Cyclic partition factor per dim.
  unsigned Ports = 1;             ///< Read/write ports per bank.
  unsigned ElemBits = 32;

  int64_t totalBanks() const {
    int64_t B = 1;
    for (int64_t P : Partition)
      B *= P;
    return B;
  }
  int64_t totalElems() const {
    int64_t N = 1;
    for (int64_t S : DimSizes)
      N *= S;
    return N;
  }
};

/// One loop of the nest, outermost first.
struct Loop {
  std::string Var;
  int64_t Trip = 1;
  int64_t Unroll = 1;
  /// True for `while` loops: \c Trip is then a *static trip-count bound*
  /// (derived from the condition by the spec extractor, or recorded by a
  /// hand spec). While loops never unroll; the cycle-level simulator runs
  /// them for their recorded trip count instead of ignoring them.
  bool IsWhile = false;
};

/// One memory access in the loop body.
struct Access {
  std::string Array;
  std::vector<AffineExpr> Idx; ///< One affine expression per dimension.
  bool IsWrite = false;
};

/// One loop nest of a kernel: its loops (outermost first), body accesses,
/// per-instance op counts, and pipelining constraints.
struct LoopNest {
  std::vector<Loop> Loops;
  std::vector<Access> Body;
  /// Arithmetic operations per body instance (before unrolling).
  unsigned MulOps = 0;
  unsigned AddOps = 0;
  /// Loop-carried dependence distance-1 chain (e.g. an accumulator):
  /// limits pipelining of this nest's innermost loop.
  bool HasAccumulator = false;
  /// Latency of one iteration group when the body is dependence-bound and
  /// cannot pipeline (e.g. a floating-point force chain); the effective
  /// initiation interval is max(II, IterationLatency).
  double IterationLatency = 1.0;

  /// Product of the unroll factors (this nest's PE count).
  int64_t totalUnroll() const {
    int64_t U = 1;
    for (const Loop &L : Loops)
      U *= L.Unroll;
    return U;
  }
};

/// A kernel: arrays + serial loop nests. The nests execute one after the
/// other (md-knn's hoisted gather followed by its force computation is the
/// canonical multi-nest kernel). A spec always has at least one nest: a
/// kernel without loops is one nest with an empty loop list, which still
/// carries its straight-line accesses and ops.
struct KernelSpec {
  std::string Name;
  std::vector<ArraySpec> Arrays;
  std::vector<LoopNest> Nests = std::vector<LoopNest>(1);
  bool FloatingPoint = true;
  double ClockMHz = 250.0;
  /// Cycles spent in serial phases outside the modelled nests (phases the
  /// spec does not describe as a nest at all).
  double ExtraSerialCycles = 0;

  const ArraySpec *findArray(const std::string &Name) const {
    for (const ArraySpec &A : Arrays)
      if (A.Name == Name)
        return &A;
    return nullptr;
  }
};

/// Platform-stable structural hash of a kernel spec, covering every field
/// \c estimate reads. Two specs with equal hashes may share one memoized
/// estimate (the DSE engine's cache key).
inline uint64_t specHash(const KernelSpec &K) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Num = [&H](uint64_t V) { H = stableHashCombine(H, V); };
  // Every variable-length field is length-prefixed so adjacent fields can
  // never realign into a colliding byte stream.
  auto Str = [&](const std::string &S) {
    Num(S.size());
    H = stableHash(S, H);
  };
  auto Dbl = [&Num](double D) { Num(std::bit_cast<uint64_t>(D)); };
  Str(K.Name);
  auto Affine = [&](const AffineExpr &E) {
    Num(E.Coeffs.size());
    for (const auto &[Name, Coeff] : E.Coeffs) {
      Str(Name);
      Num(static_cast<uint64_t>(Coeff));
    }
    Num(static_cast<uint64_t>(E.Const));
  };
  Num(K.Arrays.size());
  for (const ArraySpec &A : K.Arrays) {
    Str(A.Name);
    Num(A.DimSizes.size());
    for (int64_t S : A.DimSizes)
      Num(static_cast<uint64_t>(S));
    Num(A.Partition.size());
    for (int64_t P : A.Partition)
      Num(static_cast<uint64_t>(P));
    Num(A.Ports);
    Num(A.ElemBits);
  }
  auto Loops = [&](const std::vector<Loop> &Ls) {
    Num(Ls.size());
    for (const Loop &L : Ls) {
      Str(L.Var);
      Num(static_cast<uint64_t>(L.Trip));
      Num(static_cast<uint64_t>(L.Unroll));
      Num(L.IsWhile);
    }
  };
  auto Accesses = [&](const std::vector<Access> &As) {
    Num(As.size());
    for (const Access &A : As) {
      Str(A.Array);
      Num(A.Idx.size());
      for (const AffineExpr &E : A.Idx)
        Affine(E);
      Num(A.IsWrite);
    }
  };
  // Nest 0's fields interleave with the kernel's scalars, and the later
  // nests follow as a counted list. This order is the key layout of the
  // persistent cache (format v4): reordering it would orphan every
  // stored entry.
  assert(!K.Nests.empty() && "a kernel spec has at least one nest");
  const LoopNest &First = K.Nests.front();
  Loops(First.Loops);
  Accesses(First.Body);
  Num(First.MulOps);
  Num(First.AddOps);
  Num(K.FloatingPoint);
  Dbl(K.ClockMHz);
  Num(First.HasAccumulator);
  Dbl(K.ExtraSerialCycles);
  Dbl(First.IterationLatency);
  Num(K.Nests.size() - 1);
  for (size_t NI = 1; NI != K.Nests.size(); ++NI) {
    const LoopNest &N = K.Nests[NI];
    Loops(N.Loops);
    Accesses(N.Body);
    Num(N.MulOps);
    Num(N.AddOps);
    Num(N.HasAccumulator);
    Dbl(N.IterationLatency);
  }
  return H;
}

} // namespace dahlia::hlsim

#endif // DAHLIA_HLSIM_KERNEL_H
