//===- KernelAnalysis.h - Shared kernel-spec analyses -----------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural analyses over \c KernelSpec shared by the analytic estimator
/// (hlsim/Estimator.cpp) and the cycle-level simulator (cyclesim/): PE
/// enumeration, access-instance collapsing, reachable-bank sets, the two
/// unwritten rules, and the deterministic per-configuration hash behind
/// the "black-box heuristic" noise. Keeping one implementation is what
/// lets the simulator serve as the exact top rung of the fidelity ladder:
/// both layers agree on what the hardware looks like and differ only in
/// how the schedule is derived (sampled scan vs. exhaustive execution).
///
/// Every analysis runs on the *resolved* form of a spec (\c resolve):
/// loop variables become loop positions, each access dimension becomes a
/// dense coefficient row over the nest's loops, array names become
/// ordinals, and bank pressure is counted in one flat buffer. A spec is
/// resolved once per estimate or simulation into caller-owned scratch, so
/// the hot loops never touch a string or a map.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_HLSIM_KERNELANALYSIS_H
#define DAHLIA_HLSIM_KERNELANALYSIS_H

#include "hlsim/Estimator.h"
#include "hlsim/Kernel.h"

#include "support/StableHash.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace dahlia::hlsim {

inline int64_t floorMod(int64_t A, int64_t B) { return ((A % B) + B) % B; }

/// Unrolled copies (processing elements) enumerated per nest; larger
/// unroll products are truncated to the lexicographically first copies.
inline constexpr size_t kMaxPes = 2048;

/// Banks a spec may declare across all its arrays: the resolved form
/// counts bank pressure in one dense buffer of this many entries at most.
inline constexpr int64_t kMaxTotalBanks = int64_t(1) << 20;

/// The saturating product of \p Factors (values <= 1 count as 1),
/// clipped to \p Cap + 1 so "more than Cap" stays detectable.
inline int64_t cappedProduct(const std::vector<int64_t> &Factors,
                             int64_t Cap) {
  int64_t P = 1;
  for (int64_t F : Factors) {
    if (F <= 1)
      continue;
    if (P > Cap / F)
      return Cap + 1;
    P *= F;
  }
  return P;
}

/// One array: its dimensions' partition factors, ports, element width,
/// and where its totalBanks() slots start in the bank buffers.
struct ResolvedArray {
  size_t FirstDim = 0; ///< Into ResolvedKernel::Partition.
  size_t Rank = 0;
  int64_t FirstBank = 0;
  unsigned Ports = 1;
  unsigned ElemBits = 32;
};

/// One access: its array ordinal and its rows of the nest's coefficient
/// matrix (one row of \c loops() coefficients per dimension).
struct ResolvedAccess {
  uint32_t Array = 0;
  size_t FirstRow = 0; ///< Into ResolvedNest::Consts / Coeffs rows.
};

/// One loop nest: trip and unroll per loop position, and the affine index
/// of every access dimension as a dense row (coefficient 0 for loops the
/// index does not mention) plus its constant.
struct ResolvedNest {
  std::vector<int64_t> Trip;
  std::vector<int64_t> Unroll;
  std::vector<ResolvedAccess> Body; ///< Accesses to declared arrays only.
  std::vector<int64_t> Coeffs;      ///< Row-major, loops() per row.
  std::vector<int64_t> Consts;      ///< One per row.

  size_t loops() const { return Trip.size(); }
  const int64_t *row(size_t Row) const {
    return Coeffs.data() + Row * loops();
  }
};

/// The dense per-call form of a \c KernelSpec (see the file comment).
/// The vectors keep their capacity across \c resolve calls, so a
/// long-lived scratch instance resolves without allocating.
struct ResolvedKernel {
  std::vector<ResolvedArray> Arrays; ///< Spec order.
  std::vector<int64_t> Partition;    ///< Per array dimension.
  std::vector<ResolvedNest> Nests;   ///< Spec order (nest 0 first).
  int64_t TotalBanks = 0;
  /// The paper's first unwritten rule: every unroll factor used to index
  /// a banked dimension divides that dimension's banking factor.
  bool UnrollDividesBanking = true;

  /// Per-bank request counts of one arbitrated group: TotalBanks entries,
  /// all zero between \c arbitrateGroup calls.
  std::vector<int64_t> BankPressure;
  /// Scratch of \c arbitrateGroup: the touched banks with their port
  /// counts, and one access's sequential offsets per dimension.
  std::vector<std::pair<uint32_t, unsigned>> Touched;
  std::vector<int64_t> SeqMod;
};

/// Resolves \p K into \p R, reusing \p R's storage. Accesses to arrays the
/// spec does not declare carry no memory traffic and are dropped; an
/// access must index every dimension of its array.
inline void resolve(const KernelSpec &K, ResolvedKernel &R) {
  R.Arrays.clear();
  R.Partition.clear();
  R.TotalBanks = 0;
  for (const ArraySpec &A : K.Arrays) {
    ResolvedArray RA;
    RA.FirstDim = R.Partition.size();
    RA.Rank = A.Partition.size();
    RA.FirstBank = R.TotalBanks;
    RA.Ports = A.Ports;
    RA.ElemBits = A.ElemBits;
    R.Partition.insert(R.Partition.end(), A.Partition.begin(),
                       A.Partition.end());
    R.TotalBanks += A.totalBanks();
    R.Arrays.push_back(RA);
  }
  assert(R.TotalBanks <= kMaxTotalBanks && "too many banks to resolve");
  R.BankPressure.assign(static_cast<size_t>(R.TotalBanks), 0);
  R.UnrollDividesBanking = true;

  assert(!K.Nests.empty() && "a kernel spec has at least one nest");
  R.Nests.resize(K.Nests.size());
  for (size_t NI = 0; NI != K.Nests.size(); ++NI) {
    const LoopNest &N = K.Nests[NI];
    ResolvedNest &RN = R.Nests[NI];
    const size_t NL = N.Loops.size();
    RN.Trip.clear();
    RN.Unroll.clear();
    for (const Loop &L : N.Loops) {
      RN.Trip.push_back(L.Trip);
      RN.Unroll.push_back(L.Unroll);
    }
    RN.Body.clear();
    RN.Coeffs.clear();
    RN.Consts.clear();
    for (const Access &A : N.Body) {
      // First declaration wins, as for a by-name lookup.
      uint32_t Ord = 0;
      while (Ord != K.Arrays.size() && K.Arrays[Ord].Name != A.Array)
        ++Ord;
      if (Ord == K.Arrays.size())
        continue;
      const ResolvedArray &Arr = R.Arrays[Ord];
      assert(A.Idx.size() == Arr.Rank && "access arity mismatch");
      RN.Body.push_back({Ord, RN.Consts.size()});
      for (size_t D = 0; D != A.Idx.size(); ++D) {
        const AffineExpr &E = A.Idx[D];
        const int64_t P = R.Partition[Arr.FirstDim + D];
        RN.Consts.push_back(E.Const);
        RN.Coeffs.resize(RN.Coeffs.size() + NL, 0);
        int64_t *Row = RN.Coeffs.data() + RN.Coeffs.size() - NL;
        for (const auto &[Var, Coeff] : E.Coeffs)
          for (size_t L = 0; L != NL; ++L) {
            if (N.Loops[L].Var != Var)
              continue;
            Row[L] = Coeff;
            // The rule asks whether the index *mentions* the unrolled
            // iterator, so it is decided here, where even a coefficient
            // of 0 is still visible.
            int64_t U = N.Loops[L].Unroll;
            if (U > 1 && P % U != 0)
              R.UnrollDividesBanking = false;
          }
      }
    }
  }
}

/// Enumerates the unrolled copies of a nest whose loops unroll by
/// \p Unroll (positions with factor <= 1 stay at offset 0): writes one
/// row of offsets per copy to \p Pes, lexicographically ordered with the
/// innermost loop fastest, and keeps only the first \c kMaxPes copies.
/// Returns the number of rows.
inline size_t enumeratePes(const std::vector<int64_t> &Unroll,
                           std::vector<int64_t> &Pes) {
  const size_t NL = Unroll.size();
  const size_t Count = static_cast<size_t>(
      std::min<int64_t>(cappedProduct(Unroll, kMaxPes), kMaxPes));
  Pes.assign(Count * NL, 0);
  for (size_t P = 1; P != Count; ++P) {
    int64_t *Cur = Pes.data() + P * NL;
    std::copy_n(Cur - NL, NL, Cur);
    for (size_t L = NL; L-- > 0;) { // Odometer step.
      if (Unroll[L] > 1 && ++Cur[L] < Unroll[L])
        break;
      Cur[L] = 0;
    }
  }
  return Count;
}

/// The hardware instances of one nest's accesses. An instance is one
/// distinct per-dimension constant offset after resolving the unrolled
/// copies: copies whose index expressions do not mention an unrolled
/// iterator collapse into one instance — HLS shares the fetch (read
/// fan-out) or merges the update (reduction), exactly like Dahlia's read
/// capabilities and combine registers. Only an instance's offsets modulo
/// the banking factors matter to bank analysis, so instances with equal
/// residues are stored once, with their count.
struct NestInstances {
  struct Span {
    size_t FirstRow = 0; ///< Into Mult.
    size_t FirstRes = 0; ///< Into Residues, which holds Rank per row.
    size_t Rows = 0;     ///< Distinct residue rows.
  };
  std::vector<Span> Accesses;    ///< Aligned with ResolvedNest::Body.
  std::vector<int64_t> Residues; ///< Per row, one residue per dimension.
  std::vector<int64_t> Mult;     ///< Instances sharing each row.

  // Scratch: one access's unroll mask, copies, and per-copy offsets
  // with their (flattened residue, copy) sort keys.
  std::vector<int64_t> Unroll, Pes, Keys;
  std::vector<std::pair<int64_t, uint32_t>> Order;
};

/// Collects the instances of every access of \p N into \p Out.
inline void accessInstances(const ResolvedKernel &R, const ResolvedNest &N,
                            NestInstances &Out) {
  const size_t NL = N.loops();
  // Below the PE cap every copy is enumerated, so an access's distinct
  // offsets are those of the product over the loops it mentions alone;
  // above it, the kept copies are a prefix and all loops must be walked.
  const bool Truncated =
      cappedProduct(N.Unroll, kMaxPes) > static_cast<int64_t>(kMaxPes);
  Out.Accesses.clear();
  Out.Residues.clear();
  Out.Mult.clear();
  for (const ResolvedAccess &A : N.Body) {
    const ResolvedArray &Arr = R.Arrays[A.Array];
    const int64_t *Part = R.Partition.data() + Arr.FirstDim;
    const size_t W = Arr.Rank;
    Out.Unroll.assign(N.Unroll.begin(), N.Unroll.end());
    if (!Truncated)
      for (size_t L = 0; L != NL; ++L) {
        bool Mentioned = false;
        for (size_t D = 0; D != W; ++D)
          Mentioned |= N.row(A.FirstRow + D)[L] != 0;
        if (!Mentioned)
          Out.Unroll[L] = 1;
      }
    const size_t NPes = enumeratePes(Out.Unroll, Out.Pes);

    // Each copy's offsets, keyed by the bank they resolve to.
    Out.Keys.resize(NPes * W);
    Out.Order.resize(NPes);
    for (size_t P = 0; P != NPes; ++P) {
      const int64_t *Pe = Out.Pes.data() + P * NL;
      int64_t *Key = Out.Keys.data() + P * W;
      int64_t Flat = 0;
      for (size_t D = 0; D != W; ++D) {
        const int64_t *Row = N.row(A.FirstRow + D);
        Key[D] = N.Consts[A.FirstRow + D];
        for (size_t L = 0; L != NL; ++L)
          Key[D] += Row[L] * Pe[L];
        Flat = Flat * Part[D] + floorMod(Key[D], Part[D]);
      }
      Out.Order[P] = {Flat, static_cast<uint32_t>(P)};
    }
    // Sorted by bank, then by offsets: equal offsets (one instance) end
    // up adjacent, and so do the instances sharing a bank.
    auto Offsets = [&Out, W](uint32_t P) { return Out.Keys.data() + P * W; };
    std::sort(Out.Order.begin(), Out.Order.end(),
              [&](const auto &X, const auto &Y) {
                if (X.first != Y.first)
                  return X.first < Y.first;
                return std::lexicographical_compare(
                    Offsets(X.second), Offsets(X.second) + W,
                    Offsets(Y.second), Offsets(Y.second) + W);
              });

    NestInstances::Span S;
    S.FirstRow = Out.Mult.size();
    S.FirstRes = Out.Residues.size();
    for (size_t I = 0; I != NPes; ++I) {
      const auto &[Flat, P] = Out.Order[I];
      if (I == 0 || Flat != Out.Order[I - 1].first) {
        for (size_t D = 0; D != W; ++D)
          Out.Residues.push_back(floorMod(Offsets(P)[D], Part[D]));
        Out.Mult.push_back(1);
        ++S.Rows;
      } else if (!std::equal(Offsets(P), Offsets(P) + W,
                             Offsets(Out.Order[I - 1].second))) {
        ++Out.Mult.back();
      }
    }
    Out.Accesses.push_back(S);
  }
}

/// The residue stride with which dimension \p D of access \p A moves
/// across its nest's sequential iterations: the gcd of the partition
/// factor with every stride a loop that iterates more than once per group
/// contributes (the partition itself when none does).
inline int64_t reachStride(const ResolvedKernel &R, const ResolvedNest &N,
                           const ResolvedAccess &A, size_t D) {
  const int64_t P = R.Partition[R.Arrays[A.Array].FirstDim + D];
  const int64_t *Row = N.row(A.FirstRow + D);
  int64_t G = 0;
  for (size_t L = 0; L != N.loops(); ++L)
    if (Row[L] != 0 && N.Trip[L] / std::max<int64_t>(N.Unroll[L], 1) > 1)
      G = std::gcd(G, std::abs(Row[L]) * N.Unroll[L]);
  return G == 0 ? P : std::gcd(G, P);
}

/// The flattened banks an instance with per-dimension residues \p Res of
/// access \p A can reach: per dimension the residues (Res + m*g) mod P for
/// g = reachStride, combined row-major across dimensions.
inline void reachableBanks(const ResolvedKernel &R, const ResolvedNest &N,
                           const ResolvedAccess &A, const int64_t *Res,
                           std::vector<int64_t> &Out) {
  const ResolvedArray &Arr = R.Arrays[A.Array];
  Out.assign(1, 0);
  for (size_t D = 0; D != Arr.Rank; ++D) {
    const int64_t P = R.Partition[Arr.FirstDim + D];
    if (P <= 1) {
      for (int64_t &F : Out)
        F *= P;
      continue;
    }
    const int64_t G = reachStride(R, N, A, D);
    const int64_t First = Res[D] % G;
    const size_t Per = static_cast<size_t>(P / G);
    const size_t Prev = Out.size();
    Out.resize(Prev * Per);
    // Expand in place from the back: slot I fans out to [I*Per, I*Per +
    // Per), which never overlaps a lower slot still to be read.
    for (size_t I = Prev; I-- > 0;)
      for (size_t M = Per; M-- > 0;)
        Out[I * Per + M] = Out[I] * P + First + static_cast<int64_t>(M) * G;
  }
}

/// Per-bank arbitration of one lockstep-issued group of nest \p N at the
/// sequential iteration point \p Iter (one group index per loop of the
/// nest): returns the cycles the worst bank needs to serve the group's
/// requests (>= 1) and raises \p MaxPressure to the worst raw request
/// count.
///
/// This is THE schedule primitive of the fidelity ladder: the analytic
/// estimator evaluates it at a sampled spread of points, the cycle-level
/// simulator at every group of the conflict period — sharing one
/// implementation is what makes "sampled max <= exhaustive max" (and so
/// Full <= Exact) a structural property rather than a testing hope.
inline double arbitrateGroup(ResolvedKernel &R, const ResolvedNest &N,
                             const NestInstances &I, const int64_t *Iter,
                             int64_t &MaxPressure) {
  R.Touched.clear();
  for (size_t AI = 0; AI != N.Body.size(); ++AI) {
    const ResolvedAccess &A = N.Body[AI];
    const ResolvedArray &Arr = R.Arrays[A.Array];
    const int64_t *Part = R.Partition.data() + Arr.FirstDim;
    // The sequential offset is shared by every instance this cycle.
    R.SeqMod.resize(Arr.Rank);
    for (size_t D = 0; D != Arr.Rank; ++D) {
      const int64_t *Row = N.row(A.FirstRow + D);
      int64_t Seq = 0;
      for (size_t L = 0; L != N.loops(); ++L)
        Seq += Row[L] * N.Unroll[L] * Iter[L];
      R.SeqMod[D] = floorMod(Seq, Part[D]);
    }
    const NestInstances::Span &S = I.Accesses[AI];
    const int64_t *Res = I.Residues.data() + S.FirstRes;
    for (size_t Row = 0; Row != S.Rows; ++Row, Res += Arr.Rank) {
      int64_t Flat = 0;
      for (size_t D = 0; D != Arr.Rank; ++D) {
        int64_t B = Res[D] + R.SeqMod[D];
        if (B >= Part[D])
          B -= Part[D];
        Flat = Flat * Part[D] + B;
      }
      const size_t Bank = static_cast<size_t>(Arr.FirstBank + Flat);
      if (R.BankPressure[Bank] == 0)
        R.Touched.push_back({static_cast<uint32_t>(Bank), Arr.Ports});
      R.BankPressure[Bank] += I.Mult[S.FirstRow + Row];
    }
  }
  double Needed = 1.0;
  for (const auto &[Bank, Ports] : R.Touched) {
    const int64_t Count = R.BankPressure[Bank];
    R.BankPressure[Bank] = 0;
    MaxPressure = std::max(MaxPressure, Count);
    Needed = std::max(Needed, std::ceil(static_cast<double>(Count) / Ports));
  }
  return Needed;
}

/// The sampled port-conflict initiation interval of nest \p N: a
/// deterministic spread of \p Samples real schedule points (a prefix in
/// the sample count, so the result is monotone in \p Samples — the
/// ladder's Coarse/Medium/Full ordering relies on this).
inline double sampledConflictII(ResolvedKernel &R, const ResolvedNest &N,
                                const NestInstances &I, int Samples) {
  double II = 1.0;
  int64_t Ignored = 1;
  std::vector<int64_t> Iter(N.loops());
  for (int Sample = 0; Sample != Samples; ++Sample) {
    int Stride = 1;
    for (size_t L = 0; L != N.loops(); ++L) {
      int64_t Groups = N.Trip[L] / std::max<int64_t>(N.Unroll[L], 1);
      Iter[L] = Groups > 0 ? (Sample * Stride) % Groups : 0;
      Stride += 2;
    }
    II = std::max(II, arbitrateGroup(R, N, I, Iter.data(), Ignored));
  }
  return II;
}

/// One nest's loop-control structure: the sequential group count and the
/// per-level control overhead. Shared by the analytic estimator and the
/// cycle-level simulator — both compute nest latency as
/// Groups * effective-II + OuterOverhead, and the Full <= Exact ladder
/// bound needs the two to agree bit-for-bit.
struct NestShape {
  double Groups = 1;
  double OuterOverhead = 0;
};

inline NestShape nestShape(const ResolvedNest &N) {
  NestShape S;
  double Prefix = 1;
  for (size_t L = 0; L != N.loops(); ++L) {
    double G = std::ceil(static_cast<double>(N.Trip[L]) /
                         static_cast<double>(N.Unroll[L]));
    S.Groups *= G;
    S.OuterOverhead += Prefix * model::LoopOverheadCycles;
    Prefix *= G;
  }
  return S;
}

/// The paper's second unwritten rule: banking factors divide array sizes
/// and unroll factors divide trip counts.
inline bool bankingDividesSizes(const KernelSpec &K) {
  for (const ArraySpec &Arr : K.Arrays)
    for (size_t D = 0; D != Arr.DimSizes.size(); ++D)
      if (Arr.DimSizes[D] % Arr.Partition[D] != 0)
        return false;
  for (const LoopNest &N : K.Nests)
    for (const Loop &L : N.Loops)
      if (L.Trip % L.Unroll != 0)
        return false;
  return true;
}

/// Deterministic per-configuration hash used for heuristic noise. The
/// hashed text is unchanged for single-nest, for-only specs, so
/// pre-multi-nest noise draws (and the Figure 7 baselines built on them)
/// are preserved.
inline uint64_t heuristicConfigHash(const KernelSpec &K) {
  std::string S = K.Name;
  auto Num = [&S](int64_t V) {
    char Buf[24];
    S.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  };
  for (const LoopNest &N : K.Nests)
    for (const Loop &L : N.Loops) {
      S += '|';
      S += L.Var;
      S += ':';
      Num(L.Trip);
      S += ':';
      Num(L.Unroll);
      if (L.IsWhile)
        S += 'w';
    }
  for (const ArraySpec &A : K.Arrays) {
    S += '|';
    S += A.Name;
    for (size_t D = 0; D != A.DimSizes.size(); ++D) {
      S += ':';
      Num(A.DimSizes[D]);
      S += 'p';
      Num(A.Partition[D]);
    }
  }
  return stableHash(S);
}

/// The deterministic latency perturbation (>= 1) applied to
/// rule-violating configurations — the same draw at every fidelity,
/// simulator included, so noise never inverts the ladder.
inline double heuristicLatencyMultiplier(const KernelSpec &K) {
  uint64_t H = heuristicConfigHash(K);
  double U2 = stableHashUnit(stableHashCombine(H, 0x9e3779b97f4a7c15ULL));
  return 1.0 + model::NoiseAmplitudeLatency * U2;
}

} // namespace dahlia::hlsim

#endif // DAHLIA_HLSIM_KERNELANALYSIS_H
