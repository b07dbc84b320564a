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
#include <string_view>
#include <utility>
#include <vector>

namespace dahlia::hlsim {

/// \p A modulo \p B rounded toward negative infinity, for a positive
/// divisor (partition factors are at least 1).
inline int64_t floorMod(int64_t A, int64_t B) {
  assert(B > 0 && "floorMod needs a positive divisor");
  const int64_t R = A % B;
  return R < 0 ? R + B : R;
}

/// Unrolled copies (processing elements) enumerated per nest; larger
/// unroll products are truncated to the lexicographically first copies.
inline constexpr size_t kMaxPes = 2048;

/// Banks a spec may declare across all its arrays: the resolved form
/// counts bank pressure in one dense buffer of this many entries at most.
inline constexpr int64_t kMaxTotalBanks = int64_t(1) << 20;

/// Bits of a copy index in a packed (flat bank, copy) instance key.
inline constexpr unsigned kPeBits = 11;
static_assert(size_t(1) << kPeBits == kMaxPes, "a copy index fills kPeBits");
static_assert(uint64_t(kMaxTotalBanks) << kPeBits <= uint64_t(1) << 32,
              "a packed instance key fits 32 bits");

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
  /// Scratch of \c arbitrateGroup and \c sampledConflictII: the touched
  /// banks with their port counts, the sequential residues of every
  /// access row, and the sampled scan's terms and the residues of the
  /// samples kept so far (see there).
  std::vector<std::pair<uint32_t, unsigned>> Touched;
  std::vector<int64_t> SeqMod, Seen;
  /// One nonzero relative stride of the sampled scan: row \c Row's
  /// residue moves by \c Stride per group of loop \c Loop (which has
  /// \c Groups groups), modulo \c Part.
  struct ScanTerm {
    size_t Row, Loop;
    int64_t Stride, Groups, Part;
  };
  std::vector<ScanTerm> Terms;
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

  // Scratch: one access's enumerated loops, one digit's offset and
  // residue shifts, its per-copy offsets and residues, and the packed
  // (flat bank, copy) sort keys.
  std::vector<size_t> Active;
  std::vector<int64_t> Shift, Offsets, Res;
  std::vector<uint32_t> Order;
};

/// Collects the instances of every access of \p N into \p Out: per access,
/// one row per reached bank in ascending flat-bank order, with the number
/// of distinct offsets that land in it.
inline void accessInstances(const ResolvedKernel &R, const ResolvedNest &N,
                            NestInstances &Out) {
  const size_t NL = N.loops();
  // Below the PE cap every copy is enumerated, so an access's distinct
  // offsets are those of the product over the loops it mentions alone;
  // above it, the kept copies are the lexicographic prefix over all
  // unrolled loops, innermost fastest.
  const bool Truncated =
      cappedProduct(N.Unroll, kMaxPes) > static_cast<int64_t>(kMaxPes);
  Out.Accesses.clear();
  Out.Residues.clear();
  Out.Mult.clear();
  for (const ResolvedAccess &A : N.Body) {
    const ResolvedArray &Arr = R.Arrays[A.Array];
    const int64_t *Part = R.Partition.data() + Arr.FirstDim;
    const size_t W = Arr.Rank;
    auto Coeff = [&N, &A](size_t D, size_t L) {
      return N.row(A.FirstRow + D)[L];
    };
    Out.Active.clear();
    int64_t Copies = 1;
    for (size_t L = 0; L != NL; ++L) {
      if (N.Unroll[L] <= 1)
        continue;
      bool Mentioned = Truncated;
      for (size_t D = 0; D != W && !Mentioned; ++D)
        Mentioned = Coeff(D, L) != 0;
      if (!Mentioned)
        continue;
      Out.Active.push_back(L);
      Copies = Copies > static_cast<int64_t>(kMaxPes) / N.Unroll[L]
                   ? static_cast<int64_t>(kMaxPes)
                   : Copies * N.Unroll[L];
    }
    const size_t NPes = static_cast<size_t>(Copies);

    // Distinct copies reach distinct offsets when every enumerated loop
    // owns a dimension no other enumerated loop moves: that dimension's
    // offset then pins the loop's copy index. Each bank's instance count
    // is then its copy count, with no offsets to compare.
    bool Injective = !Truncated;
    for (size_t X : Out.Active) {
      bool Owns = false;
      for (size_t D = 0; D != W && !Owns; ++D) {
        Owns = Coeff(D, X) != 0;
        for (size_t Y : Out.Active)
          Owns &= Y == X || Coeff(D, Y) == 0;
      }
      Injective &= Owns;
    }

    // Each copy's offsets and residues, in odometer order over the
    // enumerated loops (innermost fastest): built innermost loop first,
    // each further digit of a loop repeating the copies so far shifted by
    // its step, so a truncated nest's kept prefix is built directly and
    // no copy divides.
    Out.Offsets.resize(NPes * W);
    Out.Res.resize(NPes * W);
    Out.Shift.resize(2 * W);
    for (size_t D = 0; D != W; ++D) {
      Out.Offsets[D] = N.Consts[A.FirstRow + D];
      Out.Res[D] = floorMod(Out.Offsets[D], Part[D]);
    }
    size_t Size = 1;
    for (size_t I = Out.Active.size(); I-- > 0 && Size != NPes;) {
      const size_t L = Out.Active[I], Block = Size;
      for (int64_t V = 1; V != N.Unroll[L] && Size != NPes; ++V) {
        int64_t *OffShift = Out.Shift.data(), *ResShift = OffShift + W;
        for (size_t D = 0; D != W; ++D) {
          OffShift[D] = Coeff(D, L) * V;
          ResShift[D] = floorMod(OffShift[D], Part[D]);
        }
        const size_t Copies = std::min(Block, NPes - Size);
        int64_t *ToOff = Out.Offsets.data() + Size * W;
        int64_t *ToRes = Out.Res.data() + Size * W;
        for (size_t E = 0; E != Copies * W; E += W)
          for (size_t D = 0; D != W; ++D) {
            ToOff[E + D] = Out.Offsets[E + D] + OffShift[D];
            const int64_t Res = Out.Res[E + D] + ResShift[D];
            ToRes[E + D] = Res >= Part[D] ? Res - Part[D] : Res;
          }
        Size += Copies;
      }
    }
    // Each copy's key: the flat bank it resolves to, above its index.
    Out.Order.resize(NPes);
    for (size_t P = 0; P != NPes; ++P) {
      const int64_t *Res = Out.Res.data() + P * W;
      int64_t Flat = 0;
      for (size_t D = 0; D != W; ++D)
        Flat = Flat * Part[D] + Res[D];
      Out.Order[P] = static_cast<uint32_t>(Flat) << kPeBits |
                     static_cast<uint32_t>(P);
    }
    std::sort(Out.Order.begin(), Out.Order.end());

    NestInstances::Span S;
    S.FirstRow = Out.Mult.size();
    S.FirstRes = Out.Residues.size();
    auto Offsets = [&Out, W](uint32_t Key) {
      return Out.Offsets.data() + (Key & (kMaxPes - 1)) * W;
    };
    auto Residues = [&Out, W](uint32_t Key) {
      return Out.Res.data() + (Key & (kMaxPes - 1)) * W;
    };
    for (auto Bucket = Out.Order.begin(); Bucket != Out.Order.end();) {
      const uint32_t Flat = *Bucket >> kPeBits;
      auto End = std::find_if(Bucket, Out.Order.end(), [Flat](uint32_t Key) {
        return Key >> kPeBits != Flat;
      });
      int64_t Mult = End - Bucket;
      if (!Injective && Mult > 1) {
        // Equal offsets end up adjacent; count the distinct ones.
        std::sort(Bucket, End, [&](uint32_t X, uint32_t Y) {
          return std::lexicographical_compare(Offsets(X), Offsets(X) + W,
                                              Offsets(Y), Offsets(Y) + W);
        });
        Mult = 1;
        for (auto It = Bucket + 1; It != End; ++It)
          Mult += !std::equal(Offsets(*It), Offsets(*It) + W,
                              Offsets(*(It - 1)));
      }
      Out.Residues.insert(Out.Residues.end(), Residues(*Bucket),
                          Residues(*Bucket) + W);
      Out.Mult.push_back(Mult);
      ++S.Rows;
      Bucket = End;
    }
    Out.Accesses.push_back(S);
  }
}

/// The residue strides with which the dimensions of access \p A move
/// across its nest's sequential iterations, one per dimension into
/// \p Out: the gcd of the partition factor with every stride a loop that
/// iterates more than once per group contributes (the partition itself
/// when none does).
inline void reachStrides(const ResolvedKernel &R, const ResolvedNest &N,
                         const ResolvedAccess &A, std::vector<int64_t> &Out) {
  const ResolvedArray &Arr = R.Arrays[A.Array];
  Out.resize(Arr.Rank);
  for (size_t D = 0; D != Arr.Rank; ++D) {
    const int64_t P = R.Partition[Arr.FirstDim + D];
    const int64_t *Row = N.row(A.FirstRow + D);
    int64_t G = 0;
    for (size_t L = 0; L != N.loops(); ++L)
      if (Row[L] != 0 && N.Trip[L] / std::max<int64_t>(N.Unroll[L], 1) > 1)
        G = std::gcd(G, std::abs(Row[L]) * N.Unroll[L]);
    Out[D] = G == 0 ? P : std::gcd(G, P);
  }
}

/// The flattened banks an instance with per-dimension residues \p Res of
/// access \p A can reach: per dimension the residues (Res + m*g) mod P for
/// g = \p Stride (from \c reachStrides), combined row-major across
/// dimensions.
inline void reachableBanks(const ResolvedKernel &R, const ResolvedAccess &A,
                           const int64_t *Stride, const int64_t *Res,
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
    const int64_t G = Stride[D];
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

/// The arbitration of one group of nest \p N whose access rows (one per
/// access dimension, in \c ResolvedNest::Consts order) sit at sequential
/// offsets \p SeqMod modulo their partition factors: see
/// \c arbitrateGroup.
inline double arbitrateResidues(ResolvedKernel &R, const ResolvedNest &N,
                                const NestInstances &I, const int64_t *SeqMod,
                                int64_t &MaxPressure) {
  R.Touched.clear();
  for (size_t AI = 0; AI != N.Body.size(); ++AI) {
    const ResolvedAccess &A = N.Body[AI];
    const ResolvedArray &Arr = R.Arrays[A.Array];
    const int64_t *Part = R.Partition.data() + Arr.FirstDim;
    // The sequential offset is shared by every instance this cycle.
    const int64_t *Seq = SeqMod + A.FirstRow;
    const NestInstances::Span &S = I.Accesses[AI];
    const int64_t *Res = I.Residues.data() + S.FirstRes;
    for (size_t Row = 0; Row != S.Rows; ++Row, Res += Arr.Rank) {
      int64_t Flat = 0;
      for (size_t D = 0; D != Arr.Rank; ++D) {
        int64_t B = Res[D] + Seq[D];
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
  R.SeqMod.resize(N.Consts.size());
  for (const ResolvedAccess &A : N.Body) {
    const ResolvedArray &Arr = R.Arrays[A.Array];
    for (size_t D = 0; D != Arr.Rank; ++D) {
      const int64_t *Row = N.row(A.FirstRow + D);
      int64_t Seq = 0;
      for (size_t L = 0; L != N.loops(); ++L)
        Seq += Row[L] * N.Unroll[L] * Iter[L];
      R.SeqMod[A.FirstRow + D] = floorMod(Seq, R.Partition[Arr.FirstDim + D]);
    }
  }
  return arbitrateResidues(R, N, I, R.SeqMod.data(), MaxPressure);
}

/// The sampled port-conflict initiation interval of nest \p N: a
/// deterministic spread of \p Samples real schedule points (a prefix in
/// the sample count, so the result is monotone in \p Samples — the
/// ladder's Coarse/Medium/Full ordering relies on this). Sample s visits
/// group (s * (2L + 1)) mod Groups of loop L and is worth exactly what
/// \c arbitrateGroup returns at that point.
inline double sampledConflictII(ResolvedKernel &R, const ResolvedNest &N,
                                const NestInstances &I, int Samples) {
  const size_t NL = N.loops(), Rows = N.Consts.size();
  // A shift common to every access of one array permutes that array's
  // banks, which leaves the multiset of its request counts, and so the
  // arbitration, unchanged. The scan therefore tracks each row's residue
  // relative to the same dimension of the array's first access in the
  // body; a repeat of an earlier sample's relative residues cannot raise
  // the max. Only the loops a row's index moves by a different stride
  // than the first access's contribute terms; a row without one stays at
  // residue 0, as every row does at sample 0.
  R.Terms.clear();
  for (const ResolvedAccess &A : N.Body) {
    const ResolvedAccess &First = *std::find_if(
        N.Body.begin(), N.Body.end(),
        [&A](const ResolvedAccess &B) { return B.Array == A.Array; });
    for (size_t D = 0; D != R.Arrays[A.Array].Rank; ++D) {
      const size_t Row = A.FirstRow + D;
      const int64_t P = R.Partition[R.Arrays[A.Array].FirstDim + D];
      for (size_t L = 0; L != NL; ++L) {
        const int64_t Stride =
            (N.row(Row)[L] - N.row(First.FirstRow + D)[L]) * N.Unroll[L];
        // A loop with no second full group stays at group 0.
        const int64_t Groups = N.Trip[L] / std::max<int64_t>(N.Unroll[L], 1);
        if (Stride != 0 && Groups > 1 && P > 1)
          R.Terms.push_back({Row, L, Stride, Groups, P});
      }
    }
  }

  double II = 1.0;
  int64_t Ignored = 1;
  R.Seen.clear();
  for (int Sample = 0; Sample < Samples; ++Sample) {
    R.SeqMod.assign(Rows, 0);
    for (const ResolvedKernel::ScanTerm &T : R.Terms) {
      const int64_t Group =
          Sample * static_cast<int64_t>(2 * T.Loop + 1) % T.Groups;
      R.SeqMod[T.Row] = floorMod(R.SeqMod[T.Row] + T.Stride * Group, T.Part);
    }
    bool Repeat = false;
    for (size_t Prev = 0; Prev != R.Seen.size() && !Repeat; Prev += Rows)
      Repeat = std::equal(R.SeqMod.begin(), R.SeqMod.end(),
                          R.Seen.data() + Prev);
    if (Repeat)
      continue;
    R.Seen.insert(R.Seen.end(), R.SeqMod.begin(), R.SeqMod.end());
    II = std::max(II, arbitrateResidues(R, N, I, R.SeqMod.data(), Ignored));
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
/// are preserved. FNV-1a streams, so the text is hashed piece by piece
/// and never built.
inline uint64_t heuristicConfigHash(const KernelSpec &K) {
  uint64_t H = stableHash(K.Name);
  auto Text = [&H](std::string_view S) { H = stableHash(S, H); };
  auto Num = [&Text](int64_t V) {
    char Buf[24];
    Text({Buf, static_cast<size_t>(
                   std::to_chars(Buf, Buf + sizeof(Buf), V).ptr - Buf)});
  };
  for (const LoopNest &N : K.Nests)
    for (const Loop &L : N.Loops) {
      Text("|");
      Text(L.Var);
      Text(":");
      Num(L.Trip);
      Text(":");
      Num(L.Unroll);
      if (L.IsWhile)
        Text("w");
    }
  for (const ArraySpec &A : K.Arrays) {
    Text("|");
    Text(A.Name);
    for (size_t D = 0; D != A.DimSizes.size(); ++D) {
      Text(":");
      Num(A.DimSizes[D]);
      Text("p");
      Num(A.Partition[D]);
    }
  }
  return H;
}

/// The deterministic latency perturbation (>= 1) applied to
/// rule-violating configurations — the same draw at every fidelity,
/// simulator included, so noise never inverts the ladder. \p ConfigHash
/// is the spec's \c heuristicConfigHash.
inline double heuristicLatencyMultiplier(uint64_t ConfigHash) {
  double U2 =
      stableHashUnit(stableHashCombine(ConfigHash, 0x9e3779b97f4a7c15ULL));
  return 1.0 + model::NoiseAmplitudeLatency * U2;
}

} // namespace dahlia::hlsim

#endif // DAHLIA_HLSIM_KERNELANALYSIS_H
