//===- TypeChecker.cpp - Time-sensitive affine type checker -----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "sema/TypeChecker.h"

#include "ast/ASTPrinter.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace dahlia;

namespace {

//===----------------------------------------------------------------------===//
// Index classification
//===----------------------------------------------------------------------===//

/// How an index expression addresses a banked dimension.
struct IndexInfo {
  enum Kind {
    Literal,  ///< Statically known value: touches exactly one bank.
    Interval, ///< Unrolled iterator idx{Lo..Hi}: touches Hi-Lo banks.
    Dynamic,  ///< Anything else: bank unknown at compile time.
  } K = Dynamic;
  int64_t Value = 0;          ///< Literal value.
  int64_t Lo = 0, Hi = 0;     ///< Interval bounds.
};

/// Per-dimension multiset of consumed banks (bank id -> access count).
using BankMultiset = std::map<int64_t, unsigned>;

/// Attempts to fold \p E to a compile-time integer constant.
std::optional<int64_t> tryConstFold(const Expr &E) {
  if (const auto *I = E.as<IntLitExpr>())
    return I->value();
  const auto *B = E.as<BinOpExpr>();
  if (!B)
    return std::nullopt;
  std::optional<int64_t> L = tryConstFold(B->lhs());
  std::optional<int64_t> R = tryConstFold(B->rhs());
  if (!L || !R)
    return std::nullopt;
  switch (B->op()) {
  case BinOpKind::Add:
    return *L + *R;
  case BinOpKind::Sub:
    return *L - *R;
  case BinOpKind::Mul:
    return *L * *R;
  case BinOpKind::Div:
    return *R == 0 ? std::nullopt : std::optional<int64_t>(*L / *R);
  case BinOpKind::Mod:
    return *R == 0 ? std::nullopt : std::optional<int64_t>(*L % *R);
  default:
    return std::nullopt;
  }
}

/// Whether \p E mentions the variable \p Name.
bool mentionsVar(const Expr &E, const std::string &Name) {
  switch (E.kind()) {
  case ExprKind::Var:
    return E.as<VarExpr>()->name() == Name;
  case ExprKind::BinOp: {
    const auto &B = *E.as<BinOpExpr>();
    return mentionsVar(B.lhs(), Name) || mentionsVar(B.rhs(), Name);
  }
  case ExprKind::Access: {
    const auto &A = *E.as<AccessExpr>();
    for (const ExprPtr &I : A.indices())
      if (mentionsVar(*I, Name))
        return true;
    return false;
  }
  case ExprKind::PhysAccess: {
    const auto &A = *E.as<PhysAccessExpr>();
    return mentionsVar(A.bank(), Name) || mentionsVar(A.offset(), Name);
  }
  case ExprKind::App: {
    const auto &A = *E.as<AppExpr>();
    for (const ExprPtr &Arg : A.args())
      if (mentionsVar(*Arg, Name))
        return true;
    return false;
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Checker state
//===----------------------------------------------------------------------===//

/// Affine consumption state of one memory: per access route, how many ports
/// of each flattened bank have been consumed in the current logical time
/// step. Distinct routes (direct vs. each shift view) may not be mixed
/// within a time step because the bank rotation of a shift view is unknown.
struct MemState {
  std::map<std::string, std::vector<unsigned>> ConsumedByRoute;

  bool anyConsumed() const {
    for (const auto &[Route, Banks] : ConsumedByRoute)
      for (unsigned C : Banks)
        if (C != 0)
          return true;
    return false;
  }
};

/// Maps an under-dimension of a view to the view dimensions feeding it.
/// Split views map two view dims onto one underlying dim; all other views
/// map one-to-one.
struct UnderDimMap {
  int ViewDimA = -1;
  int ViewDimB = -1;  ///< -1 unless this under-dim was split.
  int64_t Factor = 1; ///< shrink/split factor for this dim.
};

/// Checker-side record of a declared view.
struct ViewInfo {
  ViewKind VK = ViewKind::Shrink;
  std::string Under; ///< Immediate underlying memory or view name.
  TypeRef Ty;        ///< The view's own memory type.
  bool Rotated = false;
  std::vector<UnderDimMap> DimMaps; ///< Indexed by underlying dimension.
  /// Suffix/shift offset expressions (borrowed from the AST); accesses
  /// through a view whose offsets mention an unrolled iterator are
  /// distinct per copy and must consume banks per copy.
  std::vector<const Expr *> Offsets;
};

/// A name binding in the variable scopes.
struct Binding {
  enum Kind { Var, Mem, View, CombineReg } K = Var;
  TypeRef Ty;
  size_t ForDepthAtDef = 0; ///< Enclosing for-loop count at definition.
  ViewInfo VI;              ///< Valid when K == View.
};

/// Snapshot of the per-time-step affine state.
struct StepSnapshot {
  std::map<std::string, MemState> Delta;
  std::set<std::string> ReadCaps;
};

/// The time-sensitive affine type checker.
class Checker {
public:
  std::vector<Error> runProgram(Program &P) {
    for (FuncDef &F : P.Funcs) {
      if (Funcs.count(F.Name))
        diag(ErrorKind::Type, "function '" + F.Name + "' redefined", F.Loc);
      Funcs[F.Name] = &F;
    }
    // Each function body is checked in its own closed world.
    for (FuncDef &F : P.Funcs)
      checkFunction(F);
    // The kernel body runs against the interface memories.
    pushScope();
    for (const ExternDecl &D : P.Decls) {
      if (!D.Ty || !D.Ty->isMem()) {
        diag(ErrorKind::Type,
             "interface declaration '" + D.Name + "' must be a memory type",
             D.Loc);
        continue;
      }
      declareMemory(D.Name, D.Ty, D.Loc);
    }
    if (P.Body)
      checkCmd(*P.Body);
    popScope();
    return std::move(Errors);
  }

  std::vector<Error> runCommand(Cmd &C) {
    pushScope();
    checkCmd(C);
    popScope();
    return std::move(Errors);
  }

private:
  std::vector<Error> Errors;
  std::vector<std::map<std::string, Binding>> Scopes;
  std::map<std::string, FuncDef *> Funcs;
  std::map<std::string, MemState> Delta;
  std::set<std::string> ReadCaps;
  /// Innermost-last stack of enclosing for loops: (iterator, unroll).
  std::vector<std::pair<std::string, int64_t>> ForStack;
  /// ForStack depth at entry to the outermost enclosing while body, or
  /// NotInWhile. Unrolled copies of a while each run their own sequential
  /// loop — iteration schedules may diverge — so reads inside a while
  /// cannot share one broadcast fetch across the copies enclosing it and
  /// must consume bank ports per copy, like writes.
  static constexpr size_t NotInWhile = static_cast<size_t>(-1);
  size_t WhileForDepth = NotInWhile;
  bool InCombine = false;
  bool InReducerRHS = false;

  //===--------------------------------------------------------------------===//
  // Diagnostics and scope management
  //===--------------------------------------------------------------------===//

  void diag(ErrorKind K, std::string Msg, SourceLoc Loc) {
    Errors.emplace_back(K, std::move(Msg), Loc);
  }

  void pushScope() { Scopes.emplace_back(); }

  void popScope() {
    assert(!Scopes.empty() && "scope underflow");
    // Memories die with their scope; drop their affine state.
    for (const auto &[Name, B] : Scopes.back())
      if (B.K == Binding::Mem)
        Delta.erase(Name);
    Scopes.pop_back();
  }

  Binding *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }

  bool declare(const std::string &Name, Binding B, SourceLoc Loc) {
    if (lookup(Name)) {
      diag(ErrorKind::Type, "'" + Name + "' is already defined", Loc);
      return false;
    }
    Scopes.back()[Name] = std::move(B);
    return true;
  }

  void declareMemory(const std::string &Name, TypeRef Ty, SourceLoc Loc) {
    if (!validateMemType(*Ty, Loc))
      return;
    Binding B;
    B.K = Binding::Mem;
    B.Ty = Ty;
    B.ForDepthAtDef = ForStack.size();
    if (declare(Name, std::move(B), Loc))
      Delta[Name]; // Fresh, unconsumed.
  }

  /// Enforces the declaration-side banking rule: every banking factor must
  /// evenly divide its dimension's size (Section 3.3).
  bool validateMemType(const Type &Ty, SourceLoc Loc) {
    assert(Ty.isMem() && "expected memory type");
    bool OK = true;
    for (const MemDim &D : Ty.memDims()) {
      if (D.Size < 1) {
        diag(ErrorKind::Banking, "memory dimension size must be positive",
             Loc);
        OK = false;
      }
      if (D.Banks < 1) {
        diag(ErrorKind::Banking, "banking factor must be positive", Loc);
        OK = false;
      } else if (D.Size >= 1 && D.Size % D.Banks != 0) {
        diag(ErrorKind::Banking,
             concat("banking factor ", D.Banks,
                    " does not evenly divide dimension size ", D.Size),
             Loc);
        OK = false;
      }
    }
    return OK;
  }

  //===--------------------------------------------------------------------===//
  // Affine state snapshots
  //===--------------------------------------------------------------------===//

  StepSnapshot snapshot() const { return {Delta, ReadCaps}; }

  void restore(const StepSnapshot &S) {
    Delta = S.Delta;
    ReadCaps = S.ReadCaps;
  }

  /// Pointwise maximum of consumption; the result treats a resource as
  /// consumed if either side consumed it (set-intersection of availability
  /// in the paper's formulation).
  static void mergeDeltaMax(std::map<std::string, MemState> &Into,
                            const std::map<std::string, MemState> &From) {
    for (const auto &[Name, MS] : From) {
      MemState &Dst = Into[Name];
      for (const auto &[Route, Banks] : MS.ConsumedByRoute) {
        std::vector<unsigned> &D = Dst.ConsumedByRoute[Route];
        if (D.size() < Banks.size())
          D.resize(Banks.size(), 0);
        for (size_t I = 0; I != Banks.size(); ++I)
          D[I] = std::max(D[I], Banks[I]);
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Bank consumption
  //===--------------------------------------------------------------------===//

  /// Computes which banks of a dimension an index expression touches.
  /// \p Banks and \p Size describe the dimension being accessed (of the
  /// memory or view named \p MemName). Returns nullopt after diagnosing.
  std::optional<BankMultiset> banksForDim(const IndexInfo &Info,
                                          int64_t Banks, int64_t Size,
                                          const std::string &MemName,
                                          SourceLoc Loc) {
    BankMultiset Set;
    switch (Info.K) {
    case IndexInfo::Literal: {
      if (Info.Value < 0 || Info.Value >= Size) {
        diag(ErrorKind::Type,
             concat("index ", Info.Value,
                    " out of bounds for dimension of size ", Size, " of '",
                    MemName, "'"),
             Loc);
        return std::nullopt;
      }
      Set[Info.Value % Banks] = 1;
      return Set;
    }
    case IndexInfo::Interval: {
      int64_t S = Info.Hi - Info.Lo;
      if (S <= 1) {
        // A sequential iterator touches one statically unknown bank; be
        // conservative and reserve one port of every bank.
        for (int64_t B = 0; B != Banks; ++B)
          Set[B] = 1;
        return Set;
      }
      if (S != Banks) {
        diag(ErrorKind::Unroll,
             concat("insufficient banks: unroll factor ", S,
                    " does not match banking factor ", Banks, " of '",
                    MemName, "' (use a shrink view for lower unrolling)"),
             Loc);
        return std::nullopt;
      }
      // Lockstep copies touch each bank exactly once, whatever the shared
      // dynamic base offset is.
      for (int64_t B = 0; B != Banks; ++B)
        Set[B] = 1;
      return Set;
    }
    case IndexInfo::Dynamic: {
      if (Banks == 1) {
        Set[0] = 1;
        return Set;
      }
      diag(ErrorKind::Unroll,
           "banked memory '" + MemName +
               "' accessed with an arbitrary index expression; use a simple "
               "index or a memory view",
           Loc);
      return std::nullopt;
    }
    }
    return std::nullopt;
  }

  IndexInfo classifyIndex(const Expr &E) {
    IndexInfo Info;
    if (std::optional<int64_t> C = tryConstFold(E)) {
      Info.K = IndexInfo::Literal;
      Info.Value = *C;
      return Info;
    }
    if (E.type() && E.type()->isIdx()) {
      Info.K = IndexInfo::Interval;
      Info.Lo = E.type()->idxLo();
      Info.Hi = E.type()->idxHi();
      return Info;
    }
    Info.K = IndexInfo::Dynamic;
    return Info;
  }

  /// Translates per-dimension bank multisets of a (possibly nested) view
  /// access down to the root memory. Returns the root memory name and fills
  /// \p Route with "direct" or a shift-view route tag.
  std::string translateToRoot(const std::string &Name,
                              std::vector<BankMultiset> &PerDim,
                              std::string &Route, SourceLoc Loc) {
    Route = "direct";
    std::string Cur = Name;
    while (true) {
      Binding *B = lookup(Cur);
      assert(B && "access target vanished during translation");
      if (B->K == Binding::Mem)
        return Cur;
      assert(B->K == Binding::View && "expected view binding");
      const ViewInfo &VI = B->VI;
      if (VI.Rotated)
        Route = "shift:" + Cur + "|" + Route;
      const Type &UnderTy = *lookup(VI.Under)->Ty;
      (void)UnderTy;
      std::vector<BankMultiset> Out(VI.DimMaps.size());
      const std::vector<MemDim> &ViewDims = B->Ty->memDims();
      for (size_t UD = 0; UD != VI.DimMaps.size(); ++UD) {
        const UnderDimMap &M = VI.DimMaps[UD];
        const BankMultiset &InA = PerDim[M.ViewDimA];
        switch (VI.VK) {
        case ViewKind::Shrink: {
          // View bank b is backed by underlying banks {b + j*Bv}.
          int64_t Bv = ViewDims[M.ViewDimA].Banks;
          for (const auto &[Bank, Count] : InA)
            for (int64_t J = 0; J != M.Factor; ++J)
              Out[UD][Bank + J * Bv] += Count;
          break;
        }
        case ViewKind::Suffix:
        case ViewKind::Shift:
          // Bank-preserving (suffix: identical; shift: uniformly rotated,
          // guarded by the route tag).
          Out[UD] = InA;
          break;
        case ViewKind::Split: {
          if (M.ViewDimB < 0) {
            Out[UD] = InA;
            break;
          }
          // Under bank = a * (B/f) + b for view banks (a, b).
          const BankMultiset &InB = PerDim[M.ViewDimB];
          int64_t Bb = ViewDims[M.ViewDimB].Banks;
          for (const auto &[BankA, CountA] : InA)
            for (const auto &[BankB, CountB] : InB)
              Out[UD][BankA * Bb + BankB] += CountA * CountB;
          break;
        }
        }
      }
      PerDim = std::move(Out);
      Cur = VI.Under;
      (void)Loc;
    }
  }

  /// Flattens per-dimension multisets into flattened-bank-id multisets
  /// using row-major bank strides.
  static BankMultiset flattenBanks(const std::vector<BankMultiset> &PerDim,
                                   const std::vector<MemDim> &Dims) {
    BankMultiset Flat;
    Flat[0] = 1;
    for (size_t D = 0; D != PerDim.size(); ++D) {
      BankMultiset Next;
      for (const auto &[Acc, CountAcc] : Flat)
        for (const auto &[Bank, Count] : PerDim[D])
          Next[Acc * Dims[D].Banks + Bank] += CountAcc * Count;
      Flat = std::move(Next);
    }
    return Flat;
  }

  /// The number of identical copies an access inside unrolled loops fans
  /// out to: the product of unroll factors of enclosing for loops whose
  /// iterator the access does not mention.
  unsigned copyMultiplicity(const Expr &AccessExpr) {
    unsigned M = 1;
    for (const auto &[Iter, Factor] : ForStack)
      if (Factor > 1 && !mentionsVar(AccessExpr, Iter))
        M *= static_cast<unsigned>(Factor);
    return M;
  }

  /// Reads through a view whose offsets mention an unrolled iterator are
  /// distinct per copy (each copy owns its own window into the same
  /// banks), so they consume bank ports per copy instead of sharing one
  /// fetch. This is exactly why the paper's pre-split blocked dot product
  /// is rejected (Section 3.6).
  unsigned viewCopyMultiplicity(const AccessExpr &A,
                                std::set<std::string> *CountedOut = nullptr) {
    unsigned M = 1;
    std::set<std::string> Counted;
    std::string Cur = A.mem();
    while (true) {
      Binding *B = lookup(Cur);
      if (!B || B->K != Binding::View) {
        if (CountedOut)
          *CountedOut = std::move(Counted);
        return M;
      }
      for (const Expr *Off : B->VI.Offsets) {
        if (!Off)
          continue;
        for (const auto &[Iter, Factor] : ForStack) {
          if (Factor <= 1 || Counted.count(Iter))
            continue;
          bool InIndices = false;
          for (const ExprPtr &I : A.indices())
            InIndices = InIndices || mentionsVar(*I, Iter);
          if (!InIndices && mentionsVar(*Off, Iter)) {
            M *= static_cast<unsigned>(Factor);
            Counted.insert(Iter);
          }
        }
      }
      Cur = B->VI.Under;
    }
  }

  /// The extra fan-out a read inside a while body pays: the product of
  /// unroll factors of for loops enclosing the outermost while whose
  /// iterator the access does not mention (those already counted in
  /// \p Counted are skipped). 1 outside any while. Copies of a while run
  /// as independent sequential loops, so there is no lockstep time step
  /// on which identical fetches could be broadcast — each copy needs its
  /// own port.
  unsigned whileLaneFanout(const Expr &AccessExpr,
                           const std::set<std::string> &Counted) {
    if (WhileForDepth == NotInWhile)
      return 1;
    unsigned M = 1;
    size_t E = WhileForDepth < ForStack.size() ? WhileForDepth
                                               : ForStack.size();
    for (size_t I = 0; I != E; ++I) {
      const auto &[Iter, Factor] = ForStack[I];
      if (Factor > 1 && !Counted.count(Iter) &&
          !mentionsVar(AccessExpr, Iter))
        M *= static_cast<unsigned>(Factor);
    }
    return M;
  }

  /// Copy multiplicity for a logical read. Reads normally broadcast —
  /// unrolled copies issuing the identical fetch share one capability —
  /// except through per-copy view windows (viewCopyMultiplicity) and
  /// inside while bodies (whileLaneFanout), where they consume ports per
  /// copy.
  unsigned readCopyMultiplicity(const AccessExpr &A) {
    std::set<std::string> Counted;
    unsigned M = viewCopyMultiplicity(A, &Counted);
    return M * whileLaneFanout(A, Counted);
  }

  /// Consumes affine resources for one memory access. \p RootMem is the
  /// root memory, \p Flat the flattened consumed-bank multiset, \p Route
  /// the access route, \p Need the per-bank multiplicity factor (1 for
  /// reads, copy multiplicity for writes).
  void consume(const std::string &RootMem, const BankMultiset &Flat,
               const std::string &Route, unsigned Need, SourceLoc Loc) {
    Binding *B = lookup(RootMem);
    assert(B && B->K == Binding::Mem && "consume on non-memory");
    unsigned Ports = B->Ty->memPorts();
    int64_t TotalBanks = B->Ty->memTotalBanks();
    MemState &MS = Delta[RootMem];
    // Route exclusion: a shift view's bank rotation is unknown, so within a
    // time step all accesses must go through the same route.
    for (const auto &[R, Banks] : MS.ConsumedByRoute) {
      if (R == Route)
        continue;
      for (unsigned C : Banks)
        if (C != 0) {
          diag(ErrorKind::Affine,
               "memory '" + RootMem +
                   "' is accessed through conflicting routes in the same "
                   "logical time step",
               Loc);
          return;
        }
    }
    std::vector<unsigned> &V = MS.ConsumedByRoute[Route];
    V.resize(static_cast<size_t>(TotalBanks), 0);
    // Validate first, then commit, so errors do not corrupt the state.
    for (const auto &[Bank, Count] : Flat) {
      assert(Bank >= 0 && Bank < TotalBanks && "bank id out of range");
      unsigned Want = Count * Need;
      if (V[static_cast<size_t>(Bank)] + Want > Ports) {
        std::string Msg =
            concat("memory '", RootMem, "' bank ", Bank,
                   " already consumed in this logical time step");
        if (Need > 1)
          Msg += concat(" (access fans out to ", Need, " unrolled copies)");
        diag(ErrorKind::Affine, std::move(Msg), Loc);
        return;
      }
    }
    for (const auto &[Bank, Count] : Flat)
      V[static_cast<size_t>(Bank)] += Count * Need;
  }

  //===--------------------------------------------------------------------===//
  // Expression checking
  //===--------------------------------------------------------------------===//

  TypeRef checkExpr(Expr &E, bool AllowMemRef = false) {
    TypeRef Ty = checkExprImpl(E, AllowMemRef);
    E.setType(Ty);
    return Ty;
  }

  TypeRef checkExprImpl(Expr &E, bool AllowMemRef) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      return Type::getBit(32, true);
    case ExprKind::FloatLit:
      return Type::getFloat();
    case ExprKind::BoolLit:
      return Type::getBool();
    case ExprKind::Var: {
      auto &V = *E.as<VarExpr>();
      Binding *B = lookup(V.name());
      if (!B) {
        diag(ErrorKind::Type, "use of undefined name '" + V.name() + "'",
             V.loc());
        return Type::getFloat();
      }
      if (B->K == Binding::Mem || B->K == Binding::View) {
        if (!AllowMemRef) {
          diag(ErrorKind::Affine,
               "cannot copy memory '" + V.name() +
                   "'; memories are affine resources",
               V.loc());
        }
        return B->Ty;
      }
      if (B->K == Binding::CombineReg && !InReducerRHS) {
        diag(ErrorKind::Type,
             "combine register '" + V.name() +
                 "' may only be used inside a reducer",
             V.loc());
      }
      return B->Ty;
    }
    case ExprKind::BinOp:
      return checkBinOp(*E.as<BinOpExpr>());
    case ExprKind::Access:
      return checkAccess(*E.as<AccessExpr>(), /*IsWrite=*/false);
    case ExprKind::PhysAccess:
      return checkPhysAccess(*E.as<PhysAccessExpr>(), /*IsWrite=*/false);
    case ExprKind::App:
      return checkApp(*E.as<AppExpr>());
    }
    return Type::getFloat();
  }

  TypeRef checkBinOp(BinOpExpr &B) {
    TypeRef L = checkExpr(B.lhs());
    TypeRef R = checkExpr(B.rhs());
    if (isLogical(B.op())) {
      if (!L->isBool() || !R->isBool())
        diag(ErrorKind::Type,
             std::string("logical operator '") + binOpSpelling(B.op()) +
                 "' requires boolean operands",
             B.loc());
      return Type::getBool();
    }
    if (isComparison(B.op())) {
      bool OK = (L->isNumeric() && R->isNumeric()) ||
                (L->isBool() && R->isBool() &&
                 (B.op() == BinOpKind::Eq || B.op() == BinOpKind::Neq));
      if (!OK)
        diag(ErrorKind::Type,
             std::string("incomparable operand types for '") +
                 binOpSpelling(B.op()) + "': " + L->str() + " and " +
                 R->str(),
             B.loc());
      return Type::getBool();
    }
    // Arithmetic.
    if (!L->isNumeric() || !R->isNumeric()) {
      diag(ErrorKind::Type,
           std::string("arithmetic operator '") + binOpSpelling(B.op()) +
               "' requires numeric operands, got " + L->str() + " and " +
               R->str(),
           B.loc());
      return Type::getFloat();
    }
    // idx +- constant keeps the (shifted) index interval so accesses like
    // A[j + 8] remain bank-analyzable (Section 3.6).
    if (L->isIdx()) {
      std::optional<int64_t> C = tryConstFold(B.rhs());
      if (C && B.op() == BinOpKind::Add)
        return Type::getIdx(L->idxLo() + *C, L->idxHi() + *C,
                            L->idxDynLo() + *C, L->idxDynHi() + *C);
      if (C && B.op() == BinOpKind::Sub)
        return Type::getIdx(L->idxLo() - *C, L->idxHi() - *C,
                            L->idxDynLo() - *C, L->idxDynHi() - *C);
    }
    if (R->isIdx() && B.op() == BinOpKind::Add)
      if (std::optional<int64_t> C = tryConstFold(B.lhs()))
        return Type::getIdx(R->idxLo() + *C, R->idxHi() + *C,
                            R->idxDynLo() + *C, R->idxDynHi() + *C);
    if (L->isDouble() || R->isDouble())
      return Type::getDouble();
    if (L->isFloat() || R->isFloat())
      return Type::getFloat();
    if (L->isBit() && R->isBit())
      return Type::getBit(std::max(L->bitWidth(), R->bitWidth()),
                          L->isSignedBit() || R->isSignedBit());
    // idx op idx and other integer mixes degrade to a dynamic integer.
    return Type::getBit(32, true);
  }

  /// Shared access-path logic for reads and writes of logical accesses.
  /// Returns the element type.
  TypeRef checkAccess(AccessExpr &A, bool IsWrite) {
    Binding *B = lookup(A.mem());
    if (!B) {
      diag(ErrorKind::Type, "use of undefined memory '" + A.mem() + "'",
           A.loc());
      return Type::getFloat();
    }
    if (B->K != Binding::Mem && B->K != Binding::View) {
      diag(ErrorKind::Type, "'" + A.mem() + "' is not a memory", A.loc());
      return Type::getFloat();
    }
    const Type &MemTy = *B->Ty;
    const std::vector<MemDim> &Dims = MemTy.memDims();
    if (A.indices().size() != Dims.size()) {
      diag(ErrorKind::Type,
           concat("memory '", A.mem(), "' has ", Dims.size(),
                  " dimension(s) but is accessed with ", A.indices().size(),
                  " index(es)"),
           A.loc());
      return MemTy.memElem();
    }
    // Type and classify every index.
    std::vector<BankMultiset> PerDim;
    bool Failed = false;
    for (size_t D = 0; D != Dims.size(); ++D) {
      Expr &Idx = *A.indices()[D];
      TypeRef IdxTy = checkExpr(Idx);
      if (!IdxTy->isBit() && !IdxTy->isIdx()) {
        diag(ErrorKind::Type,
             "memory index must be an integer, got " + IdxTy->str(),
             Idx.loc());
        Failed = true;
        continue;
      }
      std::optional<BankMultiset> Banks = banksForDim(
          classifyIndex(Idx), Dims[D].Banks, Dims[D].Size, A.mem(), Idx.loc());
      if (!Banks) {
        Failed = true;
        continue;
      }
      PerDim.push_back(std::move(*Banks));
    }
    if (Failed)
      return MemTy.memElem();

    // Reads of the same location within a time step share one capability.
    std::string Sig = printExpr(A);
    if (!IsWrite && ReadCaps.count(Sig))
      return MemTy.memElem();

    std::string Route;
    std::string Root = translateToRoot(A.mem(), PerDim, Route, A.loc());
    Binding *RootB = lookup(Root);
    BankMultiset Flat = flattenBanks(PerDim, RootB->Ty->memDims());
    unsigned Need = IsWrite ? copyMultiplicity(A) : readCopyMultiplicity(A);
    consume(Root, Flat, Route, Need, A.loc());
    if (!IsWrite)
      ReadCaps.insert(Sig);
    return MemTy.memElem();
  }

  TypeRef checkPhysAccess(PhysAccessExpr &A, bool IsWrite) {
    Binding *B = lookup(A.mem());
    if (!B) {
      diag(ErrorKind::Type, "use of undefined memory '" + A.mem() + "'",
           A.loc());
      return Type::getFloat();
    }
    if (B->K == Binding::View) {
      diag(ErrorKind::View,
           "physical bank access into view '" + A.mem() + "' is not allowed",
           A.loc());
      return B->Ty->isMem() ? B->Ty->memElem() : Type::getFloat();
    }
    if (B->K != Binding::Mem) {
      diag(ErrorKind::Type, "'" + A.mem() + "' is not a memory", A.loc());
      return Type::getFloat();
    }
    const Type &MemTy = *B->Ty;
    checkExpr(const_cast<Expr &>(A.bank()));
    TypeRef OffTy = checkExpr(const_cast<Expr &>(A.offset()));
    if (!OffTy->isBit() && !OffTy->isIdx())
      diag(ErrorKind::Type, "bank offset must be an integer", A.loc());
    std::optional<int64_t> Bank = tryConstFold(A.bank());
    if (!Bank) {
      diag(ErrorKind::Type,
           "physical bank index into '" + A.mem() + "' must be static",
           A.loc());
      return MemTy.memElem();
    }
    if (*Bank < 0 || *Bank >= MemTy.memTotalBanks()) {
      diag(ErrorKind::Banking,
           concat("bank ", *Bank, " out of range for '", A.mem(), "' with ",
                  MemTy.memTotalBanks(), " bank(s)"),
           A.loc());
      return MemTy.memElem();
    }
    std::string Sig = printExpr(A);
    if (!IsWrite && ReadCaps.count(Sig))
      return MemTy.memElem();
    BankMultiset Flat;
    Flat[*Bank] = 1;
    unsigned Need = IsWrite ? copyMultiplicity(A) : whileLaneFanout(A, {});
    consume(A.mem(), Flat, "direct", Need, A.loc());
    if (!IsWrite)
      ReadCaps.insert(Sig);
    return MemTy.memElem();
  }

  TypeRef checkApp(AppExpr &A) {
    auto It = Funcs.find(A.callee());
    if (It == Funcs.end()) {
      diag(ErrorKind::Type, "call to undefined function '" + A.callee() + "'",
           A.loc());
      for (const ExprPtr &Arg : A.args())
        checkExpr(*Arg, /*AllowMemRef=*/true);
      return Type::getFloat();
    }
    const FuncDef &F = *It->second;
    if (A.args().size() != F.Params.size()) {
      diag(ErrorKind::Type,
           concat("function '", A.callee(), "' expects ", F.Params.size(),
                  " argument(s) but got ", A.args().size()),
           A.loc());
    }
    size_t N = std::min(A.args().size(), F.Params.size());
    for (size_t I = 0; I != N; ++I) {
      Expr &Arg = *A.args()[I];
      const FuncParam &P = F.Params[I];
      if (P.Ty->isMem()) {
        auto *V = Arg.as<VarExpr>();
        Binding *B = V ? lookup(V->name()) : nullptr;
        if (!V || !B || B->K != Binding::Mem) {
          diag(ErrorKind::Affine,
               "argument for memory parameter '" + P.Name +
                   "' must name a memory",
               Arg.loc());
          checkExpr(Arg, /*AllowMemRef=*/true);
          continue;
        }
        Arg.setType(B->Ty);
        if (!P.Ty->equals(*B->Ty)) {
          diag(ErrorKind::Type,
               "memory argument type " + B->Ty->str() +
                   " does not match parameter type " + P.Ty->str(),
               Arg.loc());
          continue;
        }
        // Passing a memory consumes it whole: the callee may use every bank
        // and port. Every unrolled copy of the call needs the whole memory,
        // so the multiplicity is the full unroll product.
        unsigned M = 1;
        for (const auto &[Iter, Factor] : ForStack) {
          (void)Iter;
          if (Factor > 1)
            M *= static_cast<unsigned>(Factor);
        }
        BankMultiset Flat;
        unsigned Ports = B->Ty->memPorts();
        for (int64_t Bank = 0; Bank != B->Ty->memTotalBanks(); ++Bank)
          Flat[Bank] = Ports;
        consume(V->name(), Flat, "direct", M, Arg.loc());
        continue;
      }
      TypeRef ArgTy = checkExpr(Arg);
      if (!P.Ty->accepts(*ArgTy))
        diag(ErrorKind::Type,
             "argument type " + ArgTy->str() +
                 " is not convertible to parameter type " + P.Ty->str(),
             Arg.loc());
    }
    return F.RetTy ? F.RetTy : Type::getVoid();
  }

  //===--------------------------------------------------------------------===//
  // Command checking
  //===--------------------------------------------------------------------===//

  void checkCmd(Cmd &C) {
    switch (C.kind()) {
    case CmdKind::Let:
      return checkLet(*C.as<LetCmd>());
    case CmdKind::View:
      return checkView(*C.as<ViewCmd>());
    case CmdKind::If:
      return checkIf(*C.as<IfCmd>());
    case CmdKind::While:
      return checkWhile(*C.as<WhileCmd>());
    case CmdKind::For:
      return checkFor(*C.as<ForCmd>());
    case CmdKind::Assign:
      return checkAssign(*C.as<AssignCmd>());
    case CmdKind::ReduceAssign:
      return checkReduceAssign(*C.as<ReduceAssignCmd>());
    case CmdKind::Store:
      return checkStore(*C.as<StoreCmd>());
    case CmdKind::Expr:
      checkExpr(C.as<ExprCmd>()->expr());
      return;
    case CmdKind::Seq:
      return checkSeq(*C.as<SeqCmd>());
    case CmdKind::Par: {
      // Unordered composition threads the affine context through.
      for (CmdPtr &Sub : C.as<ParCmd>()->cmds())
        checkCmd(*Sub);
      return;
    }
    case CmdKind::Block: {
      pushScope();
      checkCmd(C.as<BlockCmd>()->body());
      popScope();
      return;
    }
    case CmdKind::Skip:
      return;
    }
  }

  void checkLet(LetCmd &L) {
    TypeRef Ty = L.declType();
    if (Ty && Ty->isMem()) {
      if (L.init()) {
        diag(ErrorKind::Type,
             "memory '" + L.name() + "' cannot have an initializer", L.loc());
        return;
      }
      declareMemory(L.name(), Ty, L.loc());
      return;
    }
    TypeRef InitTy;
    if (L.init())
      InitTy = checkExpr(*L.init());
    if (!Ty)
      Ty = InitTy;
    else if (InitTy && !Ty->accepts(*InitTy))
      diag(ErrorKind::Type,
           "initializer type " + InitTy->str() +
               " is not convertible to declared type " + Ty->str(),
           L.loc());
    if (!Ty) {
      diag(ErrorKind::Type,
           "cannot infer a type for '" + L.name() + "'", L.loc());
      Ty = Type::getFloat();
    }
    Binding B;
    B.K = Binding::Var;
    B.Ty = Ty;
    B.ForDepthAtDef = ForStack.size();
    declare(L.name(), std::move(B), L.loc());
  }

  void checkView(ViewCmd &V) {
    Binding *UB = lookup(V.mem());
    if (!UB || (UB->K != Binding::Mem && UB->K != Binding::View)) {
      diag(ErrorKind::View,
           "view over undefined memory '" + V.mem() + "'", V.loc());
      return;
    }
    const Type &UTy = *UB->Ty;
    const std::vector<MemDim> &UDims = UTy.memDims();
    if (V.params().size() != UDims.size()) {
      diag(ErrorKind::View,
           concat("view '", V.name(), "' has ", V.params().size(),
                  " [by ...] parameter(s) but '", V.mem(), "' has ",
                  UDims.size(), " dimension(s)"),
           V.loc());
      return;
    }

    ViewInfo VI;
    VI.VK = V.viewKind();
    VI.Under = V.mem();
    std::vector<MemDim> NewDims;
    std::vector<UnderDimMap> DimMaps(UDims.size());
    bool OK = true;

    for (size_t D = 0; D != UDims.size(); ++D) {
      const ViewDimParam &P = V.params()[D];
      const MemDim &UD = UDims[D];
      switch (V.viewKind()) {
      case ViewKind::Shrink: {
        if (P.Factor < 1 || UD.Banks % P.Factor != 0) {
          diag(ErrorKind::View,
               concat("shrink factor ", P.Factor,
                      " must evenly divide banking factor ", UD.Banks),
               V.loc());
          OK = false;
          break;
        }
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, P.Factor};
        NewDims.push_back({UD.Size, UD.Banks / P.Factor});
        break;
      }
      case ViewKind::Suffix: {
        if (!checkSuffixOffset(*P.Offset, UD.Banks, V.loc()))
          OK = false;
        VI.Offsets.push_back(P.Offset.get());
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
        NewDims.push_back(UD);
        break;
      }
      case ViewKind::Shift: {
        TypeRef OffTy = checkExpr(*P.Offset);
        if (!OffTy->isBit() && !OffTy->isIdx()) {
          diag(ErrorKind::View, "shift offset must be an integer", V.loc());
          OK = false;
        }
        VI.Offsets.push_back(P.Offset.get());
        VI.Rotated = true;
        DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
        NewDims.push_back(UD);
        break;
      }
      case ViewKind::Split: {
        if (P.Factor < 1 || UD.Banks % P.Factor != 0 ||
            UD.Size % P.Factor != 0) {
          diag(ErrorKind::View,
               concat("split factor ", P.Factor,
                      " must evenly divide banking factor ", UD.Banks,
                      " and size ", UD.Size),
               V.loc());
          OK = false;
          break;
        }
        if (P.Factor == 1) {
          DimMaps[D] = {static_cast<int>(NewDims.size()), -1, 1};
          NewDims.push_back(UD);
          break;
        }
        // [n bank B] splits into [f bank f][n/f bank B/f].
        DimMaps[D] = {static_cast<int>(NewDims.size()),
                      static_cast<int>(NewDims.size()) + 1, P.Factor};
        NewDims.push_back({P.Factor, P.Factor});
        NewDims.push_back({UD.Size / P.Factor, UD.Banks / P.Factor});
        break;
      }
      }
    }
    if (!OK)
      return;
    VI.Ty = Type::getMem(UTy.memElem(), std::move(NewDims), UTy.memPorts());
    VI.DimMaps = std::move(DimMaps);
    Binding B;
    B.K = Binding::View;
    B.Ty = VI.Ty;
    B.ForDepthAtDef = ForStack.size();
    B.VI = std::move(VI);
    declare(V.name(), std::move(B), V.loc());
  }

  /// An aligned suffix offset must be a provable multiple of the banking
  /// factor: either a constant multiple or `k * e` with k a multiple of
  /// the banking factor (Section 3.6).
  bool checkSuffixOffset(Expr &Off, int64_t Banks, SourceLoc Loc) {
    TypeRef Ty = checkExpr(Off);
    if (!Ty->isBit() && !Ty->isIdx()) {
      diag(ErrorKind::View, "suffix offset must be an integer", Loc);
      return false;
    }
    if (Banks == 1)
      return true;
    if (std::optional<int64_t> C = tryConstFold(Off)) {
      if (*C % Banks == 0)
        return true;
      diag(ErrorKind::View,
           concat("suffix offset ", *C,
                  " is not a multiple of banking factor ", Banks,
                  "; use a shift view"),
           Loc);
      return false;
    }
    if (const auto *B = Off.as<BinOpExpr>(); B && B->op() == BinOpKind::Mul) {
      std::optional<int64_t> L = tryConstFold(B->lhs());
      std::optional<int64_t> R = tryConstFold(B->rhs());
      if ((L && *L % Banks == 0) || (R && *R % Banks == 0))
        return true;
    }
    diag(ErrorKind::View,
         "suffix offset must be a static multiple of the banking factor "
         "(k * e with k the banking factor); use a shift view for "
         "unrestricted offsets",
         Loc);
    return false;
  }

  void checkIf(IfCmd &I) {
    TypeRef CondTy = checkExpr(I.cond());
    if (!CondTy->isBool())
      diag(ErrorKind::Type, "if condition must be boolean", I.loc());
    StepSnapshot PostCond = snapshot();
    pushScope();
    checkCmd(const_cast<Cmd &>(I.thenCmd()));
    popScope();
    std::map<std::string, MemState> ThenDelta = Delta;
    restore(PostCond);
    if (I.elseCmd()) {
      pushScope();
      checkCmd(const_cast<Cmd &>(*I.elseCmd()));
      popScope();
    }
    // Conservatively treat resources consumed by either branch as consumed.
    mergeDeltaMax(Delta, ThenDelta);
    ReadCaps = PostCond.ReadCaps;
  }

  void checkWhile(WhileCmd &W) {
    TypeRef CondTy = checkExpr(W.cond());
    if (!CondTy->isBool())
      diag(ErrorKind::Type, "while condition must be boolean", W.loc());
    StepSnapshot PostCond = snapshot();
    size_t SavedWhileDepth = WhileForDepth;
    if (WhileForDepth == NotInWhile)
      WhileForDepth = ForStack.size();
    pushScope();
    checkCmd(const_cast<Cmd &>(W.body()));
    popScope();
    WhileForDepth = SavedWhileDepth;
    // Iterations are sequential; capabilities acquired in the body do not
    // outlive it.
    ReadCaps = PostCond.ReadCaps;
  }

  void checkFor(ForCmd &F) {
    if (F.hi() <= F.lo()) {
      diag(ErrorKind::Type, "for range must be non-empty", F.loc());
      return;
    }
    int64_t Trip = F.hi() - F.lo();
    if (F.unroll() < 1) {
      diag(ErrorKind::Unroll, "unroll factor must be positive", F.loc());
      return;
    }
    if (Trip % F.unroll() != 0) {
      diag(ErrorKind::Unroll,
           concat("unroll factor ", F.unroll(),
                  " must evenly divide the loop trip count ", Trip),
           F.loc());
      return;
    }

    pushScope();
    Binding IterB;
    IterB.K = Binding::Var;
    IterB.Ty = Type::getIdx(0, F.unroll(), F.lo(), F.hi());
    IterB.ForDepthAtDef = ForStack.size();
    declare(F.iter(), std::move(IterB), F.loc());
    ForStack.emplace_back(F.iter(), F.unroll());

    StepSnapshot Entry = snapshot();

    // The body gets its own scope; remember its top-level lets so the
    // combine block can see them as combine registers.
    pushScope();
    const Cmd *BodyInner = &F.body();
    if (const auto *Blk = BodyInner->as<BlockCmd>())
      BodyInner = &Blk->body();
    checkCmd(const_cast<Cmd &>(*BodyInner));
    std::map<std::string, TypeRef> BodyLets;
    for (const auto &[Name, B] : Scopes.back())
      if (B.K == Binding::Var)
        BodyLets[Name] = B.Ty;
    popScope();
    std::map<std::string, MemState> BodyDelta = Delta;

    if (F.combine()) {
      // The combine block runs in a later logical time step of each
      // iteration group: resources replenish.
      restore(Entry);
      pushScope();
      for (const auto &[Name, Ty] : BodyLets) {
        Binding B;
        B.K = Binding::CombineReg;
        B.Ty = Ty;
        B.ForDepthAtDef = ForStack.size();
        Scopes.back()[Name] = std::move(B);
      }
      bool SavedCombine = InCombine;
      InCombine = true;
      const Cmd *CombInner = F.combine();
      if (const auto *Blk = CombInner->as<BlockCmd>())
        CombInner = &Blk->body();
      checkCmd(const_cast<Cmd &>(*CombInner));
      InCombine = SavedCombine;
      popScope();
    }
    mergeDeltaMax(Delta, BodyDelta);
    ReadCaps = Entry.ReadCaps;

    ForStack.pop_back();
    popScope();
  }

  void checkAssign(AssignCmd &A) {
    Binding *B = lookup(A.name());
    if (!B) {
      diag(ErrorKind::Type, "assignment to undefined name '" + A.name() + "'",
           A.loc());
      checkExpr(A.value());
      return;
    }
    if (B->K == Binding::Mem || B->K == Binding::View) {
      diag(ErrorKind::Type,
           "cannot assign to memory '" + A.name() + "'; use a subscript",
           A.loc());
      checkExpr(A.value());
      return;
    }
    if (B->K == Binding::CombineReg) {
      diag(ErrorKind::Type,
           "cannot assign to combine register '" + A.name() + "'", A.loc());
      checkExpr(A.value());
      return;
    }
    // The doall restriction: for-loop bodies may not write variables
    // defined outside the loop (Section 3.5); reductions must go through
    // combine blocks.
    if (!InCombine && B->ForDepthAtDef < ForStack.size()) {
      diag(ErrorKind::Type,
           "cannot assign to '" + A.name() +
               "' defined outside the enclosing doall for loop; use a "
               "combine block for reductions",
           A.loc());
    }
    TypeRef ValTy = checkExpr(A.value());
    if (!B->Ty->accepts(*ValTy) && !B->Ty->isIdx())
      diag(ErrorKind::Type,
           "cannot assign value of type " + ValTy->str() +
               " to variable of type " + B->Ty->str(),
           A.loc());
  }

  void checkReduceAssign(ReduceAssignCmd &R) {
    Binding *B = lookup(R.name());
    if (!B || B->K == Binding::Mem || B->K == Binding::View) {
      diag(ErrorKind::Type,
           "reducer target '" + R.name() + "' must be a scalar variable",
           R.loc());
      checkExpr(R.value());
      return;
    }
    if (InCombine) {
      // Built-in reducer folding the combine registers of the unrolled
      // bodies into the accumulator (Section 3.5).
      bool Saved = InReducerRHS;
      InReducerRHS = true;
      TypeRef ValTy = checkExpr(R.value());
      InReducerRHS = Saved;
      if (!B->Ty->accepts(*ValTy))
        diag(ErrorKind::Type,
             "cannot reduce value of type " + ValTy->str() +
                 " into accumulator of type " + B->Ty->str(),
             R.loc());
      return;
    }
    // Outside combine blocks, x += e is sugar for x := x op e and obeys the
    // same doall restriction.
    if (B->ForDepthAtDef < ForStack.size()) {
      diag(ErrorKind::Type,
           "cannot reduce into '" + R.name() +
               "' defined outside the enclosing doall for loop; use a "
               "combine block",
           R.loc());
    }
    TypeRef ValTy = checkExpr(R.value());
    if (!B->Ty->accepts(*ValTy))
      diag(ErrorKind::Type,
           "cannot reduce value of type " + ValTy->str() +
               " into accumulator of type " + B->Ty->str(),
           R.loc());
  }

  void checkStore(StoreCmd &S) {
    // Evaluate the value first (its reads happen in the same time step).
    TypeRef ValTy = checkExpr(S.value());
    TypeRef ElemTy;
    if (auto *A = S.target().as<AccessExpr>()) {
      ElemTy = checkAccess(*A, /*IsWrite=*/true);
      A->setType(ElemTy);
    } else if (auto *PA = S.target().as<PhysAccessExpr>()) {
      ElemTy = checkPhysAccess(*PA, /*IsWrite=*/true);
      PA->setType(ElemTy);
    } else {
      diag(ErrorKind::Type, "store target must be a memory access", S.loc());
      return;
    }
    if (!ElemTy->accepts(*ValTy))
      diag(ErrorKind::Type,
           "cannot store value of type " + ValTy->str() +
               " into memory of element type " + ElemTy->str(),
           S.loc());
  }

  void checkSeq(SeqCmd &S) {
    // Ordered composition: every step starts from the entry resources;
    // afterwards, anything consumed by any step counts as consumed. The
    // first step shares the surrounding time step's read capabilities;
    // `---` discards capabilities for the later steps (Section 3.1).
    StepSnapshot Entry = snapshot();
    std::map<std::string, MemState> Merged = Entry.Delta;
    bool First = true;
    for (CmdPtr &Step : S.cmds()) {
      Delta = Entry.Delta;
      ReadCaps = First ? Entry.ReadCaps : std::set<std::string>();
      First = false;
      checkCmd(*Step);
      mergeDeltaMax(Merged, Delta);
    }
    Delta = std::move(Merged);
    ReadCaps = Entry.ReadCaps;
  }

  void checkFunction(FuncDef &F) {
    // Closed world: the function sees only its parameters.
    auto SavedDelta = std::move(Delta);
    auto SavedCaps = std::move(ReadCaps);
    auto SavedFor = std::move(ForStack);
    size_t SavedWhileDepth = WhileForDepth;
    Delta.clear();
    ReadCaps.clear();
    ForStack.clear();
    WhileForDepth = NotInWhile;
    pushScope();
    for (const FuncParam &P : F.Params) {
      if (P.Ty->isMem()) {
        declareMemory(P.Name, P.Ty, F.Loc);
        continue;
      }
      Binding B;
      B.K = Binding::Var;
      B.Ty = P.Ty;
      declare(P.Name, std::move(B), F.Loc);
    }
    if (F.Body)
      checkCmd(*F.Body);
    popScope();
    Delta = std::move(SavedDelta);
    ReadCaps = std::move(SavedCaps);
    ForStack = std::move(SavedFor);
    WhileForDepth = SavedWhileDepth;
  }
};

} // namespace

std::vector<Error> dahlia::typeCheck(Program &P) {
  return Checker().runProgram(P);
}

std::vector<Error> dahlia::typeCheck(Cmd &C) {
  return Checker().runCommand(C);
}
