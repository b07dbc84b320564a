//===- SpecExtractor.cpp - Program -> hlsim kernel spec ---------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "driver/SpecExtractor.h"

#include "hlsim/KernelAnalysis.h"

#include <map>
#include <optional>
#include <string>

using namespace dahlia;
using namespace dahlia::driver;
using hlsim::AffineExpr;

namespace {

unsigned elemBits(const Type &Elem) {
  switch (Elem.kind()) {
  case TypeKind::Bool:
    return 1;
  case TypeKind::Float:
    return 32;
  case TypeKind::Double:
    return 64;
  case TypeKind::Bit:
    return Elem.bitWidth();
  default:
    return 32;
  }
}

/// Walks the program, accumulating the spec. Views are resolved to their
/// root memory so accesses count against the real banks.
///
/// Every top-level loop starts its own nest (multi-phase kernels like
/// md-knn's hoisted gather followed by its force computation record both
/// phases), and `while` loops whose trip count has a derivable static
/// bound (`let i = C; while (i < N) { ... i := i + s; }`) become serial
/// nest levels with that bound — the kmp stream walk is a loop nest now,
/// not dead weight. Within a nest the modelling stays best-effort: the
/// first loop seen at each depth defines the nest's levels; sibling loops
/// contribute their accesses and ops but no extra levels.
class Extractor {
public:
  void visitCmd(const Cmd &C) {
    switch (C.kind()) {
    case CmdKind::Let: {
      const auto &L = *C.as<LetCmd>();
      if (L.init()) {
        visitExpr(*L.init());
        // Track constant integer bindings: they seed while-loop
        // trip-count bounds ("let i = 0; while (i < N)").
        if (const auto *Lit = L.init()->as<IntLitExpr>())
          ConstInits[L.name()] = Lit->value();
      }
      break;
    }
    case CmdKind::View: {
      const auto &V = *C.as<ViewCmd>();
      // Resolve transitively: a view over a view reaches the root memory.
      auto It = ViewRoot.find(V.mem());
      ViewRoot[V.name()] = It != ViewRoot.end() ? It->second : V.mem();
      break;
    }
    case CmdKind::If: {
      const auto &I = *C.as<IfCmd>();
      visitExpr(I.cond());
      visitCmd(I.thenCmd());
      if (I.elseCmd())
        visitCmd(*I.elseCmd());
      break;
    }
    case CmdKind::While: {
      const auto &W = *C.as<WhileCmd>();
      visitExpr(W.cond());
      std::optional<WhileInfo> Bound = whileBound(W);
      if (Bound) {
        beginTopLevelNestIfNeeded();
        if (Depth == cur().Loops.size())
          cur().Loops.push_back(
              {Bound->Var, Bound->Trips, /*Unroll=*/1, /*IsWhile=*/true});
        ++Depth;
        visitCmd(W.body());
        --Depth;
        // The body's write to the counter erased its entry; for the
        // counted shape the exit value is known exactly, so sequential
        // whiles over the same counter derive correct bounds.
        ConstInits[Bound->Var] = Bound->ExitValue;
      } else {
        // No static bound: the body's accesses and ops still count, but
        // the loop contributes no nest level (legacy best-effort).
        visitCmd(W.body());
      }
      break;
    }
    case CmdKind::For: {
      const auto &F = *C.as<ForCmd>();
      beginTopLevelNestIfNeeded();
      if (Depth == cur().Loops.size())
        cur().Loops.push_back({F.iter(), F.hi() - F.lo(), F.unroll()});
      ++Depth;
      visitCmd(F.body());
      if (F.combine()) {
        cur().HasAccumulator = true;
        visitCmd(*F.combine());
      }
      --Depth;
      break;
    }
    case CmdKind::Assign: {
      const auto &A = *C.as<AssignCmd>();
      // Any write invalidates a tracked constant binding: a while bound
      // must never be derived from a stale `let` init. (Writes are not
      // re-tracked even for constant values — they may be conditional.)
      ConstInits.erase(A.name());
      visitExpr(A.value());
      break;
    }
    case CmdKind::ReduceAssign: {
      const auto &R = *C.as<ReduceAssignCmd>();
      ConstInits.erase(R.name());
      countOp(R.op());
      visitExpr(R.value());
      break;
    }
    case CmdKind::Store: {
      const auto &S = *C.as<StoreCmd>();
      visitAccess(S.target(), /*IsWrite=*/true);
      visitExpr(S.value());
      break;
    }
    case CmdKind::Expr:
      visitExpr(C.as<ExprCmd>()->expr());
      break;
    case CmdKind::Seq:
      for (const CmdPtr &Sub : C.as<SeqCmd>()->cmds())
        visitCmd(*Sub);
      break;
    case CmdKind::Par:
      for (const CmdPtr &Sub : C.as<ParCmd>()->cmds())
        visitCmd(*Sub);
      break;
    case CmdKind::Block:
      visitCmd(C.as<BlockCmd>()->body());
      break;
    case CmdKind::Skip:
      break;
    }
  }

  void visitExpr(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::BinOp: {
      const auto &B = *E.as<BinOpExpr>();
      countOp(B.op());
      visitExpr(B.lhs());
      visitExpr(B.rhs());
      break;
    }
    case ExprKind::Access:
    case ExprKind::PhysAccess:
      visitAccess(E, /*IsWrite=*/false);
      break;
    case ExprKind::App:
      for (const ExprPtr &A : E.as<AppExpr>()->args())
        visitExpr(*A);
      break;
    case ExprKind::FloatLit:
      FloatingPoint = true;
      break;
    default:
      break;
    }
    if (E.type() && (E.type()->isFloat() || E.type()->isDouble()))
      FloatingPoint = true;
  }

  /// Moves the accumulated nests into \p K: the first nest fills the flat
  /// legacy fields, the rest become ExtraNests.
  void finish(hlsim::KernelSpec &K) {
    if (FloatingPoint)
      K.FloatingPoint = true;
    if (Nests.empty())
      return;
    hlsim::LoopNest &First = Nests.front();
    K.Loops = std::move(First.Loops);
    K.Body = std::move(First.Body);
    K.MulOps = First.MulOps;
    K.AddOps = First.AddOps;
    K.HasAccumulator = First.HasAccumulator;
    K.IterationLatency = First.IterationLatency;
    K.ExtraNests.assign(std::make_move_iterator(Nests.begin() + 1),
                        std::make_move_iterator(Nests.end()));
  }

  /// Partition factors of the memories the program declares; accesses to
  /// anything else (local registers) are not memory traffic.
  std::map<std::string, std::vector<int64_t>> KnownArrays;

private:
  /// The nest currently being extended (created on demand so straight-line
  /// preamble code attaches to the first real nest).
  hlsim::LoopNest &cur() {
    if (Nests.empty())
      Nests.emplace_back();
    return Nests.back();
  }

  /// At the top level, each loop opens a fresh nest — unless the current
  /// nest has no loops yet (then it is the preamble waiting for its first
  /// loop).
  void beginTopLevelNestIfNeeded() {
    if (Depth == 0 && !cur().Loops.empty())
      Nests.emplace_back();
  }

  void countOp(BinOpKind Op) {
    switch (Op) {
    case BinOpKind::Add:
    case BinOpKind::Sub:
      ++cur().AddOps;
      break;
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod:
      ++cur().MulOps;
      break;
    default:
      break;
    }
  }

  void visitAccess(const Expr &E, bool IsWrite) {
    std::string Mem;
    std::vector<AffineExpr> Idx;
    if (const auto *A = E.as<AccessExpr>()) {
      Mem = A->mem();
      for (const ExprPtr &I : A->indices()) {
        Idx.push_back(toAffine(*I));
        visitExpr(*I);
      }
    } else if (const auto *PA = E.as<PhysAccessExpr>()) {
      // Physical accesses never go through views (the checker rejects
      // them), so PA->mem() is the memory itself.
      auto It = KnownArrays.find(PA->mem());
      if (It != KnownArrays.end())
        cur().Body.push_back({PA->mem(),
                              physicalIndex(It->second, toAffine(PA->bank()),
                                            toAffine(PA->offset())),
                              IsWrite});
      return;
    }
    auto It = ViewRoot.find(Mem);
    if (It != ViewRoot.end())
      Mem = It->second;
    if (KnownArrays.count(Mem))
      cur().Body.push_back({Mem, std::move(Idx), IsWrite});
  }

  /// Logical indices for the physical access `m{Bank}[Offset]` into a
  /// memory partitioned by \p Part: one index per dimension whose residue
  /// modulo that dimension's banking is the dimension's share of the
  /// (row-major, statically known) flattened bank — Idx0 = Offset * P0 +
  /// b0 and Idxd = bd — so the cost models charge exactly the bank the
  /// checker charged.
  static std::vector<AffineExpr> physicalIndex(const std::vector<int64_t> &Part,
                                               const AffineExpr &Bank,
                                               AffineExpr Offset) {
    std::vector<AffineExpr> Idx(Part.size());
    int64_t Rest = Bank.Const;
    for (size_t D = Part.size(); D-- > 1;) {
      Idx[D] = AffineExpr::constant(hlsim::floorMod(Rest, Part[D]));
      Rest = (Rest - Idx[D].Const) / Part[D];
    }
    if (!Part.empty()) {
      for (auto &[Var, Coeff] : Offset.Coeffs)
        Coeff *= Part[0];
      Offset.Const = Offset.Const * Part[0] + Rest;
      Idx[0] = std::move(Offset);
    }
    return Idx;
  }

  /// Converts an index expression to affine form; non-affine subterms
  /// degrade to their constant part (the estimator treats unknown loop
  /// variables as 0 anyway).
  AffineExpr toAffine(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      return AffineExpr::constant(E.as<IntLitExpr>()->value());
    case ExprKind::Var:
      return AffineExpr::var(E.as<VarExpr>()->name());
    case ExprKind::BinOp: {
      const auto &B = *E.as<BinOpExpr>();
      AffineExpr L = toAffine(B.lhs());
      AffineExpr R = toAffine(B.rhs());
      switch (B.op()) {
      case BinOpKind::Add:
      case BinOpKind::Sub: {
        int64_t Sign = B.op() == BinOpKind::Add ? 1 : -1;
        for (const auto &[Name, Coeff] : R.Coeffs)
          L.Coeffs[Name] += Sign * Coeff;
        L.Const += Sign * R.Const;
        return L;
      }
      case BinOpKind::Mul: {
        // Affine only when one side is constant.
        const AffineExpr *Var = &L, *Konst = &R;
        if (!L.Coeffs.empty() && !R.Coeffs.empty())
          return AffineExpr::constant(0);
        if (L.Coeffs.empty())
          std::swap(Var, Konst);
        AffineExpr Out;
        for (const auto &[Name, Coeff] : Var->Coeffs)
          Out.Coeffs[Name] = Coeff * Konst->Const;
        Out.Const = Var->Const * Konst->Const;
        return Out;
      }
      default:
        return AffineExpr::constant(0);
      }
    }
    default:
      return AffineExpr::constant(0);
    }
  }

  //===--------------------------------------------------------------------===//
  // While-loop static trip-count bounds
  //===--------------------------------------------------------------------===//

  struct WhileInfo {
    std::string Var;
    int64_t Trips = 0;
    int64_t ExitValue = 0; ///< Counter value after the last iteration.
  };

  /// Recognizes the counted-while shape. Supported: `while (v < C)` /
  /// `while (v <= C)` where v is currently bound to a known constant
  /// integer and the body's only write to v is an *unconditional,
  /// top-level* `v := v + s` (either operand order, constant s > 0). A
  /// write guarded by an `if` or repeated inside a nested loop makes the
  /// trip count data-dependent (or multiplied), so no bound is recorded.
  std::optional<WhileInfo> whileBound(const WhileCmd &W) {
    const auto *Cond = W.cond().as<BinOpExpr>();
    if (!Cond ||
        (Cond->op() != BinOpKind::Lt && Cond->op() != BinOpKind::Le))
      return std::nullopt;
    const auto *V = Cond->lhs().as<VarExpr>();
    const auto *Hi = Cond->rhs().as<IntLitExpr>();
    if (!V || !Hi)
      return std::nullopt;
    auto InitIt = ConstInits.find(V->name());
    if (InitIt == ConstInits.end())
      return std::nullopt;

    std::optional<int64_t> Step;
    bool OpaqueWrite = false;
    findStep(W.body(), V->name(), /*Guarded=*/false, Step, OpaqueWrite);
    if (OpaqueWrite || !Step || *Step <= 0)
      return std::nullopt;

    int64_t Limit = Hi->value() + (Cond->op() == BinOpKind::Le ? 1 : 0);
    int64_t Trips = (Limit - InitIt->second + *Step - 1) / *Step;
    if (Trips <= 0)
      return std::nullopt;
    return WhileInfo{V->name(), Trips, InitIt->second + Trips * *Step};
  }

  /// Scans \p C for writes to \p Var: an unguarded `Var := Var + s` sets
  /// \p Step; anything else writing \p Var — a different form, a second
  /// conflicting step, or any write under a conditional or nested loop
  /// (\p Guarded) — sets \p Opaque.
  void findStep(const Cmd &C, const std::string &Var, bool Guarded,
                std::optional<int64_t> &Step, bool &Opaque) {
    switch (C.kind()) {
    case CmdKind::Assign: {
      const auto &A = *C.as<AssignCmd>();
      if (A.name() != Var)
        return;
      if (const auto *B = A.value().as<BinOpExpr>();
          B && B->op() == BinOpKind::Add && !Guarded) {
        const auto *Lv = B->lhs().as<VarExpr>();
        const auto *Ls = B->rhs().as<IntLitExpr>();
        const auto *Rv = B->rhs().as<VarExpr>();
        const auto *Rs = B->lhs().as<IntLitExpr>();
        int64_t S = 0;
        if (Lv && Lv->name() == Var && Ls)
          S = Ls->value();
        else if (Rv && Rv->name() == Var && Rs)
          S = Rs->value();
        // Exactly ONE unconditional increment: a second write — even an
        // identical one — steps the counter more than once per
        // iteration, so the bound arithmetic below would be wrong.
        if (S > 0 && !Step) {
          Step = S;
          return;
        }
      }
      Opaque = true;
      return;
    }
    case CmdKind::ReduceAssign:
      if (C.as<ReduceAssignCmd>()->name() == Var)
        Opaque = true;
      return;
    case CmdKind::If: {
      // A branch-guarded increment executes data-dependently: any write
      // below is opaque, even in an if without an else.
      const auto &I = *C.as<IfCmd>();
      findStep(I.thenCmd(), Var, /*Guarded=*/true, Step, Opaque);
      if (I.elseCmd())
        findStep(*I.elseCmd(), Var, /*Guarded=*/true, Step, Opaque);
      return;
    }
    case CmdKind::While:
      // A write repeated by an inner loop steps more than once per outer
      // iteration.
      findStep(C.as<WhileCmd>()->body(), Var, /*Guarded=*/true, Step,
               Opaque);
      return;
    case CmdKind::For: {
      const auto &F = *C.as<ForCmd>();
      findStep(F.body(), Var, /*Guarded=*/true, Step, Opaque);
      if (F.combine())
        findStep(*F.combine(), Var, /*Guarded=*/true, Step, Opaque);
      return;
    }
    case CmdKind::Seq:
      for (const CmdPtr &Sub : C.as<SeqCmd>()->cmds())
        findStep(*Sub, Var, Guarded, Step, Opaque);
      return;
    case CmdKind::Par:
      for (const CmdPtr &Sub : C.as<ParCmd>()->cmds())
        findStep(*Sub, Var, Guarded, Step, Opaque);
      return;
    case CmdKind::Block:
      findStep(C.as<BlockCmd>()->body(), Var, Guarded, Step, Opaque);
      return;
    default:
      return;
    }
  }

  std::vector<hlsim::LoopNest> Nests;
  std::map<std::string, std::string> ViewRoot;
  std::map<std::string, int64_t> ConstInits;
  bool FloatingPoint = false;
  size_t Depth = 0;
};

} // namespace

Result<hlsim::KernelSpec>
dahlia::driver::extractKernelSpec(const Program &P, const std::string &Name) {
  hlsim::KernelSpec K;
  K.Name = Name;
  K.FloatingPoint = false;

  Extractor Ex;
  int64_t TotalBanks = 0;
  for (const ExternDecl &D : P.Decls) {
    if (!D.Ty || !D.Ty->isMem())
      continue;
    hlsim::ArraySpec A;
    A.Name = D.Name;
    for (const MemDim &Dim : D.Ty->memDims()) {
      A.DimSizes.push_back(Dim.Size);
      A.Partition.push_back(Dim.Banks);
    }
    A.Ports = D.Ty->memPorts();
    A.ElemBits = elemBits(*D.Ty->memElem());
    if (D.Ty->memElem()->isFloat() || D.Ty->memElem()->isDouble())
      K.FloatingPoint = true;
    // The cost models count bank pressure densely over every bank.
    int64_t Banks = 1;
    for (int64_t P : A.Partition) {
      if (P < 1 || Banks > hlsim::kMaxTotalBanks / P) {
        Banks = hlsim::kMaxTotalBanks + 1;
        break;
      }
      Banks *= P;
    }
    TotalBanks += Banks;
    if (TotalBanks > hlsim::kMaxTotalBanks)
      return Error(ErrorKind::Internal,
                   "cannot estimate memory '" + D.Name +
                       "': the kernel's memories would exceed " +
                       std::to_string(hlsim::kMaxTotalBanks) + " banks",
                   D.Loc);
    Ex.KnownArrays[D.Name] = A.Partition;
    K.Arrays.push_back(std::move(A));
  }

  if (P.Body)
    Ex.visitCmd(*P.Body);
  Ex.finish(K);

  if (K.Arrays.empty() && K.Loops.empty())
    return Error(ErrorKind::Internal,
                 "program has no interface memories or loops to estimate");
  // Views that reshape a memory (split) reach it with another number of
  // indices; the affine cost models cannot attribute such accesses.
  for (size_t NI = 0; NI != K.nestCount(); ++NI)
    for (const hlsim::Access &A : *K.nest(NI).Body) {
      size_t Rank = K.findArray(A.Array)->Partition.size();
      if (A.Idx.size() != Rank)
        return Error(ErrorKind::Internal,
                     "cannot estimate an access to '" + A.Array + "' with " +
                         std::to_string(A.Idx.size()) +
                         " index(es): the memory has " +
                         std::to_string(Rank) + " dimension(s)");
    }
  return K;
}
