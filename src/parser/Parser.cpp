//===- Parser.cpp - Dahlia parser -------------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "lexer/Lexer.h"
#include "support/StringUtils.h"

using namespace dahlia;

namespace {

/// Recursive-descent parser over a pre-lexed token stream. The tokens view
/// the source, which outlives the parser; names are copied out only where
/// an AST node stores them.
class Parser {
public:
  explicit Parser(std::vector<Token> Toks) : Toks(std::move(Toks)) {}

  Result<Program> parseProgramTop() {
    Program P;
    while (true) {
      if (at(TokKind::KwDef)) {
        Result<FuncDef> F = parseFuncDef();
        if (!F)
          return F.error();
        P.Funcs.push_back(F.take());
        continue;
      }
      if (at(TokKind::KwDecl)) {
        Result<ExternDecl> D = parseExternDecl();
        if (!D)
          return D.error();
        P.Decls.push_back(D.take());
        continue;
      }
      break;
    }
    if (!at(TokKind::Eof)) {
      Result<CmdPtr> Body = parseCmdSeq(TokKind::Eof);
      if (!Body)
        return Body.error();
      P.Body = Body.take();
    } else {
      P.Body = std::make_unique<SkipCmd>(cur().Loc);
    }
    if (ResultVoid R = expect(TokKind::Eof); !R)
      return R.error();
    return P;
  }

  Result<CmdPtr> parseCommandTop() {
    Result<CmdPtr> C = parseCmdSeq(TokKind::Eof);
    if (!C)
      return C.error();
    if (ResultVoid R = expect(TokKind::Eof); !R)
      return R.error();
    return C;
  }

  Result<ExprPtr> parseExpressionTop() {
    Result<ExprPtr> E = parseExpr();
    if (!E)
      return E.error();
    if (ResultVoid R = expect(TokKind::Eof); !R)
      return R.error();
    return E;
  }

  Result<TypeRef> parseTypeTop() {
    Result<TypeRef> T = parseTypeRef();
    if (!T)
      return T.error();
    if (ResultVoid R = expect(TokKind::Eof); !R)
      return R.error();
    return T;
  }

private:
  std::vector<Token> Toks;
  size_t Pos = 0;

  /// Recursion guard shared by expression and block nesting. Without it,
  /// a hostile input of 100k '(' or '{' characters overflows the stack
  /// inside the recursive descent before any other limit applies. 256
  /// levels is far past any legitimate program and well inside the
  /// smallest default thread stack.
  int Depth = 0;
  static constexpr int MaxDepth = 256;
  struct DepthGuard {
    int &D;
    explicit DepthGuard(int &D) : D(D) { ++D; }
    ~DepthGuard() { --D; }
  };

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(TokKind K) const { return cur().is(K); }

  const Token &eat() {
    const Token &T = cur();
    if (Pos + 1 < Toks.size())
      ++Pos;
    return T;
  }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    eat();
    return true;
  }

  Error err(std::string Msg) const {
    return Error(ErrorKind::Parse, std::move(Msg), cur().Loc);
  }

  /// "expected <what> but found <current token kind>".
  Error errExpected(std::string_view What) const {
    return err(
        concat("expected ", What, " but found ", tokKindName(cur().Kind)));
  }

  ResultVoid expect(TokKind K) {
    if (accept(K))
      return ResultVoid();
    return errExpected(tokKindName(K));
  }

  Result<std::string> expectIdent() {
    if (!at(TokKind::Ident))
      return errExpected("identifier");
    return std::string(eat().Text);
  }

  Result<int64_t> expectInt() {
    if (!at(TokKind::IntLit))
      return errExpected("integer literal");
    return eat().IntValue;
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  Result<TypeRef> parseTypeRef() {
    Result<TypeRef> Base = parseBaseType();
    if (!Base)
      return Base;
    TypeRef Elem = Base.take();
    unsigned Ports = 1;
    // Only treat `{` as a port annotation when it encloses a bare integer;
    // otherwise it starts a function body (e.g. `def f(): float { ... }`).
    if (at(TokKind::LBrace) && peek(1).is(TokKind::IntLit) &&
        peek(2).is(TokKind::RBrace)) {
      eat();
      Result<int64_t> N = expectInt();
      if (!N)
        return N.error();
      if (*N < 1)
        return err("port count must be at least 1");
      Ports = static_cast<unsigned>(*N);
      if (ResultVoid R = expect(TokKind::RBrace); !R)
        return R.error();
    }
    std::vector<MemDim> Dims;
    while (accept(TokKind::LBracket)) {
      Result<int64_t> Size = expectInt();
      if (!Size)
        return Size.error();
      MemDim D;
      D.Size = *Size;
      if (accept(TokKind::KwBank)) {
        Result<int64_t> Banks = expectInt();
        if (!Banks)
          return Banks.error();
        D.Banks = *Banks;
      }
      if (ResultVoid R = expect(TokKind::RBracket); !R)
        return R.error();
      Dims.push_back(D);
    }
    if (Dims.empty()) {
      if (Ports != 1)
        return err("port annotation requires a memory type");
      return Elem;
    }
    return Type::getMem(std::move(Elem), std::move(Dims), Ports);
  }

  Result<TypeRef> parseBaseType() {
    if (!at(TokKind::Ident))
      return errExpected("type");
    std::string_view Name = eat().Text;
    if (Name == "bool")
      return Type::getBool();
    if (Name == "float")
      return Type::getFloat();
    if (Name == "double")
      return Type::getDouble();
    if (Name == "bit" || Name == "ubit") {
      if (ResultVoid R = expect(TokKind::Lt); !R)
        return R.error();
      Result<int64_t> W = expectInt();
      if (!W)
        return W.error();
      if (*W < 1 || *W > 64)
        return err("bit width must be between 1 and 64");
      if (ResultVoid R = expect(TokKind::Gt); !R)
        return R.error();
      return Type::getBit(static_cast<unsigned>(*W), Name == "bit");
    }
    return err(concat("unknown type '", Name, "'"));
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  Result<ExprPtr> parseExpr() {
    if (Depth >= MaxDepth)
      return err(concat("expression nesting exceeds ", MaxDepth, " levels"));
    DepthGuard G(Depth);
    return parseOr();
  }

  Result<ExprPtr> parseOr() {
    Result<ExprPtr> L = parseAnd();
    if (!L)
      return L;
    ExprPtr LHS = L.take();
    while (at(TokKind::OrOr)) {
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> R = parseAnd();
      if (!R)
        return R;
      LHS = std::make_unique<BinOpExpr>(BinOpKind::Or, std::move(LHS),
                                        R.take(), Loc);
    }
    return LHS;
  }

  Result<ExprPtr> parseAnd() {
    Result<ExprPtr> L = parseCmp();
    if (!L)
      return L;
    ExprPtr LHS = L.take();
    while (at(TokKind::AndAnd)) {
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> R = parseCmp();
      if (!R)
        return R;
      LHS = std::make_unique<BinOpExpr>(BinOpKind::And, std::move(LHS),
                                        R.take(), Loc);
    }
    return LHS;
  }

  Result<ExprPtr> parseCmp() {
    Result<ExprPtr> L = parseAdd();
    if (!L)
      return L;
    ExprPtr LHS = L.take();
    while (true) {
      BinOpKind Op;
      switch (cur().Kind) {
      case TokKind::EqEq:
        Op = BinOpKind::Eq;
        break;
      case TokKind::NotEq:
        Op = BinOpKind::Neq;
        break;
      case TokKind::Lt:
        Op = BinOpKind::Lt;
        break;
      case TokKind::Gt:
        Op = BinOpKind::Gt;
        break;
      case TokKind::Le:
        Op = BinOpKind::Le;
        break;
      case TokKind::Ge:
        Op = BinOpKind::Ge;
        break;
      default:
        return LHS;
      }
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> R = parseAdd();
      if (!R)
        return R;
      LHS = std::make_unique<BinOpExpr>(Op, std::move(LHS), R.take(), Loc);
    }
  }

  Result<ExprPtr> parseAdd() {
    Result<ExprPtr> L = parseMul();
    if (!L)
      return L;
    ExprPtr LHS = L.take();
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      BinOpKind Op = at(TokKind::Plus) ? BinOpKind::Add : BinOpKind::Sub;
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> R = parseMul();
      if (!R)
        return R;
      LHS = std::make_unique<BinOpExpr>(Op, std::move(LHS), R.take(), Loc);
    }
    return LHS;
  }

  Result<ExprPtr> parseMul() {
    Result<ExprPtr> L = parseUnary();
    if (!L)
      return L;
    ExprPtr LHS = L.take();
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      BinOpKind Op = at(TokKind::Star)    ? BinOpKind::Mul
                     : at(TokKind::Slash) ? BinOpKind::Div
                                          : BinOpKind::Mod;
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> R = parseUnary();
      if (!R)
        return R;
      LHS = std::make_unique<BinOpExpr>(Op, std::move(LHS), R.take(), Loc);
    }
    return LHS;
  }

  Result<ExprPtr> parseUnary() {
    if (at(TokKind::Minus)) {
      SourceLoc Loc = eat().Loc;
      Result<ExprPtr> E = parseUnary();
      if (!E)
        return E;
      // Negation desugars to 0 - e.
      return ExprPtr(std::make_unique<BinOpExpr>(
          BinOpKind::Sub, std::make_unique<IntLitExpr>(0, Loc), E.take(),
          Loc));
    }
    return parsePostfix();
  }

  Result<ExprPtr> parsePostfix() {
    if (at(TokKind::Ident)) {
      const Token &Id = eat();
      // Function application.
      if (at(TokKind::LParen)) {
        eat();
        std::vector<ExprPtr> Args;
        if (!at(TokKind::RParen)) {
          while (true) {
            Result<ExprPtr> A = parseExpr();
            if (!A)
              return A;
            Args.push_back(A.take());
            if (!accept(TokKind::Comma))
              break;
          }
        }
        if (ResultVoid R = expect(TokKind::RParen); !R)
          return R.error();
        return ExprPtr(
            std::make_unique<AppExpr>(std::string(Id.Text), std::move(Args),
                                      Id.Loc));
      }
      // Physical access A{b}[i].
      if (at(TokKind::LBrace)) {
        eat();
        Result<ExprPtr> Bank = parseExpr();
        if (!Bank)
          return Bank;
        if (ResultVoid R = expect(TokKind::RBrace); !R)
          return R.error();
        if (ResultVoid R = expect(TokKind::LBracket); !R)
          return R.error();
        Result<ExprPtr> Off = parseExpr();
        if (!Off)
          return Off;
        if (ResultVoid R = expect(TokKind::RBracket); !R)
          return R.error();
        return ExprPtr(std::make_unique<PhysAccessExpr>(
            std::string(Id.Text), Bank.take(), Off.take(), Id.Loc));
      }
      // Logical access A[e][e']...
      if (at(TokKind::LBracket)) {
        std::vector<ExprPtr> Indices;
        while (accept(TokKind::LBracket)) {
          Result<ExprPtr> I = parseExpr();
          if (!I)
            return I;
          Indices.push_back(I.take());
          if (ResultVoid R = expect(TokKind::RBracket); !R)
            return R.error();
        }
        return ExprPtr(std::make_unique<AccessExpr>(
            std::string(Id.Text), std::move(Indices), Id.Loc));
      }
      return ExprPtr(
          std::make_unique<VarExpr>(std::string(Id.Text), Id.Loc));
    }
    return parsePrimary();
  }

  Result<ExprPtr> parsePrimary() {
    switch (cur().Kind) {
    case TokKind::IntLit: {
      const Token &T = eat();
      return ExprPtr(std::make_unique<IntLitExpr>(T.IntValue, T.Loc));
    }
    case TokKind::FloatLit: {
      const Token &T = eat();
      return ExprPtr(std::make_unique<FloatLitExpr>(T.FloatValue, T.Loc));
    }
    case TokKind::KwTrue: {
      const Token &T = eat();
      return ExprPtr(std::make_unique<BoolLitExpr>(true, T.Loc));
    }
    case TokKind::KwFalse: {
      const Token &T = eat();
      return ExprPtr(std::make_unique<BoolLitExpr>(false, T.Loc));
    }
    case TokKind::LParen: {
      eat();
      Result<ExprPtr> E = parseExpr();
      if (!E)
        return E;
      if (ResultVoid R = expect(TokKind::RParen); !R)
        return R.error();
      return E;
    }
    default:
      return errExpected("expression");
    }
  }

  //===--------------------------------------------------------------------===//
  // Commands
  //===--------------------------------------------------------------------===//

  /// cmd := par ('---' par)*, up to (not including) \p Stop.
  Result<CmdPtr> parseCmdSeq(TokKind Stop) {
    SourceLoc Loc = cur().Loc;
    std::vector<CmdPtr> Steps;
    while (true) {
      Result<CmdPtr> P = parseParGroup(Stop);
      if (!P)
        return P;
      Steps.push_back(P.take());
      if (!accept(TokKind::SeqSep))
        break;
    }
    if (Steps.size() == 1)
      return std::move(Steps.front());
    return CmdPtr(std::make_unique<SeqCmd>(std::move(Steps), Loc));
  }

  /// par := stmt* — adjacency is unordered composition; ';' terminators are
  /// optional after block-shaped statements.
  Result<CmdPtr> parseParGroup(TokKind Stop) {
    SourceLoc Loc = cur().Loc;
    std::vector<CmdPtr> Stmts;
    while (!at(Stop) && !at(TokKind::SeqSep) && !at(TokKind::Eof)) {
      Result<CmdPtr> S = parseStmt();
      if (!S)
        return S;
      Stmts.push_back(S.take());
      accept(TokKind::Semi);
    }
    if (Stmts.empty())
      return CmdPtr(std::make_unique<SkipCmd>(Loc));
    if (Stmts.size() == 1)
      return std::move(Stmts.front());
    return CmdPtr(std::make_unique<ParCmd>(std::move(Stmts), Loc));
  }

  Result<CmdPtr> parseStmt() {
    switch (cur().Kind) {
    case TokKind::KwLet:
      return parseLet();
    case TokKind::KwView:
      return parseView();
    case TokKind::KwIf:
      return parseIf();
    case TokKind::KwWhile:
      return parseWhile();
    case TokKind::KwFor:
      return parseFor();
    case TokKind::KwSkip: {
      const Token &T = eat();
      return CmdPtr(std::make_unique<SkipCmd>(T.Loc));
    }
    case TokKind::LBrace:
      return parseBlock();
    default:
      return parseAssignLike();
    }
  }

  Result<CmdPtr> parseBlock() {
    if (Depth >= MaxDepth)
      return err(concat("block nesting exceeds ", MaxDepth, " levels"));
    DepthGuard G(Depth);
    SourceLoc Loc = cur().Loc;
    if (ResultVoid R = expect(TokKind::LBrace); !R)
      return R.error();
    Result<CmdPtr> Body = parseCmdSeq(TokKind::RBrace);
    if (!Body)
      return Body;
    if (ResultVoid R = expect(TokKind::RBrace); !R)
      return R.error();
    return CmdPtr(std::make_unique<BlockCmd>(Body.take(), Loc));
  }

  /// let x [: T] [= e] | let x, y, ... : T
  Result<CmdPtr> parseLet() {
    SourceLoc Loc = eat().Loc; // let
    std::vector<std::string> Names;
    while (true) {
      Result<std::string> N = expectIdent();
      if (!N)
        return N.error();
      Names.push_back(N.take());
      if (!accept(TokKind::Comma))
        break;
    }
    TypeRef DeclType;
    if (accept(TokKind::Colon)) {
      Result<TypeRef> T = parseTypeRef();
      if (!T)
        return T.error();
      DeclType = T.take();
    }
    ExprPtr Init;
    if (accept(TokKind::Equal)) {
      if (Names.size() > 1)
        return err("multi-name let cannot have an initializer");
      Result<ExprPtr> E = parseExpr();
      if (!E)
        return E.error();
      Init = E.take();
    }
    if (!DeclType && !Init)
      return err("let declaration needs a type or an initializer");
    if (Names.size() == 1)
      return CmdPtr(std::make_unique<LetCmd>(std::move(Names.front()),
                                             DeclType, std::move(Init), Loc));
    std::vector<CmdPtr> Lets;
    for (std::string &N : Names)
      Lets.push_back(
          std::make_unique<LetCmd>(std::move(N), DeclType, nullptr, Loc));
    return CmdPtr(std::make_unique<ParCmd>(std::move(Lets), Loc));
  }

  /// view v[, v2...] = <kind> M[by p]... [, M2[by p]...]
  Result<CmdPtr> parseView() {
    SourceLoc Loc = eat().Loc; // view
    std::vector<std::string> Names;
    while (true) {
      Result<std::string> N = expectIdent();
      if (!N)
        return N.error();
      Names.push_back(N.take());
      if (!accept(TokKind::Comma))
        break;
    }
    if (ResultVoid R = expect(TokKind::Equal); !R)
      return R.error();
    ViewKind VK;
    switch (cur().Kind) {
    case TokKind::KwShrink:
      VK = ViewKind::Shrink;
      break;
    case TokKind::KwSuffix:
      VK = ViewKind::Suffix;
      break;
    case TokKind::KwShift:
      VK = ViewKind::Shift;
      break;
    case TokKind::KwSplit:
      VK = ViewKind::Split;
      break;
    default:
      return err("expected view kind (shrink, suffix, shift, split)");
    }
    eat();

    std::vector<CmdPtr> Views;
    for (size_t VI = 0; VI != Names.size(); ++VI) {
      Result<std::string> Mem = expectIdent();
      if (!Mem)
        return Mem.error();
      std::vector<ViewDimParam> Params;
      while (accept(TokKind::LBracket)) {
        if (ResultVoid R = expect(TokKind::KwBy); !R)
          return R.error();
        ViewDimParam P;
        if (VK == ViewKind::Shrink || VK == ViewKind::Split) {
          Result<int64_t> F = expectInt();
          if (!F)
            return F.error();
          P.Factor = *F;
        } else {
          Result<ExprPtr> Off = parseExpr();
          if (!Off)
            return Off.error();
          P.Offset = Off.take();
        }
        if (ResultVoid R = expect(TokKind::RBracket); !R)
          return R.error();
        Params.push_back(std::move(P));
      }
      if (Params.empty())
        return err("view declaration needs at least one [by ...] parameter");
      Views.push_back(std::make_unique<ViewCmd>(Names[VI], VK, Mem.take(),
                                                std::move(Params), Loc));
      if (VI + 1 != Names.size())
        if (ResultVoid R = expect(TokKind::Comma); !R)
          return R.error();
    }
    if (Views.size() == 1)
      return std::move(Views.front());
    return CmdPtr(std::make_unique<ParCmd>(std::move(Views), Loc));
  }

  Result<CmdPtr> parseIf() {
    SourceLoc Loc = eat().Loc; // if
    if (ResultVoid R = expect(TokKind::LParen); !R)
      return R.error();
    Result<ExprPtr> Cond = parseExpr();
    if (!Cond)
      return Cond.error();
    if (ResultVoid R = expect(TokKind::RParen); !R)
      return R.error();
    Result<CmdPtr> Then = parseBlock();
    if (!Then)
      return Then;
    CmdPtr Else;
    if (accept(TokKind::KwElse)) {
      Result<CmdPtr> E =
          at(TokKind::KwIf) ? parseIf() : parseBlock();
      if (!E)
        return E;
      Else = E.take();
    }
    return CmdPtr(std::make_unique<IfCmd>(Cond.take(), Then.take(),
                                          std::move(Else), Loc));
  }

  Result<CmdPtr> parseWhile() {
    SourceLoc Loc = eat().Loc; // while
    if (ResultVoid R = expect(TokKind::LParen); !R)
      return R.error();
    Result<ExprPtr> Cond = parseExpr();
    if (!Cond)
      return Cond.error();
    if (ResultVoid R = expect(TokKind::RParen); !R)
      return R.error();
    Result<CmdPtr> Body = parseBlock();
    if (!Body)
      return Body;
    return CmdPtr(
        std::make_unique<WhileCmd>(Cond.take(), Body.take(), Loc));
  }

  /// for (let i = lo..hi) [unroll k] block [combine block]
  Result<CmdPtr> parseFor() {
    SourceLoc Loc = eat().Loc; // for
    if (ResultVoid R = expect(TokKind::LParen); !R)
      return R.error();
    if (ResultVoid R = expect(TokKind::KwLet); !R)
      return R.error();
    Result<std::string> Iter = expectIdent();
    if (!Iter)
      return Iter.error();
    if (ResultVoid R = expect(TokKind::Equal); !R)
      return R.error();
    Result<int64_t> Lo = expectInt();
    if (!Lo)
      return Lo.error();
    if (ResultVoid R = expect(TokKind::DotDot); !R)
      return R.error();
    Result<int64_t> Hi = expectInt();
    if (!Hi)
      return Hi.error();
    if (ResultVoid R = expect(TokKind::RParen); !R)
      return R.error();
    int64_t Unroll = 1;
    if (accept(TokKind::KwUnroll)) {
      Result<int64_t> U = expectInt();
      if (!U)
        return U.error();
      Unroll = *U;
    }
    Result<CmdPtr> Body = parseBlock();
    if (!Body)
      return Body;
    CmdPtr Combine;
    if (accept(TokKind::KwCombine)) {
      Result<CmdPtr> C = parseBlock();
      if (!C)
        return C;
      Combine = C.take();
    }
    return CmdPtr(std::make_unique<ForCmd>(Iter.take(), *Lo, *Hi, Unroll,
                                           Body.take(), std::move(Combine),
                                           Loc));
  }

  /// assign := lvalue ':=' expr | x op= expr | expr
  Result<CmdPtr> parseAssignLike() {
    SourceLoc Loc = cur().Loc;
    Result<ExprPtr> E = parseExpr();
    if (!E)
      return E.error();
    ExprPtr Target = E.take();
    if (accept(TokKind::Assign)) {
      Result<ExprPtr> V = parseExpr();
      if (!V)
        return V.error();
      if (auto *Var = Target->as<VarExpr>())
        return CmdPtr(
            std::make_unique<AssignCmd>(Var->name(), V.take(), Loc));
      if (Target->as<AccessExpr>() || Target->as<PhysAccessExpr>())
        return CmdPtr(std::make_unique<StoreCmd>(std::move(Target), V.take(),
                                                 Loc));
      return err("left-hand side of ':=' must be a variable or memory "
                 "access");
    }
    BinOpKind ReduceOp;
    bool IsReduce = true;
    switch (cur().Kind) {
    case TokKind::PlusEq:
      ReduceOp = BinOpKind::Add;
      break;
    case TokKind::MinusEq:
      ReduceOp = BinOpKind::Sub;
      break;
    case TokKind::StarEq:
      ReduceOp = BinOpKind::Mul;
      break;
    case TokKind::SlashEq:
      ReduceOp = BinOpKind::Div;
      break;
    default:
      IsReduce = false;
      break;
    }
    if (IsReduce) {
      eat();
      auto *Var = Target->as<VarExpr>();
      if (!Var)
        return err("left-hand side of a reducer must be a variable");
      Result<ExprPtr> V = parseExpr();
      if (!V)
        return V.error();
      return CmdPtr(std::make_unique<ReduceAssignCmd>(ReduceOp, Var->name(),
                                                      V.take(), Loc));
    }
    return CmdPtr(std::make_unique<ExprCmd>(std::move(Target), Loc));
  }

  //===--------------------------------------------------------------------===//
  // Top-level declarations
  //===--------------------------------------------------------------------===//

  Result<FuncDef> parseFuncDef() {
    FuncDef F;
    F.Loc = eat().Loc; // def
    Result<std::string> Name = expectIdent();
    if (!Name)
      return Name.error();
    F.Name = Name.take();
    if (ResultVoid R = expect(TokKind::LParen); !R)
      return R.error();
    if (!at(TokKind::RParen)) {
      while (true) {
        Result<std::string> PN = expectIdent();
        if (!PN)
          return PN.error();
        if (ResultVoid R = expect(TokKind::Colon); !R)
          return R.error();
        Result<TypeRef> PT = parseTypeRef();
        if (!PT)
          return PT.error();
        F.Params.push_back({PN.take(), PT.take()});
        if (!accept(TokKind::Comma))
          break;
      }
    }
    if (ResultVoid R = expect(TokKind::RParen); !R)
      return R.error();
    if (accept(TokKind::Colon)) {
      Result<TypeRef> RT = parseTypeRef();
      if (!RT)
        return RT.error();
      F.RetTy = RT.take();
    } else {
      F.RetTy = Type::getVoid();
    }
    // Accept the Dahlia `= { ... }` form as well as a bare block.
    accept(TokKind::Equal);
    Result<CmdPtr> Body = parseBlock();
    if (!Body)
      return Body.error();
    F.Body = Body.take();
    return F;
  }

  Result<ExternDecl> parseExternDecl() {
    ExternDecl D;
    D.Loc = eat().Loc; // decl
    Result<std::string> Name = expectIdent();
    if (!Name)
      return Name.error();
    D.Name = Name.take();
    if (ResultVoid R = expect(TokKind::Colon); !R)
      return R.error();
    Result<TypeRef> T = parseTypeRef();
    if (!T)
      return T.error();
    D.Ty = T.take();
    if (ResultVoid R = expect(TokKind::Semi); !R)
      return R.error();
    return D;
  }
};

template <typename T>
static Result<T> withTokens(std::string_view Source,
                            Result<T> (Parser::*Fn)()) {
  Result<std::vector<Token>> Toks = lex(Source);
  if (!Toks)
    return Toks.error();
  Parser P(Toks.take());
  return (P.*Fn)();
}

} // namespace

Result<Program> dahlia::parseProgram(std::string_view Source) {
  return withTokens<Program>(Source, &Parser::parseProgramTop);
}

Result<CmdPtr> dahlia::parseCommand(std::string_view Source) {
  return withTokens<CmdPtr>(Source, &Parser::parseCommandTop);
}

Result<ExprPtr> dahlia::parseExpression(std::string_view Source) {
  return withTokens<ExprPtr>(Source, &Parser::parseExpressionTop);
}

Result<TypeRef> dahlia::parseType(std::string_view Source) {
  return withTokens<TypeRef>(Source, &Parser::parseTypeTop);
}
