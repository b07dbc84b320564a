//===- ASTPrinter.cpp - Dahlia pretty printer -------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"

#include "support/StringUtils.h"

#include <sstream>

using namespace dahlia;

namespace {

/// Stateful printer appending into one string.
class Printer {
public:
  std::string exprStr(const Expr &E) {
    printExprNode(E);
    return take();
  }

  std::string cmdStr(const Cmd &C, unsigned Indent) {
    Level = Indent;
    printCmdNode(C);
    return take();
  }

  std::string programStr(const Program &P) {
    for (const FuncDef &F : P.Funcs) {
      OS << "def " << F.Name << '(';
      for (size_t I = 0; I != F.Params.size(); ++I) {
        if (I != 0)
          OS << ", ";
        OS << F.Params[I].Name << ": " << F.Params[I].Ty->str();
      }
      OS << ')';
      if (F.RetTy && !F.RetTy->isVoid())
        OS << ": " << F.RetTy->str();
      OS << " {\n";
      ++Level;
      printCmdNode(*F.Body);
      OS << '\n';
      --Level;
      OS << "}\n";
    }
    for (const ExternDecl &D : P.Decls)
      OS << "decl " << D.Name << ": " << D.Ty->str() << ";\n";
    if (P.Body) {
      printCmdNode(*P.Body);
      OS << '\n';
    }
    return take();
  }

private:
  StringAppender OS;
  unsigned Level = 0;

  std::string take() { return OS.take(); }

  void indent() {
    for (unsigned I = 0; I != Level; ++I)
      OS << "  ";
  }

  /// Prints a structured-statement body, unwrapping one block layer so the
  /// printed braces do not stack on re-parse.
  void printBody(const Cmd &C) {
    if (const auto *B = C.as<BlockCmd>()) {
      printCmdNode(B->body());
      return;
    }
    printCmdNode(C);
  }

  void printExprNode(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      OS << E.as<IntLitExpr>()->value();
      return;
    case ExprKind::FloatLit: {
      std::ostringstream Tmp;
      Tmp << E.as<FloatLitExpr>()->value();
      std::string S = Tmp.str();
      // Ensure the literal re-lexes as a float.
      if (S.find('.') == std::string::npos &&
          S.find('e') == std::string::npos)
        S += ".0";
      OS << S;
      return;
    }
    case ExprKind::BoolLit:
      OS << (E.as<BoolLitExpr>()->value() ? "true" : "false");
      return;
    case ExprKind::Var:
      OS << E.as<VarExpr>()->name();
      return;
    case ExprKind::BinOp: {
      const auto &B = *E.as<BinOpExpr>();
      OS << '(';
      printExprNode(B.lhs());
      OS << ' ' << binOpSpelling(B.op()) << ' ';
      printExprNode(B.rhs());
      OS << ')';
      return;
    }
    case ExprKind::Access: {
      const auto &A = *E.as<AccessExpr>();
      OS << A.mem();
      for (const ExprPtr &I : A.indices()) {
        OS << '[';
        printExprNode(*I);
        OS << ']';
      }
      return;
    }
    case ExprKind::PhysAccess: {
      const auto &A = *E.as<PhysAccessExpr>();
      OS << A.mem() << '{';
      printExprNode(A.bank());
      OS << "}[";
      printExprNode(A.offset());
      OS << ']';
      return;
    }
    case ExprKind::App: {
      const auto &A = *E.as<AppExpr>();
      OS << A.callee() << '(';
      for (size_t I = 0; I != A.args().size(); ++I) {
        if (I != 0)
          OS << ", ";
        printExprNode(*A.args()[I]);
      }
      OS << ')';
      return;
    }
    }
  }

  void printCmdNode(const Cmd &C) {
    switch (C.kind()) {
    case CmdKind::Let: {
      const auto &L = *C.as<LetCmd>();
      indent();
      OS << "let " << L.name();
      if (L.declType())
        OS << ": " << L.declType()->str();
      if (L.init()) {
        OS << " = ";
        printExprNode(*L.init());
      }
      OS << ';';
      return;
    }
    case CmdKind::View: {
      const auto &V = *C.as<ViewCmd>();
      indent();
      OS << "view " << V.name() << " = " << viewKindName(V.viewKind()) << ' '
         << V.mem();
      for (const ViewDimParam &P : V.params()) {
        OS << "[by ";
        if (P.Offset)
          printExprNode(*P.Offset);
        else
          OS << P.Factor;
        OS << ']';
      }
      OS << ';';
      return;
    }
    case CmdKind::If: {
      const auto &I = *C.as<IfCmd>();
      indent();
      OS << "if (";
      printExprNode(I.cond());
      OS << ") {\n";
      ++Level;
      printBody(I.thenCmd());
      OS << '\n';
      --Level;
      indent();
      OS << '}';
      if (I.elseCmd()) {
        OS << " else {\n";
        ++Level;
        printBody(*I.elseCmd());
        OS << '\n';
        --Level;
        indent();
        OS << '}';
      }
      return;
    }
    case CmdKind::While: {
      const auto &W = *C.as<WhileCmd>();
      indent();
      OS << "while (";
      printExprNode(W.cond());
      OS << ") {\n";
      ++Level;
      printBody(W.body());
      OS << '\n';
      --Level;
      indent();
      OS << '}';
      return;
    }
    case CmdKind::For: {
      const auto &F = *C.as<ForCmd>();
      indent();
      OS << "for (let " << F.iter() << " = " << F.lo() << ".." << F.hi()
         << ')';
      if (F.unroll() != 1)
        OS << " unroll " << F.unroll();
      OS << " {\n";
      ++Level;
      printBody(F.body());
      OS << '\n';
      --Level;
      indent();
      OS << '}';
      if (F.combine()) {
        OS << " combine {\n";
        ++Level;
        printBody(*F.combine());
        OS << '\n';
        --Level;
        indent();
        OS << '}';
      }
      return;
    }
    case CmdKind::Assign: {
      const auto &A = *C.as<AssignCmd>();
      indent();
      OS << A.name() << " := ";
      printExprNode(A.value());
      OS << ';';
      return;
    }
    case CmdKind::ReduceAssign: {
      const auto &R = *C.as<ReduceAssignCmd>();
      indent();
      OS << R.name() << ' ' << binOpSpelling(R.op()) << "= ";
      printExprNode(R.value());
      OS << ';';
      return;
    }
    case CmdKind::Store: {
      const auto &S = *C.as<StoreCmd>();
      indent();
      printExprNode(S.target());
      OS << " := ";
      printExprNode(S.value());
      OS << ';';
      return;
    }
    case CmdKind::Expr: {
      indent();
      printExprNode(C.as<ExprCmd>()->expr());
      OS << ';';
      return;
    }
    case CmdKind::Seq: {
      const auto &S = *C.as<SeqCmd>();
      for (size_t I = 0; I != S.cmds().size(); ++I) {
        if (I != 0) {
          OS << '\n';
          indent();
          OS << "---\n";
        }
        printCmdNode(*S.cmds()[I]);
      }
      return;
    }
    case CmdKind::Par: {
      const auto &P = *C.as<ParCmd>();
      for (size_t I = 0; I != P.cmds().size(); ++I) {
        if (I != 0)
          OS << '\n';
        printCmdNode(*P.cmds()[I]);
      }
      return;
    }
    case CmdKind::Block: {
      indent();
      OS << "{\n";
      ++Level;
      printCmdNode(C.as<BlockCmd>()->body());
      OS << '\n';
      --Level;
      indent();
      OS << '}';
      return;
    }
    case CmdKind::Skip:
      indent();
      OS << "skip;";
      return;
    }
  }
};

} // namespace

std::string dahlia::printExpr(const Expr &E) { return Printer().exprStr(E); }

std::string dahlia::printCmd(const Cmd &C, unsigned Indent) {
  return Printer().cmdStr(C, Indent);
}

std::string dahlia::printProgram(const Program &P) {
  return Printer().programStr(P);
}
