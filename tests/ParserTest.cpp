//===- ParserTest.cpp - Parser unit tests -----------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "ast/ASTPrinter.h"
#include "kernels/Kernels.h"
#include "lexer/Lexer.h"
#include "support/StableHash.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace dahlia;

namespace {

CmdPtr parseOK(std::string_view Src) {
  Result<CmdPtr> R = parseCommand(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str()) << "\nsource: " << Src;
  return R ? R.take() : nullptr;
}

TEST(Parser, TypeSyntax) {
  Result<TypeRef> T = parseType("float[8 bank 4]");
  ASSERT_TRUE(bool(T));
  EXPECT_EQ((*T)->str(), "float[8 bank 4]");

  T = parseType("bit<32>");
  ASSERT_TRUE(bool(T));
  EXPECT_EQ((*T)->str(), "bit<32>");
  EXPECT_TRUE((*T)->isSignedBit());

  T = parseType("ubit<10>");
  ASSERT_TRUE(bool(T));
  EXPECT_FALSE((*T)->isSignedBit());

  T = parseType("float{2}[10]");
  ASSERT_TRUE(bool(T));
  EXPECT_EQ((*T)->memPorts(), 2u);

  T = parseType("float[4 bank 2][4 bank 2]");
  ASSERT_TRUE(bool(T));
  EXPECT_EQ((*T)->memDims().size(), 2u);
  EXPECT_EQ((*T)->memTotalBanks(), 4);
}

TEST(Parser, BadTypeSyntax) {
  EXPECT_FALSE(bool(parseType("quux")));
  EXPECT_FALSE(bool(parseType("bit<>")));
  EXPECT_FALSE(bool(parseType("bit<0>")));
  EXPECT_FALSE(bool(parseType("float{2}"))); // ports need a memory
}

TEST(Parser, LetForms) {
  CmdPtr C = parseOK("let A: float[10];");
  ASSERT_TRUE(C);
  auto *L = C->as<LetCmd>();
  ASSERT_TRUE(L);
  EXPECT_EQ(L->name(), "A");
  ASSERT_TRUE(L->declType());
  EXPECT_TRUE(L->declType()->isMem());
  EXPECT_EQ(L->init(), nullptr);

  C = parseOK("let x = A[0];");
  L = C->as<LetCmd>();
  ASSERT_TRUE(L);
  EXPECT_EQ(L->declType(), nullptr);
  ASSERT_NE(L->init(), nullptr);
  EXPECT_TRUE(L->init()->as<AccessExpr>());
}

TEST(Parser, MultiNameLet) {
  CmdPtr C = parseOK("let A, B: float[12 bank 4];");
  auto *P = C->as<ParCmd>();
  ASSERT_TRUE(P);
  EXPECT_EQ(P->cmds().size(), 2u);
  EXPECT_TRUE(P->cmds()[0]->as<LetCmd>());
  EXPECT_TRUE(P->cmds()[1]->as<LetCmd>());
}

TEST(Parser, LetNeedsTypeOrInit) {
  EXPECT_FALSE(bool(parseCommand("let x;")));
}

TEST(Parser, OrderedComposition) {
  CmdPtr C = parseOK("let x = A[0]\n---\nA[1] := 1;");
  auto *S = C->as<SeqCmd>();
  ASSERT_TRUE(S);
  EXPECT_EQ(S->cmds().size(), 2u);
  EXPECT_TRUE(S->cmds()[0]->as<LetCmd>());
  EXPECT_TRUE(S->cmds()[1]->as<StoreCmd>());
}

TEST(Parser, UnorderedComposition) {
  CmdPtr C = parseOK("let x = 1; let y = 2; let z = 3;");
  auto *P = C->as<ParCmd>();
  ASSERT_TRUE(P);
  EXPECT_EQ(P->cmds().size(), 3u);
}

TEST(Parser, NestedBlockWithSeq) {
  // The paper's Section 3.2 example shape.
  CmdPtr C = parseOK("let A: float[10]; let B: float[10];\n"
                     "{\n  let x = A[0] + 1\n  ---\n  B[1] := A[1] + x\n};\n"
                     "let y = B[0];");
  auto *P = C->as<ParCmd>();
  ASSERT_TRUE(P);
  ASSERT_EQ(P->cmds().size(), 4u);
  EXPECT_TRUE(P->cmds()[2]->as<BlockCmd>());
  EXPECT_TRUE(P->cmds()[2]->as<BlockCmd>()->body().as<SeqCmd>());
}

TEST(Parser, ForWithUnrollAndCombine) {
  CmdPtr C = parseOK("for (let i = 0..10) unroll 2 {\n"
                     "  let v = A[i] * B[i];\n"
                     "} combine {\n  dot += v;\n}");
  auto *F = C->as<ForCmd>();
  ASSERT_TRUE(F);
  EXPECT_EQ(F->iter(), "i");
  EXPECT_EQ(F->lo(), 0);
  EXPECT_EQ(F->hi(), 10);
  EXPECT_EQ(F->unroll(), 2);
  ASSERT_TRUE(F->combine());
  const Cmd &Comb = F->combine()->as<BlockCmd>()->body();
  EXPECT_TRUE(Comb.as<ReduceAssignCmd>());
}

TEST(Parser, ForDefaultUnrollIsOne) {
  CmdPtr C = parseOK("for (let i = 0..8) { A[i] := 0; }");
  auto *F = C->as<ForCmd>();
  ASSERT_TRUE(F);
  EXPECT_EQ(F->unroll(), 1);
  EXPECT_EQ(F->combine(), nullptr);
}

TEST(Parser, ViewDeclarations) {
  CmdPtr C = parseOK("view sh = shrink A[by 2];");
  auto *V = C->as<ViewCmd>();
  ASSERT_TRUE(V);
  EXPECT_EQ(V->viewKind(), ViewKind::Shrink);
  EXPECT_EQ(V->mem(), "A");
  ASSERT_EQ(V->params().size(), 1u);
  EXPECT_EQ(V->params()[0].Factor, 2);

  C = parseOK("view v = suffix M[by 2*i];");
  V = C->as<ViewCmd>();
  ASSERT_TRUE(V);
  EXPECT_EQ(V->viewKind(), ViewKind::Suffix);
  ASSERT_TRUE(V->params()[0].Offset);

  C = parseOK("view w = shift orig[by row][by col];");
  V = C->as<ViewCmd>();
  ASSERT_TRUE(V);
  EXPECT_EQ(V->viewKind(), ViewKind::Shift);
  EXPECT_EQ(V->params().size(), 2u);
}

TEST(Parser, MultiViewDeclaration) {
  // Paper Section 3.6: view shA, shB = shrink A[by 2], B[by 2];
  CmdPtr C = parseOK("view shA, shB = shrink A[by 2], B[by 2];");
  auto *P = C->as<ParCmd>();
  ASSERT_TRUE(P);
  ASSERT_EQ(P->cmds().size(), 2u);
  EXPECT_EQ(P->cmds()[0]->as<ViewCmd>()->name(), "shA");
  EXPECT_EQ(P->cmds()[1]->as<ViewCmd>()->mem(), "B");
}

TEST(Parser, PhysicalAccess) {
  CmdPtr C = parseOK("A{0}[0] := 1;");
  auto *S = C->as<StoreCmd>();
  ASSERT_TRUE(S);
  EXPECT_TRUE(S->target().as<PhysAccessExpr>());
}

TEST(Parser, IfElseChain) {
  CmdPtr C = parseOK("if (x < 1) { skip; } else if (x < 2) { skip; } "
                     "else { skip; }");
  auto *I = C->as<IfCmd>();
  ASSERT_TRUE(I);
  ASSERT_TRUE(I->elseCmd());
  EXPECT_TRUE(I->elseCmd()->as<IfCmd>());
}

TEST(Parser, WhileLoop) {
  CmdPtr C = parseOK("while (going) { x := x + 1; }");
  ASSERT_TRUE(C->as<WhileCmd>());
}

TEST(Parser, ExpressionPrecedence) {
  Result<ExprPtr> E = parseExpression("a + b * c");
  ASSERT_TRUE(bool(E));
  EXPECT_EQ(printExpr(**E), "(a + (b * c))");

  E = parseExpression("a * b + c");
  ASSERT_TRUE(bool(E));
  EXPECT_EQ(printExpr(**E), "((a * b) + c)");

  E = parseExpression("a < b && c < d || e == f");
  ASSERT_TRUE(bool(E));
  EXPECT_EQ(printExpr(**E), "(((a < b) && (c < d)) || (e == f))");

  E = parseExpression("-x + y");
  ASSERT_TRUE(bool(E));
  EXPECT_EQ(printExpr(**E), "((0 - x) + y)");
}

TEST(Parser, MultiDimAccess) {
  Result<ExprPtr> E = parseExpression("M[i][j + 1]");
  ASSERT_TRUE(bool(E));
  auto *A = (*E)->as<AccessExpr>();
  ASSERT_TRUE(A);
  EXPECT_EQ(A->indices().size(), 2u);
}

TEST(Parser, FunctionDefAndCall) {
  Result<Program> P = parseProgram("def f(x: bit<32>, m: float[4]): float {\n"
                                   "  let y = m[0];\n"
                                   "}\n"
                                   "decl A: float[4];\n"
                                   "let z = f(1, A);");
  ASSERT_TRUE(bool(P)) << (P ? "" : P.error().str());
  EXPECT_EQ(P->Funcs.size(), 1u);
  EXPECT_EQ(P->Funcs[0].Params.size(), 2u);
  EXPECT_EQ(P->Decls.size(), 1u);
  ASSERT_TRUE(P->Body);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_FALSE(bool(parseCommand("let = 3;")));
  EXPECT_FALSE(bool(parseCommand("for i = 0..4 { }")));
  EXPECT_FALSE(bool(parseCommand("view v = bogus A[by 2];")));
  EXPECT_FALSE(bool(parseCommand("A[0 := 2;")));
  EXPECT_FALSE(bool(parseCommand("1 := 2;")));
}

TEST(Parser, PrinterRoundTrip) {
  const char *Sources[] = {
      "let A: float[10 bank 2];",
      "for (let i = 0..10) unroll 2 {\n  let v = A[i];\n} combine {\n"
      "  dot += v;\n}",
      "view sh = shrink A[by 2];",
      "if ((x < 1)) {\n  y := 2;\n} else {\n  y := 3;\n}",
      "let x = A[0]\n---\nA[1] := 1;",
  };
  for (const char *Src : Sources) {
    Result<CmdPtr> First = parseCommand(Src);
    ASSERT_TRUE(bool(First)) << Src;
    std::string Printed = printCmd(**First);
    Result<CmdPtr> Second = parseCommand(Printed);
    ASSERT_TRUE(bool(Second)) << "reparse failed for:\n" << Printed;
    EXPECT_EQ(printCmd(**Second), Printed) << Src;
  }
}

TEST(Parser, DeepNestingIsRejectedNotACrash) {
  // Crash-class inputs from the byte-level fuzzer: pathological nesting
  // must hit the recursive-descent depth limit and come back as a parse
  // error, not blow the stack.
  std::string DeepExpr = "let x = " + std::string(100000, '(') + "1" +
                         std::string(100000, ')') + ";";
  Result<CmdPtr> E = parseCommand(DeepExpr);
  EXPECT_FALSE(bool(E));

  std::string DeepBlocks(100000, '{');
  DeepBlocks += "let y = 1;";
  DeepBlocks += std::string(100000, '}');
  Result<CmdPtr> B = parseCommand(DeepBlocks);
  EXPECT_FALSE(bool(B));
}

TEST(Parser, NestingJustUnderTheLimitParses) {
  // The depth guard must not reject reasonable programs.
  std::string Expr = "let x = " + std::string(200, '(') + "1" +
                     std::string(200, ')') + ";";
  EXPECT_TRUE(bool(parseCommand(Expr)));

  std::string Blocks(100, '{');
  Blocks += "let y = 1;";
  Blocks += std::string(100, '}');
  EXPECT_TRUE(bool(parseCommand(Blocks)));
}

//===----------------------------------------------------------------------===//
// Prefix-error digest: every error path of the parser, pinned
//===----------------------------------------------------------------------===//

/// Digest of parseProgram over every prefix of \p Src that ends at a token
/// boundary: the error's (kind, message, line, col), or the printed
/// program when the prefix parses.
uint64_t prefixErrorDigest(const std::string &Src) {
  Result<std::vector<Token>> Toks = lex(Src);
  EXPECT_TRUE(bool(Toks));
  if (!Toks)
    return 0;
  // Columns count bytes, so a location maps back to a byte offset.
  std::vector<size_t> LineStart = {0};
  for (size_t I = 0; I != Src.size(); ++I)
    if (Src[I] == '\n')
      LineStart.push_back(I + 1);
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Text = [&](std::string_view S) {
    H = stableHash(S, stableHashCombine(H, S.size()));
  };
  for (const Token &T : *Toks) {
    size_t Off = LineStart[T.Loc.Line - 1] + T.Loc.Col - 1;
    Result<Program> P = parseProgram(std::string_view(Src).substr(0, Off));
    H = stableHashCombine(H, P ? 1 : 0);
    if (P) {
      Text(printProgram(*P));
      continue;
    }
    H = stableHashCombine(H, static_cast<uint64_t>(P.error().kind()));
    Text(P.error().message());
    H = stableHashCombine(H, P.error().loc().Line);
    H = stableHashCombine(H, P.error().loc().Col);
  }
  return H;
}

// Recorded with the parser that copied each token out of the stream.
TEST(Parser, PrefixErrorDigest) {
  using namespace kernels;
  uint64_t Gemm = prefixErrorDigest(gemmBlockedDahlia(GemmBlockedConfig()));
  uint64_t Knn = prefixErrorDigest(mdKnnDahlia(MdKnnConfig()));
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx 0x%016llx",
                static_cast<unsigned long long>(Gemm),
                static_cast<unsigned long long>(Knn));
  EXPECT_EQ(Gemm, 0xae061bd8e231e569u) << Buf;
  EXPECT_EQ(Knn, 0x01e910d5fb49edaeu) << Buf;
}

} // namespace
