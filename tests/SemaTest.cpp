//===- SemaTest.cpp - Affine type checker tests -----------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
// Every example program from Section 3 of the paper appears here with the
// acceptance/rejection behaviour the paper describes.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerPipeline.h"
#include "kernels/Kernels.h"
#include "parser/Parser.h"
#include "sema/TypeChecker.h"
#include "support/StableHash.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace dahlia;

namespace {

/// Type-checks \p Src as a bare command; returns diagnosed errors.
std::vector<Error> checkSrc(std::string_view Src) {
  std::vector<Error> Errs = driver::checkBareCommand(Src);
  bool ParseFailed = !Errs.empty() && (Errs.front().kind() == ErrorKind::Parse ||
                                       Errs.front().kind() == ErrorKind::Lex);
  EXPECT_FALSE(ParseFailed) << Errs.front().str() << "\nsource: " << Src;
  return Errs;
}

std::vector<Error> checkProgramSrc(std::string_view Src) {
  driver::CompileResult R = driver::CompilerPipeline().check(Src);
  EXPECT_FALSE(R.Diags.hasKind(ErrorKind::Parse) ||
               R.Diags.hasKind(ErrorKind::Lex))
      << R.firstError() << "\nsource: " << Src;
  return R.Diags.errors();
}

::testing::AssertionResult accepts(std::string_view Src) {
  std::vector<Error> Errs = checkSrc(Src);
  if (Errs.empty())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "unexpected error: " << Errs.front().str();
}

::testing::AssertionResult rejects(std::string_view Src, ErrorKind Kind) {
  std::vector<Error> Errs = checkSrc(Src);
  if (Errs.empty())
    return ::testing::AssertionFailure() << "program unexpectedly accepted";
  for (const Error &E : Errs)
    if (E.kind() == Kind)
      return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "expected " << errorKindName(Kind) << " error, got: "
         << Errs.front().str();
}

//===----------------------------------------------------------------------===//
// Section 3.1: affine memory types
//===----------------------------------------------------------------------===//

TEST(SemaAffine, SimpleReadIsOK) {
  EXPECT_TRUE(accepts("let A: float[10]; let x = A[0];"));
}

TEST(SemaAffine, CannotCopyMemories) {
  // Paper: let B = A; // Error: cannot copy memories.
  EXPECT_TRUE(rejects("let A: float[10]; let B = A;", ErrorKind::Affine));
}

TEST(SemaAffine, ReadThenWriteSameStepConflicts) {
  // Paper: A[1] := 1; // Error: Previous read consumed A.
  EXPECT_TRUE(rejects("let A: float[10]; let x = A[0]; A[1] := 1;",
                      ErrorKind::Affine));
}

TEST(SemaAffine, IdenticalReadsShareACapability) {
  // Paper: let x = A[0]; let y = A[0]; // OK: Reading the same address.
  EXPECT_TRUE(accepts("let A: float[10]; let x = A[0]; let y = A[0];"));
}

TEST(SemaAffine, DistinctReadsToSameBankConflict) {
  // A[0] and A[5] live in the same (only) bank.
  EXPECT_TRUE(rejects("let A: float[10]; let x = A[0]; let y = A[5];",
                      ErrorKind::Affine));
}

TEST(SemaAffine, TwoWritesToSameLocationConflict) {
  EXPECT_TRUE(
      rejects("let A: float[10]; A[0] := 1; A[0] := 2;", ErrorKind::Affine));
}

TEST(SemaAffine, WriteAfterIdenticalReadStillConflicts) {
  // Read capabilities are non-affine but do not license writes.
  EXPECT_TRUE(rejects("let A: float[10]; let x = A[0]; A[0] := x;",
                      ErrorKind::Affine));
}

//===----------------------------------------------------------------------===//
// Section 3.2: ordered and unordered composition
//===----------------------------------------------------------------------===//

TEST(SemaCompose, OrderedCompositionRestoresResources) {
  // Paper: let x = A[0] --- A[1] := 1 is legal.
  EXPECT_TRUE(accepts("let A: float[10];\nlet x = A[0]\n---\nA[1] := 1;"));
}

TEST(SemaCompose, SeqConsumptionIsVisibleOutside) {
  // Paper Section 3.2 composite example: the last read conflicts with the
  // ordered block's use of B.
  EXPECT_TRUE(rejects("let A: float[10]; let B: float[10];\n"
                      "{\n let x = A[0] + 1\n ---\n B[1] := A[1] + x\n};\n"
                      "let y = B[0];",
                      ErrorKind::Affine));
}

TEST(SemaCompose, SeqThenDisjointMemoryIsOK) {
  EXPECT_TRUE(accepts("let A: float[10]; let B: float[10];\n"
                      "{\n let x = A[0] + 1\n ---\n let z = A[1] + x\n};\n"
                      "let y = B[0];"));
}

TEST(SemaCompose, LocalVariablesAreUnrestricted) {
  EXPECT_TRUE(accepts("let x = 0; x := x + 1; let y = x;"));
}

TEST(SemaCompose, NestedSeqInsideSeq) {
  EXPECT_TRUE(accepts("let A: float[10];\n"
                      "{ let a = A[0] --- let b = A[1] }\n"
                      "---\n"
                      "let c = A[2];"));
}

//===----------------------------------------------------------------------===//
// Section 3.3: memory banking
//===----------------------------------------------------------------------===//

TEST(SemaBanking, BankMustDivideSize) {
  // Paper: the banking factor m must evenly divide the size n.
  EXPECT_TRUE(rejects("let A: float[10 bank 4];", ErrorKind::Banking));
  EXPECT_TRUE(accepts("let A: float[8 bank 4];"));
}

TEST(SemaBanking, PhysicalAccessesToDistinctBanks) {
  // Paper: A{0}[0] := 1; A{1}[0] := 2; // OK: different banks.
  EXPECT_TRUE(accepts("let A: float[10 bank 2]; A{0}[0] := 1; A{1}[0] := 2;"));
}

TEST(SemaBanking, PhysicalAccessSameBankConflicts) {
  EXPECT_TRUE(rejects("let A: float[10 bank 2]; A{0}[0] := 1; A{0}[1] := 2;",
                      ErrorKind::Affine));
}

TEST(SemaBanking, LogicalIndexingDeducesBanks) {
  // A[0] is bank 0, A[1] is bank 1 under round-robin banking.
  EXPECT_TRUE(accepts("let A: float[10 bank 2]; A[0] := 1; A[1] := 2;"));
  EXPECT_TRUE(
      rejects("let A: float[10 bank 2]; A[0] := 1; A[2] := 2;",
              ErrorKind::Affine));
}

TEST(SemaBanking, MultiPortedMemories) {
  // Paper: let A: float{2}[10]; let x = A[0]; A[1] := x + 1; is legal.
  EXPECT_TRUE(accepts("let A: float{2}[10]; let x = A[0]; A[1] := x + 1;"));
  // A third access in the same step still conflicts.
  EXPECT_TRUE(rejects(
      "let A: float{2}[10]; let x = A[0]; A[1] := x + 1; A[2] := 2;",
      ErrorKind::Affine));
}

TEST(SemaBanking, PhysicalBankOutOfRange) {
  EXPECT_TRUE(
      rejects("let A: float[10 bank 2]; A{2}[0] := 1;", ErrorKind::Banking));
}

TEST(SemaBanking, StaticIndexOutOfBounds) {
  EXPECT_TRUE(rejects("let A: float[10]; A[10] := 1;", ErrorKind::Type));
}

TEST(SemaBanking, MultiDimensionalBanking) {
  // 2x2 banks; logical [1][1] lives in flattened bank 3, [0][0] in bank 0.
  EXPECT_TRUE(accepts("let M: float[4 bank 2][4 bank 2];\n"
                      "M[0][0] := 1; M[1][1] := 2; M[0][1] := 3;"));
  EXPECT_TRUE(rejects("let M: float[4 bank 2][4 bank 2];\n"
                      "M[0][0] := 1; M[2][2] := 2;",
                      ErrorKind::Affine));
}

//===----------------------------------------------------------------------===//
// Section 3.4: loops and unrolling
//===----------------------------------------------------------------------===//

TEST(SemaUnroll, UnrollWithoutBanksIsInsufficient) {
  // Paper: unroll 2 over an unbanked array is an error.
  EXPECT_TRUE(rejects("let A: float[10];\n"
                      "for (let i = 0..10) unroll 2 { A[i] := 1.0; }",
                      ErrorKind::Unroll));
}

TEST(SemaUnroll, UnrollMatchingBankingIsOK) {
  EXPECT_TRUE(accepts("let A: float[10 bank 2];\n"
                      "for (let i = 0..10) unroll 2 { A[i] := 1.0; }"));
}

TEST(SemaUnroll, UnrollBelowBankingNeedsShrinkView) {
  // Unroll 2 over a 4-banked memory: rejected without a shrink view.
  EXPECT_TRUE(rejects("let A: float[8 bank 4];\n"
                      "for (let i = 0..8) unroll 2 { A[i] := 1.0; }",
                      ErrorKind::Unroll));
  // Paper Section 3.6: the shrink view makes it legal.
  EXPECT_TRUE(accepts("let A: float[8 bank 4];\n"
                      "view sh = shrink A[by 2];\n"
                      "for (let i = 0..8) unroll 2 { let x = sh[i]; }"));
}

TEST(SemaUnroll, SequentialAccessToBankedMemoryIsOK) {
  EXPECT_TRUE(accepts("let A: float[8 bank 4];\n"
                      "for (let i = 0..8) { A[i] := 1.0; }"));
}

TEST(SemaUnroll, UnrollMustDivideTripCount) {
  EXPECT_TRUE(rejects("let A: float[9 bank 3];\n"
                      "for (let i = 0..9) unroll 2 { let x = A[0]; }",
                      ErrorKind::Unroll));
}

TEST(SemaUnroll, OrderedCompositionInsideUnrolledBody) {
  // Paper Section 3.4 lockstep example: conflicts need only be avoided
  // within each logical time step.
  std::vector<Error> Errs =
      checkProgramSrc("def f(a: float, b: float) { let t = a + b; }\n"
                      "decl A: float[10 bank 2];\n"
                      "for (let i = 0..10) unroll 2 {\n"
                      "  let x = A[i]\n"
                      "  ---\n"
                      "  f(x, A[0]);\n"
                      "}");
  EXPECT_TRUE(Errs.empty()) << (Errs.empty() ? "" : Errs.front().str());
}

TEST(SemaUnroll, NestedUnrollReadSharedWriteConflicts) {
  // Paper Section 3.4 nested-unroll example: the read of A[i][0] fans out
  // (legal); the write A[i][0] := j produces a write conflict.
  const char *ReadOnly = "let A: float[8 bank 4][10 bank 5];\n"
                         "for (let i = 0..8) {\n"
                         "  for (let j = 0..10) unroll 5 {\n"
                         "    let x = A[i][0];\n"
                         "  }\n"
                         "}";
  EXPECT_TRUE(accepts(ReadOnly));
  const char *WithWrite = "let A: float[8 bank 4][10 bank 5];\n"
                          "for (let i = 0..8) {\n"
                          "  for (let j = 0..10) unroll 5 {\n"
                          "    let x = A[i][0]\n"
                          "    ---\n"
                          "    A[i][0] := j;\n"
                          "  }\n"
                          "}";
  EXPECT_TRUE(rejects(WithWrite, ErrorKind::Affine));
}

TEST(SemaUnroll, NestedUnrollOnSeparateDimensions) {
  EXPECT_TRUE(accepts("let A: float[8 bank 4][10 bank 5];\n"
                      "for (let i = 0..8) unroll 4 {\n"
                      "  for (let j = 0..10) unroll 5 {\n"
                      "    let x = A[i][j];\n"
                      "  }\n"
                      "}"));
}

TEST(SemaUnroll, ShiftedIteratorKeepsBankAnalysis) {
  // A[j + 8]-style accesses stay analyzable (Section 3.6 motivation).
  EXPECT_TRUE(accepts("let A: float[16 bank 2];\n"
                      "for (let j = 0..8) unroll 2 { let x = A[j + 8]; }"));
}

TEST(SemaUnroll, ArbitraryIndexArithmeticRejected) {
  // Paper: rejects arbitrary index calculations like A[2*i].
  EXPECT_TRUE(rejects("let A: float[16 bank 2];\n"
                      "for (let i = 0..8) unroll 2 { let x = A[2 * i]; }",
                      ErrorKind::Unroll));
  EXPECT_TRUE(rejects("let A: float[16 bank 4];\n"
                      "for (let i = 0..4) { let x = A[i * i]; }",
                      ErrorKind::Unroll));
  // On an unbanked memory, arbitrary indices are fine.
  EXPECT_TRUE(accepts("let A: float[16];\n"
                      "for (let i = 0..4) { let x = A[i * i]; }"));
}

TEST(SemaUnroll, WriteToSameLocationAcrossCopies) {
  // Each unrolled copy writes A[0]: a write conflict.
  EXPECT_TRUE(rejects("let A: float[8 bank 2];\n"
                      "for (let i = 0..8) unroll 2 { A[0] := 1.0; }",
                      ErrorKind::Affine));
  // Reading A[0] in every copy is a shared fan-out: legal.
  EXPECT_TRUE(accepts("let A: float[8 bank 2]; let B: float[8 bank 2];\n"
                      "for (let i = 0..8) unroll 2 { B[i] := A[0]; }"));
}

//===----------------------------------------------------------------------===//
// Section 3.5: combine blocks
//===----------------------------------------------------------------------===//

TEST(SemaCombine, DirectReductionInUnrolledBodyRejected) {
  // Paper: dot += A[i] * B[i] inside an unrolled doall loop is illegal.
  EXPECT_TRUE(rejects("let A: float[10 bank 2]; let B: float[10 bank 2];\n"
                      "let dot = 0.0;\n"
                      "for (let i = 0..10) unroll 2 { dot += A[i] * B[i]; }",
                      ErrorKind::Type));
}

TEST(SemaCombine, CombineBlockReductionAccepted) {
  EXPECT_TRUE(accepts("let A: float[10 bank 2]; let B: float[10 bank 2];\n"
                      "let dot = 0.0;\n"
                      "for (let i = 0..10) unroll 2 {\n"
                      "  let v = A[i] * B[i];\n"
                      "} combine {\n"
                      "  dot += v;\n"
                      "}"));
}

TEST(SemaCombine, CombineRegisterOnlyInsideReducer) {
  EXPECT_TRUE(rejects("let A: float[10 bank 2];\n"
                      "let out = 0.0;\n"
                      "for (let i = 0..10) unroll 2 {\n"
                      "  let v = A[i];\n"
                      "} combine {\n"
                      "  out := v;\n"
                      "}",
                      ErrorKind::Type));
}

TEST(SemaCombine, SequentialForAlsoNeedsCombine) {
  // Even with unroll 1, doall for bodies may not write outer variables.
  EXPECT_TRUE(rejects("let A: float[10]; let sum = 0.0;\n"
                      "for (let i = 0..10) { sum += A[i]; }",
                      ErrorKind::Type));
  EXPECT_TRUE(accepts("let A: float[10]; let sum = 0.0;\n"
                      "for (let i = 0..10) {\n"
                      "  let v = A[i];\n"
                      "} combine { sum += v; }"));
}

TEST(SemaCombine, WhileLoopAllowsSequentialUpdates) {
  EXPECT_TRUE(accepts("let x = 0; let going = true;\n"
                      "while (going) { x := x + 1; going := x < 10; }"));
}

//===----------------------------------------------------------------------===//
// Section 3.6: memory views
//===----------------------------------------------------------------------===//

TEST(SemaView, ShrinkReducesBanking) {
  EXPECT_TRUE(accepts("let A: float[8 bank 4];\n"
                      "view sh = shrink A[by 2];\n"
                      "for (let i = 0..8) unroll 2 { let x = sh[i]; }"));
}

TEST(SemaView, ShrinkFactorMustDivideBanking) {
  EXPECT_TRUE(rejects("let A: float[8 bank 4]; view sh = shrink A[by 3];",
                      ErrorKind::View));
}

TEST(SemaView, ShrinkViewStillConsumesUnderlyingBanks) {
  // Accessing through the shrink view consumes the underlying banks, so a
  // direct access in the same step conflicts.
  EXPECT_TRUE(rejects("let A: float[8 bank 4];\n"
                      "view sh = shrink A[by 2];\n"
                      "for (let i = 0..8) unroll 2 {\n"
                      "  let x = sh[i]; let y = A[0];\n"
                      "}",
                      ErrorKind::Affine));
}

TEST(SemaView, AlignedSuffix) {
  // Paper: view s = suffix A[by 2*i]; s[1] reads A[2*i + 1].
  EXPECT_TRUE(accepts("let A: float[8 bank 2];\n"
                      "for (let i = 0..4) {\n"
                      "  view s = suffix A[by 2 * i];\n"
                      "  let x = s[1];\n"
                      "}"));
}

TEST(SemaView, MisalignedSuffixRejected) {
  EXPECT_TRUE(rejects("let A: float[8 bank 2];\n"
                      "for (let i = 0..4) {\n"
                      "  view s = suffix A[by 3 * i];\n"
                      "  let x = s[1];\n"
                      "}",
                      ErrorKind::View));
  EXPECT_TRUE(rejects("let A: float[8 bank 2]; view s = suffix A[by 3];",
                      ErrorKind::View));
}

TEST(SemaView, ShiftAllowsArbitraryOffsets) {
  // Paper Section 3.6 shift example.
  EXPECT_TRUE(accepts("let A: float[12 bank 4];\n"
                      "for (let i = 0..3) {\n"
                      "  view r = shift A[by i * i];\n"
                      "  for (let j = 0..4) unroll 4 { let x = r[j]; }\n"
                      "}"));
}

TEST(SemaView, ShiftRouteConflictsWithDirectAccess) {
  EXPECT_TRUE(rejects("let A: float[12 bank 4];\n"
                      "view r = shift A[by 5];\n"
                      "let x = r[0]; let y = A[0];",
                      ErrorKind::Affine));
}

TEST(SemaView, SplitEnablesBlockedParallelism) {
  // Paper Section 3.6 split example (dot product over windows).
  EXPECT_TRUE(accepts("let A: float[12 bank 4]; let B: float[12 bank 4];\n"
                      "view split_A = split A[by 2];\n"
                      "view split_B = split B[by 2];\n"
                      "let sum = 0.0;\n"
                      "for (let i = 0..6) unroll 2 {\n"
                      "  for (let j = 0..2) unroll 2 {\n"
                      "    let v = split_A[j][i] * split_B[j][i];\n"
                      "  } combine {\n"
                      "    sum += v;\n"
                      "  }\n"
                      "}"));
}

TEST(SemaView, SplitViewType) {
  // split A[by 2] over float[12 bank 4] has type float[2 bank 2][6 bank 2].
  EXPECT_TRUE(accepts("let A: float[12 bank 4];\n"
                      "view sp = split A[by 2];\n"
                      "let x = sp[0][0];"));
}

TEST(SemaView, SplitFactorMustDivide) {
  EXPECT_TRUE(rejects("let A: float[12 bank 4]; view sp = split A[by 3];",
                      ErrorKind::View));
}

TEST(SemaView, ViewOfViewComposition) {
  // Paper's blocked dot product builds suffix views of shrink views.
  EXPECT_TRUE(accepts("let A: float[12 bank 4];\n"
                      "view shA = shrink A[by 2];\n"
                      "for (let i = 0..6) {\n"
                      "  view vA = suffix shA[by 2 * i];\n"
                      "  for (let j = 0..2) unroll 2 { let v = vA[j]; }\n"
                      "}"));
}

TEST(SemaView, PhysicalAccessIntoViewRejected) {
  EXPECT_TRUE(rejects("let A: float[8 bank 4];\n"
                      "view sh = shrink A[by 2];\n"
                      "sh{0}[0] := 1.0;",
                      ErrorKind::View));
}

//===----------------------------------------------------------------------===//
// Functions and programs
//===----------------------------------------------------------------------===//

TEST(SemaFunc, MemoryArgumentsAreAffine) {
  // Passing the same memory to two unordered calls conflicts.
  std::vector<Error> Errs = checkProgramSrc(
      "def f(m: float[8 bank 2]) { let x = m[0]; }\n"
      "decl A: float[8 bank 2];\n"
      "f(A); f(A);");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs.front().kind(), ErrorKind::Affine);
}

TEST(SemaFunc, MemoryArgumentsRestoredAcrossTimeSteps) {
  std::vector<Error> Errs = checkProgramSrc(
      "def f(m: float[8 bank 2]) { let x = m[0]; }\n"
      "decl A: float[8 bank 2];\n"
      "f(A)\n---\nf(A);");
  EXPECT_TRUE(Errs.empty()) << (Errs.empty() ? "" : Errs.front().str());
}

TEST(SemaFunc, FunctionBodyIsChecked) {
  std::vector<Error> Errs = checkProgramSrc(
      "def f(m: float[8]) { let x = m[0]; m[1] := 1.0; }");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs.front().kind(), ErrorKind::Affine);
}

TEST(SemaFunc, MemoryArgumentTypeMustMatch) {
  std::vector<Error> Errs = checkProgramSrc(
      "def f(m: float[8 bank 2]) { let x = m[0]; }\n"
      "decl A: float[8 bank 4];\n"
      "f(A);");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs.front().kind(), ErrorKind::Type);
}

TEST(SemaFunc, CallInUnrolledLoopConsumesPerCopy) {
  std::vector<Error> Errs = checkProgramSrc(
      "def f(m: float[8 bank 2]) { let x = m[0]; }\n"
      "decl A: float[8 bank 2];\n"
      "for (let i = 0..4) unroll 2 { f(A); }");
  ASSERT_FALSE(Errs.empty());
  EXPECT_EQ(Errs.front().kind(), ErrorKind::Affine);
}

//===----------------------------------------------------------------------===//
// Scoping and miscellaneous typing
//===----------------------------------------------------------------------===//

TEST(SemaScope, RedefinitionRejected) {
  EXPECT_TRUE(rejects("let x = 1; let x = 2;", ErrorKind::Type));
}

TEST(SemaScope, ScopesEndAtBlockBoundaries) {
  EXPECT_TRUE(accepts("{ let x = 1; } { let x = 2; }"));
}

TEST(SemaScope, MemoryScopedToBlock) {
  EXPECT_TRUE(rejects("{ let A: float[4]; } let x = A[0];", ErrorKind::Type));
}

TEST(SemaScope, UndefinedVariable) {
  EXPECT_TRUE(rejects("let x = y + 1;", ErrorKind::Type));
}

TEST(SemaType, ConditionMustBeBool) {
  EXPECT_TRUE(rejects("let x = 1; if (x) { skip; }", ErrorKind::Type));
  EXPECT_TRUE(accepts("let x = 1; if (x < 2) { skip; }"));
}

TEST(SemaType, IfBranchesMergeConservatively) {
  // Either branch consuming A blocks a later same-step use.
  EXPECT_TRUE(rejects("let A: float[4]; let c = true;\n"
                      "if (c) { let x = A[0]; } else { skip; }\n"
                      "let y = A[1];",
                      ErrorKind::Affine));
}

TEST(SemaType, MemoriesCannotHaveInitializers) {
  EXPECT_TRUE(rejects("let A: float[4] = 3;", ErrorKind::Type));
}

TEST(SemaType, IndexMustBeInteger) {
  EXPECT_TRUE(rejects("let A: float[4]; let x = A[1.5];", ErrorKind::Type));
  EXPECT_TRUE(rejects("let A: float[4]; let x = A[true];", ErrorKind::Type));
}

TEST(SemaType, DimensionCountMustMatch) {
  EXPECT_TRUE(
      rejects("let A: float[4][4]; let x = A[0];", ErrorKind::Type));
  EXPECT_TRUE(rejects("let A: float[4]; let x = A[0][0];", ErrorKind::Type));
}

TEST(SemaType, ArithmeticTyping) {
  EXPECT_TRUE(accepts("let x = 1 + 2 * 3;"));
  EXPECT_TRUE(accepts("let x = 1.5 + 2.5;"));
  EXPECT_TRUE(rejects("let x = true + 1;", ErrorKind::Type));
  EXPECT_TRUE(rejects("let x = 1 && 2;", ErrorKind::Type));
}

//===----------------------------------------------------------------------===//
// Crash-class shapes from the differential fuzzer
//===----------------------------------------------------------------------===//

TEST(SemaBanking, DegenerateShapesAreRejectedNotACrash) {
  EXPECT_TRUE(
      rejects("let A: float[8 bank 0]; let x = A[0];", ErrorKind::Banking));
  EXPECT_TRUE(rejects("let A: float[0]; let x = A[0];", ErrorKind::Banking));
}

TEST(SemaUnroll, DegenerateUnrollFactorsAreRejected) {
  EXPECT_TRUE(rejects("let A: float[8 bank 4];"
                      "for (let i = 0..8) unroll 0 { A[i] := 1.0; }",
                      ErrorKind::Unroll));
  EXPECT_TRUE(rejects("let A: float[8 bank 4];"
                      "for (let i = 0..8) unroll 3 { A[i] := 1.0; }",
                      ErrorKind::Unroll));
}

TEST(SemaAffine, WhileBodyReadsFanOutAcrossUnrolledCopies) {
  // Unrolled copies of a while loop run as independent sequential loops —
  // iteration schedules may diverge — so a read inside the body cannot
  // share one broadcast fetch across copies and needs a port per copy.
  // The differential fuzzer found the old acceptance: the checker said
  // yes while the lowered program got stuck in the strictly affine
  // interpreter.
  EXPECT_TRUE(rejects("let A: float[4];"
                      "for (let i = 0..6) unroll 2 {"
                      "  let c = 0;"
                      "  while (c < 1) { let v = A[c]; c := c + 1; }"
                      "}",
                      ErrorKind::Affine));
  // Enough ports to feed every copy and the same shape is fine.
  EXPECT_TRUE(accepts("let A: float{2}[4];"
                      "for (let i = 0..6) unroll 2 {"
                      "  let c = 0;"
                      "  while (c < 1) { let v = A[c]; c := c + 1; }"
                      "}"));
  // Without replication the while body broadcasts nothing and stays fine.
  EXPECT_TRUE(accepts("let A: float[4];"
                      "for (let i = 0..6) {"
                      "  let c = 0;"
                      "  while (c < 1) { let v = A[c]; c := c + 1; }"
                      "}"));
}

//===----------------------------------------------------------------------===//
// Diagnostics digest: every message the sweeps produce, pinned
//===----------------------------------------------------------------------===//

/// Digest of every diagnostic's (kind, message, line, col) over every
/// configuration of \p Space.
template <typename Config, typename SourceFn>
uint64_t diagnosticsDigest(const std::vector<Config> &Space,
                           SourceFn Source) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const Config &C : Space) {
    Result<Program> P = parseProgram(Source(C));
    EXPECT_TRUE(bool(P));
    if (!P)
      continue;
    std::vector<Error> Errs = typeCheck(*P);
    H = stableHashCombine(H, Errs.size());
    for (const Error &E : Errs) {
      H = stableHashCombine(H, static_cast<uint64_t>(E.kind()));
      H = stableHash(E.message(), stableHashCombine(H, E.message().size()));
      H = stableHashCombine(H, E.loc().Line);
      H = stableHashCombine(H, E.loc().Col);
    }
  }
  return H;
}

// Recorded with the checker that built its messages in ostringstreams.
TEST(Sema, DiagnosticsDigest) {
  using namespace kernels;
  struct Case {
    const char *Name;
    uint64_t Got, Want;
  } Cases[] = {
      {"gemm-blocked", diagnosticsDigest(gemmBlockedSpace(), gemmBlockedDahlia),
       0xa7547e7572872ea1},
      {"stencil2d", diagnosticsDigest(stencil2dSpace(), stencil2dDahlia),
       0x063ebe55ca1016f9},
      {"md-knn", diagnosticsDigest(mdKnnSpace(), mdKnnDahlia),
       0x3bdc0a09abb8ed19},
      {"md-grid", diagnosticsDigest(mdGridSpace(), mdGridDahlia),
       0xbae3264c1da44de3},
  };
  for (const Case &C : Cases) {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                  static_cast<unsigned long long>(C.Got));
    EXPECT_EQ(C.Got, C.Want) << C.Name << " " << Buf;
  }
}

} // namespace
