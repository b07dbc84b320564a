//===- LexerTest.cpp - Lexer unit tests -------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "kernels/Kernels.h"
#include "support/StableHash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace dahlia;

namespace {

std::vector<TokKind> kindsOf(std::string_view Src) {
  Result<std::vector<Token>> R = lex(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  std::vector<TokKind> Kinds;
  if (R)
    for (const Token &T : *R)
      Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInput) {
  auto Kinds = kindsOf("");
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], TokKind::Eof);
}

TEST(Lexer, Keywords) {
  auto Kinds = kindsOf("let view if else while for unroll combine def decl "
                       "true false bank by shrink suffix shift split skip");
  std::vector<TokKind> Expected = {
      TokKind::KwLet,    TokKind::KwView,    TokKind::KwIf,
      TokKind::KwElse,   TokKind::KwWhile,   TokKind::KwFor,
      TokKind::KwUnroll, TokKind::KwCombine, TokKind::KwDef,
      TokKind::KwDecl,   TokKind::KwTrue,    TokKind::KwFalse,
      TokKind::KwBank,   TokKind::KwBy,      TokKind::KwShrink,
      TokKind::KwSuffix, TokKind::KwShift,   TokKind::KwSplit,
      TokKind::KwSkip,   TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, SeqSeparatorVersusMinus) {
  auto Kinds = kindsOf("a --- b - c -= d");
  std::vector<TokKind> Expected = {TokKind::Ident,   TokKind::SeqSep,
                                   TokKind::Ident,   TokKind::Minus,
                                   TokKind::Ident,   TokKind::MinusEq,
                                   TokKind::Ident,   TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, RangeVersusFloat) {
  Result<std::vector<Token>> R = lex("0..10 1.5");
  ASSERT_TRUE(bool(R));
  ASSERT_GE(R->size(), 5u);
  EXPECT_EQ((*R)[0].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[0].IntValue, 0);
  EXPECT_EQ((*R)[1].Kind, TokKind::DotDot);
  EXPECT_EQ((*R)[2].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[2].IntValue, 10);
  EXPECT_EQ((*R)[3].Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ((*R)[3].FloatValue, 1.5);
}

TEST(Lexer, AssignVersusColon) {
  auto Kinds = kindsOf("x := 1; y : bit<32>");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::Assign, TokKind::IntLit, TokKind::Semi,
      TokKind::Ident, TokKind::Colon,  TokKind::Ident,  TokKind::Lt,
      TokKind::IntLit, TokKind::Gt,    TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, Comments) {
  auto Kinds = kindsOf("a // line comment --- ignored\nb /* block\n * x */ c");
  std::vector<TokKind> Expected = {TokKind::Ident, TokKind::Ident,
                                   TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  Result<std::vector<Token>> R = lex("a /* never closed");
  EXPECT_FALSE(bool(R));
  if (!R)
    EXPECT_EQ(R.error().kind(), ErrorKind::Lex);
}

TEST(Lexer, UnknownCharacterIsError) {
  Result<std::vector<Token>> R = lex("a $ b");
  EXPECT_FALSE(bool(R));
}

TEST(Lexer, ReducerOperators) {
  auto Kinds = kindsOf("a += b -= c *= d /= e");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::PlusEq,  TokKind::Ident, TokKind::MinusEq,
      TokKind::Ident, TokKind::StarEq,  TokKind::Ident, TokKind::SlashEq,
      TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, ComparisonOperators) {
  auto Kinds = kindsOf("a == b != c <= d >= e < f > g && h || i");
  std::vector<TokKind> Expected = {
      TokKind::Ident, TokKind::EqEq,   TokKind::Ident, TokKind::NotEq,
      TokKind::Ident, TokKind::Le,     TokKind::Ident, TokKind::Ge,
      TokKind::Ident, TokKind::Lt,     TokKind::Ident, TokKind::Gt,
      TokKind::Ident, TokKind::AndAnd, TokKind::Ident, TokKind::OrOr,
      TokKind::Ident, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, SourceLocations) {
  Result<std::vector<Token>> R = lex("let\n  x = 1;");
  ASSERT_TRUE(bool(R));
  EXPECT_EQ((*R)[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ((*R)[1].Loc, SourceLoc(2, 3));
  EXPECT_EQ((*R)[2].Loc, SourceLoc(2, 5));
}

TEST(Lexer, RewoundExponentKeepsColumns) {
  // "2e+" is not an exponent: the lexer backs up to the 'e', and the
  // columns after it must not drift.
  Result<std::vector<Token>> R = lex("x 2e+ y");
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R->size(), 6u);
  EXPECT_EQ((*R)[1].Kind, TokKind::IntLit);
  EXPECT_EQ((*R)[1].Loc, SourceLoc(1, 3));
  EXPECT_EQ((*R)[2].Text, "e");
  EXPECT_EQ((*R)[2].Loc, SourceLoc(1, 4));
  EXPECT_EQ((*R)[3].Kind, TokKind::Plus);
  EXPECT_EQ((*R)[3].Loc, SourceLoc(1, 5));
  EXPECT_EQ((*R)[4].Text, "y");
  EXPECT_EQ((*R)[4].Loc, SourceLoc(1, 7));
}

TEST(Lexer, NonAsciiBytesAreSpelledAsHexEscapes) {
  Result<std::vector<Token>> R = lex("let \xc3\xa9 = 1;");
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "unexpected character '\\xc3'");
  EXPECT_EQ(R.error().loc(), SourceLoc(1, 5));
  R = lex("a\x01");
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "unexpected character '\\x01'");
  R = lex("'");
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "unexpected character '''");
}

TEST(Lexer, PhysicalAccessBraces) {
  auto Kinds = kindsOf("A{0}[1]");
  std::vector<TokKind> Expected = {
      TokKind::Ident,  TokKind::LBrace,   TokKind::IntLit, TokKind::RBrace,
      TokKind::LBracket, TokKind::IntLit, TokKind::RBracket, TokKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

//===----------------------------------------------------------------------===//
// Token-stream digest: the differential oracle for lexer rewrites
//===----------------------------------------------------------------------===//

/// FNV digest of (kind, text, int value, float bits, line, col) of every
/// token of every input, or of (kind, message, line, col) of the error.
class TokenDigest {
public:
  void num(uint64_t V) { H = stableHashCombine(H, V); }
  void text(std::string_view S) {
    num(S.size());
    H = stableHash(S, H);
  }

  void lexed(std::string_view Src) {
    Result<std::vector<Token>> R = lex(Src);
    num(R ? 1 : 0);
    if (!R) {
      num(static_cast<uint64_t>(R.error().kind()));
      text(R.error().message());
      num(R.error().loc().Line);
      num(R.error().loc().Col);
      return;
    }
    num(R->size());
    for (const Token &T : *R) {
      num(static_cast<uint64_t>(T.Kind));
      text(T.Text);
      num(static_cast<uint64_t>(T.IntValue));
      num(std::bit_cast<uint64_t>(T.FloatValue));
      num(T.Loc.Line);
      num(T.Loc.Col);
    }
  }

  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

template <typename Config, typename SourceFn>
uint64_t spaceDigest(const std::vector<Config> &Space, SourceFn Source) {
  TokenDigest D;
  for (const Config &C : Space)
    D.lexed(Source(C));
  return D.value();
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

// Recorded with the lexer that owned a std::string per token; every token
// of these inputs must come out the same, bit for bit.

TEST(Lexer, TokenStreamDigest) {
  using namespace kernels;
  struct Case {
    const char *Name;
    uint64_t Got, Want;
  };
  std::vector<Case> Cases = {
      {"gemm-blocked", spaceDigest(gemmBlockedSpace(), gemmBlockedDahlia),
       0x4b044b314c5895e5},
      {"stencil2d", spaceDigest(stencil2dSpace(), stencil2dDahlia),
       0x33e419815083bea9},
      {"md-knn", spaceDigest(mdKnnSpace(), mdKnnDahlia), 0x5b75bfcdfa5367e5},
      {"md-grid", spaceDigest(mdGridSpace(), mdGridDahlia), 0xbd37a811e8e98885},
  };

  TokenDigest Mach;
  for (const MachSuiteBenchmark &B : machSuiteBenchmarks())
    Mach.lexed(B.DahliaSource);
  Cases.push_back({"machsuite", Mach.value(), 0x86a9aaf48abb7c88});

  std::vector<std::filesystem::path> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(DAHLIA_FUZZ_CORPUS_DIR))
    Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  TokenDigest Corpus;
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Corpus.lexed(SS.str());
  }
  Cases.push_back({"fuzz-corpus", Corpus.value(), 0xa5b4edff9ebeedcf});

  // Whitespace is the C-locale isspace set; an overflowing literal
  // saturates (strtoll); floats follow strtod.
  TokenDigest Edges;
  for (std::string_view Src :
       {"a\vb\fc\rd\te\n f", "99999999999999999999", "18446744073709551616",
        "9223372036854775807 9223372036854775808", "1.5e3 2E-2 1e10 3.25e+1",
        "0.5..2 007 1.", "a /* never closed", "a /* x */ b // y", "/*",
        "a_1 _b __ let_ letx lets views", "x:=1; y :  =2 ---- ...",
        "!a &b |c", "a $ b", "#", "A{0}[1] <= >= == != && ||"})
    Edges.lexed(Src);
  Cases.push_back({"edges", Edges.value(), 0x64ec164193aa1eab});

  // Recorded after two fixes: a rewound exponent no longer drifts the
  // column, and bytes outside printable ASCII are spelled \xNN.
  TokenDigest Fixed;
  for (std::string_view Src : {"1e", "x 2e+ y", "3E- z", "1.5ex", "a \xc3\xa9",
                               "\x01", "\x7f", "\xff"})
    Fixed.lexed(Src);
  Cases.push_back({"fixed", Fixed.value(), 0x260839d41bfee07c});

  for (const Case &C : Cases)
    EXPECT_EQ(C.Got, C.Want) << C.Name << " " << hex(C.Got);
}

} // namespace
