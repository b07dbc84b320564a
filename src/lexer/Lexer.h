//===- Lexer.h - Dahlia lexer -----------------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the Dahlia surface syntax. Notable tokens: the
/// ordered-composition separator `---`, the range `..`, the assignment
/// `:=`, and the reducers `+=` `-=` `*=` `/=`.
///
/// Tokens do not own their text: \c Token::Text is a view into the source
/// buffer passed to \c lex, so a token stream is valid only while that
/// buffer is alive and unmodified. Whatever outlives the source (AST
/// names, diagnostics) copies the text out.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_LEXER_LEXER_H
#define DAHLIA_LEXER_LEXER_H

#include "support/Error.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace dahlia {

/// Token kinds produced by the lexer.
enum class TokKind {
  Eof,
  Ident,
  IntLit,
  FloatLit,
  // Keywords.
  KwLet,
  KwView,
  KwIf,
  KwElse,
  KwWhile,
  KwFor,
  KwUnroll,
  KwCombine,
  KwDef,
  KwDecl,
  KwTrue,
  KwFalse,
  KwBank,
  KwBy,
  KwShrink,
  KwSuffix,
  KwShift,
  KwSplit,
  KwSkip,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Colon,
  Comma,
  Assign,    ///< :=
  Equal,     ///< =
  SeqSep,    ///< ---
  DotDot,    ///< ..
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  PlusEq,
  MinusEq,
  StarEq,
  SlashEq,
  EqEq,
  NotEq,
  Lt,
  Gt,
  Le,
  Ge,
  AndAnd,
  OrOr,
};

/// Human-readable token-kind name for diagnostics.
const char *tokKindName(TokKind Kind);

/// One lexed token. \c Text is the source spelling (a view into the
/// source; empty for Eof); \c IntValue / \c FloatValue carry decoded
/// literal values.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string_view Text;
  int64_t IntValue = 0;
  double FloatValue = 0;
  SourceLoc Loc;

  bool is(TokKind K) const { return Kind == K; }
};

/// Lexes \p Source in one pass; `//` line comments and `/* */` block
/// comments are skipped. Returns the token stream (terminated by Eof) or
/// the first lexical error. The tokens view \p Source's bytes.
Result<std::vector<Token>> lex(std::string_view Source);

} // namespace dahlia

#endif // DAHLIA_LEXER_LEXER_H
