//===- Lexer.cpp - Dahlia lexer ---------------------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "lexer/Lexer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
#include <string>

using namespace dahlia;

const char *dahlia::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::FloatLit:
    return "float literal";
  case TokKind::KwLet:
    return "'let'";
  case TokKind::KwView:
    return "'view'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwUnroll:
    return "'unroll'";
  case TokKind::KwCombine:
    return "'combine'";
  case TokKind::KwDef:
    return "'def'";
  case TokKind::KwDecl:
    return "'decl'";
  case TokKind::KwTrue:
    return "'true'";
  case TokKind::KwFalse:
    return "'false'";
  case TokKind::KwBank:
    return "'bank'";
  case TokKind::KwBy:
    return "'by'";
  case TokKind::KwShrink:
    return "'shrink'";
  case TokKind::KwSuffix:
    return "'suffix'";
  case TokKind::KwShift:
    return "'shift'";
  case TokKind::KwSplit:
    return "'split'";
  case TokKind::KwSkip:
    return "'skip'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Semi:
    return "';'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Comma:
    return "','";
  case TokKind::Assign:
    return "':='";
  case TokKind::Equal:
    return "'='";
  case TokKind::SeqSep:
    return "'---'";
  case TokKind::DotDot:
    return "'..'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::PlusEq:
    return "'+='";
  case TokKind::MinusEq:
    return "'-='";
  case TokKind::StarEq:
    return "'*='";
  case TokKind::SlashEq:
    return "'/='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Ge:
    return "'>='";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  }
  return "unknown token";
}

static TokKind keywordKind(std::string_view Word) {
  switch (Word.size()) {
  case 2:
    if (Word == "if")
      return TokKind::KwIf;
    if (Word == "by")
      return TokKind::KwBy;
    break;
  case 3:
    if (Word == "let")
      return TokKind::KwLet;
    if (Word == "for")
      return TokKind::KwFor;
    if (Word == "def")
      return TokKind::KwDef;
    break;
  case 4:
    if (Word == "view")
      return TokKind::KwView;
    if (Word == "else")
      return TokKind::KwElse;
    if (Word == "decl")
      return TokKind::KwDecl;
    if (Word == "true")
      return TokKind::KwTrue;
    if (Word == "bank")
      return TokKind::KwBank;
    if (Word == "skip")
      return TokKind::KwSkip;
    break;
  case 5:
    if (Word == "while")
      return TokKind::KwWhile;
    if (Word == "false")
      return TokKind::KwFalse;
    if (Word == "shift")
      return TokKind::KwShift;
    if (Word == "split")
      return TokKind::KwSplit;
    break;
  case 6:
    if (Word == "unroll")
      return TokKind::KwUnroll;
    if (Word == "shrink")
      return TokKind::KwShrink;
    if (Word == "suffix")
      return TokKind::KwSuffix;
    break;
  case 7:
    if (Word == "combine")
      return TokKind::KwCombine;
    break;
  }
  return TokKind::Ident;
}

namespace {

/// Character classes: the C-locale isspace / isdigit sets, and isalpha
/// plus '_' for identifier starts. Bytes >= 0x80 belong to none.
enum CharClass : uint8_t { Space = 1, Digit = 2, IdStart = 4 };

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[static_cast<unsigned char>(C)] = Space;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = IdStart;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = IdStart;
  T['_'] = IdStart;
  return T;
}

constexpr std::array<uint8_t, 256> Classes = makeClasses();

bool inClass(char C, uint8_t Mask) {
  return Classes[static_cast<unsigned char>(C)] & Mask;
}

/// strtoll on a run of decimal digits: an overflowing literal saturates
/// to INT64_MAX.
int64_t decimalValue(std::string_view Digits) {
  uint64_t V = 0;
  for (char C : Digits) {
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (static_cast<uint64_t>(INT64_MAX) - D) / 10)
      return INT64_MAX;
    V = V * 10 + D;
  }
  return static_cast<int64_t>(V);
}

/// strtod on \p Text, copied because a view is not NUL-terminated.
double floatValue(std::string_view Text) {
  return strtod(std::string(Text).c_str(), nullptr);
}

/// A byte as a diagnostic shows it: printable ASCII as itself, anything
/// else as \xNN, so a message stays valid UTF-8 whatever the input.
std::string spellByte(char C) {
  auto U = static_cast<unsigned char>(C);
  if (U >= 0x20 && U < 0x7f)
    return std::string(1, C);
  const char *Hex = "0123456789abcdef";
  return {'\\', 'x', Hex[U >> 4], Hex[U & 0xf]};
}

/// Single-pass scanner over a source buffer with line/column tracking.
/// Tokens are written straight into one vector and view the source; the
/// first error stops the scan and is kept.
class Scanner {
public:
  explicit Scanner(std::string_view Source) : Src(Source) {}

  Result<std::vector<Token>> run() {
    // Dahlia sources run about 3 bytes per token (gemm-blocked: 3.0);
    // reserving for 2 makes growth rare. The cap keeps a large source
    // that is mostly comment (a service line may be 4 MB) from reserving
    // memory its tokens never use.
    Toks.reserve(std::min<size_t>(Src.size() / 2 + 1, 4096));
    while (skipTrivia()) {
      if (atEnd()) {
        Toks.push_back({TokKind::Eof, Src.substr(Pos, 0), 0, 0, loc()});
        return std::move(Toks);
      }
      if (!next())
        break;
    }
    return std::move(*Err);
  }

private:
  std::string_view Src;
  size_t Pos = 0;
  size_t LineStart = 0; ///< Offset of the current line's first byte.
  uint32_t Line = 1;
  std::vector<Token> Toks;
  std::optional<Error> Err;

  bool atEnd() const { return Pos >= Src.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  /// The column is derived from Pos, so rewinding Pos rewinds it too.
  SourceLoc loc() const {
    return SourceLoc(Line, static_cast<uint32_t>(Pos - LineStart + 1));
  }

  /// Steps over one byte, which may be a newline.
  void advance() {
    if (Src[Pos++] == '\n') {
      ++Line;
      LineStart = Pos;
    }
  }

  void skipWhile(uint8_t Mask) {
    while (!atEnd() && inClass(Src[Pos], Mask))
      ++Pos;
  }

  bool fail(std::string Message, SourceLoc Loc) {
    Err.emplace(ErrorKind::Lex, std::move(Message), Loc);
    return false;
  }

  bool skipTrivia() {
    while (!atEnd()) {
      char C = Src[Pos];
      if (inClass(C, Space)) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!atEnd() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start = loc();
        Pos += 2;
        while (!(peek() == '*' && peek(1) == '/')) {
          if (atEnd())
            return fail("unterminated block comment", Start);
          advance();
        }
        Pos += 2;
        continue;
      }
      return true;
    }
    return true;
  }

  bool next() {
    SourceLoc Loc = loc();
    size_t Start = Pos;
    char C = Src[Pos];
    if (inClass(C, IdStart)) {
      skipWhile(IdStart | Digit);
      std::string_view Word = Src.substr(Start, Pos - Start);
      Toks.push_back({keywordKind(Word), Word, 0, 0, Loc});
      return true;
    }
    if (inClass(C, Digit)) {
      lexNumber(Start, Loc);
      return true;
    }
    return lexPunct(Loc);
  }

  void lexNumber(size_t Start, SourceLoc Loc) {
    bool IsFloat = false;
    skipWhile(Digit);
    // Accept a fractional part, but not the range operator "..".
    if (peek() == '.' && inClass(peek(1), Digit)) {
      IsFloat = true;
      ++Pos;
      skipWhile(Digit);
    }
    if (peek() == 'e' || peek() == 'E') {
      size_t Save = Pos;
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (inClass(peek(), Digit)) {
        IsFloat = true;
        skipWhile(Digit);
      } else {
        Pos = Save; // Not an exponent after all.
      }
    }
    std::string_view Text = Src.substr(Start, Pos - Start);
    if (IsFloat)
      Toks.push_back({TokKind::FloatLit, Text, 0, floatValue(Text), Loc});
    else
      Toks.push_back({TokKind::IntLit, Text, decimalValue(Text), 0, Loc});
  }

  bool lexPunct(SourceLoc Loc) {
    auto Make = [&](TokKind K, size_t Len) {
      Toks.push_back({K, Src.substr(Pos, Len), 0, 0, Loc});
      Pos += Len;
      return true;
    };
    char C = peek();
    switch (C) {
    case '(':
      return Make(TokKind::LParen, 1);
    case ')':
      return Make(TokKind::RParen, 1);
    case '{':
      return Make(TokKind::LBrace, 1);
    case '}':
      return Make(TokKind::RBrace, 1);
    case '[':
      return Make(TokKind::LBracket, 1);
    case ']':
      return Make(TokKind::RBracket, 1);
    case ';':
      return Make(TokKind::Semi, 1);
    case ',':
      return Make(TokKind::Comma, 1);
    case ':':
      return peek(1) == '=' ? Make(TokKind::Assign, 2)
                            : Make(TokKind::Colon, 1);
    case '.':
      if (peek(1) == '.')
        return Make(TokKind::DotDot, 2);
      break;
    case '-':
      if (peek(1) == '-' && peek(2) == '-')
        return Make(TokKind::SeqSep, 3);
      if (peek(1) == '=')
        return Make(TokKind::MinusEq, 2);
      return Make(TokKind::Minus, 1);
    case '+':
      return peek(1) == '=' ? Make(TokKind::PlusEq, 2)
                            : Make(TokKind::Plus, 1);
    case '*':
      return peek(1) == '=' ? Make(TokKind::StarEq, 2)
                            : Make(TokKind::Star, 1);
    case '/':
      return peek(1) == '=' ? Make(TokKind::SlashEq, 2)
                            : Make(TokKind::Slash, 1);
    case '%':
      return Make(TokKind::Percent, 1);
    case '=':
      return peek(1) == '=' ? Make(TokKind::EqEq, 2)
                            : Make(TokKind::Equal, 1);
    case '!':
      if (peek(1) == '=')
        return Make(TokKind::NotEq, 2);
      break;
    case '<':
      return peek(1) == '=' ? Make(TokKind::Le, 2) : Make(TokKind::Lt, 1);
    case '>':
      return peek(1) == '=' ? Make(TokKind::Ge, 2) : Make(TokKind::Gt, 1);
    case '&':
      if (peek(1) == '&')
        return Make(TokKind::AndAnd, 2);
      break;
    case '|':
      if (peek(1) == '|')
        return Make(TokKind::OrOr, 2);
      break;
    default:
      break;
    }
    return fail(concat("unexpected character '", spellByte(C), "'"), Loc);
  }
};

} // namespace

Result<std::vector<Token>> dahlia::lex(std::string_view Source) {
  return Scanner(Source).run();
}
