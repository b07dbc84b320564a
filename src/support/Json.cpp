//===- Json.cpp - Minimal JSON value, parser, and serializer ----*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace dahlia;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void escapeTo(std::string &Out, const std::string &S) {
  static const char Hex[] = "0123456789abcdef";
  Out += '"';
  size_t Run = 0; // Start of the pending run of bytes that need no escape.
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S, Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += "\\u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xF];
    }
  }
  Out.append(S, Run, S.size() - Run);
  Out += '"';
}

/// The shortest `%.{P}g` text that parses back to \p D. No P below the
/// digit count of the shortest round-trip form can round-trip, so the
/// search starts there; it usually succeeds at once, and only a value
/// whose correctly rounded P-digit text misses goes on to P + 1.
void doubleTo(std::string &Out, double D) {
  if (!std::isfinite(D)) {
    Out += "null"; // JSON has no Inf/NaN; null is the conventional stand-in.
    return;
  }
  char Buf[32];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), D,
                            std::chars_format::scientific)
                  .ptr;
  int Prec = 0;
  for (const char *P = Buf; P != End && *P != 'e'; ++P)
    Prec += std::isdigit(static_cast<unsigned char>(*P)) != 0;
  for (;; ++Prec) {
    End = std::to_chars(Buf, Buf + sizeof(Buf), D, std::chars_format::general,
                        Prec)
              .ptr;
    double Back = 0;
    std::from_chars(Buf, End, Back);
    if (Back == D || Prec >= 17)
      break;
  }
  Out.append(Buf, End);
}

void dumpTo(std::string &Out, const Json &J) {
  if (J.isNull()) {
    Out += "null";
  } else if (J.isBool()) {
    Out += J.asBool() ? "true" : "false";
  } else if (J.isInt()) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), J.asInt()).ptr);
  } else if (J.isDouble()) {
    doubleTo(Out, J.asDouble());
  } else if (J.isString()) {
    escapeTo(Out, J.asString());
  } else if (J.isArray()) {
    Out += '[';
    bool First = true;
    for (const Json &E : J.asArray()) {
      if (!First)
        Out += ',';
      First = false;
      dumpTo(Out, E);
    }
    Out += ']';
  } else {
    Out += '{';
    bool First = true;
    for (const auto &[K, V] : J.asObject()) {
      if (!First)
        Out += ',';
      First = false;
      escapeTo(Out, K);
      Out += ':';
      dumpTo(Out, V);
    }
    Out += '}';
  }
}

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpTo(Out, *this);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(std::string_view Text, std::string *Err) : Text(Text), Err(Err) {}

  std::optional<Json> run() {
    std::optional<Json> J = value(0);
    if (!J)
      return std::nullopt;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after value");
    return J;
  }

private:
  std::optional<Json> fail(const std::string &Why) {
    if (Err && Err->empty())
      *Err = Why + " at offset " + std::to_string(Pos);
    return std::nullopt;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  std::optional<Json> value(int Depth) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      return literal("null") ? std::optional<Json>(Json(nullptr))
                             : fail("invalid literal");
    case 't':
      return literal("true") ? std::optional<Json>(Json(true))
                             : fail("invalid literal");
    case 'f':
      return literal("false") ? std::optional<Json>(Json(false))
                              : fail("invalid literal");
    case '"':
      return string();
    case '[':
      return array(Depth);
    case '{':
      return object(Depth);
    default:
      return number();
    }
  }

  /// Containers recurse through value(); a hostile line of 100k '['s
  /// would otherwise overflow the stack long before any size cap fires.
  /// 192 frames is far beyond any legitimate protocol payload and well
  /// inside the smallest default thread stack.
  static constexpr int MaxDepth = 192;

  std::optional<Json> number() {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos == Start || (Pos == Start + 1 && Text[Start] == '-'))
      return fail("invalid number");
    std::string Num(Text.substr(Start, Pos - Start));
    if (!IsDouble) {
      errno = 0;
      char *End = nullptr;
      long long I = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0')
        return Json(static_cast<int64_t>(I));
      // Out-of-range integers degrade to double.
    }
    return Json(std::strtod(Num.c_str(), nullptr));
  }

  std::optional<Json> string() {
    ++Pos; // opening quote
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Json(std::move(Out));
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= H - '0';
          else if (H >= 'a' && H <= 'f')
            Code |= H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code |= H - 'A' + 10;
          else
            return fail("invalid \\u escape");
        }
        // Encode as UTF-8 (surrogate pairs are passed through as two
        // 3-byte sequences; the protocol never emits them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  std::optional<Json> array(int Depth) {
    ++Pos; // '['
    if (Depth >= MaxDepth)
      return fail("value nesting exceeds " + std::to_string(MaxDepth));
    Json::Array Out;
    skipWs();
    if (consume(']'))
      return Json(std::move(Out));
    while (true) {
      std::optional<Json> E = value(Depth + 1);
      if (!E)
        return std::nullopt;
      Out.push_back(std::move(*E));
      skipWs();
      if (consume(']'))
        return Json(std::move(Out));
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  std::optional<Json> object(int Depth) {
    ++Pos; // '{'
    if (Depth >= MaxDepth)
      return fail("value nesting exceeds " + std::to_string(MaxDepth));
    Json::Object Out;
    skipWs();
    if (consume('}'))
      return Json(std::move(Out));
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected string key in object");
      std::optional<Json> K = string();
      if (!K)
        return std::nullopt;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      std::optional<Json> V = value(Depth + 1);
      if (!V)
        return std::nullopt;
      Out[K->asString()] = std::move(*V);
      skipWs();
      if (consume('}'))
        return Json(std::move(Out));
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

std::optional<Json> Json::parse(std::string_view Text, std::string *Err) {
  if (Err)
    Err->clear();
  return Parser(Text, Err).run();
}
