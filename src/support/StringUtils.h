//===- StringUtils.h - Small string helpers ---------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_STRINGUTILS_H
#define DAHLIA_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace dahlia {

/// Splits \p Text on \p Sep; empty fields are kept.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Returns \p Text with leading and trailing ASCII whitespace removed.
std::string_view trimString(std::string_view Text);

/// True if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// An integer type \c concat prints in decimal. \c char is appended as a
/// character and \c bool is not accepted.
template <typename T>
concept DecimalPiece = std::integral<T> && !std::same_as<T, char> &&
                       !std::same_as<T, bool>;

inline size_t pieceSize(std::string_view S) { return S.size(); }
inline size_t pieceSize(char) { return 1; }
template <DecimalPiece T> size_t pieceSize(T) { return 20; }

inline void appendPiece(std::string &Out, std::string_view S) { Out += S; }
inline void appendPiece(std::string &Out, char C) { Out += C; }
template <DecimalPiece T> void appendPiece(std::string &Out, T V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Concatenates strings, characters and integers (in decimal) into one
/// string by appends: the text an ostringstream would build, without the
/// stream or its locale.
template <typename... Ts> std::string concat(const Ts &...Parts) {
  std::string Out;
  Out.reserve((pieceSize(Parts) + ... + 0));
  (appendPiece(Out, Parts), ...);
  return Out;
}

/// The same pieces appended one `<<` at a time, for text built across
/// calls (a printer walking a tree).
class StringAppender {
public:
  template <typename T> StringAppender &operator<<(const T &Piece) {
    appendPiece(Out, Piece);
    return *this;
  }
  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

} // namespace dahlia

#endif // DAHLIA_SUPPORT_STRINGUTILS_H
