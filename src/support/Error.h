//===- Error.h - Error values and Result<T> ---------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exception-free error handling. User-input failures (parse errors, type
/// errors) are reported as \c Error values carried in \c Result<T>;
/// programmer errors are asserts.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_ERROR_H
#define DAHLIA_SUPPORT_ERROR_H

#include "support/SourceLoc.h"

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace dahlia {

/// Broad classification of a user-visible failure.
enum class ErrorKind {
  Lex,       ///< Malformed token.
  Parse,     ///< Syntax error.
  Type,      ///< Ordinary type mismatch.
  Affine,    ///< Affine resource (memory bank) already consumed.
  Banking,   ///< Illegal banking declaration (e.g. bank does not divide size).
  Unroll,    ///< Illegal unroll (e.g. insufficient banks for parallel access).
  View,      ///< Illegal view declaration or use.
  Semantics, ///< Checked interpreter got stuck (memory conflict).
  Internal,  ///< Should not happen; kept recoverable for tooling.
};

/// Human-readable name for an \c ErrorKind ("affine", "banking", ...).
const char *errorKindName(ErrorKind Kind);

/// Inverse of errorKindName; std::nullopt for a name no kind has.
std::optional<ErrorKind> errorKindFromName(std::string_view Name);

/// A user-visible failure: kind, message, and optional source location.
///
/// Messages follow the LLVM diagnostic style: lowercase first letter, no
/// trailing period.
class Error {
public:
  Error(ErrorKind Kind, std::string Message, SourceLoc Loc = SourceLoc())
      : Kind(Kind), Message(std::move(Message)), Loc(Loc) {}

  ErrorKind kind() const { return Kind; }
  const std::string &message() const { return Message; }
  SourceLoc loc() const { return Loc; }

  /// Renders as "line:col: <kind> error: <message>".
  std::string str() const;

private:
  ErrorKind Kind;
  std::string Message;
  SourceLoc Loc;
};

/// Either a value of type \p T or an \c Error. Modeled after llvm::Expected
/// but copyable and exception-free.
template <typename T> class Result {
public:
  Result(T Value) : Storage(std::move(Value)) {}
  Result(Error E) : Storage(std::move(E)) {}

  explicit operator bool() const { return std::holds_alternative<T>(Storage); }

  const T &operator*() const {
    assert(*this && "dereferencing an error Result");
    return std::get<T>(Storage);
  }
  T &operator*() {
    assert(*this && "dereferencing an error Result");
    return std::get<T>(Storage);
  }
  const T *operator->() const { return &**this; }
  T *operator->() { return &**this; }

  const Error &error() const {
    assert(!*this && "taking error of a success Result");
    return std::get<Error>(Storage);
  }

  /// Moves the value out; only valid on success.
  T take() {
    assert(*this && "taking value of an error Result");
    return std::move(std::get<T>(Storage));
  }

private:
  std::variant<T, Error> Storage;
};

/// Result specialisation for operations that produce no value.
class ResultVoid {
public:
  ResultVoid() = default;
  ResultVoid(Error E) : Err(std::move(E)) {}

  explicit operator bool() const { return !Err.has_value(); }
  const Error &error() const {
    assert(Err && "taking error of a success ResultVoid");
    return *Err;
  }

private:
  std::optional<Error> Err;
};

} // namespace dahlia

#endif // DAHLIA_SUPPORT_ERROR_H
