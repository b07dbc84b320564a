//===- Error.cpp - Error values and Result<T> ------------------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"

#include <sstream>

using namespace dahlia;

std::string SourceLoc::str() const {
  if (!isValid())
    return "<unknown>";
  std::ostringstream OS;
  OS << Line << ':' << Col;
  return OS.str();
}

namespace {

/// The one spelling of each kind, for diagnostics and the wire alike.
constexpr std::pair<ErrorKind, const char *> KindNames[] = {
    {ErrorKind::Lex, "lex"},
    {ErrorKind::Parse, "parse"},
    {ErrorKind::Type, "type"},
    {ErrorKind::Affine, "affine"},
    {ErrorKind::Banking, "banking"},
    {ErrorKind::Unroll, "unroll"},
    {ErrorKind::View, "view"},
    {ErrorKind::Semantics, "semantics"},
    {ErrorKind::Internal, "internal"},
};

} // namespace

const char *dahlia::errorKindName(ErrorKind Kind) {
  for (const auto &[K, Name] : KindNames)
    if (K == Kind)
      return Name;
  return "unknown";
}

std::optional<ErrorKind> dahlia::errorKindFromName(std::string_view Name) {
  for (const auto &[K, KName] : KindNames)
    if (Name == KName)
      return K;
  return std::nullopt;
}

std::string Error::str() const {
  std::ostringstream OS;
  if (Loc.isValid())
    OS << Loc.str() << ": ";
  OS << errorKindName(Kind) << " error: " << Message;
  return OS.str();
}
