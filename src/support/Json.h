//===- Json.h - Minimal JSON value, parser, and serializer ------*- C++ -*-===//
//
// Part of dahlia-cpp, a reproduction of "Predictable Accelerator Design with
// Time-Sensitive Affine Types" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value with a recursive-descent parser and
/// a deterministic serializer. This is the wire format of the compile
/// service's line-delimited protocol and of `dahliac --json`; objects keep
/// their members in key order (std::map) so serialized output is stable
/// across runs and platforms — the same property the rest of the codebase
/// demands of hashes and Pareto fronts.
///
/// Integers and doubles are kept apart: request ids and resource counts
/// round-trip exactly, while latencies serialize with enough digits to
/// reconstruct the double.
///
//===----------------------------------------------------------------------===//

#ifndef DAHLIA_SUPPORT_JSON_H
#define DAHLIA_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace dahlia {

/// A JSON value. Construction from literals is implicit so building
/// response objects reads naturally:
///
///   Json R = Json::object();
///   R["id"] = 7;
///   R["ok"] = true;
///   R["errors"] = Json::array();
class Json {
public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : V(nullptr) {}
  Json(std::nullptr_t) : V(nullptr) {}
  Json(bool B) : V(B) {}
  Json(int I) : V(static_cast<int64_t>(I)) {}
  Json(unsigned I) : V(static_cast<int64_t>(I)) {}
  Json(long I) : V(static_cast<int64_t>(I)) {}
  Json(unsigned long I) : V(static_cast<int64_t>(I)) {}
  Json(long long I) : V(static_cast<int64_t>(I)) {}
  Json(unsigned long long I) : V(static_cast<int64_t>(I)) {}
  Json(double D) : V(D) {}
  Json(const char *S) : V(std::string(S)) {}
  Json(std::string S) : V(std::move(S)) {}
  Json(Array A) : V(std::move(A)) {}
  Json(Object O) : V(std::move(O)) {}

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  // Kind observers --------------------------------------------------------

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(V); }
  bool isBool() const { return std::holds_alternative<bool>(V); }
  bool isInt() const { return std::holds_alternative<int64_t>(V); }
  bool isDouble() const { return std::holds_alternative<double>(V); }
  bool isNumber() const { return isInt() || isDouble(); }
  bool isString() const { return std::holds_alternative<std::string>(V); }
  bool isArray() const { return std::holds_alternative<Array>(V); }
  bool isObject() const { return std::holds_alternative<Object>(V); }

  // Accessors (with defaults for absent/mistyped values) ------------------

  bool asBool(bool Default = false) const {
    return isBool() ? std::get<bool>(V) : Default;
  }
  int64_t asInt(int64_t Default = 0) const {
    if (isInt())
      return std::get<int64_t>(V);
    if (isDouble())
      return static_cast<int64_t>(std::get<double>(V));
    return Default;
  }
  double asDouble(double Default = 0) const {
    if (isDouble())
      return std::get<double>(V);
    if (isInt())
      return static_cast<double>(std::get<int64_t>(V));
    return Default;
  }
  const std::string &asString() const {
    static const std::string Empty;
    return isString() ? std::get<std::string>(V) : Empty;
  }
  const Array &asArray() const {
    static const Array Empty;
    return isArray() ? std::get<Array>(V) : Empty;
  }
  const Object &asObject() const {
    static const Object Empty;
    return isObject() ? std::get<Object>(V) : Empty;
  }

  // Object/array conveniences ---------------------------------------------

  /// Member access on objects; creates the member (promoting a null value
  /// to an object first) like std::map::operator[].
  Json &operator[](const std::string &Key) {
    if (isNull())
      V = Object{};
    return std::get<Object>(V)[Key];
  }

  /// Member lookup on const objects: null when absent or not an object.
  const Json &at(const std::string &Key) const {
    static const Json Null;
    if (!isObject())
      return Null;
    auto It = std::get<Object>(V).find(Key);
    return It == std::get<Object>(V).end() ? Null : It->second;
  }
  bool contains(const std::string &Key) const {
    return isObject() && std::get<Object>(V).count(Key) != 0;
  }

  void push_back(Json J) {
    if (isNull())
      V = Array{};
    std::get<Array>(V).push_back(std::move(J));
  }
  size_t size() const {
    if (isArray())
      return std::get<Array>(V).size();
    if (isObject())
      return std::get<Object>(V).size();
    return 0;
  }

  // Serialization ----------------------------------------------------------

  /// Serializes on one line (the protocol's framing forbids raw newlines
  /// outside string escapes, which dump never produces). Integers print
  /// exactly. A double prints as the shortest `%.{P}g` text (P = 1..17)
  /// that parses back to the same double — so 6180.0 is `6.18e+03`, not
  /// `6180` — and as `null` when it is not finite.
  std::string dump() const;

  /// Parses \p Text. On failure returns std::nullopt and, when \p Err is
  /// non-null, a one-line description with the byte offset.
  static std::optional<Json> parse(std::string_view Text,
                                   std::string *Err = nullptr);

private:
  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      V;
};

} // namespace dahlia

#endif // DAHLIA_SUPPORT_JSON_H
