// Minimal JSON value type for the newline-delimited wire protocol.
//
// The server subsystem speaks one JSON object per line over a local
// socket (server/protocol.hpp); this header provides the value model,
// a strict recursive-descent parser, and a deterministic serializer:
//
//  * objects serialize with sorted keys (std::map), so a frame built
//    from the same fields is byte-identical across runs;
//  * numbers round-trip exactly — dump() uses the shortest
//    representation that parses back to the same double
//    (util::format_number), which is what makes "a cache hit bit-agrees
//    with a cold solve" checkable through the wire;
//  * parse() rejects trailing garbage, unterminated strings, bad
//    escapes, and nesting deeper than kMaxDepth with util::Error, so a
//    malformed or adversarial frame is a typed protocol error, never
//    UB or a crash.
//
// Deliberately not a general-purpose JSON library: no comments, no
// NaN/Infinity literals — dump() throws util::Error on a non-finite
// number (a caller with a legitimate non-finite sentinel encodes null
// explicitly, as the solve protocol does for an unbounded bound_factor)
// — and no duplicate-key detection (last wins).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/assert.hpp"

namespace optsched::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Nesting depth bound enforced by parse(): protocol frames are ~2
  /// levels deep, so 64 is generous while keeping recursion on hostile
  /// input bounded.
  static constexpr int kMaxDepth = 64;

  Json() = default;  ///< null
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parse exactly one JSON value spanning the whole input (leading and
  /// trailing whitespace allowed). Throws util::Error with a byte offset
  /// on any syntax violation.
  static Json parse(std::string_view text);

  /// Deterministic one-line serialization (sorted object keys, exact
  /// number round-trip, no insignificant whitespace).
  std::string dump() const;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  // Checked accessors: throw util::Error on a type mismatch, so protocol
  // decoding code reads fields without pre-checking every type() itself.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  /// A non-negative integer that T holds (JSON numbers are doubles);
  /// throws util::Error naming `what` otherwise.
  template <class T>
  T as_count(std::string_view what) const {
    const double x = as_number();
    OPTSCHED_REQUIRE(x >= 0 && x == std::floor(x) &&
                         x < std::ldexp(1.0, std::numeric_limits<T>::digits),
                     std::string(what) + " must be a non-negative integer");
    return static_cast<T>(x);
  }

  // Object helpers (throw util::Error when *this is not an object).
  bool has(const std::string& key) const;
  /// Member lookup; throws util::Error naming the missing key.
  const Json& at(const std::string& key) const;
  /// Member access for building frames; creates the key (and makes a
  /// null value) when absent.
  Json& operator[](const std::string& key);

  // Typed member getters with fallbacks, for optional protocol fields.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_number(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Non-negative integer field (rejects negatives and fractions — the
  /// protocol's counters and byte sizes); throws util::Error otherwise.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;

  // Array helper (throws when *this is not an array).
  void push_back(Json value);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace optsched::util
