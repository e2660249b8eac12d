/// \file
/// Minimal dependency-free JSON support shared by the observability
/// layers: a full-grammar recursive-descent parser (objects, arrays,
/// strings, numbers, bools, null) used by the telemetry/trace validators,
/// and the two writing helpers (escaped strings, shortest-round-trip
/// numbers) every exporter in the tree uses so their byte-level output
/// conventions cannot drift apart.
///
/// The parser exists for *validation* (`stemroot check telemetry|trace`,
/// the audit tests): it keeps \u escapes verbatim instead of decoding
/// them, rejects trailing garbage, and reports a character offset with
/// every error.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stemroot::json {

struct Value;
using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// One parsed JSON value. Objects keep their key order (validators check
/// schemas, not maps), and bools are stored in `number` (1.0 / 0.0).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string string;
  std::shared_ptr<Object> object;
  std::shared_ptr<Array> array;

  /// First member with this key (nullptr when absent or not an object).
  const Value* Find(std::string_view key) const;

  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
};

/// Parse a complete document. On failure returns false and, when `error`
/// is non-null, stores a one-line reason prefixed with the byte offset.
bool Parse(std::string_view text, Value& out, std::string* error);

/// Append `s` as a quoted JSON string with the mandatory escapes.
void AppendString(std::string& out, std::string_view s);

/// Shortest round-trip decimal form of a double (std::to_chars):
/// byte-stable for identical bits and locale-independent, so
/// deterministic exports stay byte-identical.
std::string Number(double v);

}  // namespace stemroot::json
