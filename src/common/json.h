#ifndef EADRL_COMMON_JSON_H_
#define EADRL_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace eadrl::json {

/// Minimal read-only JSON document model. The repo produces several JSON
/// artifacts (metric snapshots, Chrome trace exports); this
/// parser exists so tests and the trace validator can round-trip them
/// without an external dependency.
///
/// Objects preserve document order and are stored as flat member vectors
/// (duplicate keys are kept; Find returns the first). Numbers are doubles.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, Value>;

  Value() = default;  // null

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one for the value's type aborts
  /// (programmer error — test `type()` first).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<Value>& AsArray() const;
  const std::vector<Member>& AsObject() const;

  /// First member with `key`, or nullptr when absent / not an object.
  const Value* Find(const std::string& key) const;

 private:
  friend class Parser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Errors carry a byte offset in the message. Nesting
/// deeper than an internal limit (~200 levels) is rejected rather than
/// risking stack exhaustion.
StatusOr<Value> Parse(const std::string& text);

}  // namespace eadrl::json

#endif  // EADRL_COMMON_JSON_H_
