// JSON value model, parser and serialiser.
//
// App transaction bodies are JSON (paper Fig. 5); the analysis describes
// response schemas as JSON paths ("data.products[*].product_info.id") and
// dynamic learning extracts dependency values from concrete responses at
// those paths. This is a small, strict implementation: UTF-8 pass-through,
// \uXXXX escapes decoded for the BMP, numbers kept as double or int64.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace appx::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps object keys ordered, which makes serialisation canonical —
// important because signature hashes are computed over serialised forms.
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(int v) : data_(static_cast<std::int64_t>(v)) {}
  Value(std::int64_t v) : data_(v) {}
  Value(double v) : data_(v) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Checked accessors; throw appx::InvalidStateError on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  // accepts int too
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // Object member access. `at` throws NotFoundError; `find` returns nullptr.
  const Value& at(const std::string& key) const;
  const Value* find(const std::string& key) const;
  Value& operator[](const std::string& key);  // creates members (object only)

  // Array element access.
  const Value& at(std::size_t index) const;
  std::size_t size() const;  // array/object size; 0 otherwise

  // Render any scalar as a string (numbers/bools formatted; strings verbatim).
  // Used when a JSON field feeds a URI/query/body hole.
  std::string scalar_to_string() const;

  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const { return data_ == other.data_; }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

// Parse a complete JSON document; throws appx::ParseError on malformed input.
Value parse(std::string_view text);

// --- Path queries -----------------------------------------------------------
//
// Path grammar: dot-separated member names with optional array steps:
//   data.products[*].product_info.id     (all elements)
//   data.products[0].id                  (one element)
// A path addressing through [*] can produce multiple results; this is exactly
// the paper's case of one /api/get-feed response yielding 30 prefetch
// instances (one per item id).

struct PathStep {
  std::string key;           // member name ("" for a bare index step)
  bool indexed = false;      // has [..]?
  bool wildcard = false;     // [*]
  std::size_t index = 0;     // [n]
};

class Path {
 public:
  // Parses the textual form; throws ParseError on bad syntax.
  explicit Path(std::string_view text);
  Path() = default;

  const std::string& text() const { return text_; }
  const std::vector<PathStep>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }

  // All values at this path (empty when the path does not resolve).
  std::vector<const Value*> resolve(const Value& root) const { return resolve(root, steps_); }
  // The same over any run of steps, e.g. the part of a path after its [*].
  static std::vector<const Value*> resolve(const Value& root, std::span<const PathStep> steps);

  // First value, or nullptr.
  const Value* resolve_first(const Value& root) const;

  // True when [*] appears: a single response can yield multiple bindings.
  bool is_multi() const;

  bool operator==(const Path& other) const { return text_ == other.text_; }

 private:
  std::string text_;
  std::vector<PathStep> steps_;
};

// Set the value at a path, creating intermediate objects/arrays. Wildcards
// are not allowed. Used by the content-store / server model.
void set_at(Value& root, const Path& path, Value value);

}  // namespace appx::json
