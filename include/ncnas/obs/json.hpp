// JSON writer helpers and the one JSON reader behind everything the program
// reads back: the journal (Journal::import_jsonl), the /progress payload
// (parse_progress_json), profile JSON (import_profile_json) and bench JSON
// (examples/perf_diff).
//
// The reader is strict: RFC 8259 grammar, nothing but whitespace after the
// value, ASCII strings only (a byte >= 0x80, raw or \u-escaped, is refused,
// so whatever is re-rendered from a parsed document stays valid UTF-8), and
// at most 32 nested containers (the deepest document the program reads back,
// /progress, nests 3). Every error is a std::runtime_error whose message
// starts with the caller's context.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ncnas::obs {

/// JSON string literal with the journal's escaping rules (quotes, backslash,
/// \n \t \r, \uXXXX for other control bytes). Shared by every JSON-emitting
/// tool in the obs layer so escaping stays consistent across artifacts.
void write_json_string(std::ostream& os, std::string_view s);
/// JSON number: integers print exactly, other finite doubles with enough
/// digits to round-trip; non-finite values clamp to 0 (JSON has no Inf/NaN).
void write_json_number(std::ostream& os, double v);

/// Converts a JSON number to T without undefined behaviour. Integers
/// saturate: values below T's range (and NaN) give its minimum, values past
/// it its maximum, fractions truncate toward zero. Narrower floating types
/// clamp to their finite range; double passes through unchanged.
template <typename T>
[[nodiscard]] T saturate(double v) {
  using Lim = std::numeric_limits<T>;
  if constexpr (std::is_same_v<T, double>) {
    return v;
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(
        std::clamp(v, static_cast<double>(Lim::lowest()), static_cast<double>(Lim::max())));
  } else {
    constexpr double kPastMax = 2.0 * static_cast<double>(Lim::max() / 2 + 1);  // 2^digits
    if (!(v >= static_cast<double>(Lim::min()))) return Lim::min();
    return v < kPastMax ? static_cast<T>(v) : Lim::max();
  }
}

/// A parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

  /// The first member named `key`; null when absent or this is no object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Reads member `key` into `out` when it exists with the kind `out` needs
  /// (bool, std::string, or a number converted by saturate<T>) and returns
  /// true; otherwise leaves `out` unchanged and returns false.
  template <typename T>
  bool get(std::string_view key, T& out) const {
    const JsonValue* v = find(key);
    if constexpr (std::is_same_v<T, bool>) {
      if (v == nullptr || v->kind != Kind::kBool) return false;
      out = v->boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (v == nullptr || v->kind != Kind::kString) return false;
      out = v->string;
    } else {
      if (v == nullptr || v->kind != Kind::kNumber) return false;
      out = saturate<T>(v->number);
    }
    return true;
  }
};

/// Parses one complete JSON document. Throws std::runtime_error
/// ("<context>: <what> at byte N") on anything the strict grammar refuses.
[[nodiscard]] JsonValue parse_json(std::string_view text, std::string_view context);

}  // namespace ncnas::obs
