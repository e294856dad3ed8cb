// Strict JSON well-formedness check for tests that render JSON documents:
// RFC 8259 grammar, string escapes, number syntax, no raw control bytes, and
// structurally valid UTF-8. Checks shape only; builds no document.
#pragma once

#include <cstddef>
#include <string_view>

namespace ncnas::testing {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}

  bool document() {
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 256;

  void ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool digits() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > start;
  }
  bool number() {
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ < s_.size() && s_[i_] == '0') {
      ++i_;
    } else if (!digits()) {
      return false;
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (!digits()) return false;
    }
    return true;
  }
  static bool hex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;  // raw control byte
      if (c == '\\') {
        if (++i_ >= s_.size()) return false;
        const char esc = s_[i_++];
        if (esc == 'u') {
          for (int k = 0; k < 4; ++k, ++i_) {
            if (i_ >= s_.size() || !hex(s_[i_])) return false;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) == std::string_view::npos) {
          return false;
        }
        continue;
      }
      // UTF-8: a lead byte announces 0-3 continuation bytes of form 10xxxxxx.
      const int extra = c < 0x80 ? 0 : (c >> 5) == 0x6 ? 1 : (c >> 4) == 0xE ? 2
                                                        : (c >> 3) == 0x1E ? 3 : -1;
      if (extra < 0) return false;
      ++i_;
      for (int k = 0; k < extra; ++k, ++i_) {
        if (i_ >= s_.size() || (static_cast<unsigned char>(s_[i_]) >> 6) != 0x2) return false;
      }
    }
    return false;  // unterminated
  }
  bool value(int depth) {
    if (depth > kMaxDepth) return false;
    ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (eat('}')) return true;
      do {
        ws();
        if (!string() || !eat(':') || !value(depth + 1)) return false;
      } while (eat(','));
      return eat('}');
    }
    if (c == '[') {
      ++i_;
      if (eat(']')) return true;
      do {
        if (!value(depth + 1)) return false;
      } while (eat(','));
      return eat(']');
    }
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

inline bool is_valid_json(std::string_view text) { return JsonChecker(text).document(); }

}  // namespace ncnas::testing
