#include "ncnas/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace ncnas::obs {

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c)) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Doubles are written with enough digits to round-trip exactly, so a replay
// applies the driver's deadline rule to bit-identical timestamps.
void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;  // JSON has no Inf/NaN; clamp rather than emit invalid output
    return;
  }
  if (std::abs(v) < 1e15 && v == static_cast<double>(static_cast<long long>(v))) {
    os << static_cast<long long>(v);
  } else {
    std::ostringstream tmp;
    tmp << std::setprecision(17) << v;
    os << tmp.str();
  }
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

constexpr int kMaxDepth = 32;

class Reader {
 public:
  Reader(std::string_view s, std::string_view context) : s_(s), context_(context) {}

  JsonValue document() {
    JsonValue out = value(1);
    ws();
    if (i_ != s_.size()) fail("trailing bytes after the document");
    return out;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string(context_) + ": " + what + " at byte " +
                             std::to_string(i_));
  }
  void ws() {
    while (i_ < s_.size() && std::string_view(" \t\n\r").find(s_[i_]) != std::string_view::npos) {
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
  void expect(char c, const char* what) {
    if (!eat(c)) fail(what);
  }
  void literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) fail("malformed literal");
    i_ += word.size();
  }
  bool digit() const { return i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9'; }
  void digits() {
    if (!digit()) fail("expected a digit");
    while (digit()) ++i_;
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) fail("unexpected end of input");
    JsonValue out;
    switch (s_[i_]) {
      case '{':
        ++i_;
        out.kind = JsonValue::Kind::kObject;
        if (eat('}')) break;
        do {
          ws();
          std::string key = string();
          expect(':', "expected ':'");
          out.object.emplace_back(std::move(key), value(depth + 1));
        } while (eat(','));
        expect('}', "expected ',' or '}'");
        break;
      case '[':
        ++i_;
        out.kind = JsonValue::Kind::kArray;
        if (eat(']')) break;
        do {
          out.array.push_back(value(depth + 1));
        } while (eat(','));
        expect(']', "expected ',' or ']'");
        break;
      case '"':
        out.kind = JsonValue::Kind::kString;
        out.string = string();
        break;
      case 't':
        literal("true");
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        break;
      case 'f':
        literal("false");
        out.kind = JsonValue::Kind::kBool;
        break;
      case 'n':
        literal("null");
        break;
      default:
        out.kind = JsonValue::Kind::kNumber;
        out.number = number();
    }
    return out;
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — checked here, then
  // converted by from_chars; an out-of-range literal falls back to strtod,
  // which saturates it to +-inf or 0.
  double number() {
    const std::size_t start = i_;
    if (s_[i_] == '-') ++i_;
    if (i_ < s_.size() && s_[i_] == '0') {
      ++i_;
    } else {
      digits();
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      digits();
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      digits();
    }
    double v = 0.0;
    if (std::from_chars(s_.data() + start, s_.data() + i_, v).ec == std::errc()) return v;
    return std::strtod(std::string(s_.substr(start, i_ - start)).c_str(), nullptr);
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  std::string string() {
    if (i_ >= s_.size() || s_[i_] != '"') fail("expected a string");
    ++i_;
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      const auto c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return out;
      if (c >= 0x80) fail("non-ASCII byte in string");
      if (c < 0x20) fail("raw control byte in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated string");
      switch (s_[i_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          int code = 0;
          for (int k = 0; k < 4; ++k, ++i_) {
            const int d = i_ < s_.size() ? hex_digit(s_[i_]) : -1;
            if (d < 0) fail("malformed \\u escape");
            code = code * 16 + d;
          }
          if (code >= 0x80) fail("non-ASCII escape in string");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  std::string_view s_;
  std::string_view context_;
  std::size_t i_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text, std::string_view context) {
  return Reader(text, context).document();
}

}  // namespace ncnas::obs
