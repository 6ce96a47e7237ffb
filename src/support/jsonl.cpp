#include "support/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <istream>

#include "support/contract.hpp"

namespace ahg::obs {

// --- JsonWriter --------------------------------------------------------------

namespace {

void append_escaped_code_point(std::string& out, char32_t cp) {
  char buf[16];
  if (cp <= 0xFFFF) {
    std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(cp));
  } else {
    // Astral plane: UTF-16 surrogate pair (the parser's append_utf8 inverse).
    const char32_t v = cp - 0x10000;
    std::snprintf(buf, sizeof(buf), "\\u%04x\\u%04x",
                  static_cast<unsigned>(0xD800 + (v >> 10)),
                  static_cast<unsigned>(0xDC00 + (v & 0x3FF)));
  }
  out += buf;
}

/// Decode one UTF-8 sequence starting at text[i]; returns the code point and
/// advances i past it, or returns U+FFFD (advancing one byte) on malformed
/// input so hostile bytes can never leak into the JSON output raw.
char32_t decode_utf8(std::string_view text, std::size_t& i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(text[k]);
  };
  const unsigned char lead = byte(i);
  std::size_t len = 0;
  char32_t cp = 0;
  if (lead < 0xC0) {
    ++i;  // lone continuation byte (0x80..0xBF) or invalid lead
    return 0xFFFD;
  } else if (lead < 0xE0) {
    len = 2;
    cp = lead & 0x1F;
  } else if (lead < 0xF0) {
    len = 3;
    cp = lead & 0x0F;
  } else if (lead < 0xF8) {
    len = 4;
    cp = lead & 0x07;
  } else {
    ++i;
    return 0xFFFD;
  }
  if (i + len > text.size()) {
    ++i;
    return 0xFFFD;
  }
  for (std::size_t k = 1; k < len; ++k) {
    const unsigned char c = byte(i + k);
    if ((c & 0xC0) != 0x80) {
      ++i;
      return 0xFFFD;
    }
    cp = (cp << 6) | (c & 0x3F);
  }
  // Reject overlong encodings and surrogate code points.
  static constexpr char32_t kMin[5] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMin[len] || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    ++i;
    return 0xFFFD;
  }
  i += len;
  return cp;
}

}  // namespace

std::string JsonWriter::escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7F) {
      // Remaining control characters (incl. DEL, which trace viewers choke
      // on in event names).
      append_escaped_code_point(out, u);
      ++i;
    } else if (u < 0x80) {
      out += c;
      ++i;
    } else {
      // Non-ASCII: \u-encode so the output is pure printable ASCII however
      // hostile the input — malformed UTF-8 degrades to U+FFFD instead of
      // emitting raw bytes. parse_json's \uXXXX decoding round-trips this.
      append_escaped_code_point(out, decode_utf8(text, i));
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    AHG_EXPECTS_MSG(out_.empty(), "JsonWriter: only one top-level value");
    return;
  }
  const char top = stack_.back();
  AHG_EXPECTS_MSG(top != 'o', "JsonWriter: object member needs key() first");
  if (top == 'a') {
    if (has_member_.back()) out_ += ',';
    has_member_.back() = true;
  } else {  // 'v': key already written
    stack_.back() = 'o';
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_ += 'o';
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  AHG_EXPECTS_MSG(!stack_.empty() && stack_.back() == 'o',
                  "JsonWriter: end_object outside object");
  out_ += '}';
  stack_.pop_back();
  has_member_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_ += 'a';
  has_member_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  AHG_EXPECTS_MSG(!stack_.empty() && stack_.back() == 'a',
                  "JsonWriter: end_array outside array");
  out_ += ']';
  stack_.pop_back();
  has_member_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  AHG_EXPECTS_MSG(!stack_.empty() && stack_.back() == 'o',
                  "JsonWriter: key() outside object");
  if (has_member_.back()) out_ += ',';
  has_member_.back() = true;
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  stack_.back() = 'v';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  out_ += '"';
  out_ += escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  before_value();
  if (!std::isfinite(number)) {  // JSON has no inf/nan; null is the convention
    out_ += "null";
    return *this;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), number);
  AHG_ENSURES(ec == std::errc());
  out_.append(buf, ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

const std::string& JsonWriter::str() const {
  AHG_EXPECTS_MSG(stack_.empty(), "JsonWriter: unclosed object/array");
  return out_;
}

// --- JsonValue ---------------------------------------------------------------

bool JsonValue::as_bool() const {
  AHG_EXPECTS_MSG(is_bool(), "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  AHG_EXPECTS_MSG(is_number(), "JsonValue: not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  return static_cast<std::int64_t>(std::llround(as_double()));
}

const std::string& JsonValue::as_string() const {
  AHG_EXPECTS_MSG(is_string(), "JsonValue: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  AHG_EXPECTS_MSG(is_array(), "JsonValue: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  AHG_EXPECTS_MSG(is_object(), "JsonValue: not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view name) const noexcept {
  if (!is_object()) return nullptr;
  const auto it = object_.find(std::string(name));
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::get_double(std::string_view name, double fallback) const noexcept {
  const JsonValue* v = find(name);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

std::int64_t JsonValue::get_int(std::string_view name, std::int64_t fallback) const noexcept {
  const JsonValue* v = find(name);
  return (v != nullptr && v->is_number())
             ? static_cast<std::int64_t>(std::llround(v->number_))
             : fallback;
}

std::string JsonValue::get_string(std::string_view name, std::string fallback) const {
  const JsonValue* v = find(name);
  return (v != nullptr && v->is_string()) ? v->string_ : std::move(fallback);
}

bool JsonValue::get_bool(std::string_view name, bool fallback) const noexcept {
  const JsonValue* v = find(name);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

std::int64_t checked_int(const JsonValue* value, std::string_view field,
                         std::int64_t min, std::int64_t max, std::int64_t fallback) {
  if (value == nullptr) return fallback;
  const double x = value->is_number() ? value->as_double() : std::nan("");
  AHG_EXPECTS_MSG(x >= static_cast<double>(min) && x <= static_cast<double>(max) &&
                      std::floor(x) == x,
                  "JSON field \"" + std::string(field) + "\" must be an integer in [" +
                      std::to_string(min) + ", " + std::to_string(max) + "]");
  return static_cast<std::int64_t>(x);
}

// --- parser ------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value(0);
    skip_ws();
    expect(pos_ == text_.size(), "trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                            what);
  }

  void expect(bool cond, const char* what) const {
    if (!cond) fail(what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't':
        expect(consume_literal("true"), "invalid literal");
        return JsonValue(true);
      case 'f':
        expect(consume_literal("false"), "invalid literal");
        return JsonValue(false);
      case 'n':
        expect(consume_literal("null"), "invalid literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    next();  // '{'
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      next();
      return JsonValue(std::move(members));
    }
    for (;;) {
      skip_ws();
      expect(peek() == '"', "expected object key");
      std::string name = parse_string();
      skip_ws();
      expect(next() == ':', "expected ':' after object key");
      members.insert_or_assign(std::move(name), parse_value(depth + 1));
      skip_ws();
      const char sep = next();
      if (sep == '}') break;
      expect(sep == ',', "expected ',' or '}' in object");
    }
    return JsonValue(std::move(members));
  }

  JsonValue parse_array(int depth) {
    next();  // '['
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') {
      next();
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char sep = next();
      if (sep == ']') break;
      expect(sep == ',', "expected ',' or ']' in array");
    }
    return JsonValue(std::move(items));
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    next();  // '"'
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
              expect(next() == '\\' && next() == 'u', "expected low surrogate");
              const unsigned lo = parse_hex4();
              expect(lo >= 0xDC00 && lo <= 0xDFFF, "invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default: fail("invalid escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc() || ptr != text_.data() + pos_) fail("invalid number");
    return JsonValue(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

std::vector<JsonValue> parse_jsonl(std::istream& in) {
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    records.push_back(parse_json(line));
  }
  return records;
}

}  // namespace ahg::obs
