#include "util/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/strings.hpp"

namespace optsched::util {

namespace {

/// Recursive-descent parser over one frame. Error messages carry the
/// byte offset so a malformed frame in a daemon log is diagnosable.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_ws();
    OPTSCHED_REQUIRE(pos_ == text_.size(),
                     err("trailing content after JSON value"));
    return value;
  }

 private:
  std::string err(const std::string& what) const {
    return "JSON: " + what + " at byte " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    OPTSCHED_REQUIRE(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    OPTSCHED_REQUIRE(peek() == c, err(std::string("expected '") + c + "'"));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    OPTSCHED_REQUIRE(depth < Json::kMaxDepth, err("nesting too deep"));
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        OPTSCHED_REQUIRE(consume_literal("true"), err("bad literal"));
        return Json(true);
      case 'f':
        OPTSCHED_REQUIRE(consume_literal("false"), err("bad literal"));
        return Json(false);
      case 'n':
        OPTSCHED_REQUIRE(consume_literal("null"), err("bad literal"));
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      OPTSCHED_REQUIRE(peek() == '"', err("expected object key string"));
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value(depth + 1);
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(members));
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(items));
    }
  }

  /// One \uXXXX escape (pos_ just past the 'u'); surrogate pairs are
  /// combined, lone surrogates rejected. Appends UTF-8 to out.
  void parse_unicode_escape(std::string& out) {
    const auto hex4 = [&]() -> unsigned {
      OPTSCHED_REQUIRE(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
      unsigned v = 0;
      const char* begin = text_.data() + pos_;
      const auto [ptr, ec] = std::from_chars(begin, begin + 4, v, 16);
      OPTSCHED_REQUIRE(ec == std::errc() && ptr == begin + 4,
                       err("bad \\u escape"));
      pos_ += 4;
      return v;
    };
    unsigned cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
      OPTSCHED_REQUIRE(consume_literal("\\u"), err("lone high surrogate"));
      const unsigned lo = hex4();
      OPTSCHED_REQUIRE(lo >= 0xDC00 && lo <= 0xDFFF,
                       err("bad low surrogate"));
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else {
      OPTSCHED_REQUIRE(!(cp >= 0xDC00 && cp <= 0xDFFF),
                       err("lone low surrogate"));
    }
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
    expect('"');
    std::string out;
    while (true) {
      OPTSCHED_REQUIRE(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      OPTSCHED_REQUIRE(static_cast<unsigned char>(c) >= 0x20,
                       err("unescaped control character in string"));
      if (c != '\\') {
        out += c;
        continue;
      }
      OPTSCHED_REQUIRE(pos_ < text_.size(), err("truncated escape"));
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': parse_unicode_escape(out); break;
        default: OPTSCHED_REQUIRE(false, err("bad escape character"));
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    OPTSCHED_REQUIRE(pos_ > digits, err("expected a value"));
    double v = 0.0;
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    OPTSCHED_REQUIRE(ec == std::errc() && ptr == end && std::isfinite(v),
                     err("malformed number"));
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void dump_string(const std::string& text, std::string& out) {
  // Append maximal runs of clean characters in one shot; almost every
  // string the dist protocol and the reports emit is escape-free, so the
  // common cost is a single memcpy instead of length() one-byte appends.
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (!needs_escape(c)) continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(text, run, text.size() - run);
  out += '"';
}

/// Lower bound on the dumped size, used to reserve the output buffer once
/// instead of letting it double its way up through reallocations. Cheap by
/// construction: strings count raw length (escapes only grow the result),
/// numbers a typical short rendering.
std::size_t dump_estimate(const Json& v) {
  switch (v.type()) {
    case Json::Type::kNull: return 4;
    case Json::Type::kBool: return 5;
    case Json::Type::kNumber: return 8;
    case Json::Type::kString: return v.as_string().size() + 2;
    case Json::Type::kArray: {
      std::size_t n = 2;
      for (const auto& item : v.as_array()) n += dump_estimate(item) + 1;
      return n;
    }
    case Json::Type::kObject: {
      std::size_t n = 2;
      for (const auto& [key, value] : v.as_object())
        n += key.size() + 4 + dump_estimate(value);
      return n;
    }
  }
  return 0;
}

void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull: out += "null"; return;
    case Json::Type::kBool: out += v.as_bool() ? "true" : "false"; return;
    case Json::Type::kNumber: {
      const double d = v.as_number();
      // JSON has no non-finite literals, and silently coercing to null
      // would round-trip a number into a type the decoder did not ask
      // for. A caller with a legitimate non-finite sentinel (the solve
      // protocol's unbounded bound_factor) must encode the null itself.
      OPTSCHED_REQUIRE(std::isfinite(d),
                       "cannot serialize non-finite number as JSON");
      out += format_number(d);
      return;
    }
    case Json::Type::kString: dump_string(v.as_string(), out); return;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      return;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        dump_value(value, out);
      }
      out += '}';
      return;
    }
  }
}

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

std::string Json::dump() const {
  std::string out;
  out.reserve(dump_estimate(*this));
  dump_value(*this, out);
  return out;
}

bool Json::as_bool() const {
  OPTSCHED_REQUIRE(type_ == Type::kBool,
                   std::string("JSON: expected bool, got ") +
                       type_name(type_));
  return bool_;
}

double Json::as_number() const {
  OPTSCHED_REQUIRE(type_ == Type::kNumber,
                   std::string("JSON: expected number, got ") +
                       type_name(type_));
  return number_;
}

const std::string& Json::as_string() const {
  OPTSCHED_REQUIRE(type_ == Type::kString,
                   std::string("JSON: expected string, got ") +
                       type_name(type_));
  return string_;
}

const Json::Array& Json::as_array() const {
  OPTSCHED_REQUIRE(type_ == Type::kArray,
                   std::string("JSON: expected array, got ") +
                       type_name(type_));
  return array_;
}

const Json::Object& Json::as_object() const {
  OPTSCHED_REQUIRE(type_ == Type::kObject,
                   std::string("JSON: expected object, got ") +
                       type_name(type_));
  return object_;
}

bool Json::has(const std::string& key) const {
  return as_object().count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  const Object& members = as_object();
  const auto it = members.find(key);
  OPTSCHED_REQUIRE(it != members.end(),
                   "JSON: missing required field '" + key + "'");
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;  // {} literal ergonomics
  OPTSCHED_REQUIRE(type_ == Type::kObject,
                   std::string("JSON: expected object, got ") +
                       type_name(type_));
  return object_[key];
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

double Json::get_number(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_number() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

std::uint64_t Json::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  return at(key).as_count<std::uint64_t>(key);
}

void Json::push_back(Json value) {
  if (type_ == Type::kNull) type_ = Type::kArray;  // [] literal ergonomics
  OPTSCHED_REQUIRE(type_ == Type::kArray,
                   std::string("JSON: expected array, got ") +
                       type_name(type_));
  array_.push_back(std::move(value));
}

}  // namespace optsched::util
