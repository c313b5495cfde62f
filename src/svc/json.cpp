#include "svc/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace raidsim::svc {

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("JSON: not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("JSON: not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("JSON: not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonValue::dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber: {
      // The integer form only where the cast to long long is defined.
      if (std::fabs(number_) < 0x1p63 &&
          number_ == static_cast<double>(static_cast<long long>(number_))) {
        return std::to_string(static_cast<long long>(number_));
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      return buf;
    }
    case Type::kString:
      return json_quote(string_);
    case Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      return out;
    }
    case Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        out += json_quote(key);
        out += ':';
        out += value.dump();
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value(0);
    skip_ws();
    if (i_ < s_.size()) fail("trailing data after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON: " + what, i_);
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }

  char peek() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != c)
      fail(std::string("expected '") + c + "'");
    ++i_;
  }

  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue(parse_string());
      case 't': literal("true"); return JsonValue(true);
      case 'f': literal("false"); return JsonValue(false);
      case 'n': literal("null"); return JsonValue();
      default: return JsonValue(parse_number());
    }
  }

  void literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p; ++p, ++i_)
      if (i_ >= s_.size() || s_[i_] != *p)
        fail(std::string("expected '") + word + "'");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by the protocol; lone surrogates encode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  double parse_number() {
    skip_ws();
    const char* start = s_.c_str() + i_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    if (!std::isfinite(v)) fail("number out of range");
    i_ += static_cast<std::size_t>(end - start);
    return v;
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue::Array out;
    if (consume(']')) return JsonValue(std::move(out));
    do {
      out.push_back(parse_value(depth + 1));
    } while (consume(','));
    expect(']');
    return JsonValue(std::move(out));
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object out;
    if (consume('}')) return JsonValue(std::move(out));
    do {
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      out[std::move(key)] = parse_value(depth + 1);
    } while (consume(','));
    expect('}');
    return JsonValue(std::move(out));
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace raidsim::svc
