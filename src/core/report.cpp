#include "core/report.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <stdexcept>

namespace carbon::core {

Json& Json::set(std::string key, Json value) {
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent) *
                                         (static_cast<std::size_t>(depth) + 1)
                                   : 0,
                        ' ');
  const std::string close_pad(
      indent > 0 ? static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(depth)
                 : 0,
      ' ');
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(int_));
      out += buf;
      break;
    }
    case Kind::kDouble: {
      if (std::isfinite(double_)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", double_);
        out += buf;
      } else {
        // JSON has no NaN/Inf literal; a non-finite value serializes as
        // null rather than producing an unparseable document.
        out += "null";
      }
      break;
    }
    case Kind::kString:
      out += escape(string_);
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        item.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out.push_back(',');
        first = false;
        out += nl;
        out += pad;
        out += escape(key);
        out += colon;
        value.write(out, indent, depth + 1);
      }
      out += nl;
      out += close_pad;
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON reader over a string view of the document.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of document");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return Json(string());
      case 't':
        if (!literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!literal("null")) fail("bad literal");
        return Json();
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json out = Json::object();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      expect(':');
      out.set(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array() {
    expect('[');
    Json out = Json::array();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("truncated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, hex4()); break;
        default: fail("unknown escape");
      }
    }
    fail("unterminated string");
  }

  unsigned hex4() {
    if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    // Surrogate pair: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > s_.size() || s_[pos_] != '\\' || s_[pos_ + 1] != 'u') {
        fail("lone high surrogate");
      }
      pos_ += 2;
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("expected a value");
    // JSON forbids leading zeros ("01") and a bare leading '.'.
    const std::size_t d = tok[0] == '-' ? 1 : 0;
    if (tok.size() > d + 1 && tok[d] == '0' && tok[d + 1] >= '0' &&
        tok[d + 1] <= '9') {
      fail("malformed number: " + tok);
    }
    if (d < tok.size() && tok[d] == '.') fail("malformed number: " + tok);
    const bool integral =
        tok.find('.') == std::string::npos &&
        tok.find('e') == std::string::npos &&
        tok.find('E') == std::string::npos;
    try {
      if (integral) {
        std::size_t used = 0;
        const long long v = std::stoll(tok, &used);
        if (used == tok.size()) return Json(v);
      }
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) fail("malformed number: " + tok);
      return Json(v);
    } catch (const std::exception&) {
      fail("malformed number: " + tok);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not ") + want);
}

}  // namespace

Json Json::parse(const std::string& text) { return JsonReader(text).run(); }

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) type_error("a bool");
  return bool_;
}

double Json::as_double() const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  type_error("a number");
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  type_error("a number");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) type_error("a string");
  return string_;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return items_.size();
  if (kind_ == Kind::kObject) return members_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (kind_ != Kind::kArray) type_error("an array");
  if (i >= items_.size()) throw std::out_of_range("json: array index");
  return items_[i];
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::operator[](const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw std::out_of_range("json: missing key '" + key + "'");
  return *v;
}

void print_banner(std::ostream& os, const std::string& experiment_id,
                  const std::string& description) {
  os << "\n================================================================\n"
     << experiment_id << " — " << description
     << "\n================================================================\n";
}

void emit_table(std::ostream& os, const phys::DataTable& table,
                const std::string& title, const std::string& csv_name,
                const std::string& out_dir) {
  table.print(os, title);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!ec) {
    table.write_csv(out_dir + "/" + csv_name);
    os << "[csv] " << out_dir << "/" << csv_name << "\n";
  }
}

int print_claims(std::ostream& os, const std::vector<Claim>& claims) {
  int misses = 0;
  os << "\npaper-vs-measured:\n";
  char buf[256];
  for (const auto& c : claims) {
    const double denom = std::max(std::abs(c.paper_value), 1e-30);
    const double rel = std::abs(c.measured_value - c.paper_value) / denom;
    bool ok = false;
    switch (c.kind) {
      case ClaimKind::kBand:
        ok = rel <= c.rel_tolerance;
        break;
      case ClaimKind::kAtLeast:
        ok = c.measured_value >= c.paper_value * (1.0 - c.rel_tolerance);
        break;
      case ClaimKind::kAtMost:
        ok = c.measured_value <= c.paper_value * (1.0 + c.rel_tolerance);
        break;
    }
    if (!ok) ++misses;
    std::snprintf(buf, sizeof buf,
                  "  [%s] %-14s %-38s paper=%-10.4g measured=%-10.4g %s "
                  "(dev %.0f%%)",
                  ok ? "ok" : "MISS", c.id.c_str(), c.description.c_str(),
                  c.paper_value, c.measured_value, c.unit.c_str(),
                  rel * 100.0);
    os << buf << "\n";
  }
  return misses;
}

}  // namespace carbon::core
