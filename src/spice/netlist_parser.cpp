#include "spice/netlist_parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>

#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "device/linear_fet.h"
#include "device/tabulated.h"
#include "phys/require.h"
#include "spice/model_store.h"

namespace carbon::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(int line_no, const std::string& line,
                       const std::string& why) {
  throw ParseError(why, line_no, line);
}

/// Split a card into whitespace/comma separated tokens, keeping
/// parenthesized groups like PULSE(0 1 1n ...) and braced expressions like
/// {vdd / 2} together with their surrounding token.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : line) {
    if (c == ';') break;  // trailing comment
    if (c == '(' || c == '{') ++depth;
    if (c == ')' || c == '}') --depth;
    if ((std::isspace(static_cast<unsigned char>(c)) || c == ',') &&
        depth == 0) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Extract the arguments of a "tag(a b c)" token; false if not that form.
/// Braced sub-expressions survive as single arguments.
bool split_call(const std::string& token, std::string* tag,
                std::vector<std::string>* args) {
  const auto open = token.find('(');
  if (open == std::string::npos || token.back() != ')') return false;
  *tag = lower(token.substr(0, open));
  const std::string inner = token.substr(open + 1, token.size() - open - 2);
  std::string piece;
  int depth = 0;
  args->clear();
  for (char c : inner) {
    if (c == '(' || c == '{') ++depth;
    if (c == ')' || c == '}') --depth;
    if ((std::isspace(static_cast<unsigned char>(c)) || c == ',') &&
        depth == 0) {
      if (!piece.empty()) args->push_back(piece);
      piece.clear();
    } else {
      piece.push_back(c);
    }
  }
  if (!piece.empty()) args->push_back(piece);
  return true;
}

bool all_alpha(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalpha(static_cast<unsigned char>(c));
  });
}

}  // namespace

ParseError::ParseError(const std::string& reason, int line_no,
                       std::string line_text)
    : std::runtime_error(
          line_no > 0
              ? "netlist parse error at line " + std::to_string(line_no) +
                    " (" + reason + "): " + line_text
              : "netlist parse error: " + reason),
      line_no_(line_no),
      line_text_(std::move(line_text)),
      reason_(reason) {}

double parse_spice_number(const std::string& token) {
  const std::string t = lower(token);
  if (t.empty()) throw ParseError("empty numeric literal");
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw ParseError("not a number: " + token);
  }
  if (pos == 0) throw ParseError("not a number: " + token);
  // std::stod accepts hex ("0x10") and the inf/nan words; a SPICE deck
  // means none of them.  The consumed prefix must be a plain decimal.
  for (size_t i = 0; i < pos; ++i) {
    const char c = t[i];
    const bool decimal = std::isdigit(static_cast<unsigned char>(c)) ||
                         c == '.' || c == '+' || c == '-' || c == 'e';
    if (!decimal) throw ParseError("not a plain decimal number: " + token);
  }
  // Checked after scaling: a suffix can overflow a finite mantissa
  // ("1e300t").
  const auto finite = [&](double v) {
    if (!std::isfinite(v)) {
      throw ParseError("non-finite numeric literal: " + token);
    }
    return v;
  };
  const std::string suffix = t.substr(pos);
  if (suffix.empty()) return finite(value);
  // Longest match first: "meg"/"mil" before "m".  A recognized suffix may
  // carry a purely alphabetic unit tail ("10kohm", "100nF"); any other
  // trailing text is junk.
  static const struct {
    const char* text;
    double scale;
  } kSuffixes[] = {{"meg", 1e6},  {"mil", 25.4e-6}, {"t", 1e12}, {"g", 1e9},
                   {"k", 1e3},    {"m", 1e-3},      {"u", 1e-6}, {"n", 1e-9},
                   {"p", 1e-12},  {"f", 1e-15},     {"a", 1e-18}};
  for (const auto& s : kSuffixes) {
    const size_t len = std::strlen(s.text);
    if (suffix.compare(0, len, s.text) == 0) {
      const std::string rest = suffix.substr(len);
      if (all_alpha(rest)) return finite(value * s.scale);
      throw ParseError("trailing junk after number: " + token);
    }
  }
  throw ParseError("unknown engineering suffix: " + token);
}

// ---------------------------------------------------------------------------
// Expression evaluator
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent evaluator over a lowercased expression string.
class ExprEval {
 public:
  ExprEval(const std::string& text, const ParamEnv& env)
      : s_(text), env_(env) {}

  double run() {
    const double v = expr();
    skip_ws();
    if (pos_ != s_.size()) {
      throw ParseError("unexpected trailing text in expression: " + s_);
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expr() {
    double v = term();
    for (;;) {
      if (eat('+')) {
        v += term();
      } else if (eat('-')) {
        v -= term();
      } else {
        return v;
      }
    }
  }

  double term() {
    double v = factor();
    for (;;) {
      if (eat('*')) {
        v *= factor();
      } else if (eat('/')) {
        v /= factor();
      } else {
        return v;
      }
    }
  }

  double factor() {
    const double base = unary();
    if (eat('^')) return std::pow(base, factor());  // right-associative
    return base;
  }

  double unary() {
    if (eat('-')) return -unary();
    if (eat('+')) return unary();
    return primary();
  }

  double primary() {
    skip_ws();
    if (pos_ >= s_.size()) throw ParseError("truncated expression: " + s_);
    const char c = s_[pos_];
    if (c == '(') {
      ++pos_;
      const double v = expr();
      if (!eat(')')) throw ParseError("missing ')' in expression: " + s_);
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return identifier();
    }
    throw ParseError("unexpected character '" + std::string(1, c) +
                     "' in expression: " + s_);
  }

  /// A numeric literal with optional exponent and engineering suffix/unit
  /// tail — lexed greedily and handed to parse_spice_number.
  double number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == 'e') {
      size_t p = pos_ + 1;
      if (p < s_.size() && (s_[p] == '+' || s_[p] == '-')) ++p;
      if (p < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p]))) {
        ++p;
        while (p < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[p]))) {
          ++p;
        }
        pos_ = p;
      }
    }
    // Engineering suffix / unit tail ("k", "meg", "nF").
    while (pos_ < s_.size() &&
           std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return parse_spice_number(s_.substr(start, pos_ - start));
  }

  double identifier() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_')) {
      ++pos_;
    }
    const std::string name = s_.substr(start, pos_ - start);
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '(') return call(name);
    const auto it = env_.find(name);
    if (it == env_.end()) {
      throw ParseError("unknown parameter '" + name + "' in expression: " +
                       s_);
    }
    return it->second;
  }

  double call(const std::string& fn) {
    ++pos_;  // '('
    std::vector<double> args;
    skip_ws();
    if (!eat(')')) {
      for (;;) {
        args.push_back(expr());
        if (eat(')')) break;
        if (!eat(',')) {
          throw ParseError("missing ',' or ')' in call to " + fn + ": " + s_);
        }
      }
    }
    auto want = [&](size_t n) {
      if (args.size() != n) {
        throw ParseError(fn + "() wants " + std::to_string(n) +
                         " argument(s): " + s_);
      }
    };
    if (fn == "sqrt") { want(1); return std::sqrt(args[0]); }
    if (fn == "abs") { want(1); return std::abs(args[0]); }
    if (fn == "exp") { want(1); return std::exp(args[0]); }
    if (fn == "log") { want(1); return std::log(args[0]); }
    if (fn == "log10") { want(1); return std::log10(args[0]); }
    if (fn == "floor") { want(1); return std::floor(args[0]); }
    if (fn == "ceil") { want(1); return std::ceil(args[0]); }
    if (fn == "pow") { want(2); return std::pow(args[0], args[1]); }
    if (fn == "min") { want(2); return std::min(args[0], args[1]); }
    if (fn == "max") { want(2); return std::max(args[0], args[1]); }
    throw ParseError("unknown function '" + fn + "' in expression: " + s_);
  }

  const std::string s_;
  const ParamEnv& env_;
  size_t pos_ = 0;
};

}  // namespace

double eval_expr(const std::string& expr, const ParamEnv& env) {
  std::string body = expr;
  if (body.size() >= 2 && body.front() == '{' && body.back() == '}') {
    body = body.substr(1, body.size() - 2);
  }
  return ExprEval(lower(body), env).run();
}

// ---------------------------------------------------------------------------
// Deck parsing: logical lines, subckt collection, flattening
// ---------------------------------------------------------------------------

namespace {

struct RawCard {
  int line_no = 0;
  std::string text;
  std::vector<std::string> tokens;
};

struct SubcktDef {
  std::string name;
  std::vector<std::string> ports;      ///< lowercase port node names
  std::vector<ParamSpec> formals;      ///< header k=v defaults
  std::vector<ParamSpec> locals;       ///< body .param cards
  std::vector<RawCard> body;           ///< element and x cards
  int line_no = 0;
  std::string line;
};

/// key=value split; false when the token has no '='.
bool split_kv(const std::string& token, std::string* key, std::string* val) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  *key = lower(token.substr(0, eq));
  *val = token.substr(eq + 1);
  return true;
}

/// Parse trailing key=value options starting at @p first; any bare token
/// is an error (strict: typos surface instead of being ignored).
std::vector<std::pair<std::string, std::string>> parse_options(
    const std::vector<std::string>& tokens, size_t first, int line_no,
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = first; i < tokens.size(); ++i) {
    std::string k, v;
    if (!split_kv(tokens[i], &k, &v)) {
      fail(line_no, line, "expected key=value, got '" + tokens[i] + "'");
    }
    out.emplace_back(std::move(k), std::move(v));
  }
  return out;
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Strip comments, join '+' continuation lines, keep 1-based line numbers.
std::vector<RawCard> logical_lines(const std::string& text) {
  std::vector<RawCard> out;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first_ns = line.find_first_not_of(" \t");
    if (first_ns == std::string::npos) continue;
    const char c = line[first_ns];
    if (c == '*' || c == '#') continue;  // comment line
    if (c == '+') {
      if (out.empty()) {
        fail(line_no, line, "continuation line with nothing to continue");
      }
      out.back().text += " " + line.substr(first_ns + 1);
      continue;
    }
    out.push_back({line_no, line, {}});
  }
  for (RawCard& card : out) card.tokens = tokenize(card.text);
  return out;
}

/// Signal reference "v(node)" / "i(source)"; bare tokens count as nodes.
bool parse_signal(const std::string& token, std::string* kind,
                  std::string* name) {
  std::string tag;
  std::vector<std::string> args;
  if (split_call(token, &tag, &args)) {
    if ((tag != "v" && tag != "i") || args.size() != 1) return false;
    *kind = tag;
    *name = lower(args[0]);
    return true;
  }
  *kind = "v";
  *name = lower(token);
  return true;
}

// --- per-kind element card parsing (shared by top level and subckt bodies)

ElementCard parse_element_card(const RawCard& card, const std::string& name) {
  const auto& tokens = card.tokens;
  ElementCard el;
  // Kind comes from the raw card, not @p name: inside a subcircuit the
  // name is already instance-prefixed ("x1.mp").
  el.kind = static_cast<char>(std::tolower(
      static_cast<unsigned char>(card.tokens[0][0])));
  el.name = name;
  el.line_no = card.line_no;
  el.line = card.text;
  auto need = [&](size_t n, const char* grammar) {
    if (tokens.size() < n) fail(card.line_no, card.text, grammar);
  };
  auto nodes = [&](size_t count) {
    for (size_t i = 1; i <= count; ++i) el.nodes.push_back(lower(tokens[i]));
  };
  switch (el.kind) {
    case 'r':
      need(4, "R wants: name n1 n2 ohms");
      nodes(2);
      el.values.push_back(tokens[3]);
      el.options = parse_options(tokens, 4, card.line_no, card.text);
      break;
    case 'c':
      need(4, "C wants: name n1 n2 farad [ic=v]");
      nodes(2);
      el.values.push_back(tokens[3]);
      el.options = parse_options(tokens, 4, card.line_no, card.text);
      break;
    case 'v':
    case 'i':
      need(4, el.kind == 'v' ? "V wants: name n+ n- value"
                             : "I wants: name n+ n- value");
      nodes(2);
      for (size_t i = 3; i < tokens.size(); ++i) el.values.push_back(tokens[i]);
      break;
    case 'd':
      need(3, "D wants: name anode cathode [is= n=]");
      nodes(2);
      el.options = parse_options(tokens, 3, card.line_no, card.text);
      break;
    case 'm':
      need(5, "M wants: name drain gate source model [m=]");
      nodes(3);
      el.model = lower(tokens[4]);
      el.options = parse_options(tokens, 5, card.line_no, card.text);
      break;
    default:
      fail(card.line_no, card.text, "unknown element kind");
  }
  return el;
}

/// The flattening pass: expand x-cards recursively, mangling node and
/// element names with the instance path and creating one parameter scope
/// per instance.
class Flattener {
 public:
  Flattener(Deck& deck, const std::map<std::string, SubcktDef>& subckts)
      : deck_(deck), subckts_(subckts) {}

  void expand(const std::vector<RawCard>& cards, const std::string& prefix,
              const std::map<std::string, std::string>& node_map, int scope,
              int depth) {
    for (const RawCard& card : cards) {
      const std::string name = lower(card.tokens[0]);
      if (name[0] == 'x') {
        expand_instance(card, prefix, node_map, scope, depth);
        continue;
      }
      ElementCard el = parse_element_card(card, prefix + name);
      for (std::string& n : el.nodes) n = map_node(n, prefix, node_map);
      el.scope = scope;
      deck_.elements.push_back(std::move(el));
    }
  }

 private:
  static std::string map_node(
      const std::string& node, const std::string& prefix,
      const std::map<std::string, std::string>& node_map) {
    if (node == "0" || node == "gnd") return "0";  // ground stays global
    const auto it = node_map.find(node);
    if (it != node_map.end()) return it->second;
    return prefix + node;
  }

  void expand_instance(const RawCard& card, const std::string& prefix,
                       const std::map<std::string, std::string>& node_map,
                       int scope, int depth) {
    const auto& tokens = card.tokens;
    // x<name> n1 n2 ... subckt [k=v ...]: the subckt name is the last
    // bare (non key=value) token.
    size_t last_bare = 0;
    for (size_t i = 1; i < tokens.size(); ++i) {
      std::string k, v;
      if (!split_kv(tokens[i], &k, &v)) last_bare = i;
    }
    if (last_bare < 2) {
      fail(card.line_no, card.text, "X wants: name nodes... subckt [k=v]");
    }
    const std::string sub_name = lower(tokens[last_bare]);
    const auto it = subckts_.find(sub_name);
    if (it == subckts_.end()) {
      fail(card.line_no, card.text, "unknown subcircuit: " + sub_name);
    }
    const SubcktDef& def = it->second;
    const size_t n_nodes = last_bare - 1;
    if (n_nodes != def.ports.size()) {
      fail(card.line_no, card.text,
           "subcircuit " + sub_name + " wants " +
               std::to_string(def.ports.size()) + " nodes, got " +
               std::to_string(n_nodes));
    }
    const auto overrides =
        parse_options(tokens, last_bare + 1, card.line_no, card.text);
    for (const auto& [k, v] : overrides) {
      const bool known = std::any_of(
          def.formals.begin(), def.formals.end(),
          [&k = k](const ParamSpec& p) { return p.name == k; });
      if (!known) {
        fail(card.line_no, card.text,
             "subcircuit " + sub_name + " has no parameter '" + k + "'");
      }
    }

    // Child parameter scope: formals (override beats default), then the
    // subckt-local .param cards.
    ParamScope child;
    child.parent = scope;
    for (const ParamSpec& formal : def.formals) {
      const std::string* ov = find_option(overrides, formal.name);
      ParamSpec bound = formal;
      if (ov) {
        bound.expr = *ov;
        bound.line_no = card.line_no;
        bound.line = card.text;
      }
      child.params.push_back(std::move(bound));
    }
    for (const ParamSpec& local : def.locals) child.params.push_back(local);
    deck_.scopes.push_back(std::move(child));
    const int child_scope = static_cast<int>(deck_.scopes.size()) - 1;

    // Port binding + recursion with the extended instance path.
    if (depth >= 50) {
      fail(card.line_no, card.text,
           "subcircuit nesting deeper than 50 (recursive x?)");
    }
    const std::string inst = prefix + lower(tokens[0]) + ".";
    std::map<std::string, std::string> child_map;
    for (size_t p = 0; p < def.ports.size(); ++p) {
      child_map[def.ports[p]] =
          map_node(lower(tokens[1 + p]), prefix, node_map);
    }
    expand(def.body, inst, child_map, child_scope, depth + 1);
  }

  Deck& deck_;
  const std::map<std::string, SubcktDef>& subckts_;
};

// --- dot-card parsing ------------------------------------------------------

std::vector<ParamSpec> parse_param_card(const RawCard& card) {
  std::vector<ParamSpec> out;
  if (card.tokens.size() < 2) {
    fail(card.line_no, card.text, ".param wants name=value pairs");
  }
  for (size_t i = 1; i < card.tokens.size(); ++i) {
    std::string k, v;
    if (!split_kv(card.tokens[i], &k, &v) || v.empty()) {
      fail(card.line_no, card.text,
           ".param wants name=value, got '" + card.tokens[i] + "'");
    }
    out.push_back({k, v, card.line_no, card.text});
  }
  return out;
}

StepSpec parse_step_card(const RawCard& card) {
  auto tokens = card.tokens;
  size_t i = 1;
  if (i < tokens.size() && lower(tokens[i]) == "param") ++i;
  if (i >= tokens.size()) {
    fail(card.line_no, card.text, ".step wants: param <name> <grid>");
  }
  StepSpec step;
  step.param = lower(tokens[i++]);
  step.line_no = card.line_no;
  step.line = card.text;
  if (i < tokens.size() && lower(tokens[i]) == "list") {
    for (++i; i < tokens.size(); ++i) step.values.push_back(tokens[i]);
    if (step.values.empty()) {
      fail(card.line_no, card.text, ".step list wants at least one value");
    }
    return step;
  }
  if (tokens.size() - i != 3) {
    fail(card.line_no, card.text,
         ".step wants: param <name> <start> <stop> <incr> | list v...");
  }
  // start/stop/incr expand to an explicit grid at parse time so the step
  // grid is part of the deck, not of any parameter environment.
  const double start = parse_spice_number(tokens[i]);
  const double stop = parse_spice_number(tokens[i + 1]);
  const double incr = parse_spice_number(tokens[i + 2]);
  if (incr == 0.0 || (stop - start) * incr < 0.0) {
    fail(card.line_no, card.text, ".step increment does not reach stop");
  }
  // Counted as a double: a count past int range, or NaN from a bound that
  // overflowed, must fail here rather than in the cast.
  const double n = std::floor((stop - start) / incr + 1e-9) + 1.0;
  if (!(n <= kMaxSweepPoints)) {
    fail(card.line_no, card.text, ".step grid over 10000 points");
  }
  char buf[40];
  for (int k = 0; k < static_cast<int>(n); ++k) {
    std::snprintf(buf, sizeof buf, "%.17g", start + k * incr);
    step.values.push_back(buf);
  }
  return step;
}

AnalysisCard parse_analysis_card(const RawCard& card,
                                 const std::string& dot) {
  const auto& tokens = card.tokens;
  AnalysisCard a;
  a.line_no = card.line_no;
  a.line = card.text;
  auto options_from = [&](size_t first) {
    a.options = parse_options(tokens, first, card.line_no, card.text);
  };
  if (dot == ".op") {
    a.kind = AnalysisCard::Kind::kOp;
    options_from(1);
    return a;
  }
  if (dot == ".dc") {
    if (tokens.size() < 5) {
      fail(card.line_no, card.text, ".dc wants: source start stop step");
    }
    a.kind = AnalysisCard::Kind::kDc;
    a.source = lower(tokens[1]);
    a.start_expr = tokens[2];
    a.stop_expr = tokens[3];
    a.step_expr = tokens[4];
    options_from(5);
    return a;
  }
  if (dot == ".tran") {
    if (tokens.size() < 3) {
      fail(card.line_no, card.text, ".tran wants: tstep tstop [k=v]");
    }
    a.kind = AnalysisCard::Kind::kTran;
    a.dt_expr = tokens[1];
    a.tstop_expr = tokens[2];
    options_from(3);
    return a;
  }
  if (dot == ".ac") {
    if (tokens.size() < 5 || lower(tokens[1]) != "dec") {
      fail(card.line_no, card.text, ".ac wants: dec points fstart fstop");
    }
    a.kind = AnalysisCard::Kind::kAc;
    a.npd_expr = tokens[2];
    a.fstart_expr = tokens[3];
    a.fstop_expr = tokens[4];
    options_from(5);
    return a;
  }
  if (dot == ".noise") {
    if (tokens.size() < 7 || lower(tokens[3]) != "dec") {
      fail(card.line_no, card.text,
           ".noise wants: v(out) input dec points fstart fstop");
    }
    std::string kind, name;
    if (!parse_signal(tokens[1], &kind, &name) || kind != "v") {
      fail(card.line_no, card.text, ".noise output must be v(<node>)");
    }
    a.kind = AnalysisCard::Kind::kNoise;
    a.output = name;
    a.source = lower(tokens[2]);
    a.npd_expr = tokens[4];
    a.fstart_expr = tokens[5];
    a.fstop_expr = tokens[6];
    options_from(7);
    return a;
  }
  fail(card.line_no, card.text, "unknown analysis card " + dot);
}

MeasureCard parse_measure_card(const RawCard& card) {
  const auto& tokens = card.tokens;
  if (tokens.size() < 4) {
    fail(card.line_no, card.text,
         ".measure wants: <analysis> <name> <fn> ...");
  }
  MeasureCard m;
  m.analysis = lower(tokens[1]);
  if (m.analysis != "op" && m.analysis != "dc" && m.analysis != "tran" &&
      m.analysis != "ac" && m.analysis != "noise") {
    fail(card.line_no, card.text,
         "unknown .measure analysis '" + m.analysis + "'");
  }
  m.name = lower(tokens[2]);
  m.fn = lower(tokens[3]);
  m.line_no = card.line_no;
  m.line = card.text;
  static const char* kFns[] = {"max", "min",    "avg",    "rms",  "pp",
                               "cross", "delay", "period", "energy",
                               "find", "corner", "vtc",    "value"};
  if (std::none_of(std::begin(kFns), std::end(kFns),
                   [&](const char* f) { return m.fn == f; })) {
    fail(card.line_no, card.text, "unknown .measure function '" + m.fn + "'");
  }
  for (size_t i = 4; i < tokens.size(); ++i) {
    std::string k, v;
    if (split_kv(tokens[i], &k, &v)) {
      m.options.emplace_back(k, v);
      continue;
    }
    const std::string t = lower(tokens[i]);
    if (t == "rise" || t == "fall") {
      m.options.emplace_back(t, "1");
      continue;
    }
    m.signals.push_back(tokens[i]);
  }
  return m;
}

ModelCard parse_model_card(const RawCard& card) {
  const auto& tokens = card.tokens;
  if (tokens.size() < 3) {
    fail(card.line_no, card.text, ".model wants: name type [k=v ...]");
  }
  ModelCard mc;
  mc.name = lower(tokens[1]);
  mc.line_no = card.line_no;
  mc.line = card.text;
  // Either ".model n type k=v k=v" or ".model n type(k=v k=v)".
  std::string tag;
  std::vector<std::string> args;
  if (split_call(tokens[2], &tag, &args)) {
    mc.type = tag;
    for (const auto& arg : args) {
      std::string k, v;
      if (!split_kv(arg, &k, &v)) {
        fail(card.line_no, card.text,
             ".model wants key=value options, got '" + arg + "'");
      }
      mc.options.emplace_back(k, v);
    }
    if (tokens.size() > 3) {
      fail(card.line_no, card.text, "unexpected tokens after .model(...)");
    }
  } else {
    mc.type = lower(tokens[2]);
    mc.options = parse_options(tokens, 3, card.line_no, card.text);
  }
  // Validate the type now so the error names the .model line, not the
  // first m-card that happens to reference it.
  static const char* kTypes[] = {"alphan", "alphap", "nfet",  "pfet",
                                 "linn",   "linp",   "cnfet", "cpfet"};
  if (std::find_if(std::begin(kTypes), std::end(kTypes), [&](const char* t) {
        return mc.type == t;
      }) == std::end(kTypes)) {
    fail(card.line_no, card.text, "unknown .model type '" + mc.type + "'");
  }
  return mc;
}

// --- parameter-environment resolution --------------------------------------

double eval_card_value(const std::string& expr, const ParamEnv& env,
                       int line_no, const std::string& line) {
  try {
    return eval_expr(expr, env);
  } catch (const ParseError& e) {
    fail(line_no, line, e.reason());
  }
}

/// Evaluate every scope's parameters: the globals (global_params), then
/// each subcircuit instance's scope inside its parent's.
std::vector<ParamEnv> resolve_scopes(const Deck& deck,
                                     const ParamEnv& overrides) {
  std::vector<ParamEnv> envs{global_params(deck, overrides)};
  for (std::size_t s = 1; s < deck.scopes.size(); ++s) {
    ParamEnv env = envs[deck.scopes[s].parent];
    for (const ParamSpec& p : deck.scopes[s].params) {
      env[p.name] = eval_card_value(p.expr, env, p.line_no, p.line);
    }
    envs.push_back(std::move(env));
  }
  return envs;
}

// --- device model construction ---------------------------------------------

/// Most conduction subbands a cnfet/cpfet card may keep: a build grows with
/// them (0.17 s at 30 subbands, 2.7 s at 300).
constexpr int kMaxCntSubbands = 32;

/// Smallest CNT table span [V]: a deck whose potentials stay within it, or
/// that has no source, still gets a grid its bicubic cells can resolve.
constexpr double kMinTableSpanV = 0.1;

/// The CNT-FET table of a deck whose node potentials span @p span volts:
/// every terminal difference then lies in [-span, span], and the grid
/// covers that with a 10% guard band (vds >= 0 only for a @p symmetric
/// device, whose reverse bias the mirror answers at vgs - vds = vgd).  The
/// spacing is make_tabulated()'s at supply @p span.
device::DeviceModelPtr cnt_table(device::DeviceModelPtr base, double span,
                                 bool symmetric) {
  device::TabulatedGrid g;
  const double edge = 1.1 * span;
  g.vgs_min = -edge;
  g.vgs_max = edge;
  g.n_vgs = 177;
  g.vds_min = symmetric ? 0.0 : -edge;
  g.vds_max = edge;
  g.n_vds = symmetric ? 65 : 129;
  g.mirror_vds = symmetric;
  return std::make_shared<device::TabulatedDeviceModel>(std::move(base), g);
}

std::map<std::string, double> eval_model_options(const ModelCard& mc,
                                                 const ParamEnv& env) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : mc.options) {
    out[k] = eval_card_value(v, env, mc.line_no, mc.line);
  }
  return out;
}

/// Append "|name=" and the bytes of @p v to a store key (exact, and no
/// formatting per card).
void append_key(std::string& key, const char* name, double v) {
  key += '|';
  key += name;
  key += '=';
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// The model of a .model card at one step point, from the process-wide
/// ModelStore.  The values are checked first, naming the option and the
/// card's line, against everything the model constructors refuse, so no
/// client value can make a shared build throw.  cnfet/cpfet cards compile
/// the CNT-FET to a bicubic table over node potentials spanning @p span
/// volts (potential_span()); with @p span 0 they evaluate it directly.
/// The store keeps the CntfetModel under its parameters and each table
/// under those plus its span, so a stepped supply builds the device once.
device::DeviceModelPtr deck_model(const ModelCard& mc, const ParamEnv& env,
                                  double span) {
  namespace dev = carbon::device;
  auto opts = eval_model_options(mc, env);
  const auto refuse = [&](const std::string& what) {
    fail(mc.line_no, mc.line, ".model option " + what);
  };
  const auto check = [&](bool ok, const char* what) {
    if (!ok) refuse(what);
  };
  for (const auto& [k, v] : opts) {
    if (!std::isfinite(v)) refuse(k + " must be finite");
  }

  const std::string& t = mc.type;
  const bool p_type = t == "alphap" || t == "pfet" || t == "linp" ||
                      t == "cpfet";
  const std::string family = t == "linn" || t == "linp"       ? "linn"
                             : t == "cnfet" || t == "cpfet" ? "cnfet"
                                                            : "alphan";
  // The store key: the n-type family, then every parameter value taken,
  // defaults included.
  std::string key = family;
  auto take = [&](const char* k, double fallback) {
    double v = fallback;
    const auto it = opts.find(k);
    if (it != opts.end()) {
      v = it->second;
      opts.erase(it);
    }
    append_key(key, k, v);
    return v;
  };
  // Noise options are common to every family.
  dev::NoiseParams noise;
  const dev::NoiseParams quiet;
  noise.gamma = take("gamma", quiet.gamma);
  noise.kf = take("kf", quiet.kf);
  noise.af = take("af", quiet.af);
  check(noise.gamma >= 0.0, "gamma must be >= 0");
  check(noise.kf >= 0.0, "kf must be >= 0");
  check(noise.af > 0.0, "af must be > 0");

  std::function<dev::DeviceModelPtr()> build;
  bool tabulate = false, symmetric = true;
  if (family == "alphan") {
    dev::AlphaPowerParams p;
    p.name = family;
    p.v_t = take("vt", p.v_t);
    p.alpha = take("alpha", p.alpha);
    p.k_sat = take("k", p.k_sat);
    p.lambda = take("lambda", p.lambda);
    p.ss_mv_dec = take("ss", p.ss_mv_dec);
    p.i_off_floor = take("ioff", p.i_off_floor);
    p.width = take("w", p.width);
    check(p.alpha >= 1.0 && p.alpha <= 2.0, "alpha must be in [1, 2]");
    check(p.k_sat > 0.0, "k must be > 0");
    check(p.ss_mv_dec > 0.0, "ss must be > 0");
    build = [p] { return std::make_shared<dev::AlphaPowerModel>(p); };
  } else if (family == "linn") {
    dev::LinearFetParams p;
    p.name = family;
    p.v_t = take("vt", p.v_t);
    p.k_s_per_v = take("k", p.k_s_per_v);
    p.smooth_v = take("smooth", p.smooth_v);
    p.g_off = take("goff", p.g_off);
    p.width = take("w", p.width);
    check(p.k_s_per_v > 0.0, "k must be > 0");
    check(p.smooth_v > 0.0, "smooth must be > 0");
    build = [p] { return std::make_shared<dev::LinearFetModel>(p); };
  } else {
    const double l = take("l", 20e-9);
    check(l > 0.0, "l must be > 0");
    dev::CntfetParams p = dev::make_franklin_cntfet_params(l);
    p.name = family;
    p.ef_source_ev = take("ef", p.ef_source_ev);
    p.r_source_ohm = take("rs", p.r_source_ohm);
    p.r_drain_ohm = take("rd", p.r_drain_ohm);
    p.ballistic = take("ballistic", p.ballistic ? 1.0 : 0.0) != 0.0;
    const double subbands = take("subbands", p.num_subbands);
    if (!(subbands >= 1.0 && subbands <= kMaxCntSubbands &&
          subbands == std::floor(subbands))) {
      refuse("subbands must be an integer in 1.." +
             std::to_string(kMaxCntSubbands));
    }
    check(p.r_source_ohm >= 0.0, "rs must be >= 0");
    check(p.r_drain_ohm >= 0.0, "rd must be >= 0");
    p.num_subbands = static_cast<int>(subbands);
    build = [p] { return std::make_shared<dev::CntfetModel>(p); };
    tabulate = span > 0.0;
    // Unequal contacts break the source/drain exchange symmetry the
    // mirrored table relies on: tabulate reverse bias too.
    symmetric = p.r_source_ohm == p.r_drain_ohm;
  }
  if (!opts.empty()) {
    fail(mc.line_no, mc.line,
         "unknown .model option '" + opts.begin()->first + "' for type '" +
             t + "'");
  }
  const bool has_noise = noise.gamma != quiet.gamma ||
                         noise.kf != quiet.kf || noise.af != quiet.af;
  ModelStore& store = ModelStore::instance();
  dev::DeviceModelPtr model = store.get(key, [&] {
    dev::DeviceModelPtr m = build();
    return has_noise ? dev::with_noise(std::move(m), noise) : m;
  });
  if (tabulate) {
    append_key(key, "span", span);
    model = store.get(key, [&] { return cnt_table(model, span, symmetric); });
  }
  if (p_type) model = std::make_shared<dev::PTypeMirror>(std::move(model));
  return model;
}

/// The ModelMemo key of a .model card: "name|type|key=value..." over the
/// card's evaluated options.
std::string memo_key(const ModelCard& mc, const ParamEnv& env) {
  std::ostringstream os;
  os << mc.name << '|' << mc.type;
  for (const auto& [k, v] : eval_model_options(mc, env)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << '|' << k << '=' << buf;
  }
  return os.str();
}

/// Resolve an m-card model: deck-local .model cards shadow the base
/// registry and come from the ModelStore; @p memo records them.
device::DeviceModelPtr resolve_model(const Deck& deck,
                                     const ModelRegistry& base,
                                     const ElementCard& card,
                                     const ParamEnv& env, double span,
                                     ModelMemo* memo) {
  const ModelCard* mc = nullptr;
  for (const ModelCard& m : deck.models) {
    if (m.name == card.model) mc = &m;
  }
  if (!mc) {
    const auto it = base.find(card.model);
    if (it == base.end()) {
      fail(card.line_no, card.line, "unknown device model: " + card.model);
    }
    return it->second;
  }
  device::DeviceModelPtr model = deck_model(*mc, env, span);
  if (memo) (*memo)[memo_key(*mc, env)] = model;
  return model;
}

// --- waveform construction --------------------------------------------------

/// The interval of values a source or a node potential takes.
struct Levels {
  double lo = 0.0, hi = 0.0;
};

/// The waveform and AC magnitude of a v/i card, every value taken through
/// @p finite (value token, what it is) -> its finite value, and the
/// waveform arguments checked against what the waveform needs.
/// @p levels, when given, receives the interval the waveform spans.
template <typename Finite>
WaveformPtr build_wave(const ElementCard& card, const Finite& finite,
                       double* ac_mag, Levels* levels = nullptr) {
  *ac_mag = 0.0;
  WaveformPtr wave;
  Levels range;
  auto value = [&](const std::string& tok) {
    return finite(tok, "source value");
  };
  for (size_t i = 0; i < card.values.size(); ++i) {
    const std::string& tok = card.values[i];
    std::string tag;
    std::vector<std::string> args;
    if (split_call(tok, &tag, &args)) {
      std::vector<double> v;
      v.reserve(args.size());
      for (const auto& a : args) v.push_back(value(a));
      if (tag == "pulse") {
        if (v.size() != 7) {
          fail(card.line_no, card.line, "PULSE wants 7 arguments");
        }
        if (!(v[3] > 0.0 && v[4] > 0.0 && v[6] >= v[3] + v[4] + v[5])) {
          fail(card.line_no, card.line,
               "PULSE wants rise, fall > 0 and period >= rise + fall + width");
        }
        wave = pulse(v[0], v[1], v[2], v[3], v[4], v[5], v[6]);
        range = {std::min(v[0], v[1]), std::max(v[0], v[1])};
      } else if (tag == "sin") {
        if (v.size() < 3 || v.size() > 5) {
          fail(card.line_no, card.line, "SIN wants 3-5 arguments");
        }
        if (!(v[2] > 0.0)) {
          fail(card.line_no, card.line, "SIN frequency must be > 0");
        }
        wave = sine(v[0], v[1], v[2], v.size() > 3 ? v[3] : 0.0,
                    v.size() > 4 ? v[4] : 0.0);
        range = {v[0] - std::abs(v[1]), v[0] + std::abs(v[1])};
      } else if (tag == "pwl") {
        if (v.size() < 4 || v.size() % 2 != 0) {
          fail(card.line_no, card.line, "PWL wants time/value pairs");
        }
        std::vector<std::pair<double, double>> pts;
        range = {v[1], v[1]};
        for (size_t k = 0; k < v.size(); k += 2) {
          if (k > 0 && !(v[k] > v[k - 2])) {
            fail(card.line_no, card.line,
                 "PWL times must be strictly increasing");
          }
          pts.emplace_back(v[k], v[k + 1]);
          range.lo = std::min(range.lo, v[k + 1]);
          range.hi = std::max(range.hi, v[k + 1]);
        }
        wave = pwl(std::move(pts));
      } else {
        fail(card.line_no, card.line, "unknown source function: " + tag);
      }
      continue;
    }
    const std::string word = lower(tok);
    if (word == "dc") {
      if (++i >= card.values.size()) {
        fail(card.line_no, card.line, "missing DC value");
      }
      wave = dc(value(card.values[i]));
      range = {wave->dc_value(), wave->dc_value()};
      continue;
    }
    if (word == "ac") {
      if (++i >= card.values.size()) {
        fail(card.line_no, card.line, "missing AC magnitude");
      }
      *ac_mag = finite(card.values[i], "ac magnitude");
      continue;
    }
    wave = dc(value(tok));
    range = {wave->dc_value(), wave->dc_value()};
  }
  if (!wave) fail(card.line_no, card.line, "missing source value");
  if (levels) *levels = range;
  return wave;
}

/// The span [V] of the node potentials at one step point, which bounds
/// every terminal difference of a device; 0 when no .model card is a
/// CNT-FET, or when a current source leaves the potentials unbounded
/// (cnfet/cpfet cards then evaluate the direct model).
///
/// Each voltage source holds the difference of its nodes within its levels
/// (DC value, PULSE/PWL levels, SIN offset -/+ amplitude, joined with the
/// ends of a .dc sweep over it), and each capacitor initial condition sets
/// one at t = 0.  Those carry potential intervals out from ground, sources
/// first.  A node none of them reaches stays within the hull of those they
/// reach, since resistors, diodes and FET channels conduct from the higher
/// potential to the lower.  The span is the hull's width, widened on both
/// sides by each source or initial condition that reaches neither of its
/// nodes, and at least kMinTableSpanV.  A value that does not evaluate is
/// left to its own card to report.
double potential_span(const Deck& deck, const std::vector<ParamEnv>& envs) {
  if (std::none_of(deck.models.begin(), deck.models.end(),
                   [](const ModelCard& mc) {
                     return mc.type == "cnfet" || mc.type == "cpfet";
                   })) {
    return 0.0;
  }
  /// v(*a) - v(*b) within levels.
  struct Rise {
    const std::string* a;
    const std::string* b;
    Levels levels;
  };
  std::vector<Rise> sources, initial;
  const auto finite = [](const std::string& expr, const ParamEnv& env) {
    const double v = eval_expr(expr, env);
    if (!std::isfinite(v)) throw ParseError("non-finite value");
    return v;
  };
  for (const ElementCard& card : deck.elements) {
    if (card.kind == 'i') return 0.0;
    const ParamEnv& env = envs[card.scope];
    try {
      if (card.kind == 'v') {
        const auto value = [&](const std::string& tok, const char*) {
          return finite(tok, env);
        };
        double ac_mag = 0.0;
        Levels v;
        build_wave(card, value, &ac_mag, &v);
        for (const AnalysisCard& a : deck.analyses) {
          if (a.kind != AnalysisCard::Kind::kDc || a.source != card.name) {
            continue;
          }
          for (const std::string* end : {&a.start_expr, &a.stop_expr}) {
            const double x = finite(*end, envs.front());
            v = {std::min(v.lo, x), std::max(v.hi, x)};
          }
        }
        sources.push_back({&card.nodes[0], &card.nodes[1], v});
      } else if (card.kind == 'c') {
        if (const auto* ic = find_option(card.options, "ic")) {
          const double x = finite(*ic, env);
          initial.push_back({&card.nodes[0], &card.nodes[1], {x, x}});
        }
      }
    } catch (const ParseError&) {
    }
  }

  std::map<std::string, Levels> at{{"0", Levels{}}};
  Levels hull;
  const auto reach = [&](const std::vector<Rise>& rises) {
    for (bool grew = true; grew;) {
      grew = false;
      for (const Rise& r : rises) {
        const auto a = at.find(*r.a), b = at.find(*r.b);
        if ((a == at.end()) == (b == at.end())) continue;
        const Levels& d = r.levels;
        const Levels v = a == at.end()
                             ? Levels{b->second.lo + d.lo, b->second.hi + d.hi}
                             : Levels{a->second.lo - d.hi, a->second.hi - d.lo};
        at.emplace(a == at.end() ? *r.a : *r.b, v);
        hull = {std::min(hull.lo, v.lo), std::max(hull.hi, v.hi)};
        grew = true;
      }
    }
  };
  reach(sources);
  reach(initial);
  double span = hull.hi - hull.lo;
  for (const std::vector<Rise>* rises : {&sources, &initial}) {
    for (const Rise& r : *rises) {
      if (!at.count(*r.a) && !at.count(*r.b)) {
        span += 2.0 * std::max(std::abs(r.levels.lo), std::abs(r.levels.hi));
      }
    }
  }
  return std::max(span, kMinTableSpanV);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::string* find_option(
    const std::vector<std::pair<std::string, std::string>>& options,
    const std::string& key) {
  for (const auto& [k, v] : options) {
    if (k == key) return &v;
  }
  return nullptr;
}

ParamEnv global_params(const Deck& deck, const ParamEnv& overrides) {
  ParamEnv env;
  for (const ParamSpec& p : deck.scopes.front().params) {
    const auto ov = overrides.find(p.name);
    env[p.name] = ov != overrides.end()
                      ? ov->second
                      : eval_card_value(p.expr, env, p.line_no, p.line);
  }
  for (const auto& [k, v] : overrides) env.emplace(k, v);
  return env;
}

std::vector<ParamEnv> expand_steps(const Deck& deck) {
  if (deck.steps.empty()) return {ParamEnv{}};
  // Grid values may be expressions over the (un-stepped) globals.
  const ParamEnv base = global_params(deck, {});
  std::vector<std::vector<double>> grids;
  for (const StepSpec& s : deck.steps) {
    std::vector<double> g;
    for (const std::string& v : s.values) {
      g.push_back(eval_card_value(v, base, s.line_no, s.line));
    }
    grids.push_back(std::move(g));
  }
  std::vector<ParamEnv> out;
  std::vector<size_t> idx(grids.size(), 0);
  for (;;) {
    ParamEnv env;
    for (size_t i = 0; i < grids.size(); ++i) {
      env[deck.steps[i].param] = grids[i][idx[i]];
    }
    out.push_back(std::move(env));
    // Odometer: the last .step card varies fastest.
    size_t i = grids.size();
    while (i > 0) {
      --i;
      if (++idx[i] < grids[i].size()) break;
      idx[i] = 0;
      if (i == 0) return out;
    }
  }
}

namespace {

/// Shared element-construction logic of instantiate() and retune().
struct CardValues {
  double ohms = 0.0, farad = 0.0, v_init = 0.0;
  double i_sat = 1e-14, ideality = 1.0, mult = 1.0, ac_mag = 0.0;
  WaveformPtr wave;
  device::DeviceModelPtr model;
};

CardValues eval_card(const Deck& deck, const ModelRegistry& base,
                     const ElementCard& card, const std::vector<ParamEnv>& envs,
                     double span, ModelMemo* memo) {
  const ParamEnv& env = envs[card.scope];
  auto value = [&](const std::string& tok) {
    return eval_card_value(tok, env, card.line_no, card.line);
  };
  // The one range check of element values: instantiate() and retune()
  // both take their values from here, so a cached topology refuses what a
  // fresh one does.  The element constructors' checks stay as invariants.
  // A NaN or an infinity would only fail at the ladder's last stage.
  auto finite = [&](const std::string& tok, const char* what) {
    const double v = value(tok);
    if (!std::isfinite(v)) {
      fail(card.line_no, card.line, std::string(what) + " must be finite");
    }
    return v;
  };
  auto positive = [&](const std::string& tok, const char* what) {
    const double v = value(tok);
    if (!(std::isfinite(v) && v > 0.0)) {
      fail(card.line_no, card.line,
           std::string(what) + " must be finite and > 0");
    }
    return v;
  };
  CardValues out;
  switch (card.kind) {
    case 'r':
      out.ohms = positive(card.values[0], "resistance");
      break;
    case 'c':
      out.farad = positive(card.values[0], "capacitance");
      if (const auto* ic = find_option(card.options, "ic")) {
        out.v_init = finite(*ic, "initial condition ic");
      }
      break;
    case 'v':
    case 'i':
      out.wave = build_wave(card, finite, &out.ac_mag);
      break;
    case 'd':
      if (const auto* is = find_option(card.options, "is")) {
        out.i_sat = positive(*is, "saturation current is");
      }
      if (const auto* n = find_option(card.options, "n")) {
        out.ideality = value(*n);
        if (!(std::isfinite(out.ideality) && out.ideality >= 1.0)) {
          fail(card.line_no, card.line, "ideality n must be finite and >= 1");
        }
      }
      break;
    case 'm':
      out.model = resolve_model(deck, base, card, env, span, memo);
      if (const auto* m = find_option(card.options, "m")) {
        out.mult = positive(*m, "multiplier m");
      }
      break;
    default:
      fail(card.line_no, card.line, "unknown element kind");
  }
  return out;
}

}  // namespace

std::unique_ptr<Circuit> instantiate(const Deck& deck,
                                     const ModelRegistry& models,
                                     const ParamEnv& overrides,
                                     ModelMemo* memo) {
  const std::vector<ParamEnv> envs = resolve_scopes(deck, overrides);
  const double span = potential_span(deck, envs);
  auto ckt = std::make_unique<Circuit>();
  for (const ElementCard& card : deck.elements) {
    const CardValues v = eval_card(deck, models, card, envs, span, memo);
    switch (card.kind) {
      case 'r':
        ckt->add_resistor(card.name, card.nodes[0], card.nodes[1], v.ohms);
        break;
      case 'c':
        ckt->add_capacitor(card.name, card.nodes[0], card.nodes[1], v.farad,
                           v.v_init);
        break;
      case 'v': {
        VSource* src =
            ckt->add_vsource(card.name, card.nodes[0], card.nodes[1], v.wave);
        if (v.ac_mag != 0.0) src->set_ac_magnitude(v.ac_mag);
        break;
      }
      case 'i':
        ckt->add_isource(card.name, card.nodes[0], card.nodes[1], v.wave);
        break;
      case 'd':
        ckt->add_diode(card.name, card.nodes[0], card.nodes[1], v.i_sat,
                       v.ideality);
        break;
      case 'm':
        ckt->add_fet(card.name, card.nodes[0], card.nodes[1], card.nodes[2],
                     v.model, v.mult);
        break;
      default:
        break;
    }
  }
  return ckt;
}

void retune(const Deck& deck, const ModelRegistry& models,
            const ParamEnv& overrides, Circuit& ckt, ModelMemo* memo) {
  const std::vector<ParamEnv> envs = resolve_scopes(deck, overrides);
  const double span = potential_span(deck, envs);
  const auto& elements = ckt.elements();
  CARBON_REQUIRE(elements.size() == deck.elements.size(),
                 "retune: circuit does not match the deck's card list");
  for (size_t i = 0; i < deck.elements.size(); ++i) {
    const ElementCard& card = deck.elements[i];
    const CardValues v = eval_card(deck, models, card, envs, span, memo);
    Element* el = elements[i].get();
    switch (card.kind) {
      case 'r':
        static_cast<Resistor*>(el)->set_resistance(v.ohms);
        break;
      case 'c': {
        auto* cap = static_cast<Capacitor*>(el);
        cap->set_capacitance(v.farad);
        cap->set_v_init(v.v_init);
        break;
      }
      case 'v': {
        auto* src = static_cast<VSource*>(el);
        src->set_wave(v.wave);
        src->set_ac_magnitude(v.ac_mag);
        break;
      }
      case 'i':
        static_cast<ISource*>(el)->set_wave(v.wave);
        break;
      case 'd':
        static_cast<Diode*>(el)->set_params(v.i_sat, v.ideality);
        break;
      case 'm': {
        auto* fet = static_cast<Fet*>(el);
        fet->set_model(v.model);
        fet->set_multiplier(v.mult);
        break;
      }
      default:
        break;
    }
  }
}

Deck parse_deck(const std::string& text, const ModelRegistry& /*models*/) {
  Deck deck;
  deck.scopes.push_back(ParamScope{});  // scope 0: globals

  const std::vector<RawCard> cards = logical_lines(text);
  std::map<std::string, SubcktDef> subckts;
  std::vector<RawCard> top;
  SubcktDef* open_subckt = nullptr;

  for (const RawCard& card : cards) {
    if (card.tokens.empty()) continue;
    const std::string head = lower(card.tokens[0]);

    if (head[0] != '.') {
      if (open_subckt) {
        open_subckt->body.push_back(card);
      } else {
        top.push_back(card);
      }
      continue;
    }

    if (head == ".subckt") {
      if (open_subckt) {
        fail(card.line_no, card.text, "nested .subckt definitions");
      }
      if (card.tokens.size() < 3) {
        fail(card.line_no, card.text, ".subckt wants: name ports... [k=v]");
      }
      SubcktDef def;
      def.name = lower(card.tokens[1]);
      def.line_no = card.line_no;
      def.line = card.text;
      for (size_t i = 2; i < card.tokens.size(); ++i) {
        std::string k, v;
        if (split_kv(card.tokens[i], &k, &v)) {
          def.formals.push_back({k, v, card.line_no, card.text});
        } else {
          if (!def.formals.empty()) {
            fail(card.line_no, card.text,
                 ".subckt ports must precede parameter defaults");
          }
          def.ports.push_back(lower(card.tokens[i]));
        }
      }
      if (subckts.count(def.name)) {
        fail(card.line_no, card.text,
             "duplicate subcircuit definition: " + def.name);
      }
      open_subckt = &subckts.emplace(def.name, std::move(def)).first->second;
      continue;
    }
    if (head == ".ends") {
      if (!open_subckt) fail(card.line_no, card.text, ".ends without .subckt");
      open_subckt = nullptr;
      continue;
    }
    if (open_subckt) {
      if (head == ".param") {
        for (ParamSpec& p : parse_param_card(card)) {
          open_subckt->locals.push_back(std::move(p));
        }
        continue;
      }
      fail(card.line_no, card.text,
           head + " is not allowed inside a .subckt definition");
    }

    if (head == ".end") break;
    if (head == ".title") {
      const auto at = card.text.find(card.tokens[0]);
      deck.title = card.text.substr(at + card.tokens[0].size());
      const auto ns = deck.title.find_first_not_of(" \t");
      deck.title = ns == std::string::npos ? "" : deck.title.substr(ns);
      continue;
    }
    if (head == ".param") {
      for (ParamSpec& p : parse_param_card(card)) {
        deck.scopes[0].params.push_back(std::move(p));
      }
      continue;
    }
    if (head == ".step") {
      deck.steps.push_back(parse_step_card(card));
      // The cards span a cartesian grid, expanded in full before a solve.
      double points = 1.0;
      for (const StepSpec& s : deck.steps) points *= s.values.size();
      if (points > kMaxSweepPoints) {
        fail(card.line_no, card.text, ".step grid over 10000 points");
      }
      continue;
    }
    if (head == ".model") {
      ModelCard mc = parse_model_card(card);
      for (const ModelCard& prev : deck.models) {
        if (prev.name == mc.name) {
          fail(card.line_no, card.text, "duplicate .model name: " + mc.name);
        }
      }
      deck.models.push_back(std::move(mc));
      continue;
    }
    if (head == ".options" || head == ".option") {
      for (auto& kv : parse_options(card.tokens, 1, card.line_no, card.text)) {
        deck.options.push_back(std::move(kv));
      }
      continue;
    }
    if (head == ".probe" || head == ".print") {
      if (card.tokens.size() == 2 && lower(card.tokens[1]) == "none") {
        deck.probe_none = true;
        continue;
      }
      for (size_t i = 1; i < card.tokens.size(); ++i) {
        std::string kind, name;
        if (!parse_signal(card.tokens[i], &kind, &name)) {
          fail(card.line_no, card.text,
               ".probe wants v(<node>) / i(<vsource>) entries");
        }
        auto& probes = kind == "v" ? deck.probe_nodes : deck.probe_currents;
        probes.push_back({name, card.line_no, card.text});
      }
      continue;
    }
    if (head == ".measure" || head == ".meas") {
      deck.measures.push_back(parse_measure_card(card));
      continue;
    }
    if (head == ".op" || head == ".dc" || head == ".tran" || head == ".ac" ||
        head == ".noise") {
      deck.analyses.push_back(parse_analysis_card(card, head));
      continue;
    }
    fail(card.line_no, card.text, "unknown dot card " + head);
  }
  if (open_subckt) {
    fail(open_subckt->line_no, open_subckt->line,
         ".subckt " + open_subckt->name + " never closed by .ends");
  }

  Flattener(deck, subckts).expand(top, "", {}, 0, 0);

  // Value-free canonical topology description -> session cache key.
  {
    std::ostringstream os;
    for (const ElementCard& el : deck.elements) {
      os << el.kind << '|' << el.name << '|';
      for (const std::string& n : el.nodes) os << n << ',';
      os << '\n';
    }
    deck.topology_signature = os.str();
    deck.topology_hash = fnv1a64(deck.topology_signature);
  }
  return deck;
}

std::unique_ptr<Circuit> parse_netlist(const std::string& text,
                                       const ModelRegistry& models) {
  return instantiate(parse_deck(text), models);
}

}  // namespace carbon::spice
