#pragma once

/// @file report.h
/// Output helpers shared by the bench binaries: consistent stdout banners,
/// table printing, CSV artifact writing, paper-vs-measured comparison rows
/// for EXPERIMENTS.md — and a minimal JSON value builder for the
/// machine-readable reports (deck documents, solver failure records).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "phys/table.h"

namespace carbon::core {

/// A minimal JSON value: null, bool, number (integers kept exact, doubles
/// emitted with %.17g so they round-trip bit-identically), string, array,
/// object.  Objects preserve insertion order, so reports diff cleanly.
/// Build with the fluent set()/push() and serialize with dump():
///
///   auto j = Json::object();
///   j.set("yield", 0.97).set("failures", Json::array().push("timed-out"));
///   std::string text = j.dump(2);   // indent 2; dump() = compact
class Json {
 public:
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}
  Json(int v) : kind_(Kind::kInt), int_(v) {}
  Json(long v) : kind_(Kind::kInt), int_(v) {}
  Json(long long v) : kind_(Kind::kInt), int_(v) {}
  Json(std::string v) : kind_(Kind::kString), string_(std::move(v)) {}
  Json(const char* v) : kind_(Kind::kString), string_(v) {}

  /// Append @p key: @p value to an object (keys are not deduplicated; the
  /// caller owns uniqueness).  Returns *this for chaining.
  Json& set(std::string key, Json value);
  /// Append @p value to an array.  Returns *this for chaining.
  Json& push(Json value);

  /// Serialize.  indent 0 = compact single line; > 0 = pretty-printed
  /// with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// JSON string escaping of @p s (quotes included).
  static std::string escape(const std::string& s);

  /// Parse a JSON document (the reader side of dump(); tests round-trip
  /// carbon_sim output through it instead of string-grepping).  Accepts
  /// exactly one top-level value with optional surrounding whitespace;
  /// numbers without '.', 'e' or '-0' fraction parse as kInt when they fit
  /// an int64, as kDouble otherwise; \uXXXX escapes decode to UTF-8.
  /// Throws std::runtime_error with a character offset on malformed input.
  static Json parse(const std::string& text);

  // --- read-side accessors -------------------------------------------------
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;
  /// Numeric value (kInt or kDouble).
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array length / object member count (0 for scalars).
  std::size_t size() const;
  /// Array element (throws out_of_range past the end or on non-arrays).
  const Json& at(std::size_t i) const;
  /// Object member lookup; nullptr when absent (first match wins).
  const Json* find(const std::string& key) const;
  /// Object member access; throws out_of_range when absent.
  const Json& operator[](const std::string& key) const;
  /// Object members in insertion order (empty for non-objects).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  explicit Json(Kind kind) : kind_(kind) {}
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                            // kArray
  std::vector<std::pair<std::string, Json>> members_;  // kObject
};

/// Print a top-level experiment banner to @p os.
void print_banner(std::ostream& os, const std::string& experiment_id,
                  const std::string& description);

/// Print a table and also write it as CSV under out_dir (created when
/// needed; default "bench_out" relative to the CWD).
void emit_table(std::ostream& os, const phys::DataTable& table,
                const std::string& title, const std::string& csv_name,
                const std::string& out_dir = "bench_out");

/// How a claim is scored against the paper value.
enum class ClaimKind {
  kBand,     ///< within +/- rel_tolerance of the paper value
  kAtLeast,  ///< measured >= paper * (1 - rel_tolerance)
  kAtMost,   ///< measured <= paper * (1 + rel_tolerance)
};

/// One paper-vs-measured comparison row.
struct Claim {
  std::string id;           ///< e.g. "fig2.nmh"
  std::string description;
  double paper_value;
  double measured_value;
  std::string unit;
  /// Acceptable relative deviation for the "shape holds" verdict (e.g. 0.5
  /// means within a factor ~2).
  double rel_tolerance = 0.5;
  ClaimKind kind = ClaimKind::kBand;
};

/// Print claims with pass/deviation verdicts; returns number of misses.
int print_claims(std::ostream& os, const std::vector<Claim>& claims);

}  // namespace carbon::core
