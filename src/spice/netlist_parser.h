#pragma once

/// @file netlist_parser.h
/// The SPICE deck frontend: the netlist *is* the API.  A deck is parsed
/// into a Deck — a flattened element list plus analysis requests, measure
/// specs, parameter scopes and a step grid — which SimSession (session.h)
/// dispatches through the engine without the caller writing any C++.
///
///     * comment lines start with '*' or '#'; ';' starts a trailing comment
///     .title cnt inverter chain
///     .param vdd=0.9 cl={2*10f}
///     .model n1 alphan(vt=0.2 alpha=1.3 k=60u lambda=0.08)
///     .model p1 alphap(vt=0.2 alpha=1.3 k=60u lambda=0.08)
///     .subckt inv in out vdd cl=10f
///     mp out in vdd p1
///     mn out in 0   n1
///     c1 out 0 {cl}
///     .ends
///     vdd vdd 0 {vdd}
///     vin in  0 PULSE(0 {vdd} 1n 10p 10p 2n 4n)
///     x1 in  m1 vdd inv cl={cl}
///     x2 m1  m2 vdd inv
///     .step param vdd 0.6 1.0 0.2
///     .tran 10p 4n
///     .measure tran tplh delay v(in) v(m1) vdd={vdd} rise
///     .end
///
/// Hierarchy is flattened at parse time: instance x1's internal node n
/// becomes "x1.n" and its element m becomes "x1.m"; ports map onto the
/// parent's nodes and "0"/"gnd" stays global.  Values anywhere on a card
/// are expressions over .param symbols — `{vdd/2}`, `2*cl`, plain numbers
/// with engineering suffixes (f p n u m k meg mil g t, case-insensitive).
///
/// Device models come from `.model` cards (alphan/alphap, linn/linp,
/// cnfet/cpfet families), each built once per process by the ModelStore
/// (model_store.h), or from a registry of IDeviceModel instances supplied
/// by the embedding program (the parser cannot invent physics).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/ivmodel.h"
#include "spice/circuit.h"

namespace carbon::spice {

/// Named device models available to 'm' cards (base registry; deck-local
/// `.model` cards shadow it).
using ModelRegistry = std::map<std::string, device::DeviceModelPtr>;

/// Thrown on malformed decks.  Carries the offending line number and the
/// raw line text so a driver can render a structured error document.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& reason, int line_no = 0,
                      std::string line_text = "");

  /// 1-based deck line of the offending card (0 = not attributable).
  int line() const { return line_no_; }
  /// The raw text of the offending line ("" when not attributable).
  const std::string& line_text() const { return line_text_; }
  /// The failure description without the line context.
  const std::string& reason() const { return reason_; }

 private:
  int line_no_;
  std::string line_text_;
  std::string reason_;
};

/// Parse a numeric literal with optional SPICE engineering suffix
/// ("2.5k" -> 2500, "10f" -> 1e-14, "3MEG" -> 3e6, "1e3k" -> 1e6,
/// "5mil" -> 127e-6).  Suffixes are case-insensitive and may be followed
/// by a purely alphabetic unit tail ("10kohm", "100nF"); anything else
/// trailing is rejected, as are hex, inf and nan.  Throws ParseError.
double parse_spice_number(const std::string& token);

/// Parameter environment: evaluated parameter values by (lowercase) name.
using ParamEnv = std::map<std::string, double>;

/// Evaluate a deck value expression: numbers with engineering suffixes,
/// parameter references, + - * / ^ with the usual precedence, parentheses,
/// and the functions sqrt/abs/exp/log/log10/pow/min/max/floor/ceil.
/// A surrounding {...} brace pair is stripped first.  Throws ParseError
/// (line 0) on malformed expressions or unknown parameters.
double eval_expr(const std::string& expr, const ParamEnv& env);

/// One `name=expr` parameter definition.
struct ParamSpec {
  std::string name;
  std::string expr;
  int line_no = 0;
  std::string line;
};

/// A lexical parameter scope: the globals (scope 0) or one subcircuit
/// instance (formals bound to instance overrides or defaults, then the
/// subckt-local .param cards).  Scopes chain through `parent`.
struct ParamScope {
  int parent = -1;  ///< -1 = root
  std::vector<ParamSpec> params;
};

/// One flattened element card.  Values and option values are unevaluated
/// expression strings so a Deck can be re-instantiated under any step's
/// parameter environment.
struct ElementCard {
  char kind = 0;                    ///< 'r' 'c' 'v' 'i' 'd' 'm'
  std::string name;                 ///< flattened ("x1.mn")
  std::vector<std::string> nodes;   ///< flattened ("x1.out", "0", ...)
  std::string model;                ///< m-cards: model name
  std::vector<std::string> values;  ///< positional value/waveform tokens
  std::vector<std::pair<std::string, std::string>> options;  ///< key=expr
  int scope = 0;                    ///< index into Deck::scopes
  int line_no = 0;
  std::string line;
};

/// One `.model <name> <type>(key=val ...)` card.  Types: alphan/alphap
/// (Sakurai–Newton alpha-power law), linn/linp (non-saturating linear FET),
/// cnfet/cpfet (quasi-ballistic CNT-FET, compiled to a bicubic table over
/// the span of the step point's node potentials, or evaluated directly in
/// a deck with a current source, which bounds no potential).  All types
/// accept the noise options gamma/kf/af.  The p-flavours share the n-model
/// and wrap it in device::PTypeMirror.
struct ModelCard {
  std::string name;
  std::string type;
  std::vector<std::pair<std::string, std::string>> options;
  int line_no = 0;
  std::string line;
};

/// One analysis request card.
struct AnalysisCard {
  enum class Kind { kOp, kDc, kTran, kAc, kNoise };
  Kind kind = Kind::kOp;

  // .dc <vsource> <start> <stop> <step>
  std::string source;  ///< swept source (.dc) / designated input (.noise)
  std::string start_expr, stop_expr, step_expr;

  // .tran <tstep> <tstop>
  std::string dt_expr, tstop_expr;

  // .ac dec <pts/decade> <fstart> <fstop>   (also .noise)
  std::string npd_expr, fstart_expr, fstop_expr;

  // .noise v(<node>) <vsource> dec <n> <fstart> <fstop>
  std::string output;

  std::vector<std::pair<std::string, std::string>> options;  ///< key=expr
  int line_no = 0;
  std::string line;
};

/// One `.measure <analysis> <name> <fn> <signals...> [key=val] [flags]`
/// card, mapped onto spice/measure.h by the session:
///   max|min|avg|rms|pp <sig> [from=] [to=]   — column statistics
///   cross  <sig> val=<v> [rise|fall] [after=<t>]
///   delay  <in-sig> <out-sig> vdd=<v> [rise|fall]   — 50% prop. delay
///   period <sig> mid=<v> [skip=<cycles>]
///   energy i(<vsrc>) vdd=<v>
///   find   <sig> at=<x>
///   corner <sig>                              — AC -3 dB frequency
///   vtc    <in-sig> <out-sig> vdd=<v> metric=<gain|nml|nmh|vil|vih|
///                                              vol|voh|vswitch>
///   value  <sig>                              — OP node voltage / current
struct MeasureCard {
  std::string analysis;  ///< "op" "dc" "tran" "ac" "noise"
  std::string name;
  std::string fn;
  std::vector<std::string> signals;  ///< "v(out)", "i(vdd)", ...
  std::vector<std::pair<std::string, std::string>> options;  ///< + flags=""
  int line_no = 0;
  std::string line;
};

/// Most points a `.step` grid or a `.dc` sweep may hold: both are built in
/// full before the first solve.
inline constexpr int kMaxSweepPoints = 10000;

/// One `.step param <name> <start> <stop> <incr>` or
/// `.step param <name> list <v1> <v2> ...` card.  Multiple .step cards
/// form a cartesian grid; the first card varies slowest.
struct StepSpec {
  std::string param;
  std::vector<std::string> values;  ///< expression per grid value
  int line_no = 0;
  std::string line;
};

/// One `.probe v(<node>)` or `.probe i(<vsource>)` selection and the card
/// that made it.
struct ProbeRef {
  std::string name;  ///< the node (v) or voltage source (i), lowercase
  int line_no = 0;
  std::string line;
};

/// A parsed deck: everything needed to instantiate or retune its circuit
/// per step point (instantiate(), retune()) and to drive analyses and
/// measures.  Parsing evaluates no values: bad numbers, expressions and
/// unknown models surface from instantiate().
struct Deck {
  std::string title;

  std::vector<ParamScope> scopes;  ///< [0] = globals
  std::vector<ModelCard> models;
  std::vector<ElementCard> elements;  ///< flattened, in stamp order
  std::vector<AnalysisCard> analyses;
  std::vector<MeasureCard> measures;
  std::vector<StepSpec> steps;

  /// `.probe v(a) i(v1)` selections; empty + !probe_none = every node.
  std::vector<ProbeRef> probe_nodes;
  std::vector<ProbeRef> probe_currents;
  bool probe_none = false;  ///< `.probe none`: measures only, no tables

  std::vector<std::pair<std::string, std::string>> options;  ///< .options

  /// Canonical value-free description of the flattened topology (element
  /// kinds, names, nodes) and its FNV-1a hash — the session-cache key:
  /// decks differing only in parameter/model values share an entry.
  std::string topology_signature;
  std::uint64_t topology_hash = 0;
};

/// Parse a full deck: cards, hierarchy flattening and the topology
/// signature.  Throws ParseError on malformed cards.  The registry is not
/// consulted (models resolve in instantiate()); the parameter stays for
/// existing callers.
Deck parse_deck(const std::string& text, const ModelRegistry& models = {});

/// Step-grid parameter overrides, one env per step point in run order (a
/// single empty env when the deck has no .step).  Each env holds ONLY the
/// stepped parameters, so globals that depend on them re-resolve per step
/// when passed to instantiate()/retune() as overrides.
std::vector<ParamEnv> expand_steps(const Deck& deck);

/// The global parameter environment of one step point: scope 0's .param
/// cards evaluated in order, each name in @p overrides taking the
/// override's value, plus the override names no .param card declares.
/// Analysis, measure and .step values are evaluated in it.  Throws
/// ParseError naming the .param card whose value does not evaluate.
ParamEnv global_params(const Deck& deck, const ParamEnv& overrides);

/// The expression of option @p key on a card; nullptr when absent.
const std::string* find_option(
    const std::vector<std::pair<std::string, std::string>>& options,
    const std::string& key);

/// Record of the deck-local models an instantiate() or retune() call
/// resolved, keyed "name|type|key=value..." (card name, card type, the
/// evaluated options).  The models come from the ModelStore either way.
using ModelMemo = std::map<std::string, device::DeviceModelPtr>;

/// Instantiate a fresh Circuit from the flattened cards under the given
/// global parameter overrides (stepped values; pass {} for the base point).
/// @p models resolves m-card model names not defined by deck-local
/// `.model` cards; @p memo, when given, records the deck-local models.
/// Throws ParseError, naming the card's line, on values that do not
/// evaluate or that a model or element refuses, and on unknown models.
std::unique_ptr<Circuit> instantiate(const Deck& deck,
                                     const ModelRegistry& models,
                                     const ParamEnv& overrides = {},
                                     ModelMemo* memo = nullptr);

/// Re-tune an instantiated circuit's element *values* in place for a new
/// parameter environment without touching its topology: resistances,
/// capacitances, waveforms, diode and FET models.  The circuit must have
/// been built from this deck's card list (same topology signature).  After
/// a retune the caller must refresh any MnaSystem static baseline built
/// from the old values (NewtonWorkspace users: mna.refresh_baseline()).
void retune(const Deck& deck, const ModelRegistry& models,
            const ParamEnv& overrides, Circuit& ckt,
            ModelMemo* memo = nullptr);

/// Parse and instantiate at the base parameter point:
/// instantiate(parse_deck(text), models).
std::unique_ptr<Circuit> parse_netlist(const std::string& text,
                                       const ModelRegistry& models = {});

}  // namespace carbon::spice
