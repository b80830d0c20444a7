#include "spice/session.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "phys/require.h"
#include "spice/measure.h"

namespace carbon::spice {

namespace {

/// Most rows a thinned `.tran` table may hold (t_stop / print interval):
/// the recorder writes every row of an accepted step before the next
/// cancel poll.
constexpr double kMaxTranRows = 1e6;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

const std::string* find_opt(
    const std::vector<std::pair<std::string, std::string>>& options,
    const std::string& key) {
  for (const auto& [k, v] : options) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// "v(out)" / "i(vdd)" / bare token -> (is_current, name).  Bare tokens
/// count as node voltages (and as literal column names for noise tables).
struct Signal {
  bool current = false;
  std::string name;
};

Signal parse_signal(const std::string& token, int line_no,
                    const std::string& line) {
  const auto open = token.find('(');
  if (open == std::string::npos) return {false, lower(token)};
  if (token.back() != ')') {
    throw ParseError("malformed signal reference: " + token, line_no, line);
  }
  const std::string tag = lower(token.substr(0, open));
  const std::string name =
      lower(token.substr(open + 1, token.size() - open - 2));
  if (tag == "v") return {false, name};
  if (tag == "i") return {true, name};
  throw ParseError("unknown signal kind '" + tag + "' in " + token, line_no,
                   line);
}

void push_unique(std::vector<std::string>& out, const std::string& name) {
  if (std::find(out.begin(), out.end(), name) == out.end()) {
    out.push_back(name);
  }
}

core::Json table_json(const phys::DataTable& table, int max_rows) {
  auto cols = core::Json::array();
  for (const std::string& c : table.columns()) cols.push(c);
  auto rows = core::Json::array();
  const int n =
      std::min(table.num_rows(), max_rows < 0 ? table.num_rows() : max_rows);
  for (int r = 0; r < n; ++r) {
    auto row = core::Json::array();
    for (int c = 0; c < table.num_cols(); ++c) row.push(table.at(r, c));
    rows.push(std::move(row));
  }
  auto out = core::Json::object();
  out.set("columns", std::move(cols));
  out.set("num_rows", table.num_rows());
  out.set("rows", std::move(rows));
  return out;
}

/// Deck-level .options -> solver configuration.  Strict: a typo'd key is
/// an error, not a silently ignored knob.
struct DeckConfig {
  SolverOptions solver;
  double temperature_k = 300.0;
};

DeckConfig config_from(const Deck& deck) {
  DeckConfig cfg;
  for (const auto& [k, v] : deck.options) {
    if (k == "reltol") {
      cfg.solver.reltol = parse_spice_number(v);
    } else if (k == "abstol" || k == "vabstol") {
      cfg.solver.v_abstol = parse_spice_number(v);
    } else if (k == "maxiter") {
      cfg.solver.max_iterations = static_cast<int>(parse_spice_number(v));
    } else if (k == "gmin") {
      cfg.solver.gmin_final = parse_spice_number(v);
    } else if (k == "temp") {
      cfg.temperature_k = parse_spice_number(v);
    } else {
      throw ParseError("unknown .options key '" + k + "'");
    }
  }
  return cfg;
}

/// Deck errors no solve should be left to find: a circuit with no node to
/// solve for, and a .probe or .noise output naming a node the circuit
/// lacks.
void check_circuit(const Deck& deck, const Circuit& ckt) {
  if (ckt.num_nodes() == 0) {
    throw ParseError("deck has no circuit node to solve for");
  }
  for (const ProbeNode& p : deck.probe_nodes) {
    if (!ckt.has_node(p.node)) {
      throw ParseError(".probe names unknown node '" + p.node + "'",
                       p.line_no, p.line);
    }
  }
  for (const AnalysisCard& card : deck.analyses) {
    if (card.kind == AnalysisCard::Kind::kNoise &&
        (!ckt.has_node(card.output) || ckt.find_node(card.output) == 0)) {
      throw ParseError(".noise output must be a non-ground circuit node",
                       card.line_no, card.line);
    }
  }
}

/// Everything one step point's analyses record, for the measure pass.
struct StepResults {
  bool have_op = false;
  Solution op;
  std::map<std::string, phys::DataTable> tables;  ///< by analysis kind name
};

const char* analysis_kind_name(AnalysisCard::Kind kind) {
  switch (kind) {
    case AnalysisCard::Kind::kOp: return "op";
    case AnalysisCard::Kind::kDc: return "dc";
    case AnalysisCard::Kind::kTran: return "tran";
    case AnalysisCard::Kind::kAc: return "ac";
    case AnalysisCard::Kind::kNoise: return "noise";
  }
  return "?";
}

/// Abscissa column of each analysis table.
std::string x_column(const std::string& analysis) {
  if (analysis == "tran") return "time_s";
  if (analysis == "dc") return "sweep_v";
  return "freq_hz";  // ac, noise
}

/// Map a measure signal to the table column recorded for this analysis.
std::string column_for(const std::string& analysis, const Signal& sig) {
  if (analysis == "ac") {
    return sig.current ? "i(" + sig.name + ")" : "mag(" + sig.name + ")";
  }
  if (analysis == "noise") return sig.name;  // fixed column names
  return (sig.current ? "i(" : "v(") + sig.name + ")";
}

/// One step point's full execution: retune, run analyses, measures.
class StepRunner {
 public:
  StepRunner(const Deck& deck, const DeckConfig& cfg, Circuit& ckt,
             NewtonWorkspace& ws, AcSystem& ac, const ModelRegistry& registry,
             ModelMemo& memo, const ParamEnv& overrides,
             const SessionOptions& session_opts)
      : deck_(deck),
        cfg_(cfg),
        ckt_(ckt),
        ws_(ws),
        ac_(ac),
        registry_(registry),
        memo_(memo),
        overrides_(overrides),
        session_opts_(session_opts) {}

  core::Json run() {
    // A sweep grid or time span that cannot be marched fails the deck
    // before any solve.
    for (const AnalysisCard& card : deck_.analyses) {
      if (card.kind == AnalysisCard::Kind::kDc) read_dc_values(card);
      if (card.kind == AnalysisCard::Kind::kTran) read_tran_options(card);
      if (card.kind == AnalysisCard::Kind::kAc ||
          card.kind == AnalysisCard::Kind::kNoise) {
        AcOptions grid;
        read_frequency_grid(card, grid);
      }
    }

    auto step = core::Json::object();
    if (!overrides_.empty()) {
      auto params = core::Json::object();
      for (const auto& [k, v] : overrides_) params.set(k, v);
      step.set("params", std::move(params));
    }

    retune(deck_, registry_, overrides_, ckt_, &memo_);
    ws_.prepare(ckt_);
    // Element *values* may have changed under the unchanged topology; the
    // static Jacobian baseline follows them, the pattern does not.
    ws_.mna.refresh_baseline();

    auto analyses = core::Json::array();
    for (const AnalysisCard& card : deck_.analyses) {
      // Restore source waveforms a previous analysis left mid-sweep
      // (dc_sweep parks the swept source at its last value).
      retune(deck_, registry_, overrides_, ckt_, &memo_);
      analyses.push(run_analysis(card));
    }
    step.set("analyses", std::move(analyses));

    if (!deck_.measures.empty()) {
      auto measures = core::Json::object();
      auto errors = core::Json::object();
      bool any_error = false;
      for (const MeasureCard& m : deck_.measures) {
        try {
          measures.set(m.name, measure_value(m));
        } catch (const std::exception& e) {
          measures.set(m.name, core::Json());
          errors.set(m.name, std::string(e.what()));
          any_error = true;
        }
      }
      step.set("measures", std::move(measures));
      if (any_error) step.set("measure_errors", std::move(errors));
    }
    return step;
  }

 private:
  /// `.probe none` means measures only: no tables even when the session
  /// would emit them.
  bool emit_tables() const {
    return session_opts_.emit_tables && !deck_.probe_none;
  }

  double eval_in_env(const std::string& expr, int line_no,
                     const std::string& line) const {
    try {
      return eval_expr(expr, genv());
    } catch (const ParseError& e) {
      throw ParseError(e.reason(), line_no, line);
    }
  }

  /// Evaluate the .ac/.noise grid of @p card into @p opt (AcOptions or
  /// NoiseOptions).  Rejects what log_frequency_grid cannot march: a
  /// non-positive start, a stop not above the start, and fewer than 1 or
  /// more than 1e6 points per decade (the cap keeps the point count of any
  /// finite range representable).
  template <typename SweepOptions>
  void read_frequency_grid(const AnalysisCard& card, SweepOptions& opt) const {
    const double npd = eval_in_env(card.npd_expr, card.line_no, card.line);
    opt.f_start_hz = eval_in_env(card.fstart_expr, card.line_no, card.line);
    opt.f_stop_hz = eval_in_env(card.fstop_expr, card.line_no, card.line);
    if (!(opt.f_start_hz > 0.0 && opt.f_stop_hz > opt.f_start_hz &&
          std::isfinite(opt.f_stop_hz) && npd >= 1.0 && npd <= 1e6)) {
      throw ParseError(
          "sweep wants 0 < fstart < fstop and 1 to 1e6 points per decade",
          card.line_no, card.line);
    }
    opt.points_per_decade = static_cast<int>(npd);
  }

  /// The swept values of a .dc card: finite bounds, a step that reaches
  /// stop, and at most kMaxSweepPoints points.
  std::vector<double> read_dc_values(const AnalysisCard& card) const {
    const double start = eval_in_env(card.start_expr, card.line_no, card.line);
    const double stop = eval_in_env(card.stop_expr, card.line_no, card.line);
    const double step = eval_in_env(card.step_expr, card.line_no, card.line);
    if (!(std::isfinite(start) && std::isfinite(stop) && step != 0.0 &&
          (stop - start) * step >= 0.0)) {
      throw ParseError(".dc wants finite start and stop and a step that "
                       "reaches stop", card.line_no, card.line);
    }
    // Counted as a double: a count past int range fails here, not in the
    // cast.
    const double n = std::floor((stop - start) / step + 1e-9);
    if (!(n < kMaxSweepPoints)) {
      throw ParseError(".dc sweep over 10000 points", card.line_no,
                       card.line);
    }
    std::vector<double> values;
    for (int i = 0; i <= static_cast<int>(n); ++i) {
      values.push_back(start + i * step);
    }
    return values;
  }

  /// The TransientOptions of a .tran card: finite values, a positive
  /// tstep and tstop, positive LTE tolerances and at most kMaxTranRows
  /// printed rows.
  TransientOptions read_tran_options(const AnalysisCard& card) const {
    const auto value = [&](const std::string& expr) {
      const double x = eval_in_env(expr, card.line_no, card.line);
      if (!std::isfinite(x)) {
        throw ParseError(".tran values must be finite", card.line_no,
                         card.line);
      }
      return x;
    };
    TransientOptions topt;
    topt.dt = value(card.dt_expr);
    topt.t_stop = value(card.tstop_expr);
    if (topt.dt <= 0.0 || topt.t_stop <= 0.0) {
      throw ParseError(".tran wants a positive tstep and tstop", card.line_no,
                       card.line);
    }
    topt.adaptive = true;
    topt.dt_print = topt.dt;  // tstep is the print/report interval
    topt.ic = TransientIc::kFromOperatingPoint;
    topt.solver = cfg_.solver;
    topt.workspace = &ws_;
    for (const auto& [k, v] : card.options) {
      if (k == "fixed") {
        topt.adaptive = value(v) == 0.0;
      } else if (k == "ic") {
        const std::string mode = lower(v);
        if (mode == "init") topt.ic = TransientIc::kFromInit;
        else if (mode == "op") topt.ic = TransientIc::kFromOperatingPoint;
        else throw ParseError(".tran ic must be init|op", card.line_no,
                              card.line);
      } else if (k == "dtmin") {
        topt.dt_min = value(v);
      } else if (k == "dtmax") {
        topt.dt_max = value(v);
      } else if (k == "lte_reltol") {
        topt.lte_reltol = value(v);
      } else if (k == "lte_abstol") {
        topt.lte_abstol = value(v);
      } else if (k == "print") {
        topt.dt_print = value(v);
      } else if (k == "bypass") {
        topt.bypass_vtol = value(v);
      } else if (k == "trap") {
        topt.trapezoidal = value(v) != 0.0;
      } else {
        throw ParseError("unknown .tran option '" + k + "'", card.line_no,
                         card.line);
      }
    }
    if (topt.lte_reltol <= 0.0 || topt.lte_abstol <= 0.0) {
      throw ParseError(".tran lte_reltol and lte_abstol must be positive",
                       card.line_no, card.line);
    }
    if (topt.dt_print > 0.0 && topt.t_stop / topt.dt_print > kMaxTranRows) {
      throw ParseError(".tran print interval gives over 1e6 rows",
                       card.line_no, card.line);
    }
    return topt;
  }

  /// Global parameter env of this step (globals + overrides), evaluated
  /// lazily once: analysis and measure card options are expressions too.
  const ParamEnv& genv() const {
    if (!genv_ready_) {
      ParamEnv env;
      for (const ParamScope& scope : deck_.scopes) {
        if (scope.parent != -1) continue;
        for (const ParamSpec& p : scope.params) {
          const auto ov = overrides_.find(p.name);
          env[p.name] =
              ov != overrides_.end() ? ov->second : eval_expr(p.expr, env);
        }
      }
      for (const auto& [k, v] : overrides_) env.emplace(k, v);
      genv_ = std::move(env);
      genv_ready_ = true;
    }
    return genv_;
  }

  /// Voltage-probe set of an analysis: .probe selections (all nodes when
  /// none and not `.probe none`) plus every node a measure of this
  /// analysis reads — measures must never fail because nobody probed
  /// their signal.
  std::vector<std::string> voltage_probes(const std::string& analysis) const {
    std::vector<std::string> out;
    if (!deck_.probe_none) {
      for (const ProbeNode& p : deck_.probe_nodes) push_unique(out, p.node);
      if (deck_.probe_nodes.empty()) {
        for (int id = 1; id <= ckt_.num_nodes(); ++id) {
          push_unique(out, ckt_.node_name(id));
        }
      }
    }
    for (const MeasureCard& m : deck_.measures) {
      if (m.analysis != analysis || analysis == "noise") continue;
      for (const std::string& s : m.signals) {
        const Signal sig = parse_signal(s, m.line_no, m.line);
        // A signal naming an unknown node must not abort the analysis —
        // its own measure reports the failure (null + measure_errors).
        if (!sig.current && ckt_.has_node(sig.name)) {
          push_unique(out, sig.name);
        }
      }
    }
    // Sweeps need at least one probe column.
    if (out.empty() && ckt_.num_nodes() > 0) {
      out.push_back(ckt_.node_name(1));
    }
    return out;
  }

  std::vector<std::string> current_probe_names(
      const std::string& analysis) const {
    std::vector<std::string> out;
    if (!deck_.probe_none) {
      for (const std::string& p : deck_.probe_currents) push_unique(out, p);
    }
    for (const MeasureCard& m : deck_.measures) {
      if (m.analysis != analysis || analysis == "noise") continue;
      for (const std::string& s : m.signals) {
        const Signal sig = parse_signal(s, m.line_no, m.line);
        if (sig.current && has_vsource(sig.name)) push_unique(out, sig.name);
      }
    }
    return out;
  }

  bool has_vsource(const std::string& name) const {
    for (const auto& el : ckt_.elements()) {
      if (el->name() == name) return dynamic_cast<VSource*>(el.get()) != nullptr;
    }
    return false;
  }

  VSource* find_vsource(const std::string& name, int line_no,
                        const std::string& line) const {
    for (const auto& el : ckt_.elements()) {
      if (el->name() == name) {
        auto* src = dynamic_cast<VSource*>(el.get());
        if (!src) {
          throw ParseError("'" + name + "' is not a voltage source", line_no,
                           line);
        }
        return src;
      }
    }
    throw ParseError("unknown voltage source '" + name + "'", line_no, line);
  }

  /// The deck's designated AC input: the v-card carrying an `ac <mag>`
  /// token (retune re-applies it before every analysis, so scanning the
  /// live circuit is reliable even though ac_sweep zeroes it afterwards).
  VSource* find_ac_input(int line_no, const std::string& line) const {
    VSource* input = nullptr;
    for (const auto& el : ckt_.elements()) {
      auto* src = dynamic_cast<VSource*>(el.get());
      if (!src || src->ac_magnitude() == 0.0) continue;
      if (input) {
        throw ParseError("more than one source carries an 'ac' magnitude",
                         line_no, line);
      }
      input = src;
    }
    if (!input) {
      throw ParseError(
          "deck has no AC input (add 'ac 1' to a v card)", line_no, line);
    }
    return input;
  }

  core::Json run_analysis(const AnalysisCard& card) {
    // Deadline poll at the analysis boundary: a deck whose budget expired
    // during one analysis must not start the next.
    if (cfg_.solver.cancel) cfg_.solver.cancel->throw_if_stopped("session");
    const std::string kind = analysis_kind_name(card.kind);
    // Span names must be string literals (the tracer stores the pointer),
    // so the per-analysis span cannot reuse the kind string above.
    const char* span_name = "analysis";
    switch (card.kind) {
      case AnalysisCard::Kind::kOp: span_name = "analysis:op"; break;
      case AnalysisCard::Kind::kDc: span_name = "analysis:dc"; break;
      case AnalysisCard::Kind::kTran: span_name = "analysis:tran"; break;
      case AnalysisCard::Kind::kAc: span_name = "analysis:ac"; break;
      case AnalysisCard::Kind::kNoise: span_name = "analysis:noise"; break;
    }
    obs::ScopedSpan span(span_name);
    auto out = core::Json::object();
    out.set("type", kind);
    switch (card.kind) {
      case AnalysisCard::Kind::kOp: run_op(out); break;
      case AnalysisCard::Kind::kDc: run_dc(card, out); break;
      case AnalysisCard::Kind::kTran: run_tran(card, out); break;
      case AnalysisCard::Kind::kAc: run_ac(card, out); break;
      case AnalysisCard::Kind::kNoise: run_noise(card, out); break;
    }
    return out;
  }

  void run_op(core::Json& out) {
    results_.op = operating_point(ckt_, cfg_.solver, nullptr, &ws_);
    results_.have_op = true;
    out.set("stats", to_json(results_.op.stats));
    if (emit_tables()) {
      auto voltages = core::Json::object();
      for (const std::string& node : voltage_probes("op")) {
        voltages.set("v(" + node + ")",
                     node_voltage(ckt_, results_.op, node));
      }
      out.set("voltages", std::move(voltages));
      const auto currents = current_probe_names("op");
      if (!currents.empty()) {
        auto ij = core::Json::object();
        for (const std::string& name : currents) {
          VSource* src = find_vsource(name, 0, "");
          ij.set("i(" + name + ")",
                 vsource_current(ckt_, results_.op, *src));
        }
        out.set("currents", std::move(ij));
      }
    }
  }

  void run_dc(const AnalysisCard& card, core::Json& out) {
    VSource* swept = find_vsource(card.source, card.line_no, card.line);
    phys::DataTable table =
        dc_sweep(ckt_, *swept, read_dc_values(card), voltage_probes("dc"),
                 cfg_.solver, &ws_);
    out.set("source", card.source);
    if (emit_tables()) {
      out.set("table", table_json(table, session_opts_.max_table_rows));
    }
    results_.tables.insert_or_assign("dc", std::move(table));
  }

  void run_tran(const AnalysisCard& card, core::Json& out) {
    const TransientOptions topt = read_tran_options(card);
    std::vector<const VSource*> current_probes;
    for (const std::string& name : current_probe_names("tran")) {
      current_probes.push_back(find_vsource(name, card.line_no, card.line));
    }
    phys::DataTable table =
        transient(ckt_, topt, voltage_probes("tran"), current_probes);
    out.set("stats", to_json(*topt.solver.record));
    if (emit_tables()) {
      out.set("table", table_json(table, session_opts_.max_table_rows));
    }
    results_.tables.insert_or_assign("tran", std::move(table));
  }

  void run_ac(const AnalysisCard& card, core::Json& out) {
    AcOptions aopt;
    read_frequency_grid(card, aopt);
    aopt.dc = cfg_.solver;
    aopt.workspace = &ws_;
    aopt.system = &ac_;
    VSource* input = find_ac_input(card.line_no, card.line);
    phys::DataTable table = ac_sweep(ckt_, *input, voltage_probes("ac"), aopt);
    out.set("input", input->name());
    if (emit_tables()) {
      out.set("table", table_json(table, session_opts_.max_table_rows));
    }
    results_.tables.insert_or_assign("ac", std::move(table));
  }

  void run_noise(const AnalysisCard& card, core::Json& out) {
    NoiseOptions nopt;
    read_frequency_grid(card, nopt);
    nopt.temperature_k = cfg_.temperature_k;
    nopt.dc = cfg_.solver;
    nopt.workspace = &ws_;
    nopt.system = &ac_;
    VSource* input = find_vsource(card.source, card.line_no, card.line);
    NoiseResult res = noise_sweep(ckt_, *input, card.output, nopt);
    out.set("output", card.output);
    out.set("input", card.source);
    out.set("onoise_total_v2", res.onoise_total_v2);
    out.set("inoise_total_v2", res.inoise_total_v2);
    auto contributions = core::Json::object();
    for (const auto& [label, v2] : res.contributions) {
      contributions.set(label, v2);
    }
    out.set("contributions", std::move(contributions));
    if (emit_tables()) {
      out.set("table", table_json(res.table, session_opts_.max_table_rows));
    }
    results_.tables.insert_or_assign("noise", std::move(res.table));
  }

  // --- measures -------------------------------------------------------------

  double measure_opt(const MeasureCard& m, const char* key,
                     double fallback) const {
    const std::string* v = find_opt(m.options, key);
    return v ? eval_in_env(*v, m.line_no, m.line) : fallback;
  }

  double measure_opt_required(const MeasureCard& m, const char* key) const {
    const std::string* v = find_opt(m.options, key);
    if (!v) {
      throw ParseError(".measure " + m.name + " needs " + key + "=",
                       m.line_no, m.line);
    }
    return eval_in_env(*v, m.line_no, m.line);
  }

  const phys::DataTable& table_for(const MeasureCard& m) const {
    const auto it = results_.tables.find(m.analysis);
    if (it == results_.tables.end()) {
      throw ParseError("measure '" + m.name + "': no ." + m.analysis +
                           " analysis was run",
                       m.line_no, m.line);
    }
    return it->second;
  }

  Signal signal_at(const MeasureCard& m, size_t index) const {
    if (index >= m.signals.size()) {
      throw ParseError(
          "measure '" + m.name + "' (" + m.fn + ") wants " +
              std::to_string(index + 1) + " signal(s)",
          m.line_no, m.line);
    }
    return parse_signal(m.signals[index], m.line_no, m.line);
  }

  core::Json measure_value(const MeasureCard& m) const {
    const double v = measure_value_raw(m);
    if (!std::isfinite(v)) {
      throw ParseError("measure '" + m.name + "' produced a non-finite value",
                       m.line_no, m.line);
    }
    return core::Json(v);
  }

  double measure_value_raw(const MeasureCard& m) const {
    const bool rising = find_opt(m.options, "fall") == nullptr;
    if (m.fn == "value") {
      if (m.analysis != "op") {
        throw ParseError("measure fn 'value' reads the .op solution",
                         m.line_no, m.line);
      }
      if (!results_.have_op) {
        throw ParseError("measure '" + m.name + "': no .op analysis was run",
                         m.line_no, m.line);
      }
      const Signal sig = signal_at(m, 0);
      if (sig.current) {
        VSource* src = find_vsource(sig.name, m.line_no, m.line);
        return vsource_current(ckt_, results_.op, *src);
      }
      return node_voltage(ckt_, results_.op, sig.name);
    }

    const phys::DataTable& table = table_for(m);
    const std::string xcol = x_column(m.analysis);

    if (m.fn == "max" || m.fn == "min" || m.fn == "avg" || m.fn == "rms" ||
        m.fn == "pp") {
      const ColumnStat stat = m.fn == "max"   ? ColumnStat::kMax
                              : m.fn == "min" ? ColumnStat::kMin
                              : m.fn == "avg" ? ColumnStat::kAvg
                              : m.fn == "rms" ? ColumnStat::kRms
                                              : ColumnStat::kPeakToPeak;
      return column_stat(table, xcol,
                         column_for(m.analysis, signal_at(m, 0)), stat,
                         measure_opt(m, "from", -1e308),
                         measure_opt(m, "to", 1e308));
    }
    if (m.fn == "cross") {
      const double t =
          crossing_time(table, column_for(m.analysis, signal_at(m, 0)),
                        measure_opt_required(m, "val"), rising,
                        measure_opt(m, "after", 0.0));
      if (t < 0.0) {
        throw ParseError("measure '" + m.name + "': no crossing found",
                         m.line_no, m.line);
      }
      return t;
    }
    if (m.fn == "delay") {
      return propagation_delay(
          table, column_for(m.analysis, signal_at(m, 0)),
          column_for(m.analysis, signal_at(m, 1)),
          measure_opt_required(m, "vdd"), rising);
    }
    if (m.fn == "period") {
      const double vdd = measure_opt(m, "vdd", 0.0);
      const double mid = measure_opt(m, "mid", vdd * 0.5);
      if (mid == 0.0) {
        throw ParseError(".measure period needs mid= or vdd=", m.line_no,
                         m.line);
      }
      return oscillation_period(
          table, column_for(m.analysis, signal_at(m, 0)), mid,
          static_cast<int>(measure_opt(m, "skip", 2)));
    }
    if (m.fn == "energy") {
      const Signal sig = signal_at(m, 0);
      if (!sig.current) {
        throw ParseError(".measure energy wants i(<vsource>)", m.line_no,
                         m.line);
      }
      return supply_energy(table, "i(" + sig.name + ")",
                           measure_opt_required(m, "vdd"));
    }
    if (m.fn == "find") {
      return value_at(table, xcol, column_for(m.analysis, signal_at(m, 0)),
                      measure_opt_required(m, "at"));
    }
    if (m.fn == "corner") {
      const double f =
          corner_frequency(table, column_for(m.analysis, signal_at(m, 0)));
      if (f < 0.0) {
        throw ParseError("measure '" + m.name + "': no -3 dB corner in band",
                         m.line_no, m.line);
      }
      return f;
    }
    if (m.fn == "vtc") {
      const VtcMetrics vtc = analyze_vtc(
          table, column_for(m.analysis, signal_at(m, 0)),
          column_for(m.analysis, signal_at(m, 1)),
          measure_opt_required(m, "vdd"));
      const std::string* metric = find_opt(m.options, "metric");
      const std::string which = metric ? lower(*metric) : "gain";
      if (which == "gain") return vtc.max_abs_gain;
      if (which == "nml") return vtc.nm_low;
      if (which == "nmh") return vtc.nm_high;
      if (which == "vil") return vtc.v_il;
      if (which == "vih") return vtc.v_ih;
      if (which == "vol") return vtc.v_ol;
      if (which == "voh") return vtc.v_oh;
      if (which == "vswitch") return vtc.v_switch;
      throw ParseError("unknown vtc metric '" + which + "'", m.line_no,
                       m.line);
    }
    throw ParseError("unknown measure fn '" + m.fn + "'", m.line_no, m.line);
  }

  const Deck& deck_;
  const DeckConfig& cfg_;
  Circuit& ckt_;
  NewtonWorkspace& ws_;
  AcSystem& ac_;
  const ModelRegistry& registry_;
  ModelMemo& memo_;
  const ParamEnv& overrides_;
  const SessionOptions& session_opts_;
  StepResults results_;
  mutable ParamEnv genv_;
  mutable bool genv_ready_ = false;
};

}  // namespace

SimSession::SimSession(ModelRegistry registry, SessionOptions opts)
    : registry_(std::move(registry)), opts_(opts) {}

SimSession::CacheEntry& SimSession::entry_for(const Deck& deck,
                                              bool* cache_hit) {
  const auto it = cache_.find(deck.topology_signature);
  if (it != cache_.end()) {
    *cache_hit = true;
    ++cache_hits_;
    // Refresh recency: move to the front of the LRU list.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second;
  }
  *cache_hit = false;
  ++cache_misses_;
  // Instantiate before touching the cache: a deck whose values do not
  // evaluate must leave no entry behind (a later deck of the same topology
  // would hit it and find no circuit).
  ModelMemo memo;
  std::unique_ptr<Circuit> circuit = instantiate(deck, registry_, {}, &memo);
  const std::size_t capacity =
      static_cast<std::size_t>(std::max(1, opts_.cache_capacity));
  while (cache_.size() >= capacity && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++cache_evictions_;
  }
  CacheEntry& entry = cache_[deck.topology_signature];
  lru_.push_front(deck.topology_signature);
  entry.lru_pos = lru_.begin();
  entry.circuit = std::move(circuit);
  entry.model_memo = std::move(memo);
  return entry;
}

core::Json SimSession::run_deck(const Deck& deck,
                                const phys::CancelToken* cancel) {
  ++decks_run_;
  obs::ScopedSpan deck_span("deck");
  bool cache_hit = false;
  CacheEntry& entry = entry_for(deck, &cache_hit);
  check_circuit(deck, *entry.circuit);
  ++entry.uses;
  DeckConfig cfg = config_from(deck);
  cfg.solver.cancel = cancel;  // polled by every Newton/transient/AC loop
  SolveRecord record;
  record.collect_phases = opts_.collect_phases;
  cfg.solver.record = &record;

  auto doc = core::Json::object();
  doc.set("ok", true);
  if (!deck.title.empty()) doc.set("title", deck.title);

  {
    char hash[24];
    std::snprintf(hash, sizeof hash, "0x%016llx",
                  static_cast<unsigned long long>(deck.topology_hash));
    auto topo = core::Json::object();
    topo.set("hash", std::string(hash));
    topo.set("elements", static_cast<long>(deck.elements.size()));
    topo.set("nodes", entry.circuit->num_nodes());
    topo.set("cache_hit", cache_hit);
    doc.set("topology", std::move(topo));
  }

  auto steps = core::Json::array();
  for (const ParamEnv& overrides : expand_steps(deck)) {
    if (cancel) cancel->throw_if_stopped("session");
    const int sym0 = entry.workspace.mna.analyze_count();
    StepRunner runner(deck, cfg, *entry.circuit, entry.workspace, entry.ac,
                      registry_, entry.model_memo, overrides, opts_);
    steps.push(runner.run());
    if (obs::Tracer* trc = obs::tracer()) {
      // Marker for a symbolic re-analysis performed somewhere inside the
      // step (stamped after the fact; the event is a counter, not a span).
      if (entry.workspace.mna.analyze_count() > sym0) {
        trc->instant("symbolic-analyze", obs::now_ns());
      }
    }
  }
  doc.set("steps", std::move(steps));

  // Cache-effectiveness counters: the acceptance tests assert the pattern
  // and symbolic-analysis work happened once per topology, not per step.
  auto session = core::Json::object();
  session.set("decks_run", decks_run_);
  session.set("cache_entries", static_cast<long>(cache_.size()));
  session.set("cache_capacity", std::max(1, opts_.cache_capacity));
  session.set("cache_hits", cache_hits_);
  session.set("cache_misses", cache_misses_);
  session.set("cache_evictions", cache_evictions_);
  session.set("topology_uses", entry.uses);
  session.set("mna_pattern_builds", entry.workspace.mna.build_count());
  session.set("symbolic_analyses", entry.workspace.mna.analyze_count());
  session.set("ac_symbolic_analyses", entry.ac.analyze_count());
  if (record.phase_total() != 0) {
    // Only present when phase collection ran and measured something, so
    // default-session documents stay byte-identical to earlier releases.
    auto phase = core::Json::object();
    for (int p = 0; p < SolveRecord::kPhases; ++p) {
      phase.set(SolveRecord::kPhaseNames[p], record.phase_ns[p]);
      phases_.phase_ns[p] += record.phase_ns[p];
    }
    session.set("phase_ns", std::move(phase));
  }
  doc.set("session", std::move(session));
  return doc;
}

core::Json SimSession::run_deck_text(const std::string& text,
                                     const phys::CancelToken* cancel) {
  try {
    const Deck deck = parse_deck(text, registry_);
    return run_deck(deck, cancel);
  } catch (const phys::CancelledError& e) {
    auto err = core::Json::object();
    err.set("type", e.deadline_expired() ? "timeout" : "cancelled");
    err.set("where", e.where());
    err.set("what", std::string(e.what()));
    auto doc = core::Json::object();
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc;
  } catch (const ParseError& e) {
    auto err = core::Json::object();
    err.set("type", "parse");
    err.set("reason", e.reason());
    err.set("line", e.line());
    err.set("line_text", e.line_text());
    err.set("what", std::string(e.what()));
    auto doc = core::Json::object();
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc;
  } catch (const SolveFailureError& e) {
    auto err = to_json(e.failure());
    err.set("type", "solve_failure");
    err.set("what", std::string(e.what()));
    auto doc = core::Json::object();
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc;
  } catch (const phys::ConvergenceError& e) {
    // A convergence-class error that escaped the escalation ladder (e.g. a
    // model going non-finite during the very first stamp, before Newton
    // starts).  Still a solver outcome, not an internal fault — classify
    // it the same way regardless of where in the pipeline it surfaced.
    auto err = core::Json::object();
    err.set("type", "solve_failure");
    err.set("what", std::string(e.what()));
    auto doc = core::Json::object();
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc;
  } catch (const std::exception& e) {
    auto err = core::Json::object();
    err.set("type", "internal");
    err.set("what", std::string(e.what()));
    auto doc = core::Json::object();
    doc.set("ok", false);
    doc.set("error", std::move(err));
    return doc;
  }
}

}  // namespace carbon::spice
