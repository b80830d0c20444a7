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

void push_unique(std::vector<std::string>& out, const std::string& name) {
  if (std::find(out.begin(), out.end(), name) == out.end()) {
    out.push_back(name);
  }
}

/// Most rows a rendered table holds: tables are thinned by the deck's
/// print interval first, this is the backstop.
constexpr int kMaxTableRows = 100000;

core::Json table_json(const phys::DataTable& table) {
  auto cols = core::Json::array();
  for (const std::string& c : table.columns()) cols.push(c);
  auto rows = core::Json::array();
  const int n = std::min(table.num_rows(), kMaxTableRows);
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

/// Each analysis kind's name and tracer span, in AnalysisCard::Kind order.
/// Span names must be string literals: the tracer stores the pointer.
constexpr struct {
  const char* name;
  const char* span;
} kKinds[] = {{"op", "analysis:op"},
              {"dc", "analysis:dc"},
              {"tran", "analysis:tran"},
              {"ac", "analysis:ac"},
              {"noise", "analysis:noise"}};

const char* analysis_kind_name(AnalysisCard::Kind kind) {
  return kKinds[static_cast<int>(kind)].name;
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
    return sig.current ? "mag(i(" + sig.name + "))" : "mag(" + sig.name + ")";
  }
  if (analysis == "noise") return sig.name;  // fixed column names
  return (sig.current ? "i(" : "v(") + sig.name + ")";
}

/// One analysis card resolved against the cached circuit.
struct PlannedAnalysis {
  const AnalysisCard* card = nullptr;
  VSource* source = nullptr;  ///< the .dc swept source, the .noise input
  std::vector<std::string> probes;       ///< node voltage columns
  std::vector<const VSource*> currents;  ///< source current columns
};

/// A deck compiled against its cached circuit once per run, before any
/// solve: the .options, the circuit checks, and each analysis card's
/// source and probe columns, resolved by one pass over the elements.
/// Values belong to step points; StepRunner evaluates them.
struct DeckPlan {
  /// Throws ParseError, naming the card where there is one, for what no
  /// solve should be left to find: a circuit with no node, a .probe or
  /// .noise output naming a node the circuit lacks, an unknown .options
  /// key (strict: a typo'd key is an error, not an ignored knob) or a
  /// value no solve can run with, a `.probe i()`, .dc or .noise source
  /// that is no voltage source.
  DeckPlan(const Deck& deck, Circuit& ckt) : deck_(deck) {
    if (ckt.num_nodes() == 0) {
      throw ParseError("deck has no circuit node to solve for");
    }
    for (const ProbeRef& p : deck.probe_nodes) {
      if (!ckt.has_node(p.name)) {
        throw ParseError(".probe names unknown node '" + p.name + "'",
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
    for (const ParamSpec& o : deck.options) {
      // The value of @p o if it passes @p ok; ParseError at its card
      // otherwise.
      const auto value = [&](bool ok(double), const char* want) {
        double v = 0.0;
        try {
          v = parse_spice_number(o.expr);
        } catch (const ParseError& e) {
          throw ParseError(e.reason(), o.line_no, o.line);
        }
        if (!ok(v)) {
          throw ParseError(".options " + o.name + " must be " + want,
                           o.line_no, o.line);
        }
        return v;
      };
      const auto positive = [](double v) { return v > 0.0; };
      const auto iterations = [](double v) {
        return v >= 1.0 && v <= 1000.0 && v == std::floor(v);
      };
      if (o.name == "reltol") {
        solver.reltol = value(positive, "> 0");
      } else if (o.name == "abstol" || o.name == "vabstol") {
        solver.v_abstol = value(positive, "> 0");
      } else if (o.name == "maxiter") {
        solver.max_iterations =
            static_cast<int>(value(iterations, "an integer in 1..1000"));
      } else if (o.name == "gmin") {
        solver.gmin_final = value([](double v) { return v >= 0.0; }, ">= 0");
      } else if (o.name == "temp") {
        temperature_k = value(positive, "> 0");
      } else {
        throw ParseError("unknown .options key '" + o.name + "'", o.line_no,
                         o.line);
      }
    }
    // The circuit was built from the deck's card list, element for card.
    for (std::size_t i = 0; i < deck.elements.size(); ++i) {
      if (deck.elements[i].kind == 'v') {
        vsources.emplace(deck.elements[i].name,
                         static_cast<VSource*>(ckt.elements()[i].get()));
      }
    }
    for (const ProbeRef& p : deck.probe_currents) {
      vsource(p.name, p.line_no, p.line);
    }
    using Kind = AnalysisCard::Kind;
    for (const AnalysisCard& card : deck.analyses) {
      PlannedAnalysis& a = analyses.emplace_back();
      a.card = &card;
      if (card.kind == Kind::kDc || card.kind == Kind::kNoise) {
        a.source = vsource(card.source, card.line_no, card.line);
      }
      // .noise has fixed columns.
      if (card.kind != Kind::kNoise) add_probes(ckt, a);
    }
  }

  /// The voltage source @p name; ParseError at the given card otherwise.
  VSource* vsource(const std::string& name, int line_no,
                   const std::string& line) const {
    const auto it = vsources.find(name);
    if (it != vsources.end()) return it->second;
    const bool other = std::any_of(
        deck_.elements.begin(), deck_.elements.end(),
        [&](const ElementCard& card) { return card.name == name; });
    throw ParseError(other ? "'" + name + "' is not a voltage source"
                           : "unknown voltage source '" + name + "'",
                     line_no, line);
  }

  SolverOptions solver;
  double temperature_k = 300.0;
  std::map<std::string, VSource*> vsources;  ///< every voltage source
  std::vector<PlannedAnalysis> analyses;     ///< in card order

 private:
  /// The probe columns of an analysis: the .probe selections (every node
  /// when there are none, nothing under `.probe none`) plus every node and
  /// voltage source a measure of the analysis reads — measures must never
  /// fail because nobody probed their signal.  A signal naming no node or
  /// source is left to its own measure to report (null + measure_errors).
  void add_probes(const Circuit& ckt, PlannedAnalysis& a) const {
    const std::string kind = analysis_kind_name(a.card->kind);
    std::vector<std::string> currents;
    if (!deck_.probe_none) {
      for (const ProbeRef& p : deck_.probe_nodes) push_unique(a.probes, p.name);
      if (deck_.probe_nodes.empty()) {
        for (int id = 1; id <= ckt.num_nodes(); ++id) {
          push_unique(a.probes, ckt.node_name(id));
        }
      }
      for (const ProbeRef& p : deck_.probe_currents) {
        push_unique(currents, p.name);
      }
    }
    for (const MeasureCard& m : deck_.measures) {
      if (m.analysis != kind) continue;
      for (const Signal& sig : m.signals) {
        if (!sig.current && ckt.has_node(sig.name)) {
          push_unique(a.probes, sig.name);
        } else if (sig.current && vsources.count(sig.name)) {
          push_unique(currents, sig.name);
        }
      }
    }
    // Sweeps need at least one probe column.
    if (a.probes.empty()) a.probes.push_back(ckt.node_name(1));
    for (const std::string& name : currents) {
      a.currents.push_back(vsources.at(name));
    }
  }

  const Deck& deck_;
};

/// One analysis card's values at one step point: the .dc grid, the .tran
/// options, or the .ac/.noise grid and the .ac input.
struct AnalysisValues {
  std::vector<double> sweep;
  TransientOptions tran;
  AcOptions ac;
  VSource* ac_input = nullptr;
};

/// One step point's full execution: retune, evaluate every analysis card,
/// run the analyses, then the measures.
class StepRunner {
 public:
  StepRunner(const Deck& deck, const DeckPlan& plan, Circuit& ckt,
             NewtonWorkspace& ws, AcSystem& ac, const ModelRegistry& registry,
             const ParamEnv& overrides, const SessionOptions& session_opts)
      : deck_(deck),
        plan_(plan),
        ckt_(ckt),
        ws_(ws),
        ac_(ac),
        registry_(registry),
        overrides_(overrides),
        session_opts_(session_opts) {}

  core::Json run() {
    auto step = core::Json::object();
    if (!overrides_.empty()) {
      auto params = core::Json::object();
      for (const auto& [k, v] : overrides_) params.set(k, v);
      step.set("params", std::move(params));
    }

    // The analyses leave the circuit as they found it, so one retune
    // serves every analysis of the point.
    retune(deck_, registry_, overrides_, ckt_);
    genv_ = global_params(deck_, overrides_);
    // A sweep grid or time span that cannot be marched fails the deck
    // before the point's first solve.
    for (const PlannedAnalysis& a : plan_.analyses) {
      values_.push_back(evaluate(*a.card));
    }
    ws_.prepare(ckt_);
    // Element *values* may have changed under the unchanged topology; the
    // static Jacobian baseline follows them, the pattern does not.
    ws_.mna.refresh_baseline();

    auto analyses = core::Json::array();
    for (std::size_t i = 0; i < values_.size(); ++i) {
      analyses.push(run_analysis(i));
    }
    step.set("analyses", std::move(analyses));

    if (!deck_.measures.empty()) {
      auto measures = core::Json::object();
      auto errors = core::Json::object();
      for (const MeasureCard& m : deck_.measures) {
        try {
          measures.set(m.name, measure_value(m));
        } catch (const std::exception& e) {
          measures.set(m.name, core::Json());
          errors.set(m.name, std::string(e.what()));
        }
      }
      step.set("measures", std::move(measures));
      if (errors.size() > 0) step.set("measure_errors", std::move(errors));
    }
    return step;
  }

 private:
  /// `.probe none` means measures only: no tables even when the session
  /// would emit them.
  bool emit_tables() const {
    return session_opts_.emit_tables && !deck_.probe_none;
  }

  const SolverOptions& solver() const { return plan_.solver; }

  double eval_in_env(const std::string& expr, int line_no,
                     const std::string& line) const {
    try {
      return eval_expr(expr, genv_);
    } catch (const ParseError& e) {
      throw ParseError(e.reason(), line_no, line);
    }
  }

  AnalysisValues evaluate(const AnalysisCard& card) const {
    using Kind = AnalysisCard::Kind;
    AnalysisValues v;
    if (card.kind == Kind::kDc) v.sweep = read_dc_values(card);
    if (card.kind == Kind::kTran) v.tran = read_tran_options(card);
    if (card.kind == Kind::kAc || card.kind == Kind::kNoise) {
      v.ac = read_frequency_grid(card);
    }
    if (card.kind == Kind::kAc) v.ac_input = ac_input(card);
    return v;
  }

  /// The AcOptions of an .ac/.noise card.  Rejects what log_frequency_grid
  /// cannot march: a non-positive start, a stop not above the start,
  /// fewer than 1 or more than 1e6 points per decade (the cap keeps the
  /// cast to int defined), and more than kMaxSweepPoints points.
  AcOptions read_frequency_grid(const AnalysisCard& card) const {
    AcOptions opt;
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
    // log_frequency_grid's point count, counted as a double like .dc's.
    const double points =
        std::ceil(std::log10(opt.f_stop_hz / opt.f_start_hz) *
                  opt.points_per_decade) + 1.0;
    if (!(points <= kMaxSweepPoints)) {
      throw ParseError(std::string(".") + analysis_kind_name(card.kind) +
                           " sweep over 10000 points",
                       card.line_no, card.line);
    }
    opt.temperature_k = plan_.temperature_k;
    opt.dc = solver();
    opt.workspace = &ws_;
    opt.system = &ac_;
    return opt;
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
    topt.solver = solver();
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

  /// The deck's AC input at this step point: the one voltage source with
  /// a nonzero `ac` magnitude.
  VSource* ac_input(const AnalysisCard& card) const {
    VSource* input = nullptr;
    for (const auto& [name, src] : plan_.vsources) {
      if (src->ac_magnitude() == 0.0) continue;
      if (input) {
        throw ParseError("more than one source carries an 'ac' magnitude",
                         card.line_no, card.line);
      }
      input = src;
    }
    if (!input) {
      throw ParseError("deck has no AC input (add 'ac 1' to a v card)",
                       card.line_no, card.line);
    }
    return input;
  }

  core::Json run_analysis(std::size_t i) {
    // Deadline poll at the analysis boundary: a deck whose budget expired
    // during one analysis must not start the next.
    if (solver().cancel) solver().cancel->throw_if_stopped("session");
    const PlannedAnalysis& a = plan_.analyses[i];
    const AnalysisCard& card = *a.card;
    obs::ScopedSpan span(kKinds[static_cast<int>(card.kind)].span);
    auto out = core::Json::object();
    out.set("type", analysis_kind_name(card.kind));
    switch (card.kind) {
      case AnalysisCard::Kind::kOp: run_op(a, out); break;
      case AnalysisCard::Kind::kDc: run_dc(a, values_[i], out); break;
      case AnalysisCard::Kind::kTran: run_tran(a, values_[i], out); break;
      case AnalysisCard::Kind::kAc: run_ac(i, out); break;
      case AnalysisCard::Kind::kNoise: run_noise(i, out); break;
    }
    return out;
  }

  /// .op records its probes as a one-row table, which the `value` measure
  /// reads, and renders the row as its voltages and currents.
  void run_op(const PlannedAnalysis& a, core::Json& out) {
    const Solution op = operating_point(ckt_, solver(), nullptr, &ws_);
    out.set("stats", to_json(op.stats));
    ProbeColumns cols(ckt_, a.probes, a.currents);
    std::vector<double> row;
    for (const int r : cols.rows) row.push_back(r == 0 ? 0.0 : op.x[r - 1]);
    if (emit_tables()) {
      auto voltages = core::Json::object();
      auto currents = core::Json::object();
      for (std::size_t k = 0; k < row.size(); ++k) {
        (k < a.probes.size() ? voltages : currents).set(cols.labels[k], row[k]);
      }
      out.set("voltages", std::move(voltages));
      if (!a.currents.empty()) out.set("currents", std::move(currents));
    }
    phys::DataTable table(std::move(cols.labels));
    table.add_row(row);
    tables_.insert_or_assign("op", std::move(table));
  }

  void run_dc(const PlannedAnalysis& a, const AnalysisValues& v,
              core::Json& out) {
    phys::DataTable table = dc_sweep(ckt_, *a.source, v.sweep, a.probes,
                                     a.currents, solver(), &ws_);
    out.set("source", a.card->source);
    if (emit_tables()) {
      out.set("table", table_json(table));
    }
    tables_.insert_or_assign("dc", std::move(table));
  }

  void run_tran(const PlannedAnalysis& a, const AnalysisValues& v,
                core::Json& out) {
    phys::DataTable table = transient(ckt_, v.tran, a.probes, a.currents);
    out.set("stats", to_json(*v.tran.solver.record));
    if (emit_tables()) {
      out.set("table", table_json(table));
    }
    tables_.insert_or_assign("tran", std::move(table));
  }

  /// The small-signal pass serving card @p i.  It runs at the first .ac or
  /// .noise card on i's grid, for every such card on that grid; each card
  /// still renders its own block in card order.
  SmallSignalResult& pass_for(std::size_t i) {
    const auto on_grid = [&](std::size_t j) {
      const AnalysisCard::Kind kind = plan_.analyses[j].card->kind;
      const AcOptions& a = values_[i].ac;
      const AcOptions& b = values_[j].ac;
      return (kind == AnalysisCard::Kind::kAc ||
              kind == AnalysisCard::Kind::kNoise) &&
             a.f_start_hz == b.f_start_hz && a.f_stop_hz == b.f_stop_hz &&
             a.points_per_decade == b.points_per_decade;
    };
    std::size_t first = 0;
    while (!on_grid(first)) ++first;
    const auto it = passes_.find(first);
    if (it != passes_.end()) return it->second;
    VSource* ac_input = nullptr;
    std::vector<std::string> probes;
    std::vector<const VSource*> currents;
    std::vector<NoiseRequest> noise;
    for (std::size_t j = first; j < values_.size(); ++j) {
      if (!on_grid(j)) continue;
      const PlannedAnalysis& a = plan_.analyses[j];
      if (a.card->kind == AnalysisCard::Kind::kAc) {
        // Every .ac card probes the same columns from the same input.
        ac_input = values_[j].ac_input;
        probes = a.probes;
        currents = a.currents;
      } else {
        noise.push_back({a.source, a.card->output});
      }
    }
    return passes_[first] = small_signal(ckt_, ac_input, probes, currents,
                                         noise, values_[first].ac);
  }

  void run_ac(std::size_t i, core::Json& out) {
    const phys::DataTable& table = pass_for(i).ac;
    out.set("input", values_[i].ac_input->name());
    if (emit_tables()) out.set("table", table_json(table));
    ac_table_ = &table;
  }

  void run_noise(std::size_t i, core::Json& out) {
    // The pass's noise results are in card order: this card's is the
    // first one left.
    std::vector<NoiseResult>& results = pass_for(i).noise;
    NoiseResult res = std::move(results.front());
    results.erase(results.begin());
    const AnalysisCard& card = *plan_.analyses[i].card;
    out.set("output", card.output);
    out.set("input", card.source);
    out.set("onoise_total_v2", res.onoise_total_v2);
    out.set("inoise_total_v2", res.inoise_total_v2);
    auto contributions = core::Json::object();
    for (const auto& [label, v2] : res.contributions) {
      contributions.set(label, v2);
    }
    out.set("contributions", std::move(contributions));
    if (emit_tables()) out.set("table", table_json(res.table));
    tables_.insert_or_assign("noise", std::move(res.table));
  }

  // --- measures -------------------------------------------------------------

  double measure_opt(const MeasureCard& m, const char* key,
                     double fallback) const {
    const std::string* v = find_option(m.options, key);
    return v ? eval_in_env(*v, m.line_no, m.line) : fallback;
  }

  double measure_opt_required(const MeasureCard& m, const char* key) const {
    const std::string* v = find_option(m.options, key);
    if (!v) {
      throw ParseError(".measure " + m.name + " needs " + key + "=",
                       m.line_no, m.line);
    }
    return eval_in_env(*v, m.line_no, m.line);
  }

  const phys::DataTable& table_for(const MeasureCard& m) const {
    if (m.analysis == "ac" && ac_table_) return *ac_table_;
    const auto it = tables_.find(m.analysis);
    if (it == tables_.end()) {
      throw ParseError("measure '" + m.name + "': no ." + m.analysis +
                           " analysis was run",
                       m.line_no, m.line);
    }
    return it->second;
  }

  const Signal& signal_at(const MeasureCard& m, size_t index) const {
    if (index >= m.signals.size()) {
      throw ParseError(
          "measure '" + m.name + "' (" + m.fn + ") wants " +
              std::to_string(index + 1) + " signal(s)",
          m.line_no, m.line);
    }
    return m.signals[index];
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
    const bool rising = find_option(m.options, "fall") == nullptr;
    // The .op table is one row, and `value` is what reads it.
    if ((m.fn == "value") != (m.analysis == "op")) {
      throw ParseError("measure fn 'value' reads the .op solution, and no "
                       "other fn does", m.line_no, m.line);
    }
    const phys::DataTable& table = table_for(m);
    // Every column the measure reads must be in the table: its signals,
    // and the time axis of the time-domain functions.
    const auto col = [&](const std::string& name) {
      const std::vector<std::string>& cols = table.columns();
      if (std::find(cols.begin(), cols.end(), name) != cols.end()) return name;
      throw ParseError("measure '" + m.name + "': the ." + m.analysis +
                           " table has no column " + name,
                       m.line_no, m.line);
    };
    const auto signal = [&](std::size_t index) {
      return col(column_for(m.analysis, signal_at(m, index)));
    };
    if (m.fn == "value") return table.at(0, table.column_index(signal(0)));
    const bool timed = m.fn == "cross" || m.fn == "delay" ||
                       m.fn == "period" || m.fn == "energy";
    const std::string xcol = col(timed ? "time_s" : x_column(m.analysis));

    if (m.fn == "max" || m.fn == "min" || m.fn == "avg" || m.fn == "rms" ||
        m.fn == "pp") {
      const ColumnStat stat = m.fn == "max"   ? ColumnStat::kMax
                              : m.fn == "min" ? ColumnStat::kMin
                              : m.fn == "avg" ? ColumnStat::kAvg
                              : m.fn == "rms" ? ColumnStat::kRms
                                              : ColumnStat::kPeakToPeak;
      return column_stat(table, xcol, signal(0), stat,
                         measure_opt(m, "from", -1e308),
                         measure_opt(m, "to", 1e308));
    }
    if (m.fn == "cross") {
      const double t =
          crossing_time(table, signal(0), measure_opt_required(m, "val"),
                        rising,
                        measure_opt(m, "after", 0.0));
      if (t < 0.0) {
        throw ParseError("measure '" + m.name + "': no crossing found",
                         m.line_no, m.line);
      }
      return t;
    }
    if (m.fn == "delay") {
      return propagation_delay(table, signal(0), signal(1),
                               measure_opt_required(m, "vdd"), rising);
    }
    if (m.fn == "period") {
      const double vdd = measure_opt(m, "vdd", 0.0);
      const double mid = measure_opt(m, "mid", vdd * 0.5);
      if (mid == 0.0) {
        throw ParseError(".measure period needs mid= or vdd=", m.line_no,
                         m.line);
      }
      return oscillation_period(table, signal(0), mid,
                                static_cast<int>(measure_opt(m, "skip", 2)));
    }
    if (m.fn == "energy") {
      if (!signal_at(m, 0).current) {
        throw ParseError(".measure energy wants i(<vsource>)", m.line_no,
                         m.line);
      }
      return supply_energy(table, signal(0), measure_opt_required(m, "vdd"));
    }
    if (m.fn == "find") {
      return value_at(table, xcol, signal(0), measure_opt_required(m, "at"));
    }
    if (m.fn == "corner") {
      const double f = corner_frequency(table, signal(0));
      if (f < 0.0) {
        throw ParseError("measure '" + m.name + "': no -3 dB corner in band",
                         m.line_no, m.line);
      }
      return f;
    }
    if (m.fn == "vtc") {
      const VtcMetrics vtc = analyze_vtc(table, signal(0), signal(1),
                                         measure_opt_required(m, "vdd"));
      const std::string* metric = find_option(m.options, "metric");
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
  const DeckPlan& plan_;
  Circuit& ckt_;
  NewtonWorkspace& ws_;
  AcSystem& ac_;
  const ModelRegistry& registry_;
  const ParamEnv& overrides_;
  const SessionOptions& session_opts_;
  ParamEnv genv_;  ///< global parameters of this step point
  std::vector<AnalysisValues> values_;  ///< per analysis card
  /// Small-signal passes of this point, by the index of their first card.
  std::map<std::size_t, SmallSignalResult> passes_;
  // What the analyses record, for the measures.
  std::map<std::string, phys::DataTable> tables_;  ///< by analysis kind
  /// The last .ac card's table, which stays in its small-signal pass.
  const phys::DataTable* ac_table_ = nullptr;
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
  std::unique_ptr<Circuit> circuit = instantiate(deck, registry_);
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
  return entry;
}

core::Json SimSession::run_deck(const Deck& deck,
                                const phys::CancelToken* cancel) {
  ++decks_run_;
  obs::ScopedSpan deck_span("deck");
  bool cache_hit = false;
  CacheEntry& entry = entry_for(deck, &cache_hit);
  DeckPlan plan(deck, *entry.circuit);
  ++entry.uses;
  plan.solver.cancel = cancel;  // polled by every Newton/transient/AC loop
  SolveRecord record;
  record.collect_phases = opts_.collect_phases;
  plan.solver.record = &record;

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
    StepRunner runner(deck, plan, *entry.circuit, entry.workspace, entry.ac,
                      registry_, overrides, opts_);
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
  auto err = core::Json::object();
  try {
    const Deck deck = parse_deck(text, registry_);
    return run_deck(deck, cancel);
  } catch (const phys::CancelledError& e) {
    err.set("type", e.deadline_expired() ? "timeout" : "cancelled");
    err.set("where", e.where());
    err.set("what", std::string(e.what()));
  } catch (const ParseError& e) {
    err.set("type", "parse");
    err.set("reason", e.reason());
    err.set("line", e.line());
    err.set("line_text", e.line_text());
    err.set("what", std::string(e.what()));
  } catch (const SolveFailureError& e) {
    err = to_json(e.failure());
    err.set("type", "solve_failure");
    err.set("what", std::string(e.what()));
  } catch (const phys::ConvergenceError& e) {
    // A convergence-class error that escaped the escalation ladder (e.g. a
    // model going non-finite during the very first stamp, before Newton
    // starts).  Still a solver outcome, not an internal fault — classify
    // it the same way regardless of where in the pipeline it surfaced.
    err.set("type", "solve_failure");
    err.set("what", std::string(e.what()));
  } catch (const std::exception& e) {
    err.set("type", "internal");
    err.set("what", std::string(e.what()));
  }
  auto doc = core::Json::object();
  doc.set("ok", false);
  doc.set("error", std::move(err));
  return doc;
}

}  // namespace carbon::spice
