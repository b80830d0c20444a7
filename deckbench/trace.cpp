/// @file trace.cpp
/// Traced in-process replay of a deck stream: puts a timer around the
/// public entry point of each layer, from outside the program.
///
///   deckbench_trace --frames FILE --seconds S [--docs FILE]
///
/// FILE holds carbon_simd request frames, one JSON object with a "deck"
/// string per line.  The stream is replayed in whole rounds until S
/// seconds have passed (at least one round).  Per deck:
///
///   core::Json::parse(frame)                 request decode
///   spice::parse_deck(text, registry)        parse (builds Deck::circuit)
///   spice::instantiate(deck, registry, {})   the call parse_deck makes
///   spice::instantiate(..., &memo) twice     empty memo, then full memo:
///                                            the difference is model
///                                            construction
///   spice::retune(..., &memo) per step       first call, then a memo hit
///   SimSession::run_deck                     collect_phases off, then on
///   core::Json::dump                         render
///
/// plus the documents' own counters (stats and session blocks, phase_ns).
/// After the replay, IDeviceModel::eval is timed over a fixed bias grid for
/// each model family the decks use.  Prints one JSON object of totals; the
/// caller divides.  --docs writes the first round's documents (the
/// phases-off session), one compact line per deck.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/report.h"
#include "device/alpha_power.h"
#include "device/ivmodel.h"
#include "device/linear_fet.h"
#include "spice/netlist_parser.h"
#include "spice/session.h"

namespace {

using carbon::core::Json;
using carbon::spice::ModelRegistry;
using Clock = std::chrono::steady_clock;

/// The registry carbon_sim and carbon_simd install at start-up.
ModelRegistry builtin_models() {
  using namespace carbon::device;
  ModelRegistry reg;
  auto nfet = std::make_shared<AlphaPowerModel>(make_fig2_saturating_params());
  reg["nfet"] = nfet;
  reg["pfet"] = std::make_shared<PTypeMirror>(nfet);
  auto linn = std::make_shared<LinearFetModel>(make_fig2_linear_params());
  reg["linfet_n"] = linn;
  reg["linfet_p"] = std::make_shared<PTypeMirror>(linn);
  return reg;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

long int_at(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  return v && v->is_number() ? static_cast<long>(v->as_double()) : 0;
}

struct Totals {
  long decks = 0, rounds = 0, steps = 0;
  double decode_ms = 0, parse_ms = 0, instantiate_ms = 0;
  double model_build_ms = 0;
  long model_builds = 0;
  double retune_first_ms = 0;
  double run_off_ms = 0, run_on_ms = 0, render_ms = 0, bytes = 0;
  double stamp_ms = 0, eval_ms = 0, factor_ms = 0, solve_ms = 0;
  double other_ms = 0;
  long cache_hits = 0, pattern_builds = 0, symbolic_analyses = 0;
  long newton_iters = 0, tran_steps = 0, lte_rejects = 0, op_escalations = 0;
  long failed = 0;
};

/// Solver counters of one document's stats blocks.
void count_stats(const Json& doc, Totals* t) {
  const Json* steps = doc.find("steps");
  if (!steps) return;
  auto count_op = [&](const Json& op) {
    t->newton_iters += int_at(op, "iterations");
    const Json* stage = op.find("stage");
    if (stage && stage->is_string() && stage->as_string() != "newton") {
      ++t->op_escalations;
    }
  };
  for (std::size_t s = 0; s < steps->size(); ++s) {
    const Json* an = steps->at(s).find("analyses");
    for (std::size_t a = 0; an && a < an->size(); ++a) {
      const Json& block = an->at(a);
      const Json* stats = block.find("stats");
      if (!stats) continue;
      if (block["type"].as_string() == "tran") {
        t->newton_iters += int_at(*stats, "newton_iterations");
        t->tran_steps += int_at(*stats, "steps_accepted");
        t->lte_rejects += int_at(*stats, "steps_rejected_lte");
        if (const Json* op = stats->find("op")) count_op(*op);
      } else {
        count_op(*stats);
      }
    }
  }
}

/// Mean ns per IDeviceModel::eval over a 21x21 grid of |vgs|, |vds| in
/// [0, 1] V (negated for p-type models), repeated for at least 20 ms.
double eval_ns_per_call_of(const carbon::device::IDeviceModel& m) {
  const double sign =
      m.polarity() == carbon::device::Polarity::kPType ? -1.0 : 1.0;
  double sink = 0.0;
  long calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (int i = 0; i <= 20; ++i) {
      for (int j = 0; j <= 20; ++j) {
        const carbon::device::DeviceEval e =
            m.eval(sign * 0.05 * i, sign * 0.05 * j);
        sink += e.id + e.gm + e.gds;
        ++calls;
      }
    }
  } while (ms_since(t0) < 20.0);
  const double ns = ms_since(t0) * 1e6 / static_cast<double>(calls);
  if (sink == 42.0) std::fputc(' ', stderr);  // keep the evals observable
  return ns;
}

struct TopologyEntry {
  std::unique_ptr<carbon::spice::Circuit> circuit;
  carbon::spice::ModelMemo memo;
};

/// The replay state: two sessions that see the same decks in the same
/// order (phase collection off and on), the benchmark's own topology cache
/// for retune, and the model families met so far.
class Replay {
 public:
  Replay()
      : registry_(builtin_models()),
        off_(registry_, carbon::spice::SessionOptions{}),
        on_(registry_, phases_on()) {}

  /// Replay one request frame; returns its (phases-off) document.
  std::string deck(const std::string& frame, Totals* t);

  /// Mean ns per eval over the families met (the built-in nfet when the
  /// decks use no device).
  double eval_ns_per_call() const;

  /// Construction time of the built-in registry's models, for decks that
  /// build none of their own: [ms total, models built].
  static std::pair<double, long> builtin_build_ms();

 private:
  static carbon::spice::SessionOptions phases_on() {
    carbon::spice::SessionOptions o;
    o.collect_phases = true;
    return o;
  }

  ModelRegistry registry_;
  carbon::spice::SimSession off_;
  carbon::spice::SimSession on_;
  std::map<std::string, TopologyEntry> topologies_;
  /// Per topology: pattern builds and symbolic analyses at its last deck.
  std::map<std::string, std::pair<long, long>> last_counts_;
  /// One model per family, for the eval timing after the replay.
  std::map<std::string, carbon::device::DeviceModelPtr> families_;
};

std::string Replay::deck(const std::string& frame, Totals* t) {
  using namespace carbon::spice;
  Clock::time_point t0 = Clock::now();
  const Json req = Json::parse(frame);
  const std::string text = req["deck"].as_string();
  t->decode_ms += ms_since(t0);

  t0 = Clock::now();
  const Deck deck = parse_deck(text, registry_);
  t->parse_ms += ms_since(t0);

  t0 = Clock::now();
  instantiate(deck, registry_, {});
  const double nomemo_ms = ms_since(t0);
  t->instantiate_ms += nomemo_ms;

  // Model construction: with an empty memo each distinct deck-local model
  // is built once; with the full memo none is.  Both compute the same memo
  // keys, so the difference is the construction.
  ModelMemo fresh;
  t0 = Clock::now();
  instantiate(deck, registry_, {}, &fresh);
  const double empty_memo_ms = ms_since(t0);
  t0 = Clock::now();
  instantiate(deck, registry_, {}, &fresh);
  const double full_memo_ms = ms_since(t0);
  t->model_build_ms += empty_memo_ms - full_memo_ms;
  t->model_builds += static_cast<long>(fresh.size());
  for (const ElementCard& e : deck.elements) {
    const bool local = std::any_of(
        deck.models.begin(), deck.models.end(),
        [&](const ModelCard& mc) { return mc.name == e.model; });
    const auto it = registry_.find(e.model);
    if (e.kind == 'm' && !local && it != registry_.end()) {
      families_.emplace("builtin:" + e.model, it->second);
    }
  }
  for (const auto& [key, model] : fresh) {
    // Memo keys are "name|type|options": one model per type.
    const std::size_t a = key.find('|');
    families_.emplace(key.substr(a + 1, key.find('|', a + 1) - a - 1), model);
  }

  // Retune as the session does per step: once (may build models the memo
  // lacks), then once more per analysis (memo hits).
  TopologyEntry& topo = topologies_[deck.topology_signature];
  if (!topo.circuit) {
    topo.circuit = instantiate(deck, registry_, {}, &topo.memo);
  }
  double retune_in_run_ms = 0.0;
  const std::vector<ParamEnv> envs = expand_steps(deck);
  for (const ParamEnv& env : envs) {
    t0 = Clock::now();
    retune(deck, registry_, env, *topo.circuit, &topo.memo);
    const double first = ms_since(t0);
    t0 = Clock::now();
    retune(deck, registry_, env, *topo.circuit, &topo.memo);
    const double hit = ms_since(t0);
    t->retune_first_ms += first;
    retune_in_run_ms += first + hit * static_cast<double>(deck.analyses.size());
  }
  t->steps += static_cast<long>(envs.size());

  t0 = Clock::now();
  const Json doc = off_.run_deck(deck);
  t->run_off_ms += ms_since(t0);

  t0 = Clock::now();
  const Json doc_on = on_.run_deck(deck);
  const double run_on_ms = ms_since(t0);
  t->run_on_ms += run_on_ms;

  t0 = Clock::now();
  std::string rendered = doc.dump();
  t->render_ms += ms_since(t0);
  t->bytes += static_cast<double>(rendered.size());

  // The session block's counters are per cache entry and lifetime; the
  // deck's own work is the change since the entry's last document.
  const Json& session = doc["session"];
  const bool hit = doc["topology"]["cache_hit"].as_bool();
  t->cache_hits += hit ? 1 : 0;
  const long builds = int_at(session, "mna_pattern_builds");
  const long symbolic = int_at(session, "symbolic_analyses") +
                        int_at(session, "ac_symbolic_analyses");
  std::pair<long, long>& prev = last_counts_[deck.topology_signature];
  if (!hit) prev = {0, 0};
  t->pattern_builds += builds - prev.first;
  t->symbolic_analyses += symbolic - prev.second;
  prev = {builds, symbolic};
  count_stats(doc, t);

  // Ledger of the phases-on run: what the solver phase split, the retunes
  // and (on a cache miss) the instantiation leave unaccounted.
  double phases_ms = 0.0;
  if (const Json* ph = doc_on["session"].find("phase_ns")) {
    const double stamp = int_at(*ph, "stamp") * 1e-6;
    const double eval = int_at(*ph, "eval") * 1e-6;
    const double factor = int_at(*ph, "factor") * 1e-6;
    const double solve = int_at(*ph, "solve") * 1e-6;
    t->stamp_ms += stamp;
    t->eval_ms += eval;
    t->factor_ms += factor;
    t->solve_ms += solve;
    phases_ms = stamp + eval + factor + solve;
  }
  const bool miss_on = !doc_on["topology"]["cache_hit"].as_bool();
  t->other_ms += run_on_ms - phases_ms - retune_in_run_ms -
                 (miss_on ? empty_memo_ms : 0.0);
  if (!doc["ok"].as_bool()) ++t->failed;
  return rendered;
}

double Replay::eval_ns_per_call() const {
  double sum = 0.0;
  if (families_.empty()) return eval_ns_per_call_of(*registry_.at("nfet"));
  for (const auto& [name, model] : families_) {
    sum += eval_ns_per_call_of(*model);
  }
  return sum / static_cast<double>(families_.size());
}

std::pair<double, long> Replay::builtin_build_ms() {
  const Clock::time_point t0 = Clock::now();
  long built = 0;
  do {
    builtin_models();
    built += 4;
  } while (ms_since(t0) < 20.0);
  return {ms_since(t0), built};
}

}  // namespace

int main(int argc, char** argv) {
  std::string frames_path, docs_path;
  double seconds = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--frames") {
      frames_path = argv[i + 1];
    } else if (arg == "--docs") {
      docs_path = argv[i + 1];
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else {
      seconds = 0.0;
      break;
    }
  }
  if (argc % 2 != 1 || frames_path.empty() || !(seconds > 0.0)) {
    std::cerr << "usage: deckbench_trace --frames FILE --seconds S "
                 "[--docs FILE]\n";
    return 2;
  }
  std::vector<std::string> frames;
  {
    std::ifstream in(frames_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) frames.push_back(line);
    }
  }
  if (frames.empty()) {
    std::cerr << "deckbench_trace: no frames in " << frames_path << "\n";
    return 2;
  }

  std::ofstream docs_out;
  if (!docs_path.empty()) docs_out.open(docs_path);
  Replay replay;
  Totals t;
  const Clock::time_point start = Clock::now();
  do {
    for (const std::string& frame : frames) {
      std::string doc;
      try {
        doc = replay.deck(frame, &t);
      } catch (const std::exception& e) {
        std::cerr << "deckbench_trace: " << e.what() << "\n";
        doc = "{}";
        ++t.failed;
      }
      ++t.decks;
      if (docs_out.is_open() && t.rounds == 0) docs_out << doc << "\n";
    }
    ++t.rounds;
  } while (ms_since(start) < seconds * 1e3);

  const double eval_ns = replay.eval_ns_per_call();
  if (t.model_builds == 0) {
    // No deck-local .model card: the construction the program does is the
    // built-in registry's, once per process start.
    std::tie(t.model_build_ms, t.model_builds) = Replay::builtin_build_ms();
  }

  std::printf(
      "{\"decks\": %ld, \"rounds\": %ld, \"steps\": %ld, \"failed\": %ld, "
      "\"decode_ms\": %.9g, \"parse_ms\": %.9g, \"instantiate_ms\": %.9g, "
      "\"model_build_ms\": %.9g, \"model_builds\": %ld, "
      "\"retune_first_ms\": %.9g, \"run_off_ms\": %.9g, "
      "\"run_on_ms\": %.9g, \"render_ms\": %.9g, \"bytes\": %.9g, "
      "\"stamp_ms\": %.9g, \"eval_ms\": %.9g, \"factor_ms\": %.9g, "
      "\"solve_ms\": %.9g, \"other_ms\": %.9g, \"cache_hits\": %ld, "
      "\"pattern_builds\": %ld, \"symbolic_analyses\": %ld, "
      "\"newton_iters\": %ld, \"tran_steps\": %ld, \"lte_rejects\": %ld, "
      "\"op_escalations\": %ld, \"eval_ns_per_call\": %.9g}\n",
      t.decks, t.rounds, t.steps, t.failed, t.decode_ms, t.parse_ms,
      t.instantiate_ms, t.model_build_ms, t.model_builds, t.retune_first_ms,
      t.run_off_ms, t.run_on_ms, t.render_ms, t.bytes, t.stamp_ms, t.eval_ms,
      t.factor_ms, t.solve_ms, t.other_ms, t.cache_hits, t.pattern_builds,
      t.symbolic_analyses, t.newton_iters, t.tran_steps, t.lte_rejects,
      t.op_escalations, eval_ns);
  return 0;
}
