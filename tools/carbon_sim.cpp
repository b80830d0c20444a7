/// @file carbon_sim.cpp
/// Batch simulation driver: SPICE decks in, JSON documents out.
///
///   carbon_sim deck1.cir deck2.cir      # one JSON document per file
///   carbon_sim < decks.cir              # stdin; decks separated by .end
///   carbon_sim --compact deck.cir       # single-line JSON
///   carbon_sim --deadline-ms 5000 ...   # per-deck wall-clock budget
///   carbon_sim --trace-out t.json ...   # per-deck Chrome trace (deck N
///                                       # past the first lands in t.json.N;
///                                       # open in chrome://tracing or
///                                       # ui.perfetto.dev)
///   carbon_sim --profile ...            # phase-time table on stderr
///
/// Robustness: every deck runs inside a catch-all boundary — an
/// unexpected exception becomes a structured {"type": "internal"}
/// document instead of killing the rest of the batch; --deadline-ms arms
/// a per-deck phys::CancelToken deadline (polled through every Newton
/// iteration, transient step and AC/noise frequency point) so a hung
/// solve renders as {"type": "timeout"} instead of running forever; and
/// SIGPIPE is ignored so a consumer closing the output pipe ends the
/// batch with a clean write error instead of a signal death.
///
/// The process is a single long-lived SimSession, so consecutive decks
/// sharing a topology (a parameter-sweep batch, a regression suite over
/// one circuit) reuse the cached matrix pattern and symbolic analyses —
/// the "session" block of each document reports the reuse counters.
///
/// Exit status: 0 when every deck ran, 1 when any deck failed (its
/// document still prints, with {"ok": false, "error": {...}}) or a file
/// could not be read.

#include <csignal>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "device/alpha_power.h"
#include "device/ivmodel.h"
#include "device/linear_fet.h"
#include "obs/trace.h"
#include "phys/cancel.h"
#include "spice/session.h"

namespace {

using carbon::spice::ModelRegistry;

/// Built-in registry: the paper's Fig. 2 device family, usable from any
/// deck without a .model card.  nfet/pfet are the saturating alpha-power
/// devices; linfet_n/linfet_p the non-saturating (Fig. 2(b)/(d)) ones.
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

/// Split a stream into decks on `.end` lines (the .end stays with its
/// deck).  Text after the last .end that is only blank/comment lines is
/// discarded; anything else becomes a final deck of its own.
std::vector<std::string> split_decks(std::istream& in) {
  std::vector<std::string> decks;
  std::string current;
  std::string line;
  bool any_content = false;
  while (std::getline(in, line)) {
    current += line;
    current += '\n';
    // Lowercased first token of the line, cheaply.
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    for (char& c : tok) c = static_cast<char>(std::tolower(c));
    if (!tok.empty() && tok[0] != '*' && tok[0] != '#') any_content = true;
    if (tok == ".end") {
      decks.push_back(std::move(current));
      current.clear();
      any_content = false;
    }
  }
  if (any_content) decks.push_back(std::move(current));
  return decks;
}

void print_doc(const carbon::core::Json& doc, bool compact) {
  std::cout << (compact ? doc.dump() : doc.dump(2)) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // A consumer closing our stdout pipe must surface as a write error on
  // the stream, not a SIGPIPE process death mid-batch.
  std::signal(SIGPIPE, SIG_IGN);

  bool compact = false;
  bool profile = false;
  double deadline_ms = 0.0;  // 0 = no per-deck budget
  std::string trace_out;     // empty = tracing off
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--compact") {
      compact = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) {
        std::cerr << "carbon_sim: --trace-out wants a file path\n";
        return 1;
      }
      trace_out = argv[++i];
    } else if (arg == "--deadline-ms") {
      if (i + 1 >= argc) {
        std::cerr << "carbon_sim: --deadline-ms wants a value\n";
        return 1;
      }
      try {
        deadline_ms = std::stod(argv[++i]);
      } catch (const std::exception&) {
        deadline_ms = -1.0;
      }
      if (!(deadline_ms > 0.0)) {
        std::cerr << "carbon_sim: --deadline-ms wants a positive number\n";
        return 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: carbon_sim [--compact] [--deadline-ms N] "
                   "[--trace-out FILE] [--profile] [deck.cir ...]\n"
                   "       carbon_sim [options] < decks.cir\n"
                   "  --trace-out FILE  write a Chrome trace_event JSON per "
                   "deck (FILE, FILE.1, ...)\n"
                   "  --profile         solver phase-time table on stderr\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "carbon_sim: unknown option " << arg << "\n";
      return 1;
    } else {
      files.push_back(arg);
    }
  }

  carbon::spice::SessionOptions sopts;
  sopts.collect_phases = profile;
  carbon::spice::SimSession session(builtin_models(), sopts);
  bool any_failed = false;
  int deck_index = 0;

  auto run_one = [&](const std::string& text) {
    carbon::core::Json doc;
    // Per-deck tracer: one bounded ring per deck so each trace file stands
    // alone.  Unused (no --trace-out) it allocates nothing — rings are
    // created on first record, and nothing records while detached.
    carbon::obs::Tracer tracer;
    // Catch-all at the per-deck boundary: run_deck_text already converts
    // known failures to documents, but an unexpected exception from
    // anywhere else must not kill the rest of the batch either.
    try {
      carbon::phys::CancelToken budget;
      if (deadline_ms > 0.0) budget.set_deadline_after(deadline_ms * 1e-3);
      carbon::obs::TraceAttach attach(trace_out.empty() ? nullptr : &tracer);
      doc = session.run_deck_text(text,
                                  deadline_ms > 0.0 ? &budget : nullptr);
    } catch (const std::exception& e) {
      auto err = carbon::core::Json::object();
      err.set("type", "internal");
      err.set("what", std::string(e.what()));
      doc = carbon::core::Json::object();
      doc.set("ok", false);
      doc.set("error", std::move(err));
    }
    if (!trace_out.empty()) {
      const std::string path =
          deck_index == 0 ? trace_out
                          : trace_out + "." + std::to_string(deck_index);
      std::ofstream tf(path);
      if (tf) {
        tf << tracer.chrome_json_text() << "\n";
      } else {
        std::cerr << "carbon_sim: cannot write trace file: " << path << "\n";
        any_failed = true;
      }
    }
    ++deck_index;
    const carbon::core::Json* ok = doc.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool()) any_failed = true;
    print_doc(doc, compact);
  };

  if (files.empty()) {
    for (const std::string& deck : split_decks(std::cin)) run_one(deck);
  } else {
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        auto err = carbon::core::Json::object();
        err.set("type", "io");
        err.set("what", "cannot read deck file: " + path);
        auto doc = carbon::core::Json::object();
        doc.set("ok", false);
        doc.set("file", path);
        doc.set("error", std::move(err));
        print_doc(doc, compact);
        any_failed = true;
        continue;
      }
      std::ostringstream text;
      text << in.rdbuf();
      run_one(text.str());
    }
  }

  if (profile) {
    const carbon::spice::SolveRecord& pt = session.phases();
    const long long total = pt.phase_total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    auto row = [&](const char* name, long long ns) {
      std::fprintf(stderr, "  %-12s %12.3f ms  %5.1f%%\n", name, ns * 1e-6,
                   100.0 * static_cast<double>(ns) / denom);
    };
    std::fprintf(stderr, "carbon_sim profile (%d deck%s):\n", deck_index,
                 deck_index == 1 ? "" : "s");
    using Rec = carbon::spice::SolveRecord;
    row("device-eval", pt.phase_ns[Rec::kEval]);
    row("stamp", pt.phase_ns[Rec::kStamp]);
    row("factor", pt.phase_ns[Rec::kFactor]);
    row("back-solve", pt.phase_ns[Rec::kSolve]);
    row("total", total);
  }
  return any_failed ? 1 : 0;
}
