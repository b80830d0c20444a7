// SimSession: deck-in -> JSON-out dispatch, per-step measures, the
// topology cache (symbolic analysis once per topology across .step
// points and repeated decks), structured error documents, and the
// core::Json reader that everything round-trips through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "obs/trace.h"
#include "phys/cancel.h"
#include "spice/model_store.h"
#include "spice/session.h"

namespace {

namespace sp = carbon::spice;
using carbon::core::Json;

// The acceptance deck: hierarchical (.subckt + x cards), stepped supply,
// measures — everything the frontend promises at once.
constexpr const char* kAcceptanceDeck = R"(
.title stepped inverter chain
.param vdd=1.0 cl=10f
.model ndev alphan(vt=0.2 alpha=1.3 k=60u lambda=0.08)
.model pdev alphap(vt=0.2 alpha=1.3 k=60u lambda=0.08)
.subckt inv in out vdd cl=10f
mp out in vdd pdev
mn out in 0   ndev
cld out 0 {cl}
.ends
vdd vdd 0 {vdd}
vin in  0 0
x1 in  m1  vdd inv cl={2*cl}
x2 m1  out vdd inv
.dc vin 0 {vdd} 0.05
.step param vdd 0.8 1.2 0.2
.probe v(out)
.measure dc gain vtc v(in) v(m1) vdd={vdd} metric=gain
.measure dc vswitch vtc v(in) v(m1) vdd={vdd} metric=vswitch
.end
)";

TEST(SimSession, SteppedHierarchicalDeckEndToEnd) {
  sp::SimSession session;
  const Json doc = session.run_deck_text(kAcceptanceDeck);
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);

  // One step block per .step grid point, each with its own measures.
  const Json& steps = doc["steps"];
  ASSERT_EQ(steps.size(), 3u);
  for (size_t i = 0; i < steps.size(); ++i) {
    const Json& step = steps.at(i);
    const double vdd = step["params"]["vdd"].as_double();
    EXPECT_NEAR(vdd, 0.8 + 0.2 * static_cast<double>(i), 1e-12);
    const double gain = step["measures"]["gain"].as_double();
    const double vswitch = step["measures"]["vswitch"].as_double();
    EXPECT_GT(gain, 1.0) << "inverter must be regenerative";
    EXPECT_NEAR(vswitch, vdd / 2, 0.05 * vdd);
    // The per-step sweep table is present and spans 0..vdd.
    const Json& table = step["analyses"].at(0)["table"];
    const size_t rows = table["rows"].size();
    EXPECT_EQ(rows, static_cast<size_t>(std::lround(vdd / 0.05)) + 1);
  }

  // The heart of the cache claim: three step points, ONE matrix pattern
  // build and ONE sparse symbolic analysis (values retuned in place).
  const Json& stats = doc["session"];
  EXPECT_EQ(stats["mna_pattern_builds"].as_int(), 1) << doc.dump(1);
  EXPECT_EQ(stats["symbolic_analyses"].as_int(), 1) << doc.dump(1);
  EXPECT_FALSE(doc["topology"]["cache_hit"].as_bool());

  // Re-running the same deck hits the cache; the pattern/symbolic work
  // STILL happened exactly once, now across 6 step solves.
  const Json again = session.run_deck_text(kAcceptanceDeck);
  ASSERT_TRUE(again["ok"].as_bool());
  EXPECT_TRUE(again["topology"]["cache_hit"].as_bool());
  EXPECT_EQ(again["session"]["mna_pattern_builds"].as_int(), 1);
  EXPECT_EQ(again["session"]["symbolic_analyses"].as_int(), 1);
  EXPECT_EQ(again["session"]["decks_run"].as_int(), 2);

  // A deck with different values but the same topology shares the entry.
  std::string retuned = kAcceptanceDeck;
  const auto pos = retuned.find("cl=10f");
  retuned.replace(pos, 6, "cl=20f");
  const Json third = session.run_deck_text(retuned);
  ASSERT_TRUE(third["ok"].as_bool()) << third.dump(1);
  EXPECT_TRUE(third["topology"]["cache_hit"].as_bool());
  EXPECT_EQ(session.cache_entries(), 1u);
}

TEST(SimSession, StepsRetuneToTheSameResultAsFreshRuns) {
  // Per-step results from the retuned cached circuit must match a fresh
  // session seeing only that step's values.
  sp::SimSession stepped;
  const Json doc = stepped.run_deck_text(kAcceptanceDeck);
  ASSERT_TRUE(doc["ok"].as_bool());
  const Json& step1 = doc["steps"].at(1);

  std::string single = kAcceptanceDeck;
  const auto pos = single.find(".step param vdd 0.8 1.2 0.2\n");
  ASSERT_NE(pos, std::string::npos);
  single.erase(pos, std::string(".step param vdd 0.8 1.2 0.2\n").size());
  const auto ppos = single.find("vdd=1.0");
  single.replace(ppos, 7, "vdd=1.0");  // step 1 is exactly the base point
  sp::SimSession fresh;
  const Json ref = fresh.run_deck_text(single);
  ASSERT_TRUE(ref["ok"].as_bool());
  const Json& step_ref = ref["steps"].at(0);
  EXPECT_NEAR(step1["measures"]["gain"].as_double(),
              step_ref["measures"]["gain"].as_double(), 1e-9);
  EXPECT_NEAR(step1["measures"]["vswitch"].as_double(),
              step_ref["measures"]["vswitch"].as_double(), 1e-12);
}

/// A deck that must come back as a `parse` document naming its card.  A
/// case with a `good` twin (the same topology with valid values) is also
/// run after that twin on one session, where it hits the topology cache.
struct MalformedCase {
  const char* deck;
  int line;
  const char* line_text;
  const char* reason;
  const char* good = nullptr;
};

const MalformedCase kMalformedDecks[] = {
    {"v1 in 0 1\nr1 in out 1k\nr2 out\n.op\n.end\n", 3, "r2 out",
     "R wants"},
    // Decks with no unknown to solve for.
    {".title x\n.op\n.end\n", 0, "", "no circuit node"},
    {"r1 0 0 1k\n.op\n.end\n", 0, "", "no circuit node"},
    // A .probe of a node the circuit lacks.
    {"v1 a 0 1\nr1 a 0 1k\n.probe v(zz)\n.op\n.end\n", 3,
     ".probe v(zz)", "unknown node 'zz'"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.noise v(zz) v1 dec 10 1 1meg\n",
     4, ".noise v(zz) v1 dec 10 1 1meg", "non-ground circuit node"},
    // .ac/.noise grids no sweep can march: descending, starting at 0,
    // no points per decade.
    {"v1 a 0 dc 0 ac 1\nr1 a b 1k\nc1 b 0 1n\n.op\n.ac dec 10 1meg 1\n",
     5, ".ac dec 10 1meg 1", "fstart < fstop"},
    {"v1 a 0 dc 0 ac 1\nr1 a b 1k\nc1 b 0 1n\n.ac dec 10 0 1meg\n", 4,
     ".ac dec 10 0 1meg", "fstart < fstop"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.noise v(b) v1 dec 0 1 1meg\n", 4,
     ".noise v(b) v1 dec 0 1 1meg", "points per decade"},
    // .step and .dc grids whose point count overflows an int, and a
    // .step grid over the cap only as a cartesian product.
    {"v1 a 0 1\nr1 a 0 {r}\n.param r=1\n.step param r 1 1e12 1\n.op\n",
     4, ".step param r 1 1e12 1", "over 10000 points"},
    {"v1 a 0 1\nr1 a 0 {r}\n.param r=1 s=1\n.step param r 1 200 1\n"
     ".step param s 1 200 1\n.op\n",
     5, ".step param s 1 200 1", "over 10000 points"},
    {"v1 a 0 1\nr1 a 0 1k\n.dc v1 0 1e9 1e-3\n", 3, ".dc v1 0 1e9 1e-3",
     "over 10000 points"},
    {"v1 a 0 1\nr1 a 0 1k\n.dc v1 0 {1/0} 1\n", 3, ".dc v1 0 {1/0} 1",
     "finite start and stop"},
    // .tran spans and tolerances no step loop can march.
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 0 1n\n", 4, ".tran 0 1n",
     "positive tstep"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran -1p 1n\n", 4, ".tran -1p 1n",
     "positive tstep"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1p {1/0}\n", 4,
     ".tran 1p {1/0}", "must be finite"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1p 1n fixed={0/0}\n", 4,
     ".tran 1p 1n fixed={0/0}", "must be finite"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1p 1n fixed=1 lte_reltol=0\n",
     4, ".tran 1p 1n fixed=1 lte_reltol=0", "must be positive"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1p 1n lte_abstol=-1\n", 4,
     ".tran 1p 1n lte_abstol=-1", "must be positive"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.tran 1e-30 1n\n", 4,
     ".tran 1e-30 1n", "over 1e6 rows"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1n\n.op\n.tran 1p 1n print=1e-30\n", 5,
     ".tran 1p 1n print=1e-30", "over 1e6 rows"},
    // Element values out of range, and a literal whose suffix overflows.
    {"v1 a 0 1\nr1 a 0 -1k\n.op\n", 2, "r1 a 0 -1k",
     "resistance must be finite and > 0", "v1 a 0 1\nr1 a 0 1k\n.op\n"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 {0/0}\n.tran 1n 10n\n", 3,
     "c1 b 0 {0/0}", "capacitance must be finite and > 0",
     "v1 a 0 1\nr1 a b 1k\nc1 b 0 1p\n.tran 1n 10n\n"},
    {"v1 a 0 1\nr1 a b 1k\nd1 b 0 n=0.5\n.op\n", 3, "d1 b 0 n=0.5",
     "ideality n must be finite and >= 1",
     "v1 a 0 1\nr1 a b 1k\nd1 b 0\n.op\n"},
    {"v1 a 0 1\nr1 a b 1k\nd1 b 0 is=-1e-14\n.op\n", 3,
     "d1 b 0 is=-1e-14", "saturation current is must be finite and > 0",
     "v1 a 0 1\nr1 a b 1k\nd1 b 0\n.op\n"},
    {".model nch alphan\nv1 d 0 1\nmn d d 0 nch m=0\n.op\n", 3,
     "mn d d 0 nch m=0", "multiplier m must be finite and > 0",
     ".model nch alphan\nv1 d 0 1\nmn d d 0 nch m=2\n.op\n"},
    {"v1 a 0 1e300t\nr1 a 0 1k\n.op\n", 1, "v1 a 0 1e300t",
     "non-finite numeric literal", "v1 a 0 1\nr1 a 0 1k\n.op\n"},
    // Non-finite source values and initial conditions: they used to run
    // the whole convergence ladder and fail at its last stage.
    {"v1 a 0 {0/0}\nr1 a 0 1k\n.op\n", 1, "v1 a 0 {0/0}",
     "source value must be finite", "v1 a 0 1\nr1 a 0 1k\n.op\n"},
    {"i1 0 a {1/0}\nr1 a 0 1k\n.op\n", 1, "i1 0 a {1/0}",
     "source value must be finite", "i1 0 a 1m\nr1 a 0 1k\n.op\n"},
    {"v1 a 0 pulse(0 {0/0} 1n 1n 1n 5n 10n)\nr1 a b 1k\nc1 b 0 1p\n"
     ".tran 1n 10n\n",
     1, "v1 a 0 pulse(0 {0/0} 1n 1n 1n 5n 10n)", "source value must be finite",
     "v1 a 0 pulse(0 1 1n 1n 1n 5n 10n)\nr1 a b 1k\nc1 b 0 1p\n"
     ".tran 1n 10n\n"},
    // Waveform arguments no waveform accepts: zero slews, a period shorter
    // than one cycle, a zero frequency, a PWL time that does not increase.
    {"v1 a 0 pulse(0 1 0 0 0 1n 2n)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n",
     1, "v1 a 0 pulse(0 1 0 0 0 1n 2n)", "PULSE wants rise, fall > 0",
     "v1 a 0 pulse(0 1 0 1p 1p 1n 2n)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n"},
    {"v1 a 0 pulse(0 1 0 1n 1n 5n 2n)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n",
     1, "v1 a 0 pulse(0 1 0 1n 1n 5n 2n)",
     "period >= rise + fall + width",
     "v1 a 0 pulse(0 1 0 1n 1n 5n 8n)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n"},
    {"v1 a 0 sin(0 1 0)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n", 1,
     "v1 a 0 sin(0 1 0)", "SIN frequency must be > 0",
     "v1 a 0 sin(0 1 1g)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n"},
    {"v1 a 0 pwl(0 0 0 1)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n", 1,
     "v1 a 0 pwl(0 0 0 1)", "PWL times must be strictly increasing",
     "v1 a 0 pwl(0 0 1n 1)\nr1 a b 1k\nc1 b 0 1p\n.tran 1p 1n\n"},
    {"v1 a 0 dc 0 ac {0/0}\nr1 a b 1k\nc1 b 0 1n\n.ac dec 10 1 1meg\n", 1,
     "v1 a 0 dc 0 ac {0/0}", "ac magnitude must be finite",
     "v1 a 0 dc 0 ac 1\nr1 a b 1k\nc1 b 0 1n\n.ac dec 10 1 1meg\n"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1p ic={0/0}\n.tran 1n 10n\n", 3,
     "c1 b 0 1p ic={0/0}", "initial condition ic must be finite",
     "v1 a 0 1\nr1 a b 1k\nc1 b 0 1p ic=0\n.tran 1n 10n\n"},
    // A subcircuit that instantiates itself: the recursing x card's line.
    {".subckt loop n\nx1 n loop\n.ends\nv1 a 0 1\nx0 a loop\n.op\n", 2,
     "x1 n loop", "nesting deeper than 50"},
    // A current probe naming no voltage source: refused at the .probe
    // card, whichever analyses run.
    {"v1 a 0 1\nr1 a 0 1k\n.probe i(r1)\n", 3, ".probe i(r1)",
     "'r1' is not a voltage source", "v1 a 0 1\nr1 a 0 1k\n.probe i(v1)\n"},
    {"v1 a 0 1\nr1 a 0 1k\n.probe i(vx)\n.op\n", 3, ".probe i(vx)",
     "unknown voltage source 'vx'",
     "v1 a 0 1\nr1 a 0 1k\n.probe i(v1)\n.op\n"},
    {"v1 a 0 1\nr1 a b 1k\nc1 b 0 1p\n.probe i(c1)\n.tran 1n 10n\n", 4,
     ".probe i(c1)", "'c1' is not a voltage source",
     "v1 a 0 1\nr1 a b 1k\nc1 b 0 1p\n.probe i(v1)\n.tran 1n 10n\n"},
    // .model values the model constructors refuse: checked before the
    // process-wide store builds anything.  The CNT twins share one model.
    {".model n cnfet(l=0)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(l=0)", ".model option l must be > 0",
     ".model n cnfet(l=20n)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n cnfet(l=-1n)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(l=-1n)", ".model option l must be > 0",
     ".model n cnfet(l=20n)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n cnfet(subbands=0)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(subbands=0)", "subbands must be an integer in 1..32",
     ".model n cnfet(subbands=3)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n cnfet(subbands=1e12)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(subbands=1e12)", "subbands must be an integer in 1..32",
     ".model n cnfet(subbands=3)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n cnfet(subbands=2.5)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(subbands=2.5)", "subbands must be an integer in 1..32",
     ".model n cnfet(subbands=3)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n cnfet(rs=-1)\nv1 d 0 0.5\nmn d d 0 n\n.op\n", 1,
     ".model n cnfet(rs=-1)", ".model option rs must be >= 0",
     ".model n cnfet(rs=0)\nv1 d 0 0.5\nmn d d 0 n\n.op\n"},
    {".model n alphan(alpha=0)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n alphan(alpha=0)", ".model option alpha must be in [1, 2]",
     ".model n alphan(alpha=1.3)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n alphan(k=-1)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n alphan(k=-1)", ".model option k must be > 0",
     ".model n alphan(k=60u)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n alphan(ss=0)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n alphan(ss=0)", ".model option ss must be > 0",
     ".model n alphan(ss=80)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n linn(k=0)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n linn(k=0)", ".model option k must be > 0",
     ".model n linn(k=1m)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n linn(smooth=0)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n linn(smooth=0)", ".model option smooth must be > 0",
     ".model n linn(smooth=0.05)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n alphan(gamma=-1)\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n alphan(gamma=-1)", ".model option gamma must be >= 0",
     ".model n alphan(gamma=1)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    {".model n alphan(vt={1/0})\nv1 d 0 1\nmn d d 0 n\n.op\n", 1,
     ".model n alphan(vt={1/0})", ".model option vt must be finite",
     ".model n alphan(vt=0.2)\nv1 d 0 1\nmn d d 0 n\n.op\n"},
    // A stepped parameter that reaches a bad value at the second point.
    {".param len=20n\n.model n cnfet(l={len})\nv1 d 0 0.5\nmn d d 0 n\n"
     ".step param len list 20n 0\n.op\n",
     2, ".model n cnfet(l={len})", ".model option l must be > 0",
     ".param len=20n\n.model n cnfet(l={len})\nv1 d 0 0.5\nmn d d 0 n\n"
     ".step param len list 20n 20n\n.op\n"},
};

TEST(SimSession, MalformedDeckYieldsStructuredError) {
  for (const MalformedCase& c : kMalformedDecks) {
    SCOPED_TRACE(c.deck);
    sp::SimSession session;
    const Json doc = session.run_deck_text(c.deck);
    ASSERT_FALSE(doc["ok"].as_bool());
    const Json& err = doc["error"];
    EXPECT_EQ(err["type"].as_string(), "parse") << doc.dump(1);
    EXPECT_EQ(err["line"].as_int(), c.line);
    EXPECT_EQ(err["line_text"].as_string(), c.line_text);
    EXPECT_NE(err["reason"].as_string().find(c.reason), std::string::npos)
        << doc.dump(1);
    // Client-visible text names the deck, never a server source file.
    EXPECT_EQ(doc.dump().find("/src/"), std::string::npos) << doc.dump(1);
  }
}

TEST(SimSession, MalformedValuesFailAlikeOnACachedTopology) {
  // Values reach a cached circuit through retune and a fresh one through
  // instantiate; both must refuse a bad value with the same document.
  for (const MalformedCase& c : kMalformedDecks) {
    if (c.good == nullptr) continue;
    SCOPED_TRACE(c.deck);
    sp::SimSession fresh;
    const Json alone = fresh.run_deck_text(c.deck);
    EXPECT_EQ(alone["error"]["type"].as_string(), "parse") << alone.dump(1);
    sp::SimSession session;
    const Json good = session.run_deck_text(c.good);
    ASSERT_TRUE(good["ok"].as_bool()) << good.dump(1);
    EXPECT_EQ(session.run_deck_text(c.deck).dump(), alone.dump());
    // The refused values left the cached circuit usable.
    const Json again = session.run_deck_text(c.good);
    ASSERT_TRUE(again["ok"].as_bool()) << again.dump(1);
    EXPECT_TRUE(again["topology"]["cache_hit"].as_bool());
  }
}

TEST(SimSession, AnalysesLeaveTheCircuitAsTheyFoundIt) {
  // One retune serves every analysis of a step point, so each analysis
  // must put back what it moves: .dc its swept source, .ac the input's AC
  // magnitude.  Analyses after them must read as they do alone: the .op,
  // and the .noise, which shares the .ac card's small-signal pass.
  const std::string circuit =
      "v1 in 0 dc 1 ac 1\nv2 b 0 0.5\nr1 in out 1k\nr2 b out 10k\n"
      "c1 out 0 1n\nd1 out 0\n.probe v(out) i(v1)\n";
  const std::string ac = ".ac dec 5 1k 10meg\n";
  const std::string noise = ".noise v(out) v2 dec 5 1k 10meg\n";
  const auto alone = [&](const std::string& analysis) {
    sp::SimSession session;
    const Json doc = session.run_deck_text(circuit + analysis);
    EXPECT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
    return doc["steps"].at(0)["analyses"].at(0).dump();
  };
  sp::SimSession session;
  const Json all = session.run_deck_text(circuit + ".dc v1 0 2 0.5\n" + ac +
                                         noise + ".op\n" + ac);
  ASSERT_TRUE(all["ok"].as_bool()) << all.dump(1);
  const Json& analyses = all["steps"].at(0)["analyses"];
  ASSERT_EQ(analyses.size(), 5u);
  EXPECT_EQ(analyses.at(2).dump(), alone(noise));
  EXPECT_EQ(analyses.at(3).dump(), alone(".op\n"));
  EXPECT_EQ(analyses.at(4).dump(), analyses.at(1).dump());
}

/// Column @p name of a rendered analysis table; empty when it has none.
std::vector<double> column(const Json& table, const std::string& name) {
  const Json& cols = table["columns"];
  std::vector<double> out;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (cols.at(c).as_string() != name) continue;
    for (std::size_t r = 0; r < table["rows"].size(); ++r) {
      out.push_back(table["rows"].at(r).at(c).as_double());
    }
  }
  return out;
}

TEST(SimSession, NoiseGainIsTheTransferFromItsInput) {
  // v1 carries the deck's AC magnitude, but the .noise input is v2: the
  // gain that refers the noise to v2 is v2's transfer alone, the .ac
  // response of the circuit in which only v2 carries `ac 1`.
  const std::string circuit = "r1 in out 1k\nr2 b out 10k\nc1 out 0 1n\n";
  sp::SimSession session;
  const Json noise = session.run_deck_text(
      "v1 in 0 dc 1 ac 1\nv2 b 0 dc 0.5\n" + circuit +
      ".noise v(out) v2 dec 1 1k 1meg\n");
  ASSERT_TRUE(noise["ok"].as_bool()) << noise.dump(1);
  const Json ac = session.run_deck_text("v1 in 0 dc 1\nv2 b 0 dc 0.5 ac 1\n" +
                                        circuit + ".ac dec 1 1k 1meg\n");
  ASSERT_TRUE(ac["ok"].as_bool()) << ac.dump(1);
  const std::vector<double> gain =
      column(noise["steps"].at(0)["analyses"].at(0)["table"], "gain_mag");
  const std::vector<double> mag =
      column(ac["steps"].at(0)["analyses"].at(0)["table"], "mag(out)");
  ASSERT_EQ(gain.size(), 4u);
  ASSERT_EQ(mag.size(), gain.size());
  for (std::size_t i = 0; i < gain.size(); ++i) {
    EXPECT_NEAR(gain[i], mag[i], 1e-12 * mag[i]) << "row " << i;
  }
  EXPECT_NEAR(gain[0], 1.0 / 11.0, 1e-4);  // R1 / (R1 + R2) at 1 kHz
}

TEST(SimSession, AcAndNoiseOnOneGridShareEachFactorization) {
  // One small-signal pass serves an .ac and a .noise card on one grid: one
  // point span, and so one factorization, per frequency.  The noise gain
  // is the .ac transfer of the same input.
  const std::string deck =
      "v1 in 0 dc 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n"
      ".ac dec 10 1k 1meg\n.noise v(out) v1 dec 10 1k 1meg\n";
  sp::SimSession session;
  carbon::obs::Tracer tracer;
  Json doc;
  {
    carbon::obs::TraceAttach attach(&tracer);
    doc = session.run_deck_text(deck);
  }
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  const Json& analyses = doc["steps"].at(0)["analyses"];
  const std::vector<double> mag = column(analyses.at(0)["table"], "mag(out)");
  const std::vector<double> gain =
      column(analyses.at(1)["table"], "gain_mag");
  ASSERT_EQ(mag.size(), 31u);
  ASSERT_EQ(gain.size(), mag.size());
  for (std::size_t i = 0; i < gain.size(); ++i) {
    EXPECT_NEAR(gain[i], mag[i], 1e-12 * mag[i]) << "row " << i;
  }

  const Json trace = Json::parse(tracer.chrome_json_text());
  const Json& events = trace["traceEvents"];
  std::size_t points = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string name = events.at(i)["name"].as_string();
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "-point") == 0) {
      ++points;
    }
  }
  EXPECT_EQ(points, mag.size());
}

/// @p doc without what depends on the session's history: the session
/// block, every solver stats block and the topology cache hit.
Json history_free(const Json& doc) {
  if (doc.is_array()) {
    auto out = Json::array();
    for (std::size_t i = 0; i < doc.size(); ++i) {
      out.push(history_free(doc.at(i)));
    }
    return out;
  }
  if (!doc.is_object()) return doc;
  auto out = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key == "session" || key == "stats" || key == "cache_hit") continue;
    out.set(key, history_free(value));
  }
  return out;
}

TEST(SimSession, DocumentsDoNotDependOnHistory) {
  // Each deck after a value variant of its topology, on one session, reads
  // as it does on a fresh session.
  std::string acceptance_variant = kAcceptanceDeck;
  acceptance_variant.replace(acceptance_variant.find("k=60u"), 5, "k=80u");
  const std::string rc =
      ".param r=1k\nvin in 0 pulse(0 1 1n 1n 1n 50n 100n) ac 1\n"
      "r1 in out {r}\nc1 out 0 1p\n.ac dec 10 1meg 10g\n"
      ".noise v(out) vin dec 10 1meg 10g\n.tran 0.1n 20n\n"
      ".measure ac f3db corner v(out)\n.measure tran vmax max v(out)\n";
  const std::string ring =
      ".param vdd=1.0 cl=5f\n"
      ".model nd alphan(vt=0.2 alpha=1.3 k=60u lambda=0.08)\n"
      ".model pd alphap(vt=0.2 alpha=1.3 k=60u lambda=0.08)\n"
      ".subckt inv in out vdd cl=5f v0=0\nmp out in vdd pd\n"
      "mn out in 0 nd\nc1 out 0 {cl} ic={v0}\n.ends\n"
      "vdd vdd 0 {vdd}\nx1 n1 n2 vdd inv cl={cl} v0={vdd}\n"
      "x2 n2 n3 vdd inv cl={cl}\nx3 n3 n1 vdd inv cl={cl}\n"
      ".tran 5p 2n ic=init\n.probe v(n1)\n"
      ".measure tran period period v(n1) vdd={vdd} skip=1\n"
      ".measure tran swing pp v(n1)\n";
  const struct {
    std::string deck, variant;
  } cases[] = {
      {kAcceptanceDeck, acceptance_variant},
      {rc, ".param r=2k\n" + rc.substr(rc.find('\n') + 1)},
      {ring, ".param vdd=0.8 cl=5f\n" + ring.substr(ring.find('\n') + 1)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.deck);
    sp::SimSession fresh;
    const Json alone = fresh.run_deck_text(c.deck);
    ASSERT_TRUE(alone["ok"].as_bool()) << alone.dump(1);
    sp::SimSession session;
    const Json variant = session.run_deck_text(c.variant);
    ASSERT_TRUE(variant["ok"].as_bool()) << variant.dump(1);
    const Json after = session.run_deck_text(c.deck);
    EXPECT_TRUE(after["topology"]["cache_hit"].as_bool());
    EXPECT_NE(history_free(variant).dump(), history_free(alone).dump());
    EXPECT_EQ(history_free(after).dump(), history_free(alone).dump());
  }
}

TEST(SimSession, FailedInstantiationLeavesNoCacheEntry) {
  // The first deck's model does not resolve, so instantiating it fails;
  // the second has the same topology and must instantiate afresh rather
  // than hit an entry the failed deck left half made.
  sp::ModelRegistry models;
  models["nfet"] = std::make_shared<carbon::device::AlphaPowerModel>(
      carbon::device::make_fig2_saturating_params());
  sp::SimSession session(models);
  const Json bad = session.run_deck_text("vdd d 0 1\nmn d d 0 mystery\n.op\n");
  ASSERT_FALSE(bad["ok"].as_bool());
  EXPECT_EQ(bad["error"]["type"].as_string(), "parse") << bad.dump(1);
  EXPECT_EQ(bad["error"]["line"].as_int(), 2);
  EXPECT_EQ(session.cache_entries(), 0u);

  const Json good = session.run_deck_text("vdd d 0 1\nmn d d 0 nfet\n.op\n");
  ASSERT_TRUE(good["ok"].as_bool()) << good.dump(1);
  EXPECT_FALSE(good["topology"]["cache_hit"].as_bool());
  EXPECT_EQ(session.cache_entries(), 1u);
}

TEST(SimSession, SolveFailureYieldsStructuredError) {
  // Two series diodes head-to-tail across a supply with no DC path for
  // the middle node: the ladder exhausts and reports a SolveFailure.
  sp::SimSession session;
  const Json doc = session.run_deck_text(
      "v1 a 0 1\n"
      "d1 a b is=1e-14\n"
      "d2 a b is=1e-14\n"
      ".op\n"
      ".end\n");
  if (!doc["ok"].as_bool()) {
    EXPECT_EQ(doc["error"]["type"].as_string(), "solve_failure");
    EXPECT_TRUE(doc["error"].find("stage") != nullptr) << doc.dump(1);
  }
  // (If the ladder happens to converge this still counts: the contract
  // under test is the error document's shape, asserted above.)
}

TEST(SimSession, MeasureFailuresAreNullNotFatal) {
  sp::SimSession session;
  const Json doc = session.run_deck_text(
      "v1 in 0 1\n"
      "r1 in out 1k\n"
      "r2 out 0 1k\n"
      "c1 out 0 1p\n"
      ".op\n"
      ".tran 10p 1n\n"
      ".measure op vout value v(out)\n"
      ".measure op vmissing value v(nosuchnode)\n"
      ".measure tran nocolumn max v(nosuch)\n"
      ".measure tran nowindow max v(out) from=2n to=3n\n"
      ".measure tran nocycles period v(out) mid=0.25\n"
      ".end\n");
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  const Json& step = doc["steps"].at(0);
  EXPECT_NEAR(step["measures"]["vout"].as_double(), 0.5, 1e-12);
  for (const char* m : {"vmissing", "nocolumn", "nowindow", "nocycles"}) {
    EXPECT_TRUE(step["measures"][m].is_null()) << m;
    EXPECT_TRUE(step["measure_errors"].find(m) != nullptr) << m;
  }
  EXPECT_NE(step["measure_errors"]["nocolumn"].as_string().find("v(nosuch)"),
            std::string::npos);
  // Client-visible text names the deck, never a server source file.
  EXPECT_EQ(doc.dump().find("/src/"), std::string::npos) << doc.dump(1);
}

TEST(SimSession, ProbeNoneSuppressesTables) {
  sp::SimSession session;
  const Json doc = session.run_deck_text(
      "v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n"
      ".op\n.probe none\n"
      ".measure op vout value v(out)\n.end\n");
  ASSERT_TRUE(doc["ok"].as_bool());
  const Json& op = doc["steps"].at(0)["analyses"].at(0);
  EXPECT_EQ(op.find("voltages"), nullptr);
  EXPECT_NEAR(doc["steps"].at(0)["measures"]["vout"].as_double(), 0.5,
              1e-12);
}

// A trivial divider with @p stages series resistors: each stage count is a
// distinct topology, so running several of them populates distinct cache
// entries.
std::string divider_deck(int stages) {
  std::string deck = "v1 n0 0 1\n";
  for (int i = 0; i < stages; ++i) {
    deck += "r" + std::to_string(i) + " n" + std::to_string(i) + " n" +
            std::to_string(i + 1) + " 1k\n";
  }
  deck += "rl n" + std::to_string(stages) + " 0 1k\n.op\n.probe none\n.end\n";
  return deck;
}

TEST(SimSession, TopologyCacheIsBoundedLru) {
  sp::SessionOptions opts;
  opts.cache_capacity = 2;
  sp::SimSession session(sp::ModelRegistry{}, opts);

  // Three distinct topologies through a capacity-2 cache: the oldest
  // entry (A) must be evicted.
  ASSERT_TRUE(session.run_deck_text(divider_deck(1))["ok"].as_bool());  // A
  ASSERT_TRUE(session.run_deck_text(divider_deck(2))["ok"].as_bool());  // B
  const Json c = session.run_deck_text(divider_deck(3));                // C
  ASSERT_TRUE(c["ok"].as_bool());
  EXPECT_EQ(c["session"]["cache_evictions"].as_int(), 1);
  EXPECT_EQ(session.cache_entries(), 2u);

  // B is still cached...
  EXPECT_TRUE(session.run_deck_text(divider_deck(2))["topology"]["cache_hit"]
                  .as_bool());
  // ...and that hit refreshed B's recency: inserting A again must evict
  // C, not B.
  ASSERT_TRUE(session.run_deck_text(divider_deck(1))["ok"].as_bool());
  const Json b = session.run_deck_text(divider_deck(2));
  EXPECT_TRUE(b["topology"]["cache_hit"].as_bool());
  const Json cc = session.run_deck_text(divider_deck(3));
  EXPECT_FALSE(cc["topology"]["cache_hit"].as_bool()) << "C was LRU";

  const sp::SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 5);  // A B C | A C reinserted after eviction
  EXPECT_EQ(stats.evictions, 3);
  // The same numbers are published in the response document.
  EXPECT_EQ(cc["session"]["cache_hits"].as_int(), 2);
  EXPECT_EQ(cc["session"]["cache_misses"].as_int(), 5);
  EXPECT_EQ(cc["session"]["cache_capacity"].as_int(), 2);
}

TEST(SimSession, TransientCountersDescribeOneRun) {
  // Repeated decks of one topology share the cached Newton workspace, whose
  // factor-skip count runs over its whole life.  Each .tran block must
  // count its own run only: three identical fixed-step runs, three equal
  // nonzero jacobian_reuses (the RC companion Jacobian repeats every step).
  sp::SimSession session;
  const char* deck =
      "vin in 0 pulse(0 1 1n 1n 1n 50n 100n)\nr1 in out 1k\nc1 out 0 1p\n"
      ".tran 0.1n 30n fixed=1\n.probe none\n.end\n";
  std::vector<std::int64_t> reuses;
  for (int run = 0; run < 3; ++run) {
    const Json doc = session.run_deck_text(deck);
    ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
    const Json& stats = doc["steps"].at(0)["analyses"].at(0)["stats"];
    EXPECT_EQ(stats["steps_accepted"].as_int(), 300);
    reuses.push_back(stats["jacobian_reuses"].as_int());
  }
  EXPECT_GT(reuses[0], 0);
  EXPECT_EQ(reuses[1], reuses[0]);
  EXPECT_EQ(reuses[2], reuses[0]);
}

TEST(SimSession, CoarseFixedGridKeepsItsStep) {
  // A fixed grid coarser than the auto dt_max (t_stop / 50) keeps its
  // step, and it lands on no source corner: ten 1 ns steps, although the
  // pulse has corners at 0.5 ns and 1.5 ns.
  sp::SimSession session;
  const Json doc = session.run_deck_text(
      "vin in 0 pulse(0 1 0.5n 1n 1n 50n 100n)\nr1 in out 1k\nc1 out 0 1p\n"
      ".tran 1n 10n fixed=1\n.end\n");
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  const Json& tran = doc["steps"].at(0)["analyses"].at(0);
  const Json& stats = tran["stats"];
  EXPECT_EQ(stats["steps_accepted"].as_int(), 10);
  EXPECT_EQ(stats["breakpoints_hit"].as_int(), 0);
  // The last step lands exactly on t_stop, so it may differ from 1 ns in
  // the last digits.
  EXPECT_NEAR(stats["dt_smallest"].as_double(), 1e-9, 1e-21);
  EXPECT_NEAR(stats["dt_largest"].as_double(), 1e-9, 1e-21);
  EXPECT_EQ(tran["table"]["num_rows"].as_int(), 11);
}

TEST(SimSession, ExpiredDeadlineRendersTimeoutDocument) {
  sp::SimSession session;
  carbon::phys::CancelToken token;
  token.set_deadline_after(0.0);  // fires immediately
  const Json doc = session.run_deck_text(divider_deck(1), &token);
  ASSERT_FALSE(doc["ok"].as_bool());
  EXPECT_EQ(doc["error"]["type"].as_string(), "timeout");
  EXPECT_TRUE(doc["error"].find("where") != nullptr) << doc.dump(1);
}

TEST(SimSession, ExplicitCancelRendersCancelledDocument) {
  sp::SimSession session;
  carbon::phys::CancelToken token;
  token.cancel();
  const Json doc = session.run_deck_text(divider_deck(1), &token);
  ASSERT_FALSE(doc["ok"].as_bool());
  EXPECT_EQ(doc["error"]["type"].as_string(), "cancelled");
}

// ---------------------------------------------------------------------------
// core::Json reader

TEST(SimSession, AcTablesKeepCurrentColumns) {
  // A probed source current is an .ac column like a node voltage.  v1
  // drives an RC low-pass, so |i(v1)| = wC / sqrt(1 + (wRC)^2).
  sp::SimSession session;
  const Json doc = session.run_deck_text(
      "v1 in 0 dc 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n.probe v(out) i(v1)\n"
      ".ac dec 1 1k 10k\n.measure ac iin max i(v1)\n");
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  const Json& step = doc["steps"].at(0);
  const Json& table = step["analyses"].at(0)["table"];
  const std::vector<double> f = column(table, "freq_hz");
  const std::vector<double> mag = column(table, "mag(i(v1))");
  ASSERT_EQ(f.size(), 2u);
  ASSERT_EQ(mag.size(), f.size());
  EXPECT_EQ(column(table, "phase_deg(i(v1))").size(), f.size());
  double peak = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double w = 2.0 * M_PI * f[i], rc = 1e3 * 1e-9;
    const double want = w * 1e-9 / std::sqrt(1.0 + (w * rc) * (w * rc));
    EXPECT_NEAR(mag[i], want, 1e-12 * want) << "row " << i;
    peak = std::max(peak, mag[i]);
  }
  EXPECT_EQ(step["measures"]["iin"].as_double(), peak) << doc.dump(1);
}

/// examples/decks/cnt_inverter_vtc.cir: a mirrored CNT inverter's VTC at
/// three supplies, one device table per supply.
constexpr const char* kCntVtcDeck = R"(.title cnt inverter vtc
.param vdd=0.6
.model ncnt cnfet(l=20n)
.model pcnt cpfet(l=20n)
vdd vdd 0 {vdd}
vin in 0 0
mp out in vdd pcnt
mn out in 0 ncnt
.dc vin 0 {vdd} {vdd/20}
.step param vdd list 0.3 0.45 0.6
.probe v(out)
.measure dc gain vtc v(in) v(out) vdd={vdd} metric=gain
.measure dc nml  vtc v(in) v(out) vdd={vdd} metric=nml
.measure dc nmh  vtc v(in) v(out) vdd={vdd} metric=nmh
.measure dc vswitch vtc v(in) v(out) vdd={vdd} metric=vswitch
.end
)";

/// A CNT NAND2 or NOR2 truth table at 0.45 V: a 2x2 .step grid of .op,
/// steps in the order (a, b) = 00, 01, 10, 11.
std::string cnt_gate_deck(bool nand) {
  return std::string(".param vdd=0.45 a=0 b=0\n"
                     ".model ncnt cnfet(l=20n)\n.model pcnt cpfet(l=20n)\n"
                     "vdd vdd 0 {vdd}\nva a 0 {a*vdd}\nvb b 0 {b*vdd}\n") +
         (nand ? "mpa out a vdd pcnt\nmpb out b vdd pcnt\n"
                 "mna out a mid ncnt\nmnb mid b 0 ncnt\n"
               : "mpa mid a vdd pcnt\nmpb out b mid pcnt\n"
                 "mna out a 0 ncnt\nmnb out b 0 ncnt\n") +
         ".op\n.step param a list 0 1\n.step param b list 0 1\n"
         ".measure op out value v(out)\n";
}

/// @p deck without its .model cards: its m-cards then name registry
/// entries.
std::string without_model_cards(const std::string& deck) {
  std::string out;
  std::size_t at = 0;
  while (at < deck.size()) {
    const std::size_t end = deck.find('\n', at);
    const std::string line = deck.substr(at, end - at + 1);
    if (line.rfind(".model", 0) != 0) out += line;
    at = end == std::string::npos ? deck.size() : end + 1;
  }
  return out;
}

TEST(SimSession, CntDecksMatchTheDirectModel) {
  // cnfet/cpfet cards compile the CNT-FET to a table over the deck's
  // supply; the reference evaluates the same self-consistent model
  // directly, through registry entries the m-cards name.
  const auto direct = std::make_shared<carbon::device::CntfetModel>(
      carbon::device::make_franklin_cntfet_params(20e-9));
  sp::ModelRegistry registry;
  registry["ncnt"] = direct;
  registry["pcnt"] = std::make_shared<carbon::device::PTypeMirror>(direct);
  sp::SimSession tabulated;
  sp::SimSession reference(registry);

  const Json tab = tabulated.run_deck_text(kCntVtcDeck);
  const Json ref = reference.run_deck_text(without_model_cards(kCntVtcDeck));
  ASSERT_TRUE(tab["ok"].as_bool()) << tab.dump(1);
  ASSERT_TRUE(ref["ok"].as_bool()) << ref.dump(1);
  const double supplies[] = {0.3, 0.45, 0.6};
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE("vdd " + std::to_string(supplies[s]));
    const Json& t = tab["steps"].at(s)["measures"];
    const Json& r = ref["steps"].at(s)["measures"];
    for (const char* m : {"gain", "nml", "nmh"}) {
      EXPECT_NEAR(t[m].as_double(), r[m].as_double(),
                  1e-3 * std::abs(r[m].as_double()))
          << m;
    }
    const double vswitch = t["vswitch"].as_double();
    EXPECT_NEAR(vswitch, r["vswitch"].as_double(), 1e-9);
    EXPECT_NEAR(vswitch, supplies[s] / 2, supplies[s] / 20);
  }

  const double vdd = 0.45;
  for (const bool nand : {true, false}) {
    const Json gt = tabulated.run_deck_text(cnt_gate_deck(nand));
    const Json gr =
        reference.run_deck_text(without_model_cards(cnt_gate_deck(nand)));
    ASSERT_TRUE(gt["ok"].as_bool()) << gt.dump(1);
    ASSERT_TRUE(gr["ok"].as_bool()) << gr.dump(1);
    for (int in = 0; in < 4; ++in) {
      SCOPED_TRACE((nand ? "nand2 " : "nor2 ") + std::to_string(in));
      const bool a = in & 2, b = in & 1;
      const bool high = nand ? !(a && b) : !(a || b);
      const double out = gt["steps"].at(in)["measures"]["out"].as_double();
      EXPECT_NEAR(out, gr["steps"].at(in)["measures"]["out"].as_double(),
                  1e-6 * vdd);
      EXPECT_NEAR(out, high ? vdd : 0.0, 0.01 * vdd);
    }
  }
}

// ---------------------------------------------------------- ModelStore

/// A diode-connected CNT-FET pair under @p vdd, its cards named @p n/@p p.
std::string cnt_pair_deck(const std::string& n, const std::string& p,
                          const std::string& l, const std::string& vdd) {
  return ".model " + n + " cnfet(l=" + l + ")\n.model " + p + " cpfet(l=" +
         l + ")\nvdd vdd 0 " + vdd + "\nmp mid mid vdd " + p +
         "\nmn mid mid 0 " + n + "\n.op\n";
}

TEST(ModelStore, OneBuildPerKeyAcrossSessionsTopologiesAndCardNames) {
  sp::ModelStore& store = sp::ModelStore::instance();
  const long builds0 = store.stats().builds;
  // Two topologies, two sessions, four card names, one model: ncnt and
  // pcnt share the n-type device and its table.
  const std::string first = cnt_pair_deck("na", "pa", "13.3n", "0.5");
  const std::string second =
      cnt_pair_deck("nx", "px", "13.3n", "0.5") + "c1 mid 0 1f\n";
  sp::SimSession one, two;
  for (sp::SimSession* session : {&one, &two}) {
    for (const std::string* deck : {&first, &second}) {
      const Json doc = session->run_deck_text(*deck);
      ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
    }
  }
  // One CNT-FET and its table.
  EXPECT_EQ(store.stats().builds - builds0, 2);
  // Another gate length is another model.
  const Json other =
      one.run_deck_text(cnt_pair_deck("na", "pa", "13.4n", "0.5"));
  ASSERT_TRUE(other["ok"].as_bool()) << other.dump(1);
  EXPECT_EQ(store.stats().builds - builds0, 4);
}

TEST(ModelStore, SteppedSupplyBuildsOneDeviceAndOneTablePerDistinctSpan) {
  sp::ModelStore& store = sp::ModelStore::instance();
  const long builds0 = store.stats().builds;
  sp::SimSession session;
  const auto pair = [&](const std::string& steps) {
    const Json doc = session.run_deck_text(
        cnt_pair_deck("n", "p", "14.1n", "{vdd}") + ".param vdd=0.31\n" +
        steps);
    ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  };
  // One CNT-FET and a table for each of the three supplies.
  pair(".step param vdd list 0.31 0.42 0.31 0.53\n");
  EXPECT_EQ(store.stats().builds - builds0, 1 + 3);
  // A fourth supply builds its table from the stored device.
  pair(".step param vdd list 0.42 0.64\n");
  EXPECT_EQ(store.stats().builds - builds0, 1 + 4);
}

/// A registry whose entries "n" and "p" evaluate the CNT-FET of @p params
/// directly: the reference for decks whose .model cards tabulate it.
sp::ModelRegistry direct_cnt_registry(
    const carbon::device::CntfetParams& params) {
  const auto n = std::make_shared<carbon::device::CntfetModel>(params);
  sp::ModelRegistry registry;
  registry["n"] = n;
  registry["p"] = std::make_shared<carbon::device::PTypeMirror>(n);
  return registry;
}

/// The first step of @p circuit, run with @p cards prepended in @p session.
Json first_step(sp::SimSession& session, const std::string& cards,
                const std::string& circuit) {
  const Json doc = session.run_deck_text(cards + circuit);
  EXPECT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  return doc["steps"].at(0);
}

TEST(ModelStore, CntTablesCoverEveryDeck) {
  // Each deck runs on the tables of its .model cards and on the direct
  // model, through registry entries its m-cards name.
  const auto params = carbon::device::make_franklin_cntfet_params(15.5e-9);
  sp::SimSession session;
  sp::SimSession reference(direct_cnt_registry(params));
  const std::string cards =
      ".model n cnfet(l=15.5n)\n.model p cpfet(l=15.5n)\n";
  const auto measure = [&](const std::string& circuit, const char* m) {
    return std::make_pair(
        first_step(session, cards, circuit)["measures"][m].as_double(),
        first_step(reference, "", circuit)["measures"][m].as_double());
  };
  const auto sweep = [&](const std::string& circuit, const char* col) {
    return std::make_pair(
        column(first_step(session, cards, circuit)["analyses"].at(0)["table"],
               col),
        column(first_step(reference, "", circuit)["analyses"].at(0)["table"],
               col));
  };

  // A current source bounds no potential: its deck evaluates the direct
  // model, here at 0.36 V across a diode-connected device.
  const auto [vd, vd_direct] =
      measure("i1 0 d 1u\nmn d d 0 n\n.op\n.measure op vd value v(d)\n", "vd");
  EXPECT_GT(vd_direct, 0.3);
  EXPECT_EQ(vd, vd_direct);

  // Split rails: the devices see 0.6 V from 0.3 V sources.
  const auto [vtc, vtc_direct] = sweep(
      "vdd vdd 0 0.3\nvss vss 0 -0.3\nvin in 0 0\nmp out in vdd p\n"
      "mn out in vss n\n.dc vin -0.3 0.3 0.03\n.probe v(out)\n",
      "v(out)");
  ASSERT_EQ(vtc.size(), 21u);
  ASSERT_EQ(vtc_direct.size(), vtc.size());
  EXPECT_NEAR(vtc_direct.front(), 0.3, 1e-3);
  EXPECT_NEAR(vtc_direct.back(), -0.3, 1e-3);
  for (std::size_t i = 0; i < vtc.size(); ++i) {
    EXPECT_NEAR(vtc[i], vtc_direct[i], 1e-4 * 0.6) << "row " << i;
  }

  // Stacked sources: a NAND2 whose supply and high input reach 0.45 V
  // through two 0.225 V sources.  Its inner node x is held by leakage
  // currents, where the table is good to about 1e-4 relative; the output
  // is on the rail.
  const std::string nand =
      "v1 half 0 0.225\nv2 vdd half 0.225\nva a half 0.225\nvb b 0 0\n"
      "mpa out a vdd p\nmpb out b vdd p\nmna out a x n\nmnb x b 0 n\n.op\n"
      ".measure op out value v(out)\n.measure op x value v(x)\n";
  const auto [out, out_direct] = measure(nand, "out");
  const auto [x, x_direct] = measure(nand, "x");
  EXPECT_GT(x_direct, 0.4);
  EXPECT_NEAR(out, out_direct, 1e-6 * 0.45);
  EXPECT_NEAR(x, x_direct, 1e-4 * 0.45);

  // A gate 0.3 V below both source and drain: the off current keeps the
  // direct model's sign and size.
  const auto [off, off_direct] =
      measure("vd d 0 0.6\nvs s 0 0.3\nvg g 0 0\nmn d g s n\n.op\n"
              ".measure op id value i(vd)\n",
              "id");
  EXPECT_NE(off_direct, 0.0);
  EXPECT_NEAR(off, off_direct, 0.01 * std::abs(off_direct));

  // A .dc sweep takes the gate to 0.6 V past its 0 V value, and the
  // device pulls its 100 kOhm load from the 0.3 V rail down to 20 mV.
  const auto [load, load_direct] =
      sweep("vdd vdd 0 0.3\nrl vdd d 100k\nvg g 0 0\nmn d g 0 n\n"
            ".dc vg 0 0.6 0.3\n.probe v(d)\n",
            "v(d)");
  ASSERT_EQ(load.size(), 3u);
  ASSERT_EQ(load_direct.size(), load.size());
  EXPECT_LT(load_direct.back(), 0.05);
  for (std::size_t i = 0; i < load.size(); ++i) {
    EXPECT_NEAR(load[i], load_direct[i], 1e-4 * 0.3) << "row " << i;
  }

  // An initial condition starts the output at 0.6 V, above the 0.3 V
  // supply, and the on n-FET discharges it.
  const auto [early, early_direct] =
      measure("vdd vdd 0 0.3\nvin in 0 0.3\nmp out in vdd p\nmn out in 0 n\n"
              "c1 out 0 1f ic=0.6\n.tran 10p 1n ic=init\n.probe none\n"
              ".measure tran early find v(out) at=0.5n\n",
              "early");
  EXPECT_GT(early_direct, 0.35);
  EXPECT_LT(early_direct, 0.55);
  EXPECT_NEAR(early, early_direct, 1e-4 * 0.6);

  // A source between two nodes no source ties to ground lifts the gate to
  // 0.45 V above a 0.15 V divider tap.
  const auto [lifted, lifted_direct] =
      measure("vdd vdd 0 0.3\nr1 vdd tap 1k\nr2 tap 0 1k\nvx in tap 0.3\n"
              "vd d 0 0.3\nmn d in 0 n\n.op\n.measure op id value i(vd)\n",
              "id");
  EXPECT_GT(std::abs(lifted_direct), 1e-6);
  EXPECT_NEAR(lifted, lifted_direct, 1e-3 * std::abs(lifted_direct));

  // Unequal contacts break the source/drain symmetry the mirror assumes:
  // the table spans reverse bias and follows the direct model there.
  carbon::device::CntfetParams asym = params;
  asym.r_source_ohm = 5e3;
  sp::SimSession asym_reference(direct_cnt_registry(asym));
  const std::string reverse =
      "vd d 0 0.4\nvg g 0 0.45\nmn 0 g d n\n.op\n"
      ".measure op id value i(vd)\n";
  const double rev_direct =
      first_step(asym_reference, "", reverse)["measures"]["id"].as_double();
  EXPECT_GT(std::abs(rev_direct), 1e-7);
  EXPECT_NEAR(first_step(session, ".model n cnfet(l=15.5n rs=5k)\n",
                         reverse)["measures"]["id"]
                  .as_double(),
              rev_direct, 0.01 * std::abs(rev_direct));
}

TEST(ModelStore, EvictsTheLeastRecentlyUsedAndCircuitsKeepTheirModels) {
  sp::ModelStore& store = sp::ModelStore::instance();
  const auto deck = [](int i) {
    return sp::parse_deck(".model n alphan(vt=" +
                          std::to_string(0.1 + 1e-4 * i) +
                          ")\nv1 d 0 1\nmn d d 0 n\n");
  };
  const sp::ModelStoreStats s0 = store.stats();
  // The first key's circuit outlives its store entry.
  sp::ModelMemo memo;
  const auto held = sp::instantiate(deck(0), {}, {}, &memo);
  ASSERT_EQ(memo.size(), 1u);
  const std::weak_ptr<const carbon::device::IDeviceModel> model =
      memo.begin()->second;
  memo.clear();
  for (int i = 1; i <= sp::kModelStoreCapacity; ++i) {
    sp::instantiate(deck(i), {});
  }
  // kModelStoreCapacity + 1 new keys: the entries there were before, and
  // the first new key, made room.
  const sp::ModelStoreStats s1 = store.stats();
  EXPECT_EQ(s1.builds - s0.builds, sp::kModelStoreCapacity + 1);
  EXPECT_EQ(s1.evictions - s0.evictions, s0.entries + 1);
  EXPECT_EQ(s1.entries, sp::kModelStoreCapacity);
  ASSERT_FALSE(model.expired());
  const sp::Solution sol = sp::operating_point(*held);
  EXPECT_GT(sp::node_voltage(*held, sol, "d"), 0.99);
  // The newest keys stay: the last one is a hit, not a build.
  sp::instantiate(deck(sp::kModelStoreCapacity), {});
  EXPECT_EQ(store.stats().builds, s1.builds);
}

TEST(JsonParse, RoundTripsSessionDocuments) {
  sp::SimSession session;
  const Json doc = session.run_deck_text(kAcceptanceDeck);
  const std::string text = doc.dump();
  const Json back = Json::parse(text);
  // Re-serializing the parse must reproduce the text exactly (ordered
  // objects, %.17g doubles).
  EXPECT_EQ(back.dump(), text);
  EXPECT_EQ(back["steps"].size(), 3u);
  EXPECT_NEAR(back["steps"].at(0)["measures"]["gain"].as_double(),
              doc["steps"].at(0)["measures"]["gain"].as_double(), 0.0);
}

TEST(JsonParse, ScalarsAndEscapes) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_TRUE(Json::parse("-42").is_int());
  EXPECT_DOUBLE_EQ(Json::parse("6.02e23").as_double(), 6.02e23);
  EXPECT_FALSE(Json::parse("6.02e23").is_int());
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"")").as_string(), "a\nb\t\"q\"");
  EXPECT_EQ(Json::parse(R"("\u00e9\u20ac")").as_string(), "\xc3\xa9\xe2\x82\xac");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_TRUE(Json::parse("[1, 2, 3]").is_array());
  EXPECT_EQ(Json::parse("[1, 2, 3]").size(), 3u);
  EXPECT_EQ(Json::parse(R"({"a": {"b": [false]}})")["a"]["b"].at(0).as_bool(),
            false);
}

TEST(JsonParse, MalformedDocumentsThrow) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "01",
        "{\"a\":1,}", "[1 2]", "\"\\ud83d\"", "nully", "1 2"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
}

}  // namespace
