// SimSession: deck-in -> JSON-out dispatch, per-step measures, the
// topology cache (symbolic analysis once per topology across .step
// points and repeated decks), structured error documents, and the
// core::Json reader that everything round-trips through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "device/alpha_power.h"
#include "phys/cancel.h"
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

TEST(SimSession, MalformedDeckYieldsStructuredError) {
  struct Case {
    const char* deck;
    int line;
    const char* line_text;
    const char* reason;
  };
  const Case cases[] = {
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
  };
  for (const Case& c : cases) {
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
      ".op\n"
      ".measure op vout value v(out)\n"
      ".measure op vmissing value v(nosuchnode)\n"
      ".end\n");
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump(1);
  const Json& step = doc["steps"].at(0);
  EXPECT_NEAR(step["measures"]["vout"].as_double(), 0.5, 1e-12);
  EXPECT_TRUE(step["measures"]["vmissing"].is_null());
  EXPECT_TRUE(step["measure_errors"].find("vmissing") != nullptr);
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
