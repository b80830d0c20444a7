// SPICE-deck parser: numbers with engineering suffixes, element cards,
// sources with waveforms, model registry resolution, and error reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "device/alpha_power.h"
#include "spice/ac.h"
#include "spice/analyses.h"
#include "spice/netlist_parser.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;

TEST(SpiceNumber, PlainAndSuffixed) {
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("2.5k"), 2500.0);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("10f"), 1e-14);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("1u"), 1e-6);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("7p"), 7e-12);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("2m"), 2e-3);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("1e-3"), 1e-3);
}

TEST(SpiceNumber, UnitTailsAccepted) {
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("10kohm"), 10e3);
  EXPECT_DOUBLE_EQ(sp::parse_spice_number("100nF"), 100e-9);
}

TEST(SpiceNumber, GarbageRejected) {
  EXPECT_THROW(sp::parse_spice_number("abc"), sp::ParseError);
  EXPECT_THROW(sp::parse_spice_number("1.5x"), sp::ParseError);
}

TEST(Parser, ResistorDividerSolves) {
  const auto ckt = sp::parse_netlist(R"(
* a comment
v1 a 0 10
r1 a b 2k
r2 b 0 3k
)");
  const auto sol = sp::operating_point(*ckt);
  EXPECT_NEAR(sp::node_voltage(*ckt, sol, "b"), 6.0, 1e-9);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  const auto ckt = sp::parse_netlist(
      "* header\n\n# hash comment\nr1 a 0 1k ; trailing comment\n");
  EXPECT_EQ(ckt->num_nodes(), 1);
}

TEST(Parser, PulseSourceParsed) {
  const auto ckt = sp::parse_netlist(
      "v1 in 0 PULSE(0 1 1n 10p 10p 2n 4n)\nr1 in 0 1k\n");
  sp::TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 1e-11;
  const auto tr = sp::transient(*ckt, opt, {"in"});
  // Before delay: 0; after rise: 1.
  EXPECT_NEAR(tr.at(0, 1), 0.0, 1e-9);
  EXPECT_NEAR(tr.at(tr.num_rows() - 1, 1), 1.0, 1e-6);
}

TEST(Parser, SinAndPwlParsed) {
  EXPECT_NO_THROW(sp::parse_netlist(
      "v1 a 0 SIN(0.5 0.5 1meg)\nv2 b 0 PWL(0 0 1u 1)\nr1 a b 1k\n"));
}

TEST(Parser, DiodeOptionsParsed) {
  const auto ckt = sp::parse_netlist(
      "v1 a 0 5\nr1 a d 1k\nd1 d 0 is=1e-14 n=1.2\n");
  const auto sol = sp::operating_point(*ckt);
  const double vd = sp::node_voltage(*ckt, sol, "d");
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 1.0);
}

TEST(Parser, FetFromModelRegistry) {
  sp::ModelRegistry models;
  models["nfet"] = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  models["pfet"] = std::make_shared<dev::PTypeMirror>(
      std::static_pointer_cast<const dev::IDeviceModel>(models["nfet"]));
  const auto ckt = sp::parse_netlist(R"(
vdd vdd 0 1.0
vin in  0 0.5
mn  out in 0   nfet
mp  out in vdd pfet
c1  out 0 10f
)", models);
  const auto sol = sp::operating_point(*ckt);
  const double vout = sp::node_voltage(*ckt, sol, "out");
  EXPECT_GT(vout, 0.0);
  EXPECT_LT(vout, 1.0);
}

TEST(Parser, FetMultiplierOption) {
  sp::ModelRegistry models;
  models["nfet"] = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  const auto ckt1 = sp::parse_netlist(
      "vd d 0 0.5\nvg g 0 1.0\nmn d g 0 nfet\n", models);
  const auto ckt2 = sp::parse_netlist(
      "vd d 0 0.5\nvg g 0 1.0\nmn d g 0 nfet m=3\n", models);
  const auto s1 = sp::operating_point(*ckt1);
  const auto s2 = sp::operating_point(*ckt2);
  const auto* vd1 = dynamic_cast<sp::VSource*>(ckt1->elements()[0].get());
  const auto* vd2 = dynamic_cast<sp::VSource*>(ckt2->elements()[0].get());
  const double i1 = sp::vsource_current(*ckt1, s1, *vd1);
  const double i2 = sp::vsource_current(*ckt2, s2, *vd2);
  EXPECT_NEAR(i2 / i1, 3.0, 1e-6);
}

TEST(Parser, UnknownModelIsAnError) {
  EXPECT_THROW(sp::parse_netlist("mn d g 0 mystery\n"), sp::ParseError);
}

TEST(Parser, MalformedCardsReportLineNumbers) {
  try {
    sp::parse_netlist("r1 a 0 1k\nr2 a\n");
    FAIL() << "expected ParseError";
  } catch (const sp::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, UnknownElementKindRejected) {
  EXPECT_THROW(sp::parse_netlist("q1 a b c\n"), sp::ParseError);
}

TEST(Parser, CapacitorInitialCondition) {
  const auto ckt = sp::parse_netlist("c1 a 0 1n ic=0.5\nr1 a 0 1k\n");
  sp::TransientOptions opt;
  opt.t_stop = 1e-8;
  opt.dt = 1e-10;
  const auto tr = sp::transient(*ckt, opt, {"a"});
  // The cap starts charged at 0.5 V... after the DC OP it discharges;
  // the IC applies to transient state. First recorded row is the DC OP
  // (0 V since the cap is open in DC); just check the run completes.
  EXPECT_GT(tr.num_rows(), 10);
}

TEST(Parser, DotCardsIgnored) {
  EXPECT_NO_THROW(sp::parse_netlist(".tran 1n 10n\nr1 a 0 1k\n.end\n"));
}

// ---------------------------------------------------------------------------
// parse_spice_number edge cases (table-driven)

TEST(SpiceNumber, SuffixTable) {
  const struct {
    const char* token;
    double expect;
  } kGood[] = {
      {"1e3k", 1e6},        // exponent then suffix
      {"5mil", 127e-6},     // mil, not milli + "il" tail
      {"3MEG", 3e6},        // case-insensitive meg, not milli
      {"2.5K", 2500.0},
      {"1T", 1e12},
      {"4a", 4e-18},
      {"-2u", -2e-6},
      {"+.5m", 0.5e-3},
      {"1E-3", 1e-3},
      {"100pF", 100e-12},   // suffix + unit tail
      {"50mv", 50e-3},
      {"1megohm", 1e6},
  };
  for (const auto& c : kGood) {
    EXPECT_DOUBLE_EQ(sp::parse_spice_number(c.token), c.expect) << c.token;
  }
  const char* kBad[] = {
      "inf", "nan", "-inf", "0x10",  // stod would take these
      "1k5", "10k!", "1.2.3", "e3", "5 ", " 5", "", "--1", "1e",
  };
  for (const char* token : kBad) {
    EXPECT_THROW(sp::parse_spice_number(token), sp::ParseError) << token;
  }
}

// ---------------------------------------------------------------------------
// structured error reporting: every card family names its line

/// @p instantiate routes the deck through parse_netlist: parse_deck reads
/// cards without evaluating values, so value errors surface from
/// instantiate().
void expect_parse_error(const std::string& deck, int line,
                        const std::string& needle, bool instantiate = false) {
  try {
    if (instantiate) {
      sp::parse_netlist(deck);
    } else {
      sp::parse_deck(deck);
    }
    FAIL() << "expected ParseError for: " << needle;
  } catch (const sp::ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_FALSE(e.line_text().empty()) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ParserErrors, EveryCardFamilyNamesItsLine) {
  expect_parse_error("r1 a 0 1k\nr2 a\n", 2, "R wants");
  expect_parse_error("v1 a 0\n", 1, "V wants");
  expect_parse_error("r1 a 0 1k\nc1 a\n", 2, "C wants");
  expect_parse_error("d1 a\n", 1, "D wants");
  expect_parse_error("m1 d g\n", 1, "M wants");
  expect_parse_error("r1 a 0 1k\nx1 a inv\n", 2, "unknown subcircuit");
  expect_parse_error("r1 a 0 bogus\n", 1, "bogus", true);
  expect_parse_error(".param x=\n", 1, "param");
  expect_parse_error(".step param v 1 2\n", 1, ".step");
  expect_parse_error(".model m1 nosuchtype(k=1)\nr1 a 0 1\n", 1,
                     "unknown .model type");
  expect_parse_error(".dc v1 0 1\nr1 a 0 1\nv1 a 0 1\n", 1, ".dc");
  expect_parse_error(".tran 1n\n", 1, ".tran");
  expect_parse_error(".ac dec 10 1\n", 1, ".ac");
  expect_parse_error(".noise v(out) v1\n", 1, ".noise");
  expect_parse_error(".measure tran\n", 1, ".measure");
  expect_parse_error(".subckt inv in out\nr1 in out 1k\n", 1, "never closed");
  expect_parse_error(".bogus 1 2\n", 1, "unknown");
  expect_parse_error("r1 a 0 1k extra\n", 1, "expected key=value");
}

TEST(Deck, ProbeNoiseAndMeasureShareOneSignalGrammar) {
  const sp::Deck deck = sp::parse_deck(
      "v1 in 0 1\nr1 in b 1k\nc1 b 0 1p\n.probe v( B ) I(V1) in\n"
      ".noise v( b ) v1 dec 1 1 10\n"
      ".measure tran d delay v( In ) b vdd=1 rise\n"
      ".measure tran e energy I( v1 ) vdd=1\n");
  ASSERT_EQ(deck.probe_nodes.size(), 2u);
  EXPECT_EQ(deck.probe_nodes[0].name, "b");
  EXPECT_EQ(deck.probe_nodes[1].name, "in");
  ASSERT_EQ(deck.probe_currents.size(), 1u);
  EXPECT_EQ(deck.probe_currents[0].name, "v1");
  EXPECT_EQ(deck.analyses.at(0).output, "b");
  ASSERT_EQ(deck.measures.size(), 2u);
  const std::vector<sp::Signal>& d = deck.measures[0].signals;
  ASSERT_EQ(d.size(), 2u);
  EXPECT_FALSE(d[0].current);
  EXPECT_EQ(d[0].name, "in");
  EXPECT_FALSE(d[1].current);
  EXPECT_EQ(d[1].name, "b");
  const std::vector<sp::Signal>& e = deck.measures[1].signals;
  ASSERT_EQ(e.size(), 1u);
  EXPECT_TRUE(e[0].current);
  EXPECT_EQ(e[0].name, "v1");
}

TEST(ParserErrors, MalformedSignalsNameTheirCard) {
  const std::string circuit = "v1 a 0 1\nr1 a b 1k\nc1 b 0 1p\n";
  for (const char* sig : {"v(a,b)", "x(b)", "v()", "v(b", "vb)", "i(v1 v2)"}) {
    SCOPED_TRACE(sig);
    expect_parse_error(circuit + ".probe " + sig + "\n", 4, ".probe wants");
    expect_parse_error(circuit + ".measure tran m max " + sig + "\n", 4,
                       ".measure wants");
    // An unbalanced bracket swallows the rest of the card into one token.
    expect_parse_error(circuit + ".noise " + sig + " v1 dec 1 1 10\n", 4,
                       ".noise");
  }
  expect_parse_error(circuit + ".noise i(v1) v1 dec 1 1 10\n", 4,
                     ".noise output must be v(<node>)");
}

TEST(ParserErrors, ExpressionErrorsNameTheCardLine) {
  expect_parse_error("r1 a 0 {1k +}\n", 1, "expression", true);
  expect_parse_error("r1 a 0 {nope*2}\n", 1, "nope", true);
}

// ---------------------------------------------------------------------------
// parameters, scopes, steps

TEST(Deck, ParamExpressionsResolveInOrder) {
  const auto deck = sp::parse_deck(
      ".param a=2k b={a*2} c={sqrt(b/a)}\n"
      "r1 n 0 {b}\n"
      "v1 n 0 {c}\n");
  const auto envs = sp::expand_steps(deck);
  ASSERT_EQ(envs.size(), 1u);
  const auto ckt = sp::instantiate(deck, {}, envs[0]);
  const auto sol = sp::operating_point(*ckt);
  EXPECT_NEAR(sp::node_voltage(*ckt, sol, "n"), std::sqrt(2.0), 1e-12);
}

TEST(Deck, StepGridIsCartesianLastVariesFastest) {
  const auto deck = sp::parse_deck(
      ".param a=1 b=1\n"
      "r1 n 0 1k\n"
      ".step param a 1 2 1\n"
      ".step param b list 10 20 30\n");
  const auto envs = sp::expand_steps(deck);
  ASSERT_EQ(envs.size(), 6u);
  EXPECT_DOUBLE_EQ(envs[0].at("a"), 1.0);
  EXPECT_DOUBLE_EQ(envs[0].at("b"), 10.0);
  EXPECT_DOUBLE_EQ(envs[1].at("b"), 20.0);
  EXPECT_DOUBLE_EQ(envs[3].at("a"), 2.0);
  EXPECT_DOUBLE_EQ(envs[5].at("b"), 30.0);
}

TEST(Deck, RetuneMatchesReinstantiation) {
  const auto deck = sp::parse_deck(
      ".param rr=1k\n"
      "v1 a 0 1\n"
      "r1 a b {rr}\n"
      "r2 b 0 {2*rr}\n");
  // Retune the base circuit to rr=3k and compare against a fresh build.
  auto tuned = sp::instantiate(deck, {}, {});
  sp::retune(deck, {}, {{"rr", 3000.0}}, *tuned);
  const auto fresh = sp::instantiate(deck, {}, {{"rr", 3000.0}});
  const auto s1 = sp::operating_point(*tuned);
  const auto s2 = sp::operating_point(*fresh);
  EXPECT_NEAR(sp::node_voltage(*tuned, s1, "b"),
              sp::node_voltage(*fresh, s2, "b"), 1e-15);
}

TEST(Deck, TopologyHashIgnoresValues) {
  const auto d1 = sp::parse_deck(".param rr=1k\nr1 a 0 {rr}\nv1 a 0 1\n");
  const auto d2 = sp::parse_deck(".param rr=9k\nr1 a 0 {rr}\nv1 a 0 2\n");
  const auto d3 = sp::parse_deck(".param rr=1k\nr1 a b {rr}\nv1 b 0 1\n");
  EXPECT_EQ(d1.topology_hash, d2.topology_hash);
  EXPECT_NE(d1.topology_hash, d3.topology_hash);
}

// ---------------------------------------------------------------------------
// hierarchy: flattened subcircuits must match the hand-flattened deck

constexpr const char* kModels =
    ".model ndev alphan(vt=0.2 alpha=1.3 k=60u lambda=0.08)\n"
    ".model pdev alphap(vt=0.2 alpha=1.3 k=60u lambda=0.08)\n";

const std::string kHierDeck = std::string(kModels) +
    ".param vdd=1.0 cl=10f\n"
    ".subckt inv in out vdd cl=10f\n"
    "mp out in vdd pdev\n"
    "mn out in 0   ndev\n"
    "cld out 0 {cl}\n"
    ".ends\n"
    "vdd vdd 0 {vdd}\n"
    "vin in  0 PULSE(0 {vdd} 0.1n 10p 10p 1n 2n) ac 1\n"
    "x1 in  m1  vdd inv cl={2*cl}\n"
    "x2 m1  out vdd inv\n";

const std::string kFlatDeck = std::string(kModels) +
    ".param vdd=1.0 cl=10f\n"
    "vdd vdd 0 {vdd}\n"
    "vin in  0 PULSE(0 {vdd} 0.1n 10p 10p 1n 2n) ac 1\n"
    "mp1  m1  in vdd pdev\n"
    "mn1  m1  in 0   ndev\n"
    "cld1 m1  0  {2*cl}\n"
    "mp2  out m1 vdd pdev\n"
    "mn2  out m1 0   ndev\n"
    "cld2 out 0  {cl}\n";

TEST(Hierarchy, FlattenedOpMatchesHandFlattened) {
  const auto hier = sp::parse_netlist(kHierDeck);
  const auto flat = sp::parse_netlist(kFlatDeck);
  const auto sh = sp::operating_point(*hier);
  const auto sf = sp::operating_point(*flat);
  for (const char* node : {"in", "m1", "out"}) {
    EXPECT_NEAR(sp::node_voltage(*hier, sh, node),
                sp::node_voltage(*flat, sf, node), 1e-12)
        << node;
  }
}

TEST(Hierarchy, FlattenedTransientMatchesHandFlattened) {
  const auto hier = sp::parse_netlist(kHierDeck);
  const auto flat = sp::parse_netlist(kFlatDeck);
  sp::TransientOptions opt;
  opt.t_stop = 0.5e-9;
  opt.dt = 5e-12;
  opt.adaptive = false;
  const auto th = sp::transient(*hier, opt, {"out"});
  const auto tf = sp::transient(*flat, opt, {"out"});
  ASSERT_EQ(th.num_rows(), tf.num_rows());
  for (int r = 0; r < th.num_rows(); ++r) {
    ASSERT_NEAR(th.at(r, 1), tf.at(r, 1), 1e-12) << "row " << r;
  }
}

TEST(Hierarchy, FlattenedAcMatchesHandFlattened) {
  const auto hier = sp::parse_netlist(kHierDeck);
  const auto flat = sp::parse_netlist(kFlatDeck);
  auto* in_h = dynamic_cast<sp::VSource*>(hier->elements()[1].get());
  auto* in_f = dynamic_cast<sp::VSource*>(flat->elements()[1].get());
  ASSERT_NE(in_h, nullptr);
  ASSERT_NE(in_f, nullptr);
  sp::AcOptions opt;
  opt.f_start_hz = 1e6;
  opt.f_stop_hz = 1e9;
  opt.points_per_decade = 5;
  const auto ah = sp::ac_sweep(*hier, *in_h, {"out"}, opt);
  const auto af = sp::ac_sweep(*flat, *in_f, {"out"}, opt);
  ASSERT_EQ(ah.num_rows(), af.num_rows());
  for (int r = 0; r < ah.num_rows(); ++r) {
    ASSERT_NEAR(ah.at(r, 1), af.at(r, 1),
                1e-12 * std::max(1.0, std::abs(af.at(r, 1))))
        << "row " << r;
  }
}

TEST(Hierarchy, InstanceParamOverridesReachTheElements) {
  // x1 overrides cl -> its load cap doubles; x2 keeps the default.
  const auto deck = sp::parse_deck(kHierDeck);
  double c1 = 0.0, c2 = 0.0;
  for (const auto& card : deck.elements) {
    if (card.name == "x1.cld") c1 = 1.0;
    if (card.name == "x2.cld") c2 = 1.0;
  }
  EXPECT_EQ(c1, 1.0);
  EXPECT_EQ(c2, 1.0);
  const auto ckt = sp::instantiate(deck, {});
  const sp::Capacitor* cap1 = nullptr;
  const sp::Capacitor* cap2 = nullptr;
  for (const auto& el : ckt->elements()) {
    if (el->name() == "x1.cld")
      cap1 = dynamic_cast<const sp::Capacitor*>(el.get());
    if (el->name() == "x2.cld")
      cap2 = dynamic_cast<const sp::Capacitor*>(el.get());
  }
  ASSERT_NE(cap1, nullptr);
  ASSERT_NE(cap2, nullptr);
  EXPECT_NEAR(cap1->capacitance(), 20e-15, 1e-20);
  EXPECT_NEAR(cap2->capacitance(), 10e-15, 1e-20);
}

TEST(Hierarchy, NestedSubcircuitsFlatten) {
  const auto ckt = sp::parse_netlist(
      ".subckt half a b\nr1 a b 1k\n.ends\n"
      ".subckt full a b\nxh1 a m half\nxh2 m b half\n.ends\n"
      "v1 top 0 1\nxf top 0 full\n");
  const auto sol = sp::operating_point(*ckt);
  // Midpoint of the internal divider: xf.m at 0.5 V.
  EXPECT_NEAR(sp::node_voltage(*ckt, sol, "xf.m"), 0.5, 1e-12);
}

}  // namespace
