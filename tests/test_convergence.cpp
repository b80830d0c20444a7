// Convergence robustness: the escalation ladder (Newton -> gmin ramp ->
// source stepping -> pseudo-transient continuation), structured failure
// diagnostics on pathological decks, the cold ring-oscillator operating
// points the seed engine could not crack without a VDD power-up ramp, and
// cancellation, which the ladder must never swallow as a failed rung.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuit/cells.h"
#include "circuit/sram.h"
#include "device/alpha_power.h"
#include "device/faulty.h"
#include "device/ivmodel.h"
#include "phys/cancel.h"
#include "spice/analyses.h"
#include "spice/circuit.h"
#include "spice/netlist_parser.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
namespace cc = carbon::circuit;
namespace phys = carbon::phys;

using Cause = sp::SolveFailure::Cause;

sp::SolverOptions newton_only() {
  sp::SolverOptions o;
  o.allow_gmin_stepping = false;
  o.allow_source_stepping = false;
  o.allow_pseudo_transient = false;
  return o;
}

std::shared_ptr<dev::AlphaPowerModel> fig2_model() {
  return std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
}

/// Capture the SolveFailure a deck must produce.  Fails the test (and
/// returns a default-constructed report) when the solve unexpectedly
/// succeeds.
sp::SolveFailure expect_failure(sp::Circuit& ckt, const sp::SolverOptions& o,
                                const std::vector<double>* x0 = nullptr) {
  try {
    sp::operating_point(ckt, o, x0);
  } catch (const sp::SolveFailureError& e) {
    return e.failure();
  }
  ADD_FAILURE() << "operating_point unexpectedly converged";
  return {};
}

/// A rendered ladder block names the winning stage twice, as `stage` and
/// as the used_* flags; the two must agree.
void expect_flags_match_stage(const carbon::core::Json& ladder) {
  const std::string stage = ladder["stage"].as_string();
  EXPECT_EQ(ladder["used_gmin_stepping"].as_bool(), stage == "gmin-stepping")
      << ladder.dump();
  EXPECT_EQ(ladder["used_source_stepping"].as_bool(),
            stage == "source-stepping")
      << ladder.dump();
  EXPECT_EQ(ladder["used_pseudo_transient"].as_bool(),
            stage == "pseudo-transient")
      << ladder.dump();
}

// ---------------------------------------------------------------------------
// Pathological decks -> structured SolveFailure
// ---------------------------------------------------------------------------

TEST(SolveFailureDiag, FloatingNodeNamesItself) {
  // "float" hangs off a capacitor only: in DC its row is identically zero.
  sp::Circuit ckt;
  ckt.add_vsource("v1", "a", "0", 1.0);
  ckt.add_resistor("r1", "a", "b", 1e3);
  ckt.add_resistor("r2", "b", "0", 1e3);
  ckt.add_capacitor("cf", "b", "float", 1e-12);

  const auto f = expect_failure(ckt, newton_only());
  EXPECT_EQ(f.stage, sp::SolveStage::kNewton);
  EXPECT_EQ(f.cause, Cause::kSingular);
  EXPECT_NE(f.culprit.find("float"), std::string::npos) << f.to_string();
  EXPECT_NE(f.to_string().find("singular"), std::string::npos);
}

TEST(SolveFailureDiag, FloatingNodeSurvivesTheWholeLadder) {
  // A structurally singular deck defeats every stage (the pseudo-transient
  // shunts mask it, but its verification Newton re-exposes the bare
  // Jacobian).  The report must keep the stage-1 attribution.
  sp::Circuit ckt;
  ckt.add_vsource("v1", "a", "0", 1.0);
  ckt.add_resistor("r1", "a", "0", 1e3);
  ckt.add_capacitor("cf", "a", "float", 1e-12);

  const auto f = expect_failure(ckt, sp::SolverOptions{});
  EXPECT_EQ(f.stage, sp::SolveStage::kPseudoTransient);
  EXPECT_EQ(f.cause, Cause::kSingular);
  EXPECT_NE(f.culprit.find("float"), std::string::npos) << f.to_string();
}

TEST(SolveFailureDiag, ZeroConductanceRowNamesTheIsland) {
  // A current source into a node with no DC path to anywhere: the KCL row
  // has a right-hand side but no conductance entries.
  sp::Circuit ckt;
  ckt.add_isource("i1", "0", "island", sp::dc(1e-3));
  ckt.add_capacitor("c1", "island", "0", 1e-12);
  ckt.add_vsource("v1", "a", "0", 1.0);
  ckt.add_resistor("r1", "a", "0", 1e3);

  const auto f = expect_failure(ckt, newton_only());
  EXPECT_EQ(f.cause, Cause::kSingular);
  EXPECT_NE(f.culprit.find("island"), std::string::npos) << f.to_string();
}

/// Model that goes NaN above a gate threshold — a stand-in for a compact
/// model leaving its fitted range.
struct NanAboveThreshold final : dev::IDeviceModel {
  std::string nm = "nan-model";
  double drain_current(double vgs, double vds) const override {
    if (vgs > 0.3) return std::numeric_limits<double>::quiet_NaN();
    return 1e-5 * vgs * vds;
  }
  const std::string& name() const override { return nm; }
};

TEST(SolveFailureDiag, NanModelRejectedWithDeviceName) {
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_vsource("vin", "in", "0", 0.9);  // bias into the NaN region
  ckt.add_fet("mbad", "out", "in", "0",
              std::make_shared<NanAboveThreshold>());
  ckt.add_resistor("rl", "vdd", "out", 1e4);

  const auto f = expect_failure(ckt, newton_only());
  EXPECT_EQ(f.cause, Cause::kNonFinite);
  EXPECT_NE(f.culprit.find("mbad"), std::string::npos) << f.to_string();
  // Never silent garbage: the ladder variant must also fail cleanly.
  const auto f2 = expect_failure(ckt, sp::SolverOptions{});
  EXPECT_EQ(f2.cause, Cause::kNonFinite);
  EXPECT_NE(f2.culprit.find("mbad"), std::string::npos);
}

TEST(SolveFailureDiag, ExhaustedNewtonReportsWorstNodes) {
  // An adversarial start far outside any basin, fallbacks disabled: the
  // report must rank the worst update/tolerance nodes.  (The 51-stage
  // ring is genuinely outside plain Newton's reach from alternating
  // +-12 V rails; small rings walk back within the iteration budget.)
  cc::CellOptions copt;
  copt.c_load = 5e-15;
  auto bench = cc::make_ring_oscillator(fig2_model(), 51, copt);
  sp::Circuit& ckt = *bench.ckt;
  ckt.assign_branches();
  std::vector<double> bad(ckt.num_unknowns(), 0.0);
  bad[ckt.find_node("vdd") - 1] = 1.0;
  for (int s = 0; s < 51; ++s)
    bad[ckt.find_node("n" + std::to_string(s)) - 1] = (s % 2) ? 12.0 : -12.0;

  const auto f = expect_failure(ckt, newton_only(), &bad);
  EXPECT_EQ(f.stage, sp::SolveStage::kNewton);
  EXPECT_EQ(f.cause, Cause::kMaxIterations);
  ASSERT_FALSE(f.worst_nodes.empty());
  EXPECT_GE(f.worst_nodes.front().ratio, 1.0);
  for (size_t i = 1; i < f.worst_nodes.size(); ++i)
    EXPECT_LE(f.worst_nodes[i].ratio, f.worst_nodes[i - 1].ratio);
  EXPECT_NE(f.to_string().find("worst nodes"), std::string::npos);
}

/// Nearly-ideal threshold switch: the current jumps 0 -> 1 mA across ~1 mV
/// at v = 0.5.  Diode-connected against a 1 kOhm load line that crosses in
/// the middle of the jump, Newton's flat-region tangents land the iterate
/// alternately on either side — the textbook two-cycle.
struct ThresholdSwitch final : dev::IDeviceModel {
  std::string nm = "step";
  double drain_current(double vgs, double /*vds*/) const override {
    return 0.5e-3 * (1.0 + std::tanh((vgs - 0.5) / 1e-3));
  }
  const std::string& name() const override { return nm; }
};

sp::Circuit make_limit_cycle_deck() {
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_resistor("rl", "vdd", "sw", 1e3);
  ckt.add_fet("mstep", "sw", "sw", "0", std::make_shared<ThresholdSwitch>());
  return ckt;
}

TEST(SolveFailureDiag, LimitCycleFlagsOscillatingNode) {
  sp::Circuit ckt = make_limit_cycle_deck();
  const auto f = expect_failure(ckt, newton_only());
  EXPECT_EQ(f.cause, Cause::kMaxIterations);
  ASSERT_FALSE(f.oscillating_nodes.empty());
  EXPECT_EQ(f.oscillating_nodes.front(), "sw");
  EXPECT_NE(f.to_string().find("oscillating"), std::string::npos);
}

TEST(Ladder, GminSteppingRescuesTheLimitCycleDeck) {
  // The same deck plain Newton limit-cycles on is cracked by the gmin ramp
  // (the shunt flattens the jump, the descent walks it back in).
  sp::Circuit ckt = make_limit_cycle_deck();
  const auto sol = sp::operating_point(ckt);
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kGminStepping);
  expect_flags_match_stage(sp::to_json(sol.stats));
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "sw"), 0.5, 5e-3);
}

// ---------------------------------------------------------------------------
// The escalation ladder on the ring oscillator
// ---------------------------------------------------------------------------

/// 51-stage ring bench plus an adversarial start (alternating +-12 V rails)
/// that plain Newton cannot recover from.
struct RingFixture {
  cc::InverterBench bench;
  std::vector<double> adversarial;

  explicit RingFixture(int stages) {
    cc::CellOptions copt;
    copt.c_load = 5e-15;
    bench = cc::make_ring_oscillator(fig2_model(), stages, copt);
    sp::Circuit& ckt = *bench.ckt;
    ckt.assign_branches();
    adversarial.assign(ckt.num_unknowns(), 0.0);
    adversarial[ckt.find_node("vdd") - 1] = 1.0;
    for (int s = 0; s < stages; ++s)
      adversarial[ckt.find_node("n" + std::to_string(s)) - 1] =
          (s % 2) ? 12.0 : -12.0;
  }
};

void expect_ring_solved(const sp::Circuit& ckt, const sp::Solution& sol,
                        int stages) {
  // Every stage node sits at the shared metastable VM of the symmetric
  // inverter (the DC kick current is zero), here 0.5 V.
  for (int s = 0; s < stages; ++s)
    EXPECT_NEAR(sp::node_voltage(ckt, sol, "n" + std::to_string(s)), 0.5,
                1e-4);
}

TEST(Ladder, RingColdOpConvergesPlainNewton51) {
  RingFixture f(51);
  const auto sol = sp::operating_point(*f.bench.ckt);
  // After the sparse-refactor pivot-quality fix the cold metastable OP is
  // a plain Newton solve; any fallback firing here is a regression.
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kNewton);
  expect_flags_match_stage(sp::to_json(sol.stats));
  EXPECT_LE(sol.stats.iterations, 25);
  expect_ring_solved(*f.bench.ckt, sol, 51);
}

TEST(Ladder, RingColdOpConvergesPlainNewton101) {
  RingFixture f(101);
  const auto sol = sp::operating_point(*f.bench.ckt);
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kNewton);
  EXPECT_LE(sol.stats.iterations, 25);
  expect_ring_solved(*f.bench.ckt, sol, 101);
}

TEST(Ladder, AdversarialStartFallsBackToGminStepping) {
  RingFixture f(51);
  const auto sol =
      sp::operating_point(*f.bench.ckt, {}, &f.adversarial);
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kGminStepping);
  expect_flags_match_stage(sp::to_json(sol.stats));
  EXPECT_GT(sol.stats.gmin_rungs, 0);
  expect_ring_solved(*f.bench.ckt, sol, 51);
}

TEST(Ladder, SourceSteppingCracksItWithGminDisabled) {
  RingFixture f(51);
  sp::SolverOptions o;
  o.allow_gmin_stepping = false;
  const auto sol = sp::operating_point(*f.bench.ckt, o, &f.adversarial);
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kSourceStepping);
  expect_flags_match_stage(sp::to_json(sol.stats));
  EXPECT_GT(sol.stats.source_rungs, 0);
  expect_ring_solved(*f.bench.ckt, sol, 51);
}

TEST(Ladder, PseudoTransientIsTheLastResortAndWorks) {
  RingFixture f(51);
  sp::SolverOptions o;
  o.allow_gmin_stepping = false;
  o.allow_source_stepping = false;
  const auto sol = sp::operating_point(*f.bench.ckt, o, &f.adversarial);
  EXPECT_EQ(sol.stats.stage, sp::SolveStage::kPseudoTransient);
  expect_flags_match_stage(sp::to_json(sol.stats));
  EXPECT_GT(sol.stats.ptc_steps, 0);
  expect_ring_solved(*f.bench.ckt, sol, 51);
}

TEST(Ladder, LowSupplyCntGatesConvergePlainNewton) {
  // A 0.44 V CNT NAND2/NOR2 at every input combination.  With both NAND
  // inputs low the output's pull-up pair is saturated, so Newton's step
  // from 0 V overshoots vdd; under a 0.4 V step limit (wider than the
  // supply) the output two-cycled between 0.32 and 0.72 V and only the gmin
  // ramp or source stepping recovered it.  The ladder's limit of half the
  // largest source voltage makes every point a plain Newton solve.
  const double vdd = 0.4446;
  const char* pulls[] = {
      // NAND2: parallel pull-up, series pull-down.
      "mpa out a vdd pcnt\nmpb out b vdd pcnt\n"
      "mna out a mid ncnt\nmnb mid b 0 ncnt\n",
      // NOR2: series pull-up, parallel pull-down.
      "mpa mid a vdd pcnt\nmpb out b mid pcnt\n"
      "mna out a 0 ncnt\nmnb out b 0 ncnt\n"};
  sp::ModelMemo memo;  // the two CNT models are built once
  for (int gate = 0; gate < 2; ++gate) {
    for (int in = 0; in < 4; ++in) {
      const double va = (in & 1) ? vdd : 0.0, vb = (in & 2) ? vdd : 0.0;
      const auto ckt = sp::instantiate(
          sp::parse_deck(
              ".model ncnt cnfet(l=22.36e-9)\n"
              ".model pcnt cpfet(l=22.36e-9)\n"
              "vdd vdd 0 " + std::to_string(vdd) + "\n"
              "va a 0 " + std::to_string(va) + "\n"
              "vb b 0 " + std::to_string(vb) + "\n" + pulls[gate]),
          {}, {}, &memo);
      const auto sol = sp::operating_point(*ckt);
      SCOPED_TRACE((gate ? "nor2 " : "nand2 ") + std::to_string(in));
      EXPECT_EQ(sol.stats.stage, sp::SolveStage::kNewton);
              const bool high = gate ? in == 0 : in != 3;
      EXPECT_NEAR(sp::node_voltage(*ckt, sol, "out"), high ? vdd : 0.0,
                  0.02 * vdd);
    }
  }
}

// ---------------------------------------------------------------------------
// Transient dt_min recovery: re-entering the ladder mid-run
// ---------------------------------------------------------------------------

void run_recovery_transient(bool adaptive) {
  // The threshold switch again, now with the supply snapping 0.2 -> 0.9 V
  // across 0.1 fs.  The switching node has no capacitor, so shrinking dt
  // cannot soften the jump: Newton limit-cycles at every step size, the
  // engine bottoms out at dt_min and must re-enter the escalation ladder
  // from the last accepted state instead of aborting.
  sp::Circuit ckt;
  ckt.add_vsource(
      "vdd", "vdd", "0",
      sp::pwl({{0.0, 0.2}, {5e-7, 0.2}, {5.0000000001e-7, 0.9}, {1e-6, 0.9}}));
  ckt.add_resistor("rl", "vdd", "sw", 1e3);
  ckt.add_fet("mstep", "sw", "sw", "0", std::make_shared<ThresholdSwitch>());

  sp::TransientOptions o;
  o.t_stop = 1e-6;
  o.dt = 1e-8;
  o.adaptive = adaptive;
  sp::SolveRecord st;
  o.solver.record = &st;
  const auto tbl = sp::transient(ckt, o, {"sw"});
  EXPECT_GE(st.orchestrator_recoveries, 1);
  EXPECT_GE(st.steps_rejected_newton, 1);
  // After recovery the run continues to the post-jump operating point
  // (load line crosses in the middle of the switch's 1 mV jump).
  EXPECT_NEAR(tbl.column("v(sw)").back(), 0.5, 5e-3);
}

TEST(TransientRecovery, FixedStepReentersTheLadderAtDtMin) {
  run_recovery_transient(false);
}

TEST(TransientRecovery, AdaptiveReentersTheLadderAtDtMin) {
  run_recovery_transient(true);
}

TEST(TransientRecovery, MidRunNanEvalFailsAsNonFinite) {
  // The fault arms after 400 faithful evals: past the t=0 operating point,
  // inside the step loop.  No step size or ladder rung can cure a NaN
  // device, so the run fails with a structured non-finite report.
  dev::FaultSpec s;
  s.kind = dev::FaultKind::kNanEval;
  s.trigger_evals = 400;
  auto bench = cc::make_sram_write_bench(dev::with_fault(fig2_model(), s));
  sp::TransientOptions o;
  o.t_stop = 4e-9;
  o.dt = 1e-12;
  o.adaptive = true;
  o.dt_print = 20e-12;
  o.ic = sp::TransientIc::kFromOperatingPoint;
  sp::SolveRecord st;
  o.solver.record = &st;
  try {
    sp::transient(*bench.ckt, o, {"q", "qb"});
    FAIL() << "expected SolveFailureError";
  } catch (const sp::SolveFailureError& e) {
    EXPECT_EQ(e.failure().cause, Cause::kNonFinite) << e.what();
  }
  EXPECT_GT(st.steps_accepted, 0);  // it failed mid-run, not at t=0
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, StopsNewtonMidSolve) {
  // Every eval sleeps 10 ms; the armed 40 ms deadline fires between Newton
  // iterations and unwinds as CancelledError — NOT as a convergence
  // failure the escalation ladder would swallow.
  dev::FaultSpec s;
  s.kind = dev::FaultKind::kStall;
  s.stall_s = 10e-3;
  auto bench = cc::make_inverter(dev::with_fault(fig2_model(), s));
  phys::CancelToken tok;
  tok.set_deadline_after(0.04);
  sp::SolverOptions o;
  o.cancel = &tok;
  EXPECT_THROW(sp::operating_point(*bench.ckt, o), phys::CancelledError);
}

TEST(Cancellation, StopsTransientMidRun) {
  // The stall arms only after 200 faithful evals, so the operating point
  // succeeds and the deadline fires inside the step loop.
  dev::FaultSpec s;
  s.kind = dev::FaultKind::kStall;
  s.stall_s = 10e-3;
  s.trigger_evals = 200;
  auto bench = cc::make_inverter(dev::with_fault(fig2_model(), s));
  phys::CancelToken tok;
  tok.set_deadline_after(0.05);
  sp::TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-12;
  opt.solver.cancel = &tok;
  EXPECT_THROW(sp::transient(*bench.ckt, opt, {"out"}), phys::CancelledError);
}

TEST(Cancellation, ExplicitCancelWinsImmediately) {
  auto bench = cc::make_inverter(fig2_model());
  phys::CancelToken tok;
  tok.cancel();
  sp::SolverOptions o;
  o.cancel = &tok;
  try {
    sp::operating_point(*bench.ckt, o);
    FAIL() << "expected CancelledError";
  } catch (const phys::CancelledError& e) {
    EXPECT_FALSE(e.deadline_expired());
  }
}

// ---------------------------------------------------------------------------
// Bistable decks: continuation picks the state the warm start selects
// ---------------------------------------------------------------------------

TEST(Ladder, BistableLatchBothOperatingPoints) {
  auto n_model = fig2_model();
  auto p_model = std::make_shared<dev::PTypeMirror>(n_model);
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_fet("mn1", "q", "qb", "0", n_model);
  ckt.add_fet("mp1", "q", "qb", "vdd", p_model);
  ckt.add_fet("mn2", "qb", "q", "0", n_model);
  ckt.add_fet("mp2", "qb", "q", "vdd", p_model);
  ckt.add_capacitor("cq", "q", "0", 10e-15);
  ckt.add_capacitor("cqb", "qb", "0", 10e-15);
  ckt.assign_branches();

  const int n = ckt.num_unknowns();
  const int iq = ckt.find_node("q") - 1;
  const int iqb = ckt.find_node("qb") - 1;
  const int ivdd = ckt.find_node("vdd") - 1;

  std::vector<double> hi(n, 0.0), lo(n, 0.0);
  hi[ivdd] = lo[ivdd] = 1.0;
  hi[iq] = 1.0;   // seed q high
  lo[iqb] = 1.0;  // seed q low

  const auto sol_hi = sp::operating_point(ckt, {}, &hi);
  EXPECT_NEAR(sp::node_voltage(ckt, sol_hi, "q"), 1.0, 1e-3);
  EXPECT_NEAR(sp::node_voltage(ckt, sol_hi, "qb"), 0.0, 1e-3);

  const auto sol_lo = sp::operating_point(ckt, {}, &lo);
  EXPECT_NEAR(sp::node_voltage(ckt, sol_lo, "q"), 0.0, 1e-3);
  EXPECT_NEAR(sp::node_voltage(ckt, sol_lo, "qb"), 1.0, 1e-3);

  // Cold start lands on the (valid) metastable symmetric point — the
  // orchestrator must not manufacture asymmetry out of nothing.
  const auto sol_cold = sp::operating_point(ckt);
  EXPECT_NEAR(sp::node_voltage(ckt, sol_cold, "q"),
              sp::node_voltage(ckt, sol_cold, "qb"), 1e-6);
}

}  // namespace
