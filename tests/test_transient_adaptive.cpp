// Adaptive transient engine: LTE step controller and predictor unit tests,
// breakpoint collection, adaptive-vs-fixed waveform agreement on the
// standard decks (RC ladder, diode ladder, CNTFET inverter, ring
// oscillator, SRAM write), quiescent-FET bypass equivalence, output
// thinning, OP-consistent initial conditions and the static stamp split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "circuit/cells.h"
#include "circuit/sram.h"
#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "device/tabulated.h"
#include "phys/require.h"
#include "spice/analyses.h"
#include "spice/circuit.h"
#include "spice/integrator.h"
#include "spice/measure.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
namespace ckt = carbon::circuit;

sp::LteControlConfig test_config() {
  sp::LteControlConfig cfg;
  cfg.dt_min = 1e-15;
  cfg.dt_max = 1e-9;
  return cfg;
}

// ---------------------------------------------------------------- controller

TEST(LteController, GrowsOnSmallErrorUpToLimit) {
  const sp::LteController ctl(test_config());
  const auto d = ctl.decide(1e-12, 1e-4, 3);
  EXPECT_TRUE(d.accept);
  // 0.9 * (1e-4)^(-1/3) ~ 19 — clamped to the 2x growth limit.
  EXPECT_DOUBLE_EQ(d.dt_next, 2e-12);
}

TEST(LteController, ModestErrorGrowsModestly) {
  const sp::LteController ctl(test_config());
  const auto d = ctl.decide(1e-12, 0.5, 3);
  EXPECT_TRUE(d.accept);
  const double expect = 1e-12 * 0.9 * std::pow(0.5, -1.0 / 3.0);
  EXPECT_NEAR(d.dt_next, expect, 1e-27);
  EXPECT_GT(d.dt_next, 1e-12);
  EXPECT_LT(d.dt_next, 2e-12);
}

TEST(LteController, RejectsOversizedStepAndShrinks) {
  const sp::LteController ctl(test_config());
  const auto d = ctl.decide(1e-12, 8.0, 3);
  EXPECT_FALSE(d.accept);
  EXPECT_LT(d.dt_next, 1e-12);
  EXPECT_GE(d.dt_next, 0.1e-12);  // shrink_limit floor
}

TEST(LteController, HugeErrorShrinkClampedToLimit) {
  const sp::LteController ctl(test_config());
  const auto d = ctl.decide(1e-12, 1e9, 2);
  EXPECT_FALSE(d.accept);
  EXPECT_DOUBLE_EQ(d.dt_next, 0.1e-12);
}

TEST(LteController, StepAtFloorAlwaysAccepted) {
  sp::LteControlConfig cfg = test_config();
  cfg.dt_min = 1e-12;
  const sp::LteController ctl(cfg);
  const auto d = ctl.decide(1e-12, 50.0, 3);
  EXPECT_TRUE(d.accept) << "a step at dt_min must make progress";
  EXPECT_DOUBLE_EQ(d.dt_next, 1e-12);
}

TEST(LteController, GrowthRespectsDtMax) {
  sp::LteControlConfig cfg = test_config();
  cfg.dt_max = 1.5e-12;
  const sp::LteController ctl(cfg);
  const auto d = ctl.decide(1e-12, 1e-6, 3);
  EXPECT_TRUE(d.accept);
  EXPECT_DOUBLE_EQ(d.dt_next, 1.5e-12);
}

TEST(LteController, BeOrderUsesSquareRootExponent) {
  const sp::LteController ctl(test_config());
  const auto d2 = ctl.decide(1e-12, 4.0, 2);
  const auto d3 = ctl.decide(1e-12, 4.0, 3);
  // Same error ratio shrinks harder at lower order: 4^(-1/2) < 4^(-1/3).
  EXPECT_LT(d2.dt_next, d3.dt_next);
}

TEST(LteController, RejectsBadConfig) {
  sp::LteControlConfig cfg = test_config();
  cfg.trtol = 0.5;
  EXPECT_THROW(sp::LteController{cfg}, carbon::phys::PreconditionError);
}

// ----------------------------------------------------------------- predictor

TEST(PredictorHistory, ExactOnQuadraticTrajectory) {
  // x(t) = 2 + 3t + 4t^2 sampled at t = 0, 1, 3 (nonuniform steps).
  const auto f = [](double t) { return 2.0 + 3.0 * t + 4.0 * t * t; };
  sp::PredictorHistory hist;
  hist.advance({f(0.0)}, 1.0);  // accepted step 0 -> 1
  hist.advance({f(1.0)}, 2.0);  // accepted step 1 -> 3
  const std::vector<double> x_now{f(3.0)};
  std::vector<double> pred;
  EXPECT_EQ(hist.predict(x_now, 1.5, pred), 2);
  EXPECT_NEAR(pred[0], f(4.5), 1e-9);
}

TEST(PredictorHistory, OrdersRampUpAndResetDrops) {
  sp::PredictorHistory hist;
  std::vector<double> out;
  const std::vector<double> x{1.0};
  EXPECT_EQ(hist.predict(x, 1.0, out), 0);
  EXPECT_DOUBLE_EQ(out[0], 1.0);  // no history: prediction = current
  hist.advance({0.0}, 1.0);
  EXPECT_EQ(hist.predict(x, 1.0, out), 1);
  EXPECT_DOUBLE_EQ(out[0], 2.0);  // linear extrapolation of 0 -> 1
  hist.advance({1.0}, 1.0);
  EXPECT_EQ(hist.predict(x, 1.0, out), 2);
  hist.reset();
  EXPECT_EQ(hist.predict(x, 1.0, out), 0);
}

TEST(PredictorHistory, LteFactorMatchesUniformStepConstants) {
  sp::PredictorHistory hist;
  hist.advance({0.0}, 1.0);
  hist.advance({0.0}, 1.0);
  // Uniform steps h = h1 = h2 = 1: trap/quadratic factor = (1/12)/(1 +
  // 1/12) = 1/13; BE/linear factor = 1/(2 + 1) = 1/3; BE against the
  // x''-exact quadratic predictor sees the corrector error directly.
  EXPECT_NEAR(hist.lte_factor(1.0, true, 2), 1.0 / 13.0, 1e-12);
  EXPECT_NEAR(hist.lte_factor(1.0, false, 1), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(hist.lte_factor(1.0, false, 2), 1.0);
}

TEST(LteErrorRatio, WorstNodeOnlyOverNodeEntries) {
  sp::LteControlConfig cfg = test_config();
  cfg.reltol = 1e-3;
  cfg.abstol = 1e-6;
  cfg.trtol = 1.0;
  const std::vector<double> corr{1.0, 0.5, 100.0};
  const std::vector<double> pred{1.0, 0.6, 0.0};
  // n_nodes = 2: the huge branch-current mismatch in entry 2 is ignored.
  const double r = sp::lte_error_ratio(corr, pred, 2, 0.5, cfg);
  EXPECT_NEAR(r, 0.5 * 0.1 / (1e-6 + 1e-3 * 0.6), 1e-9);
}

// --------------------------------------------------------------- breakpoints

TEST(Breakpoints, PulseAndPwlCornersCollected) {
  sp::Circuit c;
  c.add_vsource("vp", "a", "0",
                sp::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.2e-9, 1e-9, 4e-9));
  c.add_vsource("vw", "b", "0", sp::pwl({{0.0, 0.0}, {2e-9, 1.0}}));
  c.add_resistor("r1", "a", "b", 1e3);
  const auto bps = c.collect_breakpoints(5e-9);
  // Pulse: 1, 1.1, 2.1, 2.3 ns (first period; second period base 5 ns is
  // outside).  PWL: 2 ns.  All sorted, 0 and t_stop excluded.
  ASSERT_EQ(bps.size(), 5u);
  EXPECT_NEAR(bps[0], 1.0e-9, 1e-18);
  EXPECT_NEAR(bps[1], 1.1e-9, 1e-18);
  EXPECT_NEAR(bps[2], 2.0e-9, 1e-18);
  EXPECT_NEAR(bps[3], 2.1e-9, 1e-18);
  EXPECT_NEAR(bps[4], 2.3e-9, 1e-18);
  EXPECT_TRUE(std::is_sorted(bps.begin(), bps.end()));
}

TEST(Breakpoints, MergeDedupesAndClips) {
  const auto m =
      sp::merge_breakpoints({3.0, 1.0, 1.0 + 1e-15, -1.0, 0.0, 5.0, 7.0}, 5.0);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 3.0);
}

TEST(Breakpoints, AdaptiveLandsExactlyOnCorners) {
  sp::Circuit c;
  c.add_vsource("v1", "a", "0",
                sp::pwl({{0.0, 0.0}, {1e-9, 0.0}, {1.5e-9, 1.0}, {4e-9, 1.0}}));
  c.add_resistor("r1", "a", "b", 1e3);
  c.add_capacitor("c1", "b", "0", 1e-13);
  sp::TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 1e-11;
  opt.adaptive = true;
  sp::SolveRecord stats;
  opt.solver.record = &stats;
  const auto tr = sp::transient(c, opt, {"b"});
  // PWL corners at 1 and 1.5 ns; the 4 ns point coincides with t_stop and
  // is not a breakpoint.
  EXPECT_EQ(stats.breakpoints_hit, 2);
  // With dt_print = 0 every accepted step is a row, so the corner times
  // appear exactly.
  bool found = false;
  for (int i = 0; i < tr.num_rows(); ++i) {
    if (tr.at(i, 0) == 1.5e-9) found = true;
  }
  EXPECT_TRUE(found) << "corner at 1.5 ns not landed on exactly";
}

// ----------------------------------------------- adaptive-vs-fixed agreement

double rms_diff(const carbon::phys::DataTable& a,
                const carbon::phys::DataTable& b, int col) {
  EXPECT_EQ(a.num_rows(), b.num_rows());
  const int n = std::min(a.num_rows(), b.num_rows());
  double s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = a.at(i, col) - b.at(i, col);
    s2 += d * d;
  }
  return std::sqrt(s2 / n);
}

TEST(AdaptiveTran, RcLadderMatchesFixedReference) {
  const double t_stop = 50e-9, dt_print = 0.1e-9;
  auto run = [&](bool adaptive, double dt, sp::SolveRecord* st) {
    auto bench = ckt::make_rc_ladder(20, 1e3, 1e-13, 1.0);
    bench.vin->set_wave(
        sp::pulse(0.0, 1.0, 1e-9, 0.5e-9, 0.5e-9, 20e-9, 100e-9));
    sp::TransientOptions opt;
    opt.t_stop = t_stop;
    opt.dt = dt;
    opt.adaptive = adaptive;
    opt.dt_print = dt_print;
    opt.lte_reltol = 3e-5;  // timing-grade tolerance
    opt.solver.record = st;
    return sp::transient(*bench.ckt, opt, {bench.out_node});
  };
  sp::SolveRecord sf, sa;
  const auto fixed = run(false, 0.01e-9, &sf);
  const auto adapt = run(true, 0.01e-9, &sa);
  EXPECT_LT(rms_diff(fixed, adapt, 1), 1e-4);
  // The ladder output is smooth: the controller must take far fewer steps.
  EXPECT_LT(sa.steps_accepted, sf.steps_accepted / 4);
  EXPECT_GT(sa.dt_largest, sa.dt_smallest * 10);
}

TEST(AdaptiveTran, DiodeLadderMatchesFixedReference) {
  const double t_stop = 20e-9, dt_print = 0.05e-9;
  auto run = [&](bool adaptive, double dt) {
    auto bench = ckt::make_diode_ladder(10, 1e3, 1e-14, 0.0);
    bench.vin->set_wave(
        sp::pwl({{0.0, 0.0}, {2e-9, 0.0}, {6e-9, 5.0}, {20e-9, 5.0}}));
    sp::TransientOptions opt;
    opt.t_stop = t_stop;
    opt.dt = dt;
    opt.adaptive = adaptive;
    opt.dt_print = dt_print;
    opt.lte_reltol = 1e-4;
    return sp::transient(*bench.ckt, opt, {bench.out_node});
  };
  const auto fixed = run(false, 0.01e-9);
  const auto adapt = run(true, 0.01e-9);
  EXPECT_LT(rms_diff(fixed, adapt, 1), 2e-4);
}

TEST(AdaptiveTran, CntfetInverterDelayMatchesFixed) {
  dev::CntfetParams p = dev::make_franklin_cntfet_params(20e-9);
  p.ef_source_ev = -0.18;
  const auto tab =
      dev::make_tabulated(std::make_shared<dev::CntfetModel>(p), 0.6);
  ckt::CellOptions copt;
  copt.v_dd = 0.6;
  copt.c_load = 5e-15;
  const double t_stop = 8e-9, dt_print = 8e-12;
  auto run = [&](bool adaptive, double dt, sp::SolveRecord* st) {
    auto bench = ckt::make_inverter(tab, copt);
    bench.vin->set_wave(sp::pulse(0.0, 0.6, 1e-9, 50e-12, 50e-12, 3e-9,
                                  100e-9));
    sp::TransientOptions opt;
    opt.t_stop = t_stop;
    opt.dt = dt;
    opt.adaptive = adaptive;
    opt.dt_print = dt_print;
    opt.lte_reltol = 1e-4;
    opt.bypass_vtol = adaptive ? 1e-4 : 0.0;
    opt.ic = sp::TransientIc::kFromOperatingPoint;
    opt.solver.record = st;
    return sp::transient(*bench.ckt, opt, {"in", "out"});
  };
  sp::SolveRecord sf, sa;
  const auto fixed = run(false, 2e-12, &sf);
  const auto adapt = run(true, 2e-12, &sa);
  EXPECT_LT(rms_diff(fixed, adapt, 2), 1e-3);
  const double d_fixed =
      sp::propagation_delay(fixed, "v(in)", "v(out)", 0.6, true);
  const double d_adapt =
      sp::propagation_delay(adapt, "v(in)", "v(out)", 0.6, true);
  EXPECT_NEAR(d_adapt, d_fixed, 0.01 * d_fixed + 1e-12);
  EXPECT_LT(sa.newton_iterations, sf.newton_iterations / 2);
  EXPECT_LT(sa.device_evals, sf.device_evals / 5);
}

TEST(AdaptiveTran, RingOscillatorPeriodMatchesFixed) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  ckt::CellOptions copt;
  copt.c_load = 5e-15;
  const double t_stop = 2e-9, dt_print = 2e-12;
  auto run = [&](bool adaptive, sp::SolveRecord* st) {
    auto bench = ckt::make_ring_oscillator(m, 5, copt);
    sp::TransientOptions opt;
    opt.t_stop = t_stop;
    opt.dt = 1e-12;
    opt.adaptive = adaptive;
    opt.dt_print = dt_print;
    opt.lte_reltol = 1e-4;
    opt.bypass_vtol = adaptive ? 1e-4 : 0.0;
    opt.solver.record = st;
    return sp::transient(*bench.ckt, opt, {"n0"});
  };
  sp::SolveRecord sf, sa;
  const auto fixed = run(false, &sf);
  const auto adapt = run(true, &sa);
  const double p_fixed = sp::oscillation_period(fixed, "v(n0)", 0.5, 1);
  const double p_adapt = sp::oscillation_period(adapt, "v(n0)", 0.5, 1);
  EXPECT_NEAR(p_adapt, p_fixed, 0.01 * p_fixed);
  EXPECT_LT(sa.newton_iterations, sf.newton_iterations);
}

TEST(AdaptiveTran, SramWriteFlipsCellAndMatchesFixed) {
  dev::CntfetParams p = dev::make_franklin_cntfet_params(20e-9);
  p.ef_source_ev = -0.18;
  const auto tab =
      dev::make_tabulated(std::make_shared<dev::CntfetModel>(p), 0.6);
  ckt::CellOptions copt;
  copt.v_dd = 0.6;
  auto run = [&](bool adaptive, double dt, sp::SolveRecord* st) {
    auto bench = ckt::make_sram_write_bench(tab, copt);
    sp::TransientOptions opt;
    opt.t_stop = 4e-9;
    opt.dt = dt;
    opt.adaptive = adaptive;
    opt.dt_print = 4e-12;
    opt.lte_reltol = 1e-4;
    opt.bypass_vtol = adaptive ? 1e-4 : 0.0;
    opt.ic = sp::TransientIc::kFromOperatingPoint;
    opt.solver.record = st;
    return sp::transient(*bench.ckt, opt, {"q", "qb"});
  };
  sp::SolveRecord sf, sa;
  const auto fixed = run(false, 1e-12, &sf);
  const auto adapt = run(true, 1e-12, &sa);
  // The write flips the cell: q starts high (hold state), ends low.
  EXPECT_GT(adapt.at(0, 1), 0.5);
  EXPECT_LT(adapt.at(adapt.num_rows() - 1, 1), 0.1);
  EXPECT_GT(adapt.at(adapt.num_rows() - 1, 2), 0.5);
  // Matched waveforms at a fraction of the work.
  EXPECT_LT(rms_diff(fixed, adapt, 1), 1e-4);
  EXPECT_LT(rms_diff(fixed, adapt, 2), 1e-4);
  EXPECT_LT(sa.newton_iterations, sf.newton_iterations / 2);
  EXPECT_LT(sa.device_evals, sf.device_evals / 5);
}

// ------------------------------------------------------------------- bypass

TEST(Bypass, OnOffWaveformsAgreeWithinTolerance) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  ckt::CellOptions copt;
  auto run = [&](double bypass) {
    auto bench = ckt::make_inverter(m, copt);
    bench.vin->set_wave(
        sp::pulse(0.0, 1.0, 0.1e-9, 20e-12, 20e-12, 0.4e-9, 1e-9));
    sp::TransientOptions opt;
    opt.t_stop = 1e-9;
    opt.dt = 1e-12;
    opt.bypass_vtol = bypass;
    return sp::transient(*bench.ckt, opt, {"out"});
  };
  const auto off = run(0.0);
  const auto on = run(1e-4);
  ASSERT_EQ(off.num_rows(), on.num_rows());
  double worst = 0.0;
  for (int i = 0; i < off.num_rows(); ++i) {
    worst = std::max(worst, std::abs(off.at(i, 1) - on.at(i, 1)));
  }
  // The bypass serves a cached first-order expansion valid within
  // bypass_vtol, so the waveform error is bounded by a small multiple of
  // the tolerance.
  EXPECT_LT(worst, 1e-3);
  EXPECT_GT(worst, 0.0) << "bypass had no effect at all (suspicious)";
}

TEST(Bypass, CountersTrackEvalsAndBypasses) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  ckt::CellOptions copt;
  auto bench = ckt::make_inverter(m, copt);
  bench.vin->set_wave(
      sp::pulse(0.0, 1.0, 0.1e-9, 20e-12, 20e-12, 0.4e-9, 1e-9));
  sp::TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-12;
  opt.bypass_vtol = 1e-4;
  sp::SolveRecord stats;
  opt.solver.record = &stats;
  sp::transient(*bench.ckt, opt, {"out"});
  EXPECT_GT(stats.device_evals, 0);
  EXPECT_GT(stats.device_bypasses, 0);
  // Two FETs stamped once per Newton iteration: every stamp either
  // evaluates or bypasses.
  EXPECT_EQ(stats.device_evals + stats.device_bypasses,
            2 * stats.newton_iterations);
}

TEST(Bypass, DiodeOnOffWaveformsAgreeWithinTolerance) {
  // Mirrors the FET on/off bound: the diode bypass serves a cached
  // first-order expansion valid within bypass_vtol, so the waveform error
  // stays a small multiple of the tolerance.
  auto run = [&](double bypass) {
    auto bench = ckt::make_diode_ladder(10, 1e3, 1e-14, 0.0);
    bench.vin->set_wave(
        sp::pulse(0.0, 3.0, 1e-9, 0.5e-9, 0.5e-9, 8e-9, 100e-9));
    sp::TransientOptions opt;
    opt.t_stop = 15e-9;
    opt.dt = 0.01e-9;
    opt.bypass_vtol = bypass;
    return sp::transient(*bench.ckt, opt, {bench.out_node});
  };
  const auto off = run(0.0);
  const auto on = run(1e-4);
  ASSERT_EQ(off.num_rows(), on.num_rows());
  double worst = 0.0;
  for (int i = 0; i < off.num_rows(); ++i) {
    worst = std::max(worst, std::abs(off.at(i, 1) - on.at(i, 1)));
  }
  EXPECT_LT(worst, 1e-3);
  EXPECT_GT(worst, 0.0) << "diode bypass had no effect at all (suspicious)";
}

TEST(Bypass, DiodeCountersTrackEvalsAndBypasses) {
  auto bench = ckt::make_diode_ladder(10, 1e3, 1e-14, 0.0);
  bench.vin->set_wave(
      sp::pulse(0.0, 3.0, 1e-9, 0.5e-9, 0.5e-9, 8e-9, 100e-9));
  sp::TransientOptions opt;
  opt.t_stop = 15e-9;
  opt.dt = 0.01e-9;
  opt.bypass_vtol = 1e-4;
  sp::SolveRecord stats;
  opt.solver.record = &stats;
  sp::transient(*bench.ckt, opt, {bench.out_node});
  EXPECT_GT(stats.device_evals, 0);
  EXPECT_GT(stats.device_bypasses, 0);
  // Ten diodes stamped once per Newton iteration: every stamp either
  // evaluates the exponential or serves the cache.
  EXPECT_EQ(stats.device_evals + stats.device_bypasses,
            10 * stats.newton_iterations);
}

// ------------------------------------------------------------ PI controller

TEST(PiController, DampsGrowthWhileErrorRises) {
  sp::LteControlConfig cfg = test_config();
  cfg.pi = true;
  sp::LteController ctl(cfg);
  // First decision (no history) matches the deadbeat rule.
  const auto first = ctl.step(1e-12, 0.2, 3);
  const auto deadbeat = sp::LteController(test_config()).decide(1e-12, 0.2, 3);
  EXPECT_TRUE(first.accept);
  EXPECT_DOUBLE_EQ(first.dt_next, deadbeat.dt_next);
  // Error rising 0.2 -> 0.8: the PI term must grow the step less than the
  // deadbeat rule would.
  const auto pi = ctl.step(first.dt_next, 0.8, 3);
  const auto db =
      sp::LteController(test_config()).decide(first.dt_next, 0.8, 3);
  EXPECT_TRUE(pi.accept);
  EXPECT_LT(pi.dt_next, db.dt_next);
}

TEST(PiController, CapsRegrowthAfterRejection) {
  sp::LteControlConfig cfg = test_config();
  cfg.pi = true;
  sp::LteController ctl(cfg);
  ctl.step(1e-12, 0.5, 3);              // seed history
  const auto rej = ctl.step(2e-12, 4.0, 3);
  EXPECT_FALSE(rej.accept);
  EXPECT_LT(rej.dt_next, 2e-12);
  // The accept right after a rejection must not grow the step again.
  const auto acc = ctl.step(rej.dt_next, 0.3, 3);
  EXPECT_TRUE(acc.accept);
  EXPECT_LE(acc.dt_next, rej.dt_next * (1.0 + 1e-12));
  // reset_history() returns to deadbeat behaviour.
  ctl.reset_history();
  const auto fresh = ctl.step(1e-12, 0.2, 3);
  EXPECT_DOUBLE_EQ(
      fresh.dt_next,
      sp::LteController(test_config()).decide(1e-12, 0.2, 3).dt_next);
}

TEST(PiController, CutsRingRejectionRateAtMatchedAccuracy) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  ckt::CellOptions copt;
  copt.c_load = 5e-15;
  auto run = [&](bool pi, sp::SolveRecord* st) {
    auto bench = ckt::make_ring_oscillator(m, 5, copt);
    sp::TransientOptions opt;
    opt.t_stop = 2e-9;
    opt.dt = 1e-12;
    opt.adaptive = true;
    opt.dt_print = 2e-12;
    opt.lte_reltol = 1e-4;
    opt.lte_pi = pi;
    opt.solver.record = st;
    return sp::transient(*bench.ckt, opt, {"n0"});
  };
  sp::SolveRecord classic, pi;
  const auto tr_classic = run(false, &classic);
  const auto tr_pi = run(true, &pi);

  ASSERT_GT(classic.steps_rejected_lte, 0)
      << "deadbeat controller rejected nothing; deck no longer stresses it";
  const double rate_classic =
      static_cast<double>(classic.steps_rejected_lte) /
      (classic.steps_accepted + classic.steps_rejected_lte);
  const double rate_pi =
      static_cast<double>(pi.steps_rejected_lte) /
      (pi.steps_accepted + pi.steps_rejected_lte);
  EXPECT_LT(rate_pi, 0.75 * rate_classic)
      << "PI control must cut the LTE rejection rate";

  // Matched accuracy: the oscillation period agrees with the classic run.
  const double p_classic = sp::oscillation_period(tr_classic, "v(n0)", 0.5, 1);
  const double p_pi = sp::oscillation_period(tr_pi, "v(n0)", 0.5, 1);
  EXPECT_NEAR(p_pi, p_classic, 0.01 * p_classic);
  // And the total work must not regress.
  EXPECT_LT(pi.newton_iterations, classic.newton_iterations * 1.1);
}

// ------------------------------------------------- identical-Jacobian reuse

TEST(JacobianReuse, LinearRcSkipsRefactors) {
  // A linear deck at fixed dt reassembles the exact same Jacobian every
  // iteration of every step: after the first factorization, the
  // Shamanskii fast path must serve essentially all factor() calls.
  auto bench = ckt::make_rc_ladder(20, 1e3, 1e-13, 1.0);
  sp::TransientOptions opt;
  opt.t_stop = 10e-9;
  opt.dt = 0.1e-9;
  sp::SolveRecord stats;
  opt.solver.record = &stats;
  sp::transient(*bench.ckt, opt, {bench.out_node});
  EXPECT_GE(stats.jacobian_reuses, stats.steps_accepted)
      << "linear circuit at fixed dt must reuse the factorization";
}

TEST(JacobianReuse, BypassedQuiescentStepsSkipRefactors) {
  // SRAM write: long quiescent hold phases around the wordline pulse.
  // With the device bypass on, whole Newton iterations assemble
  // bit-identical Jacobians and must skip the numeric refactor.
  dev::CntfetParams p = dev::make_franklin_cntfet_params(20e-9);
  p.ef_source_ev = -0.18;
  const auto tab =
      dev::make_tabulated(std::make_shared<dev::CntfetModel>(p), 0.6);
  ckt::CellOptions copt;
  copt.v_dd = 0.6;
  auto bench = ckt::make_sram_write_bench(tab, copt);
  sp::TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 1e-12;
  opt.adaptive = true;
  opt.dt_print = 4e-12;
  opt.lte_reltol = 1e-4;
  opt.bypass_vtol = 1e-4;
  opt.ic = sp::TransientIc::kFromOperatingPoint;
  sp::SolveRecord stats;
  opt.solver.record = &stats;
  const auto tr = sp::transient(*bench.ckt, opt, {"q", "qb"});
  EXPECT_GT(stats.jacobian_reuses, 0);
  // The write still flips the cell (the reuse is exact, not approximate).
  EXPECT_GT(tr.at(0, 1), 0.5);
  EXPECT_LT(tr.at(tr.num_rows() - 1, 1), 0.1);
}

// ------------------------------------------------------- SRAM column array

TEST(SramColumn, WriteFlipsRow0AndHoldsTheRest) {
  dev::CntfetParams p = dev::make_franklin_cntfet_params(20e-9);
  p.ef_source_ev = -0.18;
  const auto tab =
      dev::make_tabulated(std::make_shared<dev::CntfetModel>(p), 0.6);
  ckt::CellOptions copt;
  copt.v_dd = 0.6;
  auto bench = ckt::make_sram_column_bench(tab, 4, copt);
  sp::TransientOptions opt;
  opt.t_stop = 4e-9;
  opt.dt = 1e-12;
  opt.adaptive = true;
  opt.dt_print = 8e-12;
  opt.lte_reltol = 1e-4;
  opt.bypass_vtol = 1e-4;
  opt.lte_pi = true;
  opt.ic = sp::TransientIc::kFromOperatingPoint;
  const auto tr =
      sp::transient(*bench.ckt, opt, {"q0", "q1", "q2", "q3"});
  const int last = tr.num_rows() - 1;
  // Row 0 written low; held rows keep their 1.
  EXPECT_GT(tr.at(0, 1), 0.5);
  EXPECT_LT(tr.at(last, 1), 0.1);
  for (int cell = 1; cell < 4; ++cell) {
    EXPECT_GT(tr.at(last, 1 + cell), 0.5) << "cell " << cell << " disturbed";
  }
}

// ----------------------------------------------------------------- thinning

TEST(Thinning, UniformGridAndInterpolationAccuracy) {
  sp::Circuit c;
  c.add_vsource("v1", "a", "0",
                sp::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 2.0));
  c.add_resistor("r1", "a", "b", 1e3);
  c.add_capacitor("c1", "b", "0", 1e-9);  // tau = 1 us
  sp::TransientOptions opt;
  opt.t_stop = 5e-6;
  opt.dt = 1e-8;
  opt.adaptive = true;
  opt.dt_print = 5e-8;
  const auto tr = sp::transient(c, opt, {"b"});
  // 0 .. 5 us at 50 ns: 101 rows, uniformly spaced.
  ASSERT_EQ(tr.num_rows(), 101);
  for (int i = 1; i < tr.num_rows(); ++i) {
    EXPECT_NEAR(tr.at(i, 0) - tr.at(i - 1, 0), 5e-8, 1e-12);
  }
  for (int i = 0; i < tr.num_rows(); ++i) {
    const double t = tr.at(i, 0);
    if (t < 2e-9) continue;
    const double ref = 1.0 - std::exp(-(t - 1e-9) / 1e-6);
    EXPECT_NEAR(tr.at(i, 1), ref, 1e-3) << "t = " << t;
  }
}

TEST(Thinning, FixedPathThinsToo) {
  sp::Circuit c;
  c.add_vsource("v1", "a", "0", sp::dc(1.0));
  c.add_resistor("r1", "a", "b", 1e3);
  c.add_capacitor("c1", "b", "0", 1e-12);
  sp::TransientOptions opt;
  opt.t_stop = 10e-9;
  opt.dt = 1e-11;
  opt.dt_print = 1e-9;
  const auto tr = sp::transient(c, opt, {"b"});
  EXPECT_EQ(tr.num_rows(), 11);
}

// ------------------------------------------------------ initial conditions

TEST(TransientIc, OperatingPointStartHoldsBiasedNode) {
  // A node held at 1 V by the OP but loaded by a v_init = 0 capacitor:
  // kFromInit snaps it down on the first step, kFromOperatingPoint holds.
  auto build = [] {
    auto c = std::make_unique<sp::Circuit>();
    c->add_vsource("v1", "a", "0", sp::dc(1.0));
    c->add_resistor("r1", "a", "b", 1e3);
    c->add_resistor("r2", "b", "0", 1e6);
    c->add_capacitor("c1", "b", "0", 1e-12);
    return c;
  };
  sp::TransientOptions opt;
  opt.t_stop = 1e-10;
  opt.dt = 1e-12;

  auto c1 = build();
  const auto from_init = sp::transient(*c1, opt, {"b"});
  EXPECT_LT(from_init.at(1, 1), 0.5) << "seed semantics: cap starts at 0";

  opt.ic = sp::TransientIc::kFromOperatingPoint;
  auto c2 = build();
  const auto from_op = sp::transient(*c2, opt, {"b"});
  for (int i = 0; i < from_op.num_rows(); ++i) {
    EXPECT_NEAR(from_op.at(i, 1), 1e6 / (1e6 + 1e3), 1e-6);
  }
}

// ------------------------------------------------------- static stamp split

TEST(StaticSplit, ResistorsLeaveTheStampLoop) {
  auto bench = ckt::make_rc_ladder(50, 1e3, 1e-15, 1.0);
  sp::SolverOptions opts;
  sp::NewtonWorkspace ws;
  const auto sol = sp::operating_point(*bench.ckt, opts, nullptr, &ws);
  // All 50 resistors are static with no RHS footprint.
  EXPECT_EQ(ws.mna.static_skipped_count(), 50);
  // And the solve is still correct: no load, so every node sits at 1 V.
  EXPECT_NEAR(sp::node_voltage(*bench.ckt, sol, bench.out_node), 1.0, 1e-9);
}

TEST(StaticSplit, VoltageDividerStillExact) {
  sp::Circuit c;
  c.add_vsource("v1", "a", "0", sp::dc(2.0));
  c.add_resistor("r1", "a", "b", 1e3);
  c.add_resistor("r2", "b", "0", 3e3);
  const auto sol = sp::operating_point(c);
  EXPECT_NEAR(sp::node_voltage(c, sol, "b"), 1.5, 1e-9);
}

}  // namespace
