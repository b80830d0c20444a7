// Small-signal subsystem: the complex sparse engine against a test-local
// dense reference on the standard decks (RC ladder, diode ladder, FET
// amplifier chain), symbolic analysis amortized across a sweep,
// adjoint-transfer consistency, and the noise analysis against closed
// forms (4kTR divider, kT/C integrated noise, diode shot noise, FET channel
// thermal and 1/f flicker).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "circuit/cells.h"
#include "device/alpha_power.h"
#include "phys/linalg_complex.h"
#include "phys/require.h"
#include "spice/ac.h"
#include "spice/analyses.h"
#include "spice/smallsignal.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
namespace ckt_lib = carbon::circuit;
using carbon::phys::Complex;

constexpr double kBoltzmann = 1.380649e-23;
constexpr double kQ = 1.602176634e-19;

/// Common-source amplifier chain: per stage a resistor load, a FET whose
/// gate taps the previous drain, and a load capacitor.  The FET deck of
/// the dense-reference tests.
void build_fet_chain(sp::Circuit& ckt, int stages, sp::VSource** vg_out) {
  static auto model = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  *vg_out = ckt.add_vsource("vg", "g0", "0", 0.45);
  for (int s = 0; s < stages; ++s) {
    const std::string drain = "d" + std::to_string(s);
    const std::string gate =
        s == 0 ? "g0" : "d" + std::to_string(s - 1);
    ckt.add_resistor("r" + std::to_string(s), "vdd", drain, 2e3);
    ckt.add_fet("m" + std::to_string(s), drain, gate, "0", model);
    ckt.add_capacitor("c" + std::to_string(s), drain, "0", 10e-15);
  }
}

/// Test-local dense reference of the small-signal system at @p omega: the
/// elements' captured G, C and stimulus values at @p x_dc summed into a
/// dense G + jωC matrix and solved with phys::solve_dense_complex.
std::vector<Complex> dense_ac_reference(const sp::Circuit& ckt,
                                        const std::vector<double>& x_dc,
                                        double omega) {
  std::vector<sp::AcStampContext::CoordValue> g, c;
  std::vector<sp::AcStampContext::RhsValue> b;
  sp::AcStampContext cap;
  cap.x_dc = &x_dc;
  cap.cap_g = &g;
  cap.cap_c = &c;
  cap.cap_rhs = &b;
  for (const auto& el : ckt.elements()) el->stamp_ac(cap);

  const int n = ckt.num_unknowns();
  carbon::phys::ComplexMatrix a(n, n);
  for (const auto& e : g) {
    if (e.row > 0 && e.col > 0) a(e.row - 1, e.col - 1) += e.value;
  }
  for (const auto& e : c) {
    if (e.row > 0 && e.col > 0) {
      a(e.row - 1, e.col - 1) += Complex{0.0, omega * e.value};
    }
  }
  std::vector<Complex> rhs(n);
  for (const auto& e : b) {
    if (e.row > 0) rhs[e.row - 1] += e.value;
  }
  return carbon::phys::solve_dense_complex(a, rhs);
}

/// Max |engine - dense reference| over the full solution vectors across a
/// sweep, both fed the SAME operating point.
double reference_disagreement(sp::Circuit& ckt, sp::VSource& input,
                              const std::vector<double>& x_dc, double f_start,
                              double f_stop) {
  input.set_ac_magnitude(1.0);
  sp::AcSystem sys;
  sys.build(ckt, x_dc);

  double worst = 0.0;
  for (const double f : sp::log_frequency_grid(f_start, f_stop, 4)) {
    const double w = 2.0 * M_PI * f;
    EXPECT_TRUE(sys.assemble_factor(w));
    std::vector<Complex> x = sys.stimulus();
    sys.solve_in_place(x);
    const std::vector<Complex> ref = dense_ac_reference(ckt, x_dc, w);
    for (size_t i = 0; i < x.size(); ++i) {
      worst = std::max(worst, std::abs(x[i] - ref[i]));
    }
  }
  input.set_ac_magnitude(0.0);
  return worst;
}

// ------------------------------------------------ dense-reference agreement

TEST(AcSystem, RcLadderMatchesDenseReference) {
  auto bench = ckt_lib::make_rc_ladder(40, 1e3, 1e-15, 1.0);
  const sp::Solution sol = sp::operating_point(*bench.ckt);
  EXPECT_LT(reference_disagreement(*bench.ckt, *bench.vin, sol.x, 1e5, 1e11),
            1e-9);
}

TEST(AcSystem, DiodeLadderMatchesDenseReference) {
  auto bench = ckt_lib::make_diode_ladder(20, 1e3, 1e-14, 2.0);
  const sp::Solution sol = sp::operating_point(*bench.ckt);
  EXPECT_LT(reference_disagreement(*bench.ckt, *bench.vin, sol.x, 1e3, 1e9),
            1e-9);
}

TEST(AcSystem, FetChainMatchesDenseReference) {
  sp::Circuit ckt;
  sp::VSource* vg = nullptr;
  build_fet_chain(ckt, 20, &vg);
  const sp::Solution sol = sp::operating_point(ckt);
  EXPECT_LT(reference_disagreement(ckt, *vg, sol.x, 1e5, 1e11), 1e-9);
}

TEST(AcSystem, SweepMatchesDenseReferenceOnLinearDeck) {
  // A full ac_sweep table: every row's magnitude is the dense reference's
  // at that frequency.
  auto bench = ckt_lib::make_rc_ladder(30, 1e3, 1e-15, 1.0);
  sp::AcOptions opt;
  opt.f_start_hz = 1e5;
  opt.f_stop_hz = 1e11;
  opt.points_per_decade = 5;
  const auto table =
      sp::ac_sweep(*bench.ckt, *bench.vin, {bench.out_node}, opt);
  const sp::Solution sol = sp::operating_point(*bench.ckt);
  const int out = bench.ckt->find_node(bench.out_node);
  bench.vin->set_ac_magnitude(1.0);
  ASSERT_GT(table.num_rows(), 0);
  for (int i = 0; i < table.num_rows(); ++i) {
    const double w = 2.0 * M_PI * table.at(i, 0);
    const std::vector<Complex> ref = dense_ac_reference(*bench.ckt, sol.x, w);
    EXPECT_NEAR(table.at(i, 1), std::abs(ref[out - 1]), 1e-9) << "row " << i;
  }
  bench.vin->set_ac_magnitude(0.0);
}

// ---------------------------------------------------------- symbolic reuse

TEST(AcSystem, SymbolicAnalysisAmortizedAcrossSweep) {
  auto bench = ckt_lib::make_rc_ladder(100, 1e3, 1e-15, 1.0);
  const sp::Solution sol = sp::operating_point(*bench.ckt);
  bench.vin->set_ac_magnitude(1.0);

  sp::AcSystem sys;
  sys.build(*bench.ckt, sol.x);
  std::vector<Complex> x;
  for (const double f : sp::log_frequency_grid(1e3, 1e12, 10)) {
    ASSERT_TRUE(sys.assemble_factor(2.0 * M_PI * f));
    x = sys.stimulus();
    sys.solve_in_place(x);
  }
  EXPECT_EQ(sys.analyze_count(), 1)
      << "pattern is frequency-independent: one symbolic analysis per sweep";

  // Rebuild for the same topology (re-biased sweep): the pattern and the
  // LU analysis survive; only values are refreshed.
  sys.build(*bench.ckt, sol.x);
  for (const double f : sp::log_frequency_grid(1e3, 1e12, 5)) {
    ASSERT_TRUE(sys.assemble_factor(2.0 * M_PI * f));
  }
  EXPECT_EQ(sys.analyze_count(), 1);
}

// ------------------------------------------------------------ adjoint solve

TEST(AcSystem, AdjointTransferMatchesForwardSolve) {
  auto bench = ckt_lib::make_rc_ladder(12, 1e3, 1e-13, 1.0);
  sp::Circuit& ckt = *bench.ckt;
  const sp::Solution sol = sp::operating_point(ckt);
  const int out = ckt.find_node(bench.out_node);

  sp::AcSystem sys;
  sys.build(ckt, sol.x);
  ASSERT_TRUE(sys.assemble_factor(2.0 * M_PI * 1e6));
  const int n = sys.size();

  // Adjoint: y[j] = transfer from unit current at row j to V(out).
  std::vector<Complex> y(n);
  y[out - 1] = {1.0, 0.0};
  sys.solve_transpose_in_place(y);

  // Forward check at a handful of injection rows.
  for (const int row : {1, 4, 7, n - 1}) {
    std::vector<Complex> b(n);
    b[row] = {1.0, 0.0};
    sys.solve_in_place(b);
    EXPECT_LT(std::abs(b[out - 1] - y[row]), 1e-12) << "row " << row;
  }
}

// ------------------------------------------------------------------- noise

TEST(Noise, ResistorDividerMatches4kTParallelR) {
  sp::Circuit ckt;
  auto* vin = ckt.add_vsource("vin", "in", "0", 0.0);
  ckt.add_resistor("r1", "in", "out", 1e3);
  ckt.add_resistor("r2", "out", "0", 3e3);

  sp::AcOptions opt;
  opt.f_start_hz = 1e3;
  opt.f_stop_hz = 1e6;
  opt.points_per_decade = 3;
  const sp::NoiseResult res = sp::noise_sweep(ckt, *vin, "out", opt);

  const double r_par = 1e3 * 3e3 / (1e3 + 3e3);  // 750 ohm
  const double s_expected = 4.0 * kBoltzmann * 300.0 * r_par;
  const int oc = res.table.column_index("onoise_v2_hz");
  const int ic = res.table.column_index("inoise_v2_hz");
  const int gc = res.table.column_index("gain_mag");
  for (int i = 0; i < res.table.num_rows(); ++i) {
    EXPECT_NEAR(res.table.at(i, oc), s_expected, 1e-3 * s_expected);
    EXPECT_NEAR(res.table.at(i, gc), 0.75, 1e-9);
    EXPECT_NEAR(res.table.at(i, ic), s_expected / (0.75 * 0.75),
                1e-3 * s_expected);
  }

  // Per-source contributions are labelled and sum to the total.
  ASSERT_EQ(res.contributions.size(), 2u);
  EXPECT_EQ(res.contributions[0].first, "r1.thermal");
  EXPECT_EQ(res.contributions[1].first, "r2.thermal");
  const double sum =
      res.contributions[0].second + res.contributions[1].second;
  EXPECT_NEAR(sum, res.onoise_total_v2, 1e-9 * res.onoise_total_v2);
}

TEST(Noise, RcIntegratedOutputNoiseIsKtOverC) {
  // The textbook result: integrating 4kTR / (1 + (2 pi f R C)^2) over all
  // frequency gives kT/C, independent of R.
  sp::Circuit ckt;
  auto* vin = ckt.add_vsource("vin", "in", "0", 0.0);
  ckt.add_resistor("r1", "in", "out", 1e3);
  ckt.add_capacitor("c1", "out", "0", 1e-9);

  const double fc = 1.0 / (2.0 * M_PI * 1e3 * 1e-9);  // 159.2 kHz
  sp::AcOptions opt;
  opt.f_start_hz = fc / 100.0;
  opt.f_stop_hz = 1000.0 * fc;
  opt.points_per_decade = 20;
  const sp::NoiseResult res = sp::noise_sweep(ckt, *vin, "out", opt);

  const double kt_over_c = kBoltzmann * 300.0 / 1e-9;
  EXPECT_NEAR(res.onoise_total_v2, kt_over_c, 0.01 * kt_over_c);
}

TEST(Noise, DiodeShotNoiseMatchesAnalytic) {
  sp::Circuit ckt;
  auto* vin = ckt.add_vsource("vin", "in", "0", 1.0);
  ckt.add_resistor("r1", "in", "d", 1e4);
  ckt.add_diode("d1", "d", "0", 1e-14);

  const sp::Solution sol = sp::operating_point(ckt);
  const double vd = sp::node_voltage(ckt, sol, "d");
  const double i_d = (1.0 - vd) / 1e4;
  ASSERT_GT(i_d, 1e-6);  // forward biased

  sp::AcOptions opt;
  opt.f_start_hz = 1e3;
  opt.f_stop_hz = 1e4;
  opt.points_per_decade = 2;
  const sp::NoiseResult res = sp::noise_sweep(ckt, *vin, "d", opt);

  // Small-signal: diode conductance gd ~ I/Vt; output resistance R||rd.
  const double vt = 8.617333e-5 * 300.0;
  const double gd = (i_d + 1e-14) / vt;
  const double r_out = 1.0 / (1.0 / 1e4 + gd);
  const double s_expected =
      (2.0 * kQ * i_d + 4.0 * kBoltzmann * 300.0 / 1e4) * r_out * r_out;
  const int oc = res.table.column_index("onoise_v2_hz");
  EXPECT_NEAR(res.table.at(0, oc), s_expected, 0.02 * s_expected);

  ASSERT_EQ(res.contributions.size(), 2u);
  EXPECT_EQ(res.contributions[1].first, "d1.shot");
  EXPECT_GT(res.contributions[1].second, 0.0);
}

TEST(Noise, CommonSourceChannelThermalMatchesSmallSignal) {
  auto base = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  dev::NoiseParams np;
  np.gamma = 1.0;
  const auto m = dev::with_noise(base, np);

  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  auto* vg = ckt.add_vsource("vg", "g", "0", 0.45);
  ckt.add_resistor("rl", "vdd", "d", 2e3);
  ckt.add_fet("m1", "d", "g", "0", m);

  const sp::Solution sol = sp::operating_point(ckt);
  const double vd = sp::node_voltage(ckt, sol, "d");
  const dev::DeviceEval e = m->eval(0.45, vd);

  sp::AcOptions opt;
  opt.f_start_hz = 1e3;
  opt.f_stop_hz = 1e4;
  opt.points_per_decade = 2;
  const sp::NoiseResult res = sp::noise_sweep(ckt, *vg, "d", opt);

  const double r_out = 1.0 / (1.0 / 2e3 + e.gds);
  const double s_thermal = 1.0 * 4.0 * kBoltzmann * 300.0 * e.gm;
  const double s_rl = 4.0 * kBoltzmann * 300.0 / 2e3;
  const double s_expected = (s_thermal + s_rl) * r_out * r_out;
  const int oc = res.table.column_index("onoise_v2_hz");
  EXPECT_NEAR(res.table.at(0, oc), s_expected, 0.03 * s_expected);

  // Input-referred: S_out / (gm r_out)^2.
  const int ic = res.table.column_index("inoise_v2_hz");
  const double gain = e.gm * r_out;
  EXPECT_NEAR(res.table.at(0, ic), s_expected / (gain * gain),
              0.05 * s_expected / (gain * gain));
}

TEST(Noise, FetFlickerHasOneOverFSlope) {
  auto base = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  dev::NoiseParams np;
  np.gamma = 1.0;
  np.kf = 1e-10;  // flicker floods thermal noise below ~MHz
  np.af = 1.0;
  const auto m = dev::with_noise(base, np);

  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  auto* vg = ckt.add_vsource("vg", "g", "0", 0.45);
  ckt.add_resistor("rl", "vdd", "d", 2e3);
  ckt.add_fet("m1", "d", "g", "0", m);

  sp::AcOptions opt;
  opt.f_start_hz = 1.0;
  opt.f_stop_hz = 100.0;
  opt.points_per_decade = 1;
  const sp::NoiseResult res = sp::noise_sweep(ckt, *vg, "d", opt);
  const int oc = res.table.column_index("onoise_v2_hz");
  ASSERT_GE(res.table.num_rows(), 3);
  // S(1 Hz) / S(100 Hz) ~ 100 in the flicker-dominated band.
  const double ratio = res.table.at(0, oc) / res.table.at(2, oc);
  EXPECT_NEAR(ratio, 100.0, 5.0);

  bool has_flicker = false;
  for (const auto& [label, v] : res.contributions) {
    if (label == "m1.flicker") {
      has_flicker = true;
      EXPECT_GT(v, 0.0);
    }
  }
  EXPECT_TRUE(has_flicker);
}

TEST(Noise, OutputNodeMustNotBeGround) {
  sp::Circuit ckt;
  auto* vin = ckt.add_vsource("vin", "in", "0", 0.0);
  ckt.add_resistor("r1", "in", "0", 1e3);
  EXPECT_THROW(sp::noise_sweep(ckt, *vin, "0"),
               carbon::phys::PreconditionError);
}

}  // namespace
