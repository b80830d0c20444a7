// DC analyses of the MNA engine: linear networks with known solutions,
// nonlinear convergence (diode, FET), sweeps and source bookkeeping.
#include "phys/require.h"
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "device/alpha_power.h"
#include "device/linear_fet.h"
#include "spice/analyses.h"
#include "spice/circuit.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;

TEST(SpiceDc, VoltageDivider) {
  sp::Circuit ckt;
  ckt.add_vsource("v1", "a", "0", 10.0);
  ckt.add_resistor("r1", "a", "b", 2e3);
  ckt.add_resistor("r2", "b", "0", 3e3);
  const auto sol = sp::operating_point(ckt);
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "b"), 6.0, 1e-9);
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "a"), 10.0, 1e-9);
}

TEST(SpiceDc, VsourceCurrentSignConvention) {
  // Sourcing supply: branch current (into + terminal) is negative.
  sp::Circuit ckt;
  auto* v1 = ckt.add_vsource("v1", "a", "0", 5.0);
  ckt.add_resistor("r1", "a", "0", 1e3);
  const auto sol = sp::operating_point(ckt);
  EXPECT_NEAR(sp::vsource_current(ckt, sol, *v1), -5e-3, 1e-12);
}

TEST(SpiceDc, CurrentSourceIntoResistor) {
  sp::Circuit ckt;
  ckt.add_isource("i1", "0", "a", sp::dc(1e-3));  // pushes into node a
  ckt.add_resistor("r1", "a", "0", 2e3);
  const auto sol = sp::operating_point(ckt);
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "a"), 2.0, 1e-9);
}

TEST(SpiceDc, WheatstoneBridge) {
  sp::Circuit ckt;
  ckt.add_vsource("v1", "top", "0", 10.0);
  ckt.add_resistor("r1", "top", "l", 1e3);
  ckt.add_resistor("r2", "top", "r", 2e3);
  ckt.add_resistor("r3", "l", "0", 2e3);
  ckt.add_resistor("r4", "r", "0", 1e3);
  ckt.add_resistor("rb", "l", "r", 5e3);
  const auto sol = sp::operating_point(ckt);
  // Nodal solution: 17L - 2R = 100, 17R - 2L = 50 => L = 1800/285,
  // R = 1050/285.
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "l"), 1800.0 / 285.0, 1e-6);
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "r"), 1050.0 / 285.0, 1e-6);
}

TEST(SpiceDc, DiodeOperatingPoint) {
  // 5 V through 1 kOhm into a diode: V_d settles near 0.6-0.8 V and KCL
  // holds: (5 - Vd)/R = Is (exp(Vd/nVt) - 1).
  sp::Circuit ckt;
  ckt.add_vsource("v1", "a", "0", 5.0);
  ckt.add_resistor("r1", "a", "d", 1e3);
  ckt.add_diode("d1", "d", "0", 1e-14, 1.0);
  const auto sol = sp::operating_point(ckt);
  const double vd = sp::node_voltage(ckt, sol, "d");
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 0.8);
  const double i_r = (5.0 - vd) / 1e3;
  const double i_d = 1e-14 * (std::exp(vd / 0.02585) - 1.0);
  EXPECT_NEAR(i_r / i_d, 1.0, 5e-3);
}

TEST(SpiceDc, DiodeReverseBlocks) {
  sp::Circuit ckt;
  ckt.add_vsource("v1", "a", "0", -5.0);
  ckt.add_resistor("r1", "a", "d", 1e3);
  ckt.add_diode("d1", "d", "0", 1e-14, 1.0);
  const auto sol = sp::operating_point(ckt);
  EXPECT_NEAR(sp::node_voltage(ckt, sol, "d"), -5.0, 0.01);
}

TEST(SpiceDc, FetCommonSourceAmplifier) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_vsource("vg", "g", "0", 0.45);
  ckt.add_resistor("rl", "vdd", "d", 2e3);
  ckt.add_fet("m1", "d", "g", "0", m);
  const auto sol = sp::operating_point(ckt);
  const double vd = sp::node_voltage(ckt, sol, "d");
  // KCL at the drain: (vdd - vd)/RL = Id(vg, vd).
  const double i_r = (1.0 - vd) / 2e3;
  const double i_fet = m->drain_current(0.45, vd);
  EXPECT_NEAR(i_r / i_fet, 1.0, 1e-4);
  EXPECT_GT(vd, 0.05);
  EXPECT_LT(vd, 0.95);
}

TEST(SpiceDc, DcSweepTracksAnalytic) {
  sp::Circuit ckt;
  auto* vin = ckt.add_vsource("vin", "a", "0", 0.0);
  ckt.add_resistor("r1", "a", "b", 1e3);
  ckt.add_resistor("r2", "b", "0", 1e3);
  const auto table =
      sp::dc_sweep(ckt, *vin, {0.0, 1.0, 2.0, 3.0}, {"b"});
  ASSERT_EQ(table.num_rows(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(table.at(i, 1), table.at(i, 0) / 2.0, 1e-9);
  }
}

TEST(SpiceDc, FloatingGateHandledByShunt) {
  // A FET gate with no DC path must not make the system singular.
  auto m = std::make_shared<dev::LinearFetModel>(
      dev::make_fig2_linear_params());
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_resistor("rd", "vdd", "d", 1e4);
  ckt.add_capacitor("cg", "g", "0", 1e-15);  // only capacitive gate tie
  ckt.add_fet("m1", "d", "g", "0", m);
  EXPECT_NO_THROW(sp::operating_point(ckt));
}

TEST(SpiceDc, EmptyCircuitRejected) {
  sp::Circuit ckt;
  EXPECT_THROW(sp::operating_point(ckt), carbon::phys::PreconditionError);
}

TEST(SpiceDc, WarmStartConvergesFaster) {
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_vsource("vg", "g", "0", 0.5);
  ckt.add_resistor("rl", "vdd", "d", 2e3);
  ckt.add_fet("m1", "d", "g", "0", m);
  const auto cold = sp::operating_point(ckt);
  const auto warm = sp::operating_point(ckt, {}, &cold.x);
  EXPECT_LE(warm.stats.iterations, cold.stats.iterations);
}

TEST(SpiceDc, SharedNewtonWorkspaceReproducesFreshSolves) {
  // Sweep drivers keep one NewtonWorkspace across points (and even across
  // differently-sized circuits); the solutions must match fresh solves.
  auto m = std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
  sp::NewtonWorkspace ws;

  sp::Circuit small;
  small.add_vsource("v1", "a", "0", 10.0);
  small.add_resistor("r1", "a", "b", 2e3);
  small.add_resistor("r2", "b", "0", 3e3);
  const auto s1 = sp::operating_point(small, {}, nullptr, &ws);
  EXPECT_NEAR(sp::node_voltage(small, s1, "b"), 6.0, 1e-9);

  sp::Circuit fet;
  fet.add_vsource("vdd", "vdd", "0", 1.0);
  fet.add_vsource("vg", "g", "0", 0.5);
  fet.add_resistor("rl", "vdd", "d", 2e3);
  fet.add_fet("m1", "d", "g", "0", m);
  const auto with_ws = sp::operating_point(fet, {}, nullptr, &ws);
  const auto fresh = sp::operating_point(fet);
  ASSERT_EQ(with_ws.x.size(), fresh.x.size());
  for (size_t i = 0; i < fresh.x.size(); ++i) {
    EXPECT_NEAR(with_ws.x[i], fresh.x[i], 1e-12);
  }

  // Workspace still valid for the first circuit again (size shrinks back).
  const auto s2 = sp::operating_point(small, {}, nullptr, &ws);
  EXPECT_NEAR(sp::node_voltage(small, s2, "b"), 6.0, 1e-9);
}

TEST(SpiceDc, NodeNameLookup) {
  sp::Circuit ckt;
  ckt.add_resistor("r1", "alpha", "0", 1.0);
  EXPECT_EQ(ckt.find_node("alpha"), 1);
  EXPECT_EQ(ckt.find_node("gnd"), 0);
  EXPECT_THROW(ckt.find_node("nope"), carbon::phys::PreconditionError);
  EXPECT_EQ(ckt.node_name(1), "alpha");
}

}  // namespace
