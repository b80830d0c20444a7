// The MNA engine's one linear backend (the sparse symbolic-reuse LU) on
// every style of deck the library ships — linear networks, diode and FET
// operating points, the inverter VTC sweep, the SRAM cross-coupled pair,
// ring-oscillator transient steps, parsed netlists and generated ladders,
// including the gmin- and source-stepping homotopy stamp paths.  Each case
// is checked against the analytic values its deck has or against a
// test-local dense reference: from the engine's solution, one Newton step
// of the engine (MnaSystem assembly, sparse LU) must land where the same
// element stamps, assembled into a dense matrix without MnaSystem and
// solved with phys::solve_dense, do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/cells.h"
#include "device/alpha_power.h"
#include "phys/linalg.h"
#include "spice/analyses.h"
#include "spice/circuit.h"
#include "spice/mna.h"
#include "spice/netlist_parser.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
namespace cc = carbon::circuit;
using carbon::phys::Matrix;

/// Dense assembly of @p ckt's Newton system at the iterate and stamp state
/// of @p at: a capture pass records each element's footprint, then a
/// slot-mode stamp writes its values through pointers into @p jac / @p rhs.
/// None of MnaSystem's pattern, slot tables or static baseline is involved.
void assemble_dense(const sp::Circuit& ckt, const sp::StampContext& at,
                    Matrix& jac, std::vector<double>& rhs) {
  const int n = ckt.num_unknowns();
  jac = Matrix(n, n);
  rhs.assign(n, 0.0);
  double ground = 0.0;  // sink of ground-row/col writes
  for (const auto& el : ckt.elements()) {
    std::vector<std::pair<int, int>> coords;
    std::vector<int> rows;
    sp::StampContext capture = at;
    capture.capture_jac = &coords;
    capture.capture_rhs = &rows;
    el->stamp(capture);

    std::vector<double*> jac_slots, rhs_slots;
    for (const auto& [r, c] : coords) {
      jac_slots.push_back(r > 0 && c > 0 ? &jac(r - 1, c - 1) : &ground);
    }
    for (const int r : rows) rhs_slots.push_back(r > 0 ? &rhs[r - 1] : &ground);
    sp::StampContext write = at;
    write.jac_slots = jac_slots.data();
    write.rhs_slots = rhs_slots.data();
#ifndef NDEBUG
    write.debug_jac = coords.data();
    write.debug_rhs = rows.data();
    write.debug_jac_count = static_cast<int>(coords.size());
    write.debug_rhs_count = static_cast<int>(rows.size());
#endif
    el->stamp(write);
  }
}

/// One Newton step from @p x at the gmin, source scale and stamp state of
/// @p at: the engine's (newton_solve capped at one iteration) must match
/// the dense reference's (solve_dense on assemble_dense) on every unknown
/// to @p tol.
void expect_step_matches_reference(sp::Circuit& ckt, std::vector<double> x,
                                   sp::StampContext at,
                                   sp::NewtonWorkspace& ws,
                                   double tol = 1e-9) {
  sp::SolverOptions one_step;
  one_step.max_iterations = 1;
  std::vector<double> engine = x;
  int iters = 0;
  sp::newton_solve(ckt, engine, one_step, at.gmin, at.source_scale, at, ws,
                   &iters);
  at.x = &x;
  Matrix jac;
  std::vector<double> rhs;
  assemble_dense(ckt, at, jac, rhs);
  const std::vector<double> ref = carbon::phys::solve_dense(jac, rhs);
  ASSERT_EQ(engine.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(engine[i], ref[i], tol) << "unknown " << i;
  }
}

/// Solve the operating point on the engine and check the step from it
/// against the dense reference.
sp::Solution expect_op_matches_reference(sp::Circuit& ckt) {
  const sp::SolverOptions opts;
  sp::NewtonWorkspace ws;
  const sp::Solution sol = sp::operating_point(ckt, opts, nullptr, &ws);
  sp::StampContext dc;
  dc.gmin = opts.gmin_final;
  expect_step_matches_reference(ckt, sol.x, dc, ws);
  return sol;
}

std::shared_ptr<dev::AlphaPowerModel> saturating_fet() {
  return std::make_shared<dev::AlphaPowerModel>(
      dev::make_fig2_saturating_params());
}

TEST(SparseBackend, LinearNetworks) {
  sp::Circuit divider;
  divider.add_vsource("v1", "a", "0", 10.0);
  divider.add_resistor("r1", "a", "b", 2e3);
  divider.add_resistor("r2", "b", "0", 3e3);
  const sp::Solution sol = expect_op_matches_reference(divider);
  EXPECT_NEAR(sp::node_voltage(divider, sol, "b"), 6.0, 1e-12);

  sp::Circuit bridge;
  bridge.add_vsource("v1", "top", "0", 10.0);
  bridge.add_resistor("r1", "top", "l", 1e3);
  bridge.add_resistor("r2", "top", "r", 2e3);
  bridge.add_resistor("r3", "l", "0", 2e3);
  bridge.add_resistor("r4", "r", "0", 1e3);
  bridge.add_resistor("rb", "l", "r", 5e3);
  expect_op_matches_reference(bridge);
}

TEST(SparseBackend, NonlinearOperatingPoints) {
  sp::Circuit diode;
  diode.add_vsource("v1", "a", "0", 5.0);
  diode.add_resistor("r1", "a", "d", 1e3);
  diode.add_diode("d1", "d", "0", 1e-14, 1.0);
  expect_op_matches_reference(diode);

  sp::Circuit amp;
  amp.add_vsource("vdd", "vdd", "0", 1.0);
  amp.add_vsource("vg", "g", "0", 0.45);
  amp.add_resistor("rl", "vdd", "d", 2e3);
  amp.add_fet("m1", "d", "g", "0", saturating_fet());
  expect_op_matches_reference(amp);
}

TEST(SparseBackend, InverterVtcSweepMatchesReference) {
  auto bench = cc::make_inverter(saturating_fet());
  sp::Circuit& ckt = *bench.ckt;
  std::vector<double> sweep;
  for (int i = 0; i <= 40; ++i) sweep.push_back(i / 40.0);
  std::vector<std::string> nodes;
  for (int id = 1; id <= ckt.num_nodes(); ++id) {
    nodes.push_back(ckt.node_name(id));
  }
  const sp::SolverOptions opts;
  sp::NewtonWorkspace ws;
  const auto table = sp::dc_sweep(ckt, *bench.vin, sweep, nodes, opts, &ws);
  ASSERT_EQ(table.num_rows(), static_cast<int>(sweep.size()));

  sp::StampContext dc;
  dc.gmin = opts.gmin_final;
  for (int row = 0; row < table.num_rows(); ++row) {
    SCOPED_TRACE(testing::Message() << "vin " << sweep[row]);
    bench.vin->set_wave(sp::dc(sweep[row]));
    // Node voltages from the sweep; the step fills in the branch currents
    // the table does not record.
    std::vector<double> x(ckt.num_unknowns(), 0.0);
    for (int id = 1; id <= ckt.num_nodes(); ++id) x[id - 1] = table.at(row, id);
    expect_step_matches_reference(ckt, x, dc, ws);
  }
}

TEST(SparseBackend, SramCrossCoupledPairMatchesReference) {
  // Hold-state 6T core: two cross-coupled inverters (access FETs off).
  auto n_model = saturating_fet();
  auto p_model = std::make_shared<dev::PTypeMirror>(n_model);
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_fet("mn1", "q", "qb", "0", n_model);
  ckt.add_fet("mp1", "q", "qb", "vdd", p_model);
  ckt.add_fet("mn2", "qb", "q", "0", n_model);
  ckt.add_fet("mp2", "qb", "q", "vdd", p_model);
  // Small skew source nudges the pair off the metastable point.
  ckt.add_isource("iskew", "0", "q", sp::dc(1e-7));
  expect_op_matches_reference(ckt);
}

TEST(SparseBackend, RingOscillatorTransientStepsMatchReference) {
  // A fixed-step trapezoidal march (BE start-up step) driven here step by
  // step: every step's engine solve must match the dense reference of the
  // same companion system.  Comparing per step, from one shared history,
  // keeps the ring's chaotic growth of rounding differences out of it.
  // The sparse LU refactors on the pivot order it picked for the DC
  // operating point; on these companion matrices that order costs digits
  // (up to ~8e-8 V here, where a fresh pivot analysis agrees with the
  // dense LU to 1e-16), hence 1e-7, the bound this deck always had.
  cc::CellOptions copt;
  copt.c_load = 5e-15;
  auto bench = cc::make_ring_oscillator(saturating_fet(), 5, copt);
  sp::Circuit& ckt = *bench.ckt;
  ckt.reset_state();
  const sp::SolverOptions opts;
  sp::NewtonWorkspace ws;
  std::vector<double> x = sp::operating_point(ckt, opts, nullptr, &ws).x;

  const double dt = 0.5e-12;
  for (int k = 0; k < 100; ++k) {
    sp::StampContext step;
    step.transient = true;
    step.dt_s = dt;
    step.trapezoidal = k > 0;
    step.time_s = (k + 1) * dt;
    step.gmin = opts.gmin_final;
    int iters = 0;
    ASSERT_TRUE(sp::newton_solve(ckt, x, opts, opts.gmin_final, 1.0, step,
                                 ws, &iters))
        << "step " << k;
    SCOPED_TRACE(testing::Message() << "step " << k);
    expect_step_matches_reference(ckt, x, step, ws, 1e-7);
    step.x = &x;
    for (const auto& el : ckt.elements()) el->accept_step(step);
  }
}

TEST(SparseBackend, ParsedNetlistDecksMatchReference) {
  {
    const auto ckt = sp::parse_netlist(R"(
v1 a 0 10
r1 a b 2k
r2 b 0 3k
d1 b 0 is=1e-14
)");
    expect_op_matches_reference(*ckt);
  }
  {
    sp::ModelRegistry models;
    models["nfet"] = saturating_fet();
    models["pfet"] = std::make_shared<dev::PTypeMirror>(models["nfet"]);
    const auto ckt = sp::parse_netlist(R"(
vdd vdd 0 1.0
vin in  0 0.5
mn  out in 0   nfet
mp  out in vdd pfet
c1  out 0 10f
)",
                                       models);
    expect_op_matches_reference(*ckt);
  }
}

TEST(SparseBackend, GeneratedLaddersMatchReferenceAndScale) {
  // Mid-size nonlinear ladder against the dense reference.
  {
    auto bench = cc::make_diode_ladder(120, 100.0, 1e-14, 1.0);
    expect_op_matches_reference(*bench.ckt);
  }
  // Large RC ladder: the DC steady state is analytic (no current flows,
  // every node sits at the source voltage).
  {
    auto bench = cc::make_rc_ladder(2000, 1e3, 1e-15, 0.75);
    const auto sol = sp::operating_point(*bench.ckt);
    EXPECT_NEAR(sp::node_voltage(*bench.ckt, sol, bench.out_node), 0.75,
                1e-9);
    EXPECT_NEAR(sp::node_voltage(*bench.ckt, sol, "n1"), 0.75, 1e-9);
  }
}

TEST(SparseBackend, HomotopyRungStampsMatchReference) {
  // Drive newton_solve directly across the gmin- and source-stepping
  // ladders: the fallback stamp paths (gmin shunts, scaled sources) must
  // match the dense reference rung by rung.
  sp::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_vsource("vg", "g", "0", 0.45);
  ckt.add_resistor("rl", "vdd", "d", 2e3);
  ckt.add_fet("m1", "d", "g", "0", saturating_fet());
  ckt.add_diode("dclamp", "d", "0", 1e-15);
  ckt.assign_branches();

  const sp::SolverOptions opts;
  sp::NewtonWorkspace ws;
  const sp::StampContext proto;
  for (const double gmin : {1e-3, 1e-6, 1e-12}) {
    for (const double scale : {0.3, 0.7, 1.0}) {
      std::vector<double> x(ckt.num_unknowns(), 0.0);
      int iters = 0;
      ASSERT_TRUE(
          sp::newton_solve(ckt, x, opts, gmin, scale, proto, ws, &iters));
      sp::StampContext rung = proto;
      rung.gmin = gmin;
      rung.source_scale = scale;
      SCOPED_TRACE(testing::Message() << "gmin " << gmin << " scale " << scale);
      expect_step_matches_reference(ckt, x, rung, ws);
    }
  }
}

TEST(SparseBackend, SymbolicAnalysisRunsOncePerTopology) {
  // A transient re-stamps and re-factors every Newton iteration of every
  // step; the sparse symbolic analysis must happen exactly once.
  auto bench = cc::make_rc_ladder(100, 1e3, 1e-12, 1.0);
  bench.vin->set_wave(sp::pulse(0.0, 1.0, 1e-12, 1e-12, 1e-12, 1e-9, 2e-9));
  sp::TransientOptions topt;
  topt.t_stop = 200e-12;
  topt.dt = 2e-12;

  // transient() owns its workspace; replicate its loop shape via repeated
  // operating points on one workspace instead.
  sp::NewtonWorkspace ws;
  std::vector<double> warm;
  for (int i = 0; i < 20; ++i) {
    bench.vin->set_wave(sp::dc(i * 0.05));
    const auto sol = sp::operating_point(*bench.ckt, topt.solver,
                                         warm.empty() ? nullptr : &warm, &ws);
    warm = sol.x;
  }
  EXPECT_EQ(ws.mna.analyze_count(), 1);

  // And the transient itself still matches the pulse end state.
  const auto table = sp::transient(*bench.ckt, topt, {bench.out_node});
  EXPECT_GT(table.num_rows(), 10);
}

TEST(SparseBackend, WorkspaceNotFooledByCircuitAddressReuse) {
  // Two stack-local circuits built back to back typically reuse the same
  // address and here have identical element/unknown counts.  The cached
  // slot tables must key on the circuit's unique id, not its address —
  // otherwise the second solve stamps through the first topology's
  // footprint and silently returns wrong voltages.
  sp::NewtonWorkspace ws;
  const auto solve_b = [&](bool r2_to_ground) {
    sp::Circuit ckt;
    ckt.add_vsource("v1", "a", "0", 1.0);
    ckt.add_resistor("r1", "a", "b", 1e3);
    ckt.add_resistor("r2", r2_to_ground ? "b" : "a", "0", 1e3);
    const auto sol = sp::operating_point(ckt, {}, nullptr, &ws);
    return sp::node_voltage(ckt, sol, "b");
  };
  EXPECT_NEAR(solve_b(true), 0.5, 1e-12);   // divider: b = 1/2
  EXPECT_NEAR(solve_b(false), 1.0, 1e-12);  // b floats at a's potential
}

TEST(SparseBackend, SharedWorkspaceAcrossTopologies) {
  // One workspace reused for circuits of different size/topology must
  // rebuild its pattern transparently (and still be correct).
  sp::NewtonWorkspace ws;
  const sp::SolverOptions opts;

  sp::Circuit small;
  small.add_vsource("v1", "a", "0", 10.0);
  small.add_resistor("r1", "a", "b", 2e3);
  small.add_resistor("r2", "b", "0", 3e3);
  const auto s1 = sp::operating_point(small, opts, nullptr, &ws);
  EXPECT_NEAR(sp::node_voltage(small, s1, "b"), 6.0, 1e-9);

  auto ladder = cc::make_diode_ladder(50, 100.0);
  const auto s2 = sp::operating_point(*ladder.ckt, opts, nullptr, &ws);
  EXPECT_GT(sp::node_voltage(*ladder.ckt, s2, ladder.out_node), 0.0);

  const auto s3 = sp::operating_point(small, opts, nullptr, &ws);
  EXPECT_NEAR(sp::node_voltage(small, s3, "b"), 6.0, 1e-9);
}

}  // namespace
