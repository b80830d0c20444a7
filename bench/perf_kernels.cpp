// P1 — google-benchmark microbenchmarks of the numerical kernels: device
// model evaluation throughput, barrier self-consistency, SPICE solves and
// the logic simulator.  These bound how large a study the library can run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "circuit/cells.h"
#include "circuit/sram.h"
#include "circuit/vtc.h"
#include "spice/ac.h"
#include "spice/smallsignal.h"
#include "device/alpha_power.h"
#include "device/cntfet.h"
#include "device/mosfet.h"
#include "device/tabulated.h"
#include "device/tfet.h"
#include "fab/placement.h"
#include "logic/subneg.h"
#include "phys/parallel.h"
#include "spice/analyses.h"
#include "spice/measure.h"

namespace {

using namespace carbon;

void BM_CntfetEval(benchmark::State& state) {
  const device::CntfetModel m(device::make_franklin_cntfet_params(20e-9));
  double vg = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.drain_current(vg, 0.5));
    vg = (vg < 0.7) ? vg + 1e-4 : 0.3;  // defeat any caching
  }
}
BENCHMARK(BM_CntfetEval);

void BM_CntfetEvalWithSeriesR(benchmark::State& state) {
  device::CntfetParams p = device::make_franklin_cntfet_params(20e-9);
  p.r_source_ohm = p.r_drain_ohm = 5.5e3;
  const device::CntfetModel m(p);
  double vg = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.drain_current(vg, 0.5));
    vg = (vg < 0.7) ? vg + 1e-4 : 0.3;
  }
}
BENCHMARK(BM_CntfetEvalWithSeriesR);

void BM_VirtualSourceEval(benchmark::State& state) {
  const device::VirtualSourceModel m(device::make_si_trigate_params());
  double vg = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.drain_current(vg, 0.5));
    vg = (vg < 0.9) ? vg + 1e-4 : 0.3;
  }
}
BENCHMARK(BM_VirtualSourceEval);

void BM_TfetEval(benchmark::State& state) {
  const device::CntTfetModel m(device::make_fig6_tfet_params());
  double vg = -0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.drain_current(vg, -0.5));
    vg = (vg > -2.0) ? vg - 1e-4 : -0.2;
  }
}
BENCHMARK(BM_TfetEval);

void BM_CntfetConstruction(benchmark::State& state) {
  for (auto _ : state) {
    device::CntfetModel m(device::make_franklin_cntfet_params(20e-9));
    benchmark::DoNotOptimize(m.drain_current(0.5, 0.5));
  }
}
BENCHMARK(BM_CntfetConstruction);

void BM_SpiceInverterOp(benchmark::State& state) {
  auto n = std::make_shared<device::VirtualSourceModel>(
      device::make_si_trigate_params());
  auto bench = circuit::make_inverter(n);
  bench.vin->set_wave(spice::dc(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::operating_point(*bench.ckt));
  }
}
BENCHMARK(BM_SpiceInverterOp);

void BM_SpiceVtcSweep(benchmark::State& state) {
  auto n = std::make_shared<device::VirtualSourceModel>(
      device::make_si_trigate_params());
  auto bench = circuit::make_inverter(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::run_vtc(bench, 41));
  }
}
BENCHMARK(BM_SpiceVtcSweep);

// ---- the tabulated fast path vs the direct self-consistent models ----

device::CntfetParams vtc_cntfet_params() {
  device::CntfetParams p = device::make_franklin_cntfet_params(20e-9);
  p.ef_source_ev = -0.18;  // digital-threshold retarget for a 0.6 V cell
  return p;
}

void BM_TabulatedCntfetEval(benchmark::State& state) {
  auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
  const device::DeviceModelPtr tab = device::make_tabulated(exact, 0.6);
  double vg = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tab->eval(vg, 0.5));
    vg = (vg < 0.6) ? vg + 1e-4 : 0.1;  // defeat any caching
  }
}
BENCHMARK(BM_TabulatedCntfetEval);

/// Seed path: the exact CNTFET inside the Newton loop (every stamp pays
/// nested bracket+Brent barrier solves through the FD fallback).
void BM_SpiceVtcSweepCntfetDirect(benchmark::State& state) {
  auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
  circuit::CellOptions opt;
  opt.v_dd = 0.6;
  auto bench = circuit::make_inverter(exact, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::run_vtc(bench, 41));
  }
}
BENCHMARK(BM_SpiceVtcSweepCntfetDirect);

/// Fast path: same sweep on the table-compiled CNTFET with the persistent
/// Newton workspace and point-to-point warm starts.
void BM_SpiceVtcSweepWarmStart(benchmark::State& state) {
  auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
  const device::DeviceModelPtr tab = device::make_tabulated(exact, 0.6);
  circuit::CellOptions opt;
  opt.v_dd = 0.6;
  auto bench = circuit::make_inverter(tab, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::run_vtc(bench, 41));
  }
}
BENCHMARK(BM_SpiceVtcSweepWarmStart);

// ---- Newton-solve scaling on the sparse symbolic-reuse LU ----
//
// The workload is a diode-loaded resistor ladder (make_diode_ladder): a
// nonlinear circuit whose Jacobian has the tridiagonal-plus-diagonal
// pattern typical of device arrays.  Each benchmark iteration runs a full
// cold-start operating point on a persistent workspace, so the LU pays its
// symbolic analysis once on the first iteration and pure numeric
// refactorization afterwards — exactly the sweep/transient duty cycle.
// state.range(0) is the MNA unknown count.  The CI smoke job gates the
// per-unknown cost of the largest size against the smallest.

void BM_NewtonSolveSparse(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto bench = circuit::make_diode_ladder(unknowns - 2, 100.0, 1e-14, 1.0);
  const spice::SolverOptions opts;
  spice::NewtonWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::operating_point(*bench.ckt, opts, nullptr, &ws));
  }
  state.SetComplexityN(unknowns);
}
BENCHMARK(BM_NewtonSolveSparse)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond)->Complexity();

/// A 2-D FET mesh stresses the ordering with a less regular pattern: a
/// grid of common-source stages whose gates tap the previous row.
void BM_NewtonSolveSparseFetGrid(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  auto model = std::make_shared<device::AlphaPowerModel>(
      device::make_fig2_saturating_params());
  spice::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 1.0);
  ckt.add_vsource("vg", "g0x0", "0", 0.45);
  for (int r = 0; r < side; ++r) {
    for (int c = 0; c < side; ++c) {
      const std::string drain =
          "d" + std::to_string(r) + "x" + std::to_string(c);
      const std::string gate =
          r == 0 ? (c == 0 ? "g0x0" : "d0x" + std::to_string(c - 1))
                 : "d" + std::to_string(r - 1) + "x" + std::to_string(c);
      ckt.add_resistor("r" + drain, "vdd", drain, 5e3);
      ckt.add_fet("m" + drain, drain, gate, "0", model);
    }
  }
  const spice::SolverOptions opts;
  spice::NewtonWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::operating_point(ckt, opts, nullptr, &ws));
  }
}
BENCHMARK(BM_NewtonSolveSparseFetGrid)
    ->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMicrosecond);

// ---- adaptive transient engine: fixed-step vs LTE-controlled stepping ----
//
// Two paper workloads, each as a fixed/adaptive pair on identical circuits
// and probe grids (dt_print) so the waveforms are directly comparable:
//  * a 5-stage CNTFET ring oscillator (free-running; the headline dynamic
//    demonstration of the paper), and
//  * a 6T SRAM write (driven; long quiescent hold intervals around a
//    wordline pulse — the adaptive engine's best case).
// Each benchmark also reports accuracy against a 4x-finer fixed-step
// reference computed once outside the timing loop: voltage RMS on the
// common dt_print grid, and (ring) the oscillation-period error.  For the
// driven SRAM deck the adaptive RMS criterion is absolute (<= 1e-4 V); for
// the free-running ring, pointwise RMS is phase-drift dominated for every
// integrator, so matched accuracy means beating the fixed baseline's RMS
// and period error, which the CI smoke job asserts.

spice::TransientOptions adaptive_pair_options(bool adaptive, double t_stop,
                                              double dt, double dt_print) {
  spice::TransientOptions o;
  o.t_stop = t_stop;
  o.dt = dt;
  o.dt_print = dt_print;
  o.adaptive = adaptive;
  o.lte_reltol = 1e-4;
  o.bypass_vtol = adaptive ? 1e-4 : 0.0;
  o.ic = spice::TransientIc::kFromOperatingPoint;
  return o;
}

phys::DataTable run_ring_tran(const device::DeviceModelPtr& model,
                              const spice::TransientOptions& opts) {
  circuit::CellOptions copt;
  copt.v_dd = 0.6;
  copt.c_load = 5e-15;
  auto bench = circuit::make_ring_oscillator(model, 5, copt);
  return spice::transient(*bench.ckt, opts, {"n0"});
}

phys::DataTable run_sram_write_tran(const device::DeviceModelPtr& model,
                                    const spice::TransientOptions& opts) {
  circuit::CellOptions copt;
  copt.v_dd = 0.6;
  auto bench = circuit::make_sram_write_bench(model, copt);
  return spice::transient(*bench.ckt, opts, {"q", "qb"});
}

double waveform_rms(const phys::DataTable& a, const phys::DataTable& b,
                    int col) {
  const int n = std::min(a.num_rows(), b.num_rows());
  double s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double d = a.at(i, col) - b.at(i, col);
    s2 += d * d;
  }
  return std::sqrt(s2 / n);
}

constexpr double kRingTStop = 10e-9, kRingDt = 2e-12, kRingPrint = 10e-12;
constexpr double kSramTStop = 4e-9, kSramDt = 1e-12, kSramPrint = 4e-12;

/// 4x-finer fixed-step reference waveforms, computed once and shared by
/// the fixed and adaptive benchmark bodies.
const phys::DataTable& ring_reference(const device::DeviceModelPtr& model) {
  static const phys::DataTable ref = run_ring_tran(
      model,
      adaptive_pair_options(false, kRingTStop, kRingDt / 4.0, kRingPrint));
  return ref;
}

const phys::DataTable& sram_reference(const device::DeviceModelPtr& model) {
  static const phys::DataTable ref = run_sram_write_tran(
      model,
      adaptive_pair_options(false, kSramTStop, kSramDt / 4.0, kSramPrint));
  return ref;
}

void transient_ring_bench(benchmark::State& state, bool adaptive) {
  static const device::DeviceModelPtr tab = [] {
    auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
    return device::make_tabulated(exact, 0.6);
  }();
  const spice::TransientOptions base =
      adaptive_pair_options(adaptive, kRingTStop, kRingDt, kRingPrint);

  spice::SolveRecord stats;
  phys::DataTable tr;
  for (auto _ : state) {
    spice::TransientOptions opts = base;
    opts.solver.record = &stats;
    tr = run_ring_tran(tab, opts);
    benchmark::DoNotOptimize(tr);
  }

  const phys::DataTable& ref = ring_reference(tab);
  const double v_mid = 0.3;
  const double p_ref = spice::oscillation_period(ref, "v(n0)", v_mid, 0);
  const double p_run = spice::oscillation_period(tr, "v(n0)", v_mid, 0);
  state.counters["newton_iters"] = static_cast<double>(stats.newton_iterations);
  state.counters["device_evals"] = static_cast<double>(stats.device_evals);
  state.counters["device_bypasses"] =
      static_cast<double>(stats.device_bypasses);
  state.counters["steps"] = static_cast<double>(stats.steps_accepted);
  state.counters["rms_v_vs_ref"] = waveform_rms(ref, tr, 1);
  state.counters["period_relerr"] = std::abs(p_run - p_ref) / p_ref;
}

void BM_TransientRingOscFixed(benchmark::State& state) {
  transient_ring_bench(state, false);
}
BENCHMARK(BM_TransientRingOscFixed)->Unit(benchmark::kMillisecond);

void BM_TransientRingOscAdaptive(benchmark::State& state) {
  transient_ring_bench(state, true);
}
BENCHMARK(BM_TransientRingOscAdaptive)->Unit(benchmark::kMillisecond);

void transient_sram_bench(benchmark::State& state, bool adaptive) {
  static const device::DeviceModelPtr tab = [] {
    auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
    return device::make_tabulated(exact, 0.6);
  }();
  const spice::TransientOptions base =
      adaptive_pair_options(adaptive, kSramTStop, kSramDt, kSramPrint);

  spice::SolveRecord stats;
  phys::DataTable tr;
  for (auto _ : state) {
    spice::TransientOptions opts = base;
    opts.solver.record = &stats;
    tr = run_sram_write_tran(tab, opts);
    benchmark::DoNotOptimize(tr);
  }

  const phys::DataTable& ref = sram_reference(tab);
  state.counters["newton_iters"] = static_cast<double>(stats.newton_iterations);
  state.counters["device_evals"] = static_cast<double>(stats.device_evals);
  state.counters["device_bypasses"] =
      static_cast<double>(stats.device_bypasses);
  state.counters["steps"] = static_cast<double>(stats.steps_accepted);
  state.counters["rms_v_vs_ref"] =
      std::max(waveform_rms(ref, tr, 1), waveform_rms(ref, tr, 2));
}

void BM_TransientSramWriteFixed(benchmark::State& state) {
  transient_sram_bench(state, false);
}
BENCHMARK(BM_TransientSramWriteFixed)->Unit(benchmark::kMillisecond);

void BM_TransientSramWriteAdaptive(benchmark::State& state) {
  transient_sram_bench(state, true);
}
BENCHMARK(BM_TransientSramWriteAdaptive)->Unit(benchmark::kMillisecond);

// ---- small-signal AC scaling on the sparse-complex engine, one symbolic
// analysis amortized across the whole sweep ----
//
// Workload: an RC-ladder AC sweep (7 log-spaced points over 3 decades) at
// state.range(0) MNA unknowns.  Each point memcpy-restores the captured G
// image, rescales the jωC slots and numerically refactors on the pattern
// analyzed once per sweep.  The CI smoke job gates the per-unknown cost of
// the largest size against the smallest.

void BM_AcSweepSparse(benchmark::State& state) {
  const int unknowns = static_cast<int>(state.range(0));
  auto bench = circuit::make_rc_ladder(unknowns - 2, 1e3, 1e-15, 1.0);
  spice::AcOptions opt;
  opt.f_start_hz = 1e6;
  opt.f_stop_hz = 1e9;
  opt.points_per_decade = 2;  // 7 points: a realistic pole-hunt sweep
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::ac_sweep(*bench.ckt, *bench.vin, {bench.out_node}, opt));
  }
  state.SetComplexityN(unknowns);
}
BENCHMARK(BM_AcSweepSparse)
    ->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMicrosecond)->Complexity();

// ---- large-array transients: O(N) end-to-end scaling guard ----
//
// A 51- vs 501-stage ring oscillator and an SRAM column array, all through
// the adaptive engine with the quiescent-device bypass, the LTE step
// controller and the sparse LU.  Per-stage cost must stay ~flat from 51 to
// 501 stages (the run_bench.sh summary records the ratio and the CI smoke
// job gates on it): a superlinear solve path, a lost pattern reuse or
// dense fill shows up as a blown ratio.

void BM_TransientRingScaleAdaptive(benchmark::State& state) {
  static const device::DeviceModelPtr tab = [] {
    auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
    return device::make_tabulated(exact, 0.6);
  }();
  const int stages = static_cast<int>(state.range(0));
  circuit::CellOptions copt;
  copt.v_dd = 0.6;
  copt.c_load = 5e-15;
  auto bench = circuit::make_ring_oscillator(tab, stages, copt);
  // Cold start: the t = 0 operating point is the powered-up metastable
  // ring OP, solved by the convergence ladder directly (historically this
  // needed a VDD power-up ramp; the op_stage counter below records which
  // ladder stage cracked it — 0 = plain Newton).

  spice::TransientOptions opts;
  opts.t_stop = 1e-9;  // fixed simulated time: cost should scale ~O(N)
  opts.dt = 2e-12;
  opts.adaptive = true;
  opts.lte_reltol = 1e-4;
  opts.bypass_vtol = 1e-4;
  spice::SolveRecord stats;
  opts.solver.record = &stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spice::transient(*bench.ckt, opts, {"n0"}));
  }
  state.counters["steps"] = static_cast<double>(stats.steps_accepted);
  state.counters["newton_iters"] =
      static_cast<double>(stats.newton_iterations);
  state.counters["jacobian_reuses"] =
      static_cast<double>(stats.jacobian_reuses);
  // Cold-OP accounting: which ladder stage solved the t = 0 ring OP and
  // whether any fallback fired.  A nonzero op_fallbacks on this deck is a
  // convergence regression (tests/test_convergence.cpp gates the same
  // property; the counter makes it visible in bench trends too).
  state.counters["op_stage"] = static_cast<double>(stats.op.stage);
  state.counters["op_fallbacks"] =
      stats.op.stage == spice::SolveStage::kNewton ? 0.0 : 1.0;
  state.SetComplexityN(stages);
}
BENCHMARK(BM_TransientRingScaleAdaptive)
    ->Arg(51)->Arg(501)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_TransientSramColumnAdaptive(benchmark::State& state) {
  static const device::DeviceModelPtr tab = [] {
    auto exact = std::make_shared<device::CntfetModel>(vtc_cntfet_params());
    return device::make_tabulated(exact, 0.6);
  }();
  const int cells = static_cast<int>(state.range(0));
  circuit::CellOptions copt;
  copt.v_dd = 0.6;
  auto bench = circuit::make_sram_column_bench(tab, cells, copt);

  spice::TransientOptions opts;
  opts.t_stop = 4e-9;
  opts.dt = 1e-12;
  opts.adaptive = true;
  opts.lte_reltol = 1e-4;
  opts.bypass_vtol = 1e-4;
  opts.dt_print = 8e-12;
  opts.ic = spice::TransientIc::kFromOperatingPoint;
  spice::SolveRecord stats;
  opts.solver.record = &stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        spice::transient(*bench.ckt, opts, {"q0", "qb0"}));
  }
  state.counters["newton_iters"] =
      static_cast<double>(stats.newton_iterations);
  state.counters["jacobian_reuses"] =
      static_cast<double>(stats.jacobian_reuses);
  state.SetComplexityN(cells);
}
BENCHMARK(BM_TransientSramColumnAdaptive)
    ->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

void BM_PlacementMonteCarlo(benchmark::State& state) {
  const fab::ChiralityPopulation pop(1.4e-9, 0.2e-9);
  fab::TrenchAssemblyModel model;
  phys::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run(pop, 1000, rng));
  }
}
BENCHMARK(BM_PlacementMonteCarlo);

void BM_PlacementMonteCarloParallel(benchmark::State& state) {
  const fab::ChiralityPopulation pop(1.4e-9, 0.2e-9);
  fab::TrenchAssemblyModel model;
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.run_parallel(pop, 1000, seed++, threads));
  }
}
BENCHMARK(BM_PlacementMonteCarloParallel)
    ->Arg(1)
    ->Arg(0);  // 0 = default pool width (hardware concurrency)

void BM_GateLevelSubtract(benchmark::State& state) {
  logic::CellTiming timing;
  timing.t_inv_s = 1e-12;
  timing.t_nand2_s = 1.5e-12;
  timing.t_nor2_s = 1.7e-12;
  logic::SubnegDatapath dp(16, timing);
  bool neg = false;
  std::uint64_t b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.subtract(b & 0xFFFF, (b * 7 + 3) & 0xFFFF,
                                         &neg));
    ++b;
  }
}
BENCHMARK(BM_GateLevelSubtract);

void BM_SubnegCountingProgram(benchmark::State& state) {
  for (auto _ : state) {
    logic::SubnegMachine m(16);
    m.load(logic::make_counting_program(0, 1, 50));
    benchmark::DoNotOptimize(m.run());
  }
}
BENCHMARK(BM_SubnegCountingProgram);

}  // namespace

int main(int argc, char** argv) {
  // Recorded into the JSON context so bench/run_bench.sh can refuse to
  // publish numbers from a non-Release build of libcarbon.
#ifdef CARBON_CMAKE_BUILD_TYPE
  benchmark::AddCustomContext("carbon_cmake_build_type",
                              CARBON_CMAKE_BUILD_TYPE);
#endif
  benchmark::AddCustomContext("carbon_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  // The pool width the parallel benchmarks ran at: run_bench.sh publishes
  // no scaling figures from a one-thread run.
  benchmark::AddCustomContext("carbon_threads",
                              std::to_string(phys::default_num_threads()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
