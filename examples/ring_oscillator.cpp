// Ring oscillators from complementary FET pairs: a saturating-device ring
// oscillates cleanly; this is the dynamic face of the Fig. 2 argument (and
// of ref [4], where GNR ring oscillators needed high supplies).
#include <cstdio>
#include <memory>

#include "circuit/cells.h"
#include "phys/require.h"
#include "device/alpha_power.h"
#include "spice/analyses.h"
#include "spice/measure.h"

int main() {
  using namespace carbon;

  auto fet = std::make_shared<device::AlphaPowerModel>(
      device::make_fig2_saturating_params());

  for (int stages : {3, 5, 7}) {
    circuit::CellOptions opt;
    opt.v_dd = 1.0;
    opt.c_load = 5e-15;
    auto bench = circuit::make_ring_oscillator(fet, stages, opt);

    spice::TransientOptions topt;
    topt.t_stop = 6e-9;
    topt.dt = 2e-12;  // initial step; the LTE controller takes over
    topt.adaptive = true;
    topt.lte_reltol = 1e-3;  // plotting-grade tolerance
    topt.dt_print = 2e-12;
    topt.bypass_vtol = 1e-4;
    spice::SolveRecord stats;
    topt.solver.record = &stats;
    const auto tr = spice::transient(*bench.ckt, topt, {"n0"});

    double period = -1.0, f_ghz = 0.0, stage_delay_ps = 0.0;
    try {
      period = spice::oscillation_period(tr, "v(n0)", opt.v_dd / 2, 2);
      f_ghz = 1.0 / period * 1e-9;
      stage_delay_ps = period / (2.0 * stages) * 1e12;
    } catch (const phys::PreconditionError&) {
      std::printf("%d stages: did not reach steady oscillation in the "
                  "simulated window\n", stages);
      continue;
    }
    std::printf("%d-stage ring: f = %.2f GHz, period = %.1f ps, "
                "%.1f ps/stage\n",
                stages, f_ghz, period * 1e12, stage_delay_ps);
    // This alpha-power ring switches in ~10 ps/stage, so the LTE
    // controller keeps the step near the slew resolution; the step-count
    // win shows on workloads with quiescent intervals (see BM_Transient*).
    std::printf("   adaptive: %ld steps (dt %.2g..%.2g ps, %ld LTE "
                "rejects), %ld Newton iters, %ld FET evals + %ld bypassed\n",
                stats.steps_accepted, stats.dt_smallest * 1e12,
                stats.dt_largest * 1e12, stats.steps_rejected_lte,
                stats.newton_iterations, stats.device_evals,
                stats.device_bypasses);
  }

  std::printf("\n(period scales ~linearly with stage count: each stage "
              "contributes one rising + one falling delay per cycle)\n");
  return 0;
}
