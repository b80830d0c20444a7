// RF small-signal & noise tour: bias a CNTFET common-source stage, sweep
// its AC gain on the complex sparse engine, then run the device noise
// analysis — output / input-referred spectral densities, the 1/f corner,
// integrated noise and the per-source breakdown.  This is the analysis
// pillar behind the paper's RF/analog argument (CNT LNAs, graphene RF
// stages): transconductance and noise at scaled supply voltages.
//
//   $ ./rf_noise
#include <cstdio>
#include <memory>

#include "device/cntfet.h"
#include "device/ivmodel.h"
#include "device/tabulated.h"
#include "spice/ac.h"
#include "spice/analyses.h"
#include "spice/circuit.h"
#include "spice/smallsignal.h"

int main() {
  using namespace carbon;

  // 1) Device: a table-compiled 20 nm CNTFET with explicit noise
  //    parameters — quasi-ballistic channel thermal factor gamma ~ 1 and
  //    a flicker pair that puts the 1/f corner in the measurable range.
  device::CntfetParams params = device::make_franklin_cntfet_params(20e-9);
  params.ef_source_ev = -0.18;
  device::NoiseParams noise;
  noise.gamma = 1.0;
  noise.kf = 1e-14;
  noise.af = 1.0;
  const device::DeviceModelPtr model = device::with_noise(
      device::make_tabulated(std::make_shared<device::CntfetModel>(params),
                             0.6),
      noise);

  // 2) Common-source stage at VDD = 0.6 V with a 100 fF load.  A single
  //    20 nm tube is a digital device; an RF stage gangs tubes in
  //    parallel (the multiplier) to buy transconductance.
  spice::Circuit ckt;
  ckt.add_vsource("vdd", "vdd", "0", 0.6);
  auto* vg = ckt.add_vsource("vg", "g", "0", 0.45);
  ckt.add_resistor("rl", "vdd", "d", 20e3);
  ckt.add_capacitor("cl", "d", "0", 100e-15);
  ckt.add_fet("m1", "d", "g", "0", model, 20.0);

  // 3) AC sweep on the small-signal engine (complex sparse LU, symbolic
  //    analysis amortized across the whole sweep).
  spice::AcOptions ac;
  ac.f_start_hz = 1e4;
  ac.f_stop_hz = 1e11;
  ac.points_per_decade = 5;
  const auto gain = spice::ac_sweep(ckt, *vg, {"d"}, ac);
  const double a0 = gain.at(0, gain.column_index("mag(d)"));
  const double f3db = spice::corner_frequency(gain, "mag(d)");
  std::printf("common-source stage: |A(0)| = %.2f (%.1f dB), f3dB = %.3g Hz\n",
              a0, 20.0 * std::log10(a0), f3db);

  // 4) Noise analysis: one adjoint solve per frequency propagates every
  //    device noise source to the output simultaneously.
  spice::AcOptions nopt;
  nopt.f_start_hz = 1e2;
  nopt.f_stop_hz = 1e10;
  nopt.points_per_decade = 4;
  const spice::NoiseResult nres = spice::noise_sweep(ckt, *vg, "d", nopt);

  std::printf("\n  freq[Hz]   onoise[V^2/Hz]  inoise[V^2/Hz]  |H|\n");
  for (int i = 0; i < nres.table.num_rows(); i += 8) {
    std::printf("  %9.3g  %13.4g  %13.4g  %6.2f\n", nres.table.at(i, 0),
                nres.table.at(i, 1), nres.table.at(i, 2),
                nres.table.at(i, 3));
  }

  std::printf("\nintegrated output noise: %.4g V^2 (%.3g uVrms)\n",
              nres.onoise_total_v2, std::sqrt(nres.onoise_total_v2) * 1e6);
  std::printf("per-source contributions:\n");
  for (const auto& [label, v2] : nres.contributions) {
    std::printf("  %-14s %10.3g V^2  (%5.1f%%)\n", label.c_str(), v2,
                100.0 * v2 / nres.onoise_total_v2);
  }
  return 0;
}
