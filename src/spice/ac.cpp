#include "spice/ac.h"

#include <cmath>

#include "phys/require.h"
#include "spice/analyses.h"
#include "spice/smallsignal.h"

namespace carbon::spice {

phys::DataTable ac_sweep(Circuit& ckt, VSource& input,
                         const std::vector<std::string>& probes,
                         const AcOptions& opt) {
  CARBON_REQUIRE(!probes.empty(), "no probe nodes");
  const std::vector<double> freqs =
      log_frequency_grid(opt.f_start_hz, opt.f_stop_hz, opt.points_per_decade);

  // DC operating point first; the AC system is linearized around it.
  const Solution dc_sol = operating_point(ckt, opt.dc, nullptr, opt.workspace);

  // The stimulus magnitude must come back down even when the sweep throws
  // (singular small-signal system at some frequency).
  struct MagnitudeGuard {
    VSource& src;
    ~MagnitudeGuard() { src.set_ac_magnitude(0.0); }
  } guard{input};
  input.set_ac_magnitude(1.0);

  std::vector<std::string> cols{"freq_hz"};
  for (const auto& p : probes) {
    cols.push_back("mag(" + p + ")");
    cols.push_back("phase_deg(" + p + ")");
  }
  phys::DataTable table(cols);

  // Probe names resolve once; the complex system captures every element's
  // small-signal footprint once (G image + jωC slots) and the sparse LU
  // analyzes the pattern once — each frequency point is a baseline
  // restore, a jωC rescale, a numeric refactor and one solve.
  const std::vector<NodeId> probe_ids = resolve_probes(ckt, probes);
  AcSystem local;
  AcSystem& sys = opt.system ? *opt.system : local;
  sys.build(ckt, dc_sol.x);

  PhaseClock clock(opt.dc.record);

  std::vector<phys::Complex> x;
  std::vector<double> row;
  for (const double f : freqs) {
    // Cooperative deadline/cancel poll, mirroring the Newton and transient
    // loops: a long sweep on a huge system stays bounded.
    if (opt.dc.cancel) opt.dc.cancel->throw_if_stopped("ac");
    clock.start();
    CARBON_REQUIRE(sys.assemble_factor(2.0 * M_PI * f),
                   "ac_sweep: singular small-signal system");
    clock.lap(SolveRecord::kFactor);
    x = sys.stimulus();
    sys.solve_in_place(x);
    clock.lap(SolveRecord::kSolve);
    clock.span_since_start("ac-point");

    row.clear();
    row.push_back(f);
    for (const NodeId id : probe_ids) {
      const phys::Complex v = (id == 0) ? phys::Complex{} : x[id - 1];
      row.push_back(std::abs(v));
      row.push_back(std::arg(v) * 180.0 / M_PI);
    }
    table.add_row(row);
  }
  return table;
}

double corner_frequency(const phys::DataTable& ac,
                        const std::string& mag_column) {
  const std::vector<double> f = ac.column("freq_hz");
  const std::vector<double> m = ac.column(mag_column);
  CARBON_REQUIRE(!m.empty(), "empty AC table");
  const double corner = m.front() / std::sqrt(2.0);
  for (size_t i = 1; i < m.size(); ++i) {
    if (m[i - 1] >= corner && m[i] < corner) {
      // Log-interpolate the crossing.
      const double t = (std::log(corner) - std::log(m[i - 1])) /
                       (std::log(m[i]) - std::log(m[i - 1]));
      return f[i - 1] * std::pow(f[i] / f[i - 1], t);
    }
  }
  return -1.0;
}

}  // namespace carbon::spice
