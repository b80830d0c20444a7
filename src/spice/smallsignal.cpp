#include "spice/smallsignal.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "phys/require.h"
#include "spice/ac.h"

namespace carbon::spice {

// ----------------------------------------------------------------- AcSystem

void AcSystem::build(Circuit& ckt, const std::vector<double>& x_dc) {
  ckt.assign_branches();
  const int n = ckt.num_unknowns();
  CARBON_REQUIRE(n > 0, "empty circuit");
  CARBON_REQUIRE(static_cast<int>(x_dc.size()) == n,
                 "operating-point vector does not match the circuit");

  // Same topology: keep the pattern AND the LU's symbolic analysis; only
  // the captured values are refreshed below.
  const bool structure_ok = built_ && uid_ == ckt.uid() &&
                            revision_ == ckt.revision() && n_ == n;
  n_ = n;

  // --- value-capture pass: one stamp_ac per element records footprint and
  // value of every G / C / stimulus contribution.  After this pass no
  // element is consulted again for the whole sweep.
  std::vector<AcStampContext::CoordValue> gcap, ccap;
  std::vector<AcStampContext::RhsValue> rcap;
  const AcStampContext cap{&x_dc, &gcap, &ccap, &rcap};
  for (const auto& el : ckt.elements()) el->stamp_ac(cap);

  if (!structure_ok) {
    // --- pattern from the union of the G and C footprints (the MNA
    // pattern is frequency-independent, so it is built exactly once per
    // topology and every frequency point refactors on it).
    std::vector<std::pair<int, int>> coords;
    coords.reserve(gcap.size() + ccap.size());
    for (const auto& e : gcap) {
      if (e.row > 0 && e.col > 0) coords.emplace_back(e.row - 1, e.col - 1);
    }
    for (const auto& e : ccap) {
      if (e.row > 0 && e.col > 0) coords.emplace_back(e.row - 1, e.col - 1);
    }
    smat_ = phys::SparseMatrixZ::from_coords(n, std::move(coords));
    slu_ = phys::SparseLuZ();  // drop any stale pattern analysis
  }

  // --- G baseline: sum the conductance image into the value storage once;
  // assemble_factor() memcpy-restores it at every frequency point.
  smat_.zero_values();
  std::vector<phys::Complex>& vals = smat_.values();
  for (const auto& e : gcap) {
    if (e.row <= 0 || e.col <= 0) continue;  // ground row/col eliminated
    vals[smat_.slot(e.row - 1, e.col - 1)] += phys::Complex{e.value, 0.0};
  }
  baseline_ = vals;

  // --- jωC entries, merged per value slot: the only per-frequency writes.
  std::map<int, double> c_by_slot;
  for (const auto& e : ccap) {
    if (e.row <= 0 || e.col <= 0 || e.value == 0.0) continue;
    c_by_slot[smat_.slot(e.row - 1, e.col - 1)] += e.value;
  }
  c_entries_.assign(c_by_slot.begin(), c_by_slot.end());

  // --- stimulus phasor (frequency-independent).
  rhs_.assign(n, phys::Complex{});
  for (const auto& e : rcap) {
    if (e.row > 0) rhs_[e.row - 1] += e.value;
  }

  uid_ = ckt.uid();
  revision_ = ckt.revision();
  built_ = true;
}

bool AcSystem::assemble_factor(double omega) {
  CARBON_REQUIRE(built_, "AcSystem: build() has not run");
  phys::Complex* vals = smat_.values().data();
  std::memcpy(vals, baseline_.data(),
              baseline_.size() * sizeof(phys::Complex));
  for (const auto& [slot, c] : c_entries_) {
    vals[slot] += phys::Complex{0.0, omega * c};
  }
  try {
    slu_.factor(smat_);
  } catch (const phys::ConvergenceError&) {
    return false;
  }
  return true;
}

// ------------------------------------------------------- log_frequency_grid

std::vector<double> log_frequency_grid(double f_start_hz, double f_stop_hz,
                                       int points_per_decade) {
  CARBON_REQUIRE(f_stop_hz > f_start_hz && f_start_hz > 0.0,
                 "need a positive ascending frequency range");
  CARBON_REQUIRE(points_per_decade >= 1, "points per decade >= 1");
  const double decades = std::log10(f_stop_hz / f_start_hz);
  const int n =
      static_cast<int>(std::ceil(decades * points_per_decade)) + 1;
  std::vector<double> f(n);
  for (int i = 0; i < n; ++i) {
    f[i] = f_start_hz * std::pow(10.0, decades * i / (n - 1));
  }
  return f;
}

// ------------------------------------------------------------- small_signal

namespace {

/// A .noise output's adjoint solution and running integrals.
struct NoiseOutput {
  NodeId out = 0;
  int input_row = 0;  ///< 0-based branch row of the input source
  std::vector<phys::Complex> y;
  std::vector<double> psd_prev;  ///< per source, at the previous point
  double onoise_prev = 0.0, inoise_prev = 0.0;
  NoiseResult res;
};

}  // namespace

SmallSignalResult small_signal(Circuit& ckt, VSource* ac_input,
                               const std::vector<std::string>& probes,
                               const std::vector<const VSource*>& currents,
                               const std::vector<NoiseRequest>& noise,
                               const AcOptions& opt) {
  CARBON_REQUIRE(!ac_input || !probes.empty(), "no probe nodes");
  const std::vector<double> freqs =
      log_frequency_grid(opt.f_start_hz, opt.f_stop_hz, opt.points_per_decade);

  // Operating point; all small-signal values and noise PSDs are evaluated
  // at it.
  const Solution dc_sol = operating_point(ckt, opt.dc, nullptr, opt.workspace);

  // The .ac input's own magnitude comes back even when the pass throws
  // (singular small-signal system at some frequency).
  struct MagnitudeGuard {
    VSource* src;
    double prev;
    ~MagnitudeGuard() { if (src) src->set_ac_magnitude(prev); }
  } guard{ac_input, ac_input ? ac_input->ac_magnitude() : 0.0};
  if (ac_input) ac_input->set_ac_magnitude(1.0);

  // One capture and one pattern analysis serve the grid: each point is a
  // baseline restore, a jωC rescale, a numeric refactor and the solves.
  AcSystem local;
  AcSystem& sys = opt.system ? *opt.system : local;
  sys.build(ckt, dc_sol.x);

  SmallSignalResult res;
  const ProbeColumns cols(ckt, probes, currents);
  if (ac_input) {
    std::vector<std::string> names{"freq_hz"};
    for (std::size_t k = 0; k < cols.labels.size(); ++k) {
      // A node's .ac columns name it bare: mag(out), but mag(i(v1)).
      const std::string& s = k < probes.size() ? probes[k] : cols.labels[k];
      names.push_back("mag(" + s + ")");
      names.push_back("phase_deg(" + s + ")");
    }
    res.ac = phys::DataTable(names);
  }
  std::vector<NoiseSource> sources;
  const NoiseContext nctx{&dc_sol.x, opt.temperature_k};
  if (!noise.empty()) {
    for (const auto& el : ckt.elements()) el->collect_noise(nctx, sources);
  }
  std::vector<NoiseOutput> outs(noise.size());
  for (std::size_t k = 0; k < noise.size(); ++k) {
    NoiseOutput& o = outs[k];
    o.out = ckt.find_node(noise[k].output);
    CARBON_REQUIRE(o.out != 0, "noise output node cannot be ground");
    o.input_row = ckt.vsource_branch_index(*noise[k].input) - 1;
    o.y.resize(sys.size());
    o.psd_prev.assign(sources.size(), 0.0);
    o.res.table = phys::DataTable(
        {"freq_hz", "onoise_v2_hz", "inoise_v2_hz", "gain_mag"});
    for (const auto& s : sources) o.res.contributions.emplace_back(s.label, 0.0);
  }

  PhaseClock clock(opt.dc.record);
  std::vector<phys::Complex> x;
  std::vector<double> row, psd_now(sources.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double f = freqs[i];
    // Cooperative deadline/cancel poll, mirroring the Newton and transient
    // loops: a long pass on a huge system stays bounded.
    if (opt.dc.cancel) opt.dc.cancel->throw_if_stopped("ac");
    clock.start();
    CARBON_REQUIRE(sys.assemble_factor(2.0 * M_PI * f),
                   "singular small-signal system");
    clock.lap(SolveRecord::kFactor);
    if (ac_input) {
      x = sys.stimulus();
      sys.solve_in_place(x);
    }
    // Adjoint solve: y[j] = transfer from a unit current injected at MNA
    // row j to V(out) — every noise source's transfer, and at the input's
    // branch row the input's gain, in one solve.
    for (NoiseOutput& o : outs) {
      std::fill(o.y.begin(), o.y.end(), phys::Complex{});
      o.y[o.out - 1] = phys::Complex{1.0, 0.0};
      sys.solve_transpose_in_place(o.y);
    }
    clock.lap(SolveRecord::kSolve);
    clock.span_since_start("ac-point");

    if (ac_input) {
      row.assign(1, f);
      const auto push = [&](phys::Complex v) {
        row.push_back(std::abs(v));
        row.push_back(std::arg(v) * 180.0 / M_PI);
      };
      for (const int r : cols.rows) push(r == 0 ? phys::Complex{} : x[r - 1]);
      res.ac.add_row(row);
    }
    // Integrate: flat extension of the first point down to DC, trapezoid
    // across the band.
    const double df = i == 0 ? f : 0.5 * (f - freqs[i - 1]);
    for (NoiseOutput& o : outs) {
      double s_out = 0.0;
      for (std::size_t k = 0; k < sources.size(); ++k) {
        const NoiseSource& src = sources[k];
        const phys::Complex t =
            (src.n_plus > 0 ? o.y[src.n_plus - 1] : phys::Complex{}) -
            (src.n_minus > 0 ? o.y[src.n_minus - 1] : phys::Complex{});
        psd_now[k] = src.psd_a2_hz(f) * std::norm(t);
        s_out += psd_now[k];
        o.res.contributions[k].second += (o.psd_prev[k] + psd_now[k]) * df;
      }
      const double gain2 = std::norm(o.y[o.input_row]);
      const double s_in = s_out / std::max(gain2, 1e-300);
      o.res.table.add_row({f, s_out, s_in, std::sqrt(gain2)});
      o.res.onoise_total_v2 += (o.onoise_prev + s_out) * df;
      o.res.inoise_total_v2 += (o.inoise_prev + s_in) * df;
      o.onoise_prev = s_out;
      o.inoise_prev = s_in;
      o.psd_prev.swap(psd_now);
    }
  }
  for (NoiseOutput& o : outs) res.noise.push_back(std::move(o.res));
  return res;
}

phys::DataTable ac_sweep(Circuit& ckt, VSource& input,
                         const std::vector<std::string>& probes,
                         const AcOptions& opt) {
  return small_signal(ckt, &input, probes, {}, {}, opt).ac;
}

NoiseResult noise_sweep(Circuit& ckt, VSource& input,
                        const std::string& output_node,
                        const AcOptions& opt) {
  return std::move(
      small_signal(ckt, nullptr, {}, {}, {{&input, output_node}}, opt)
          .noise[0]);
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
