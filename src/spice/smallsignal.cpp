#include "spice/smallsignal.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "obs/trace.h"
#include "phys/require.h"

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
  AcStampContext cap;
  cap.x_dc = &x_dc;
  cap.cap_g = &gcap;
  cap.cap_c = &ccap;
  cap.cap_rhs = &rcap;
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

void AcSystem::solve_in_place(std::vector<phys::Complex>& bx) const {
  slu_.solve_in_place(bx);
}

void AcSystem::solve_transpose_in_place(std::vector<phys::Complex>& bx) const {
  slu_.solve_transpose_in_place(bx);
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

// -------------------------------------------------------------- noise_sweep

NoiseResult noise_sweep(Circuit& ckt, VSource& input,
                        const std::string& output_node,
                        const NoiseOptions& opt) {
  const std::vector<double> freqs =
      log_frequency_grid(opt.f_start_hz, opt.f_stop_hz, opt.points_per_decade);

  // Operating point; all small-signal values and noise PSDs are evaluated
  // at it.
  const Solution dc_sol = operating_point(ckt, opt.dc, nullptr, opt.workspace);
  const NodeId out = ckt.find_node(output_node);
  CARBON_REQUIRE(out != 0, "noise output node cannot be ground");

  NoiseContext nctx;
  nctx.x_dc = &dc_sol.x;
  nctx.temperature_k = opt.temperature_k;
  std::vector<NoiseSource> sources;
  for (const auto& el : ckt.elements()) el->collect_noise(nctx, sources);

  // Restore the input's AC magnitude even when the sweep throws (singular
  // small-signal system at some frequency).
  struct MagnitudeGuard {
    VSource& src;
    double prev;
    ~MagnitudeGuard() { src.set_ac_magnitude(prev); }
  } guard{input, input.ac_magnitude()};
  input.set_ac_magnitude(1.0);
  AcSystem local;
  AcSystem& sys = opt.system ? *opt.system : local;
  sys.build(ckt, dc_sol.x);
  const int n = sys.size();

  NoiseResult res;
  res.table = phys::DataTable(
      {"freq_hz", "onoise_v2_hz", "inoise_v2_hz", "gain_mag"});
  res.contributions.reserve(sources.size());
  for (const auto& s : sources) res.contributions.emplace_back(s.label, 0.0);

  std::vector<phys::Complex> x, y(n);
  std::vector<double> psd_prev(sources.size(), 0.0);
  std::vector<double> psd_now(sources.size(), 0.0);
  double onoise_prev = 0.0, inoise_prev = 0.0, f_prev = 0.0;

  obs::Tracer* const tr = obs::tracer();
  obs::PhaseTimes* const ph = opt.dc.phases;
  const bool timing = (ph != nullptr) || (tr != nullptr);

  for (size_t i = 0; i < freqs.size(); ++i) {
    const double f = freqs[i];
    const double omega = 2.0 * M_PI * f;
    // Cooperative deadline/cancel poll, mirroring the Newton, transient
    // and AC-sweep loops.
    if (opt.dc.cancel) opt.dc.cancel->throw_if_stopped("noise");
    long long t0 = 0, t1 = 0;
    if (timing) t0 = obs::now_ns();
    CARBON_REQUIRE(sys.assemble_factor(omega),
                   "noise_sweep: singular small-signal system");
    if (timing) {
      t1 = obs::now_ns();
      if (ph) ph->factor_ns += t1 - t0;
    }

    // Forward solve: gain from the designated input to the output node.
    x = sys.stimulus();
    sys.solve_in_place(x);
    const double gain2 = std::norm(x[out - 1]);

    // Adjoint solve: y[j] = transfer from a unit current injected at MNA
    // row j to V(out) — every noise source's transfer in one solve.
    std::fill(y.begin(), y.end(), phys::Complex{});
    y[out - 1] = phys::Complex{1.0, 0.0};
    sys.solve_transpose_in_place(y);
    if (timing) {
      const long long t2 = obs::now_ns();
      if (ph) ph->solve_ns += t2 - t1;  // forward + adjoint solves
      if (tr) tr->span("noise-point", t0, t2 - t0);
    }

    double s_out = 0.0;
    for (size_t k = 0; k < sources.size(); ++k) {
      const NoiseSource& src = sources[k];
      const phys::Complex t =
          (src.n_plus > 0 ? y[src.n_plus - 1] : phys::Complex{}) -
          (src.n_minus > 0 ? y[src.n_minus - 1] : phys::Complex{});
      psd_now[k] = src.psd_a2_hz(f) * std::norm(t);
      s_out += psd_now[k];
    }
    const double s_in = s_out / std::max(gain2, 1e-300);
    res.table.add_row({f, s_out, s_in, std::sqrt(gain2)});

    // Integrate: flat extension of the first point down to DC, trapezoid
    // across the band.
    if (i == 0) {
      res.onoise_total_v2 += s_out * f;
      res.inoise_total_v2 += s_in * f;
      for (size_t k = 0; k < sources.size(); ++k) {
        res.contributions[k].second += psd_now[k] * f;
      }
    } else {
      const double half_df = 0.5 * (f - f_prev);
      res.onoise_total_v2 += (onoise_prev + s_out) * half_df;
      res.inoise_total_v2 += (inoise_prev + s_in) * half_df;
      for (size_t k = 0; k < sources.size(); ++k) {
        res.contributions[k].second += (psd_prev[k] + psd_now[k]) * half_df;
      }
    }
    onoise_prev = s_out;
    inoise_prev = s_in;
    f_prev = f;
    psd_prev.swap(psd_now);
  }
  return res;
}

}  // namespace carbon::spice
