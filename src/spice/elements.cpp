#include "spice/elements.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "phys/require.h"
#include "spice/analyses.h"  // SolveRecord

namespace carbon::spice {

void StampContext::add_jac(int row, int col, double val) const {
  if (jac_slots) {
#ifndef NDEBUG
    assert(jac_cursor < debug_jac_count &&
           "stamp() issued more add_jac calls than its captured footprint");
    assert(debug_jac[jac_cursor] == std::make_pair(row, col) &&
           "stamp() add_jac order diverged from its captured footprint");
#endif
    if (suppress_jac) {
      ++jac_cursor;  // value already lives in the static baseline
      return;
    }
    *jac_slots[jac_cursor++] += val;
    return;
  }
  capture_jac->emplace_back(row, col);
}

void StampContext::add_rhs(int row, double val) const {
  if (rhs_slots) {
#ifndef NDEBUG
    assert(rhs_cursor < debug_rhs_count &&
           "stamp() issued more add_rhs calls than its captured footprint");
    assert(debug_rhs[rhs_cursor] == row &&
           "stamp() add_rhs order diverged from its captured footprint");
#endif
    *rhs_slots[rhs_cursor++] += val;
    return;
  }
  capture_rhs->push_back(row);
}

void AcStampContext::add_g(int row, int col, double g_siemens) const {
  cap_g->push_back({row, col, g_siemens});
}

void AcStampContext::add_c(int row, int col, double c_farad) const {
  cap_c->push_back({row, col, c_farad});
}

void AcStampContext::add_rhs(int row, phys::Complex val) const {
  cap_rhs->push_back({row, val});
}

double NoiseSource::psd_a2_hz(double f_hz) const {
  double s = white_a2_hz;
  if (flicker_a2 > 0.0 && f_hz > 0.0) {
    s += flicker_a2 * std::pow(f_hz, -flicker_exp);
  }
  return s;
}

namespace {
constexpr double kBoltzmann = 1.380649e-23;       // [J/K]
constexpr double kElementaryCharge = 1.602176634e-19;  // [C]
}  // namespace

Element::Element(std::string name, std::vector<NodeId> nodes)
    : name_(std::move(name)), nodes_(std::move(nodes)) {
  for (NodeId n : nodes_) {
    CARBON_REQUIRE(n >= 0, "negative node id");
  }
}

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId n1, NodeId n2, double ohms)
    : Element(std::move(name), {n1, n2}), ohms_(ohms) {
  CARBON_REQUIRE(ohms > 0.0, "resistance must be positive");
}

void Resistor::stamp(const StampContext& ctx) const {
  const double g = 1.0 / ohms_;
  const NodeId a = nodes_[0], b = nodes_[1];
  ctx.add_jac(a, a, g);
  ctx.add_jac(b, b, g);
  ctx.add_jac(a, b, -g);
  ctx.add_jac(b, a, -g);
}

void Resistor::stamp_ac(const AcStampContext& ctx) const {
  const double g = 1.0 / ohms_;
  const NodeId a = nodes_[0], b = nodes_[1];
  ctx.add_g(a, a, g);
  ctx.add_g(b, b, g);
  ctx.add_g(a, b, -g);
  ctx.add_g(b, a, -g);
}

void Resistor::collect_noise(const NoiseContext& ctx,
                             std::vector<NoiseSource>& out) const {
  NoiseSource s;
  s.label = name_ + ".thermal";
  s.n_plus = nodes_[0];
  s.n_minus = nodes_[1];
  s.white_a2_hz = 4.0 * kBoltzmann * ctx.temperature_k / ohms_;
  out.push_back(std::move(s));
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId n1, NodeId n2, double farad,
                     double v_init)
    : Element(std::move(name), {n1, n2}), farad_(farad), v_init_(v_init) {
  CARBON_REQUIRE(farad > 0.0, "capacitance must be positive");
}

void Capacitor::reset_state() {
  v_prev_ = v_init_;
  i_prev_ = 0.0;
}

void Capacitor::stamp(const StampContext& ctx) const {
  if (!ctx.transient) return;  // open circuit in DC
  const NodeId a = nodes_[0], b = nodes_[1];
  // Companion model:  BE:   i = C/dt (v - v_prev)
  //                   TRAP: i = 2C/dt (v - v_prev) - i_prev
  double geq, ieq;
  if (ctx.trapezoidal) {
    geq = 2.0 * farad_ / ctx.dt_s;
    ieq = -geq * v_prev_ - i_prev_;
  } else {
    geq = farad_ / ctx.dt_s;
    ieq = -geq * v_prev_;
  }
  ctx.add_jac(a, a, geq);
  ctx.add_jac(b, b, geq);
  ctx.add_jac(a, b, -geq);
  ctx.add_jac(b, a, -geq);
  // i(v) = geq*v + ieq; Norton current ieq leaves node a.
  ctx.add_rhs(a, -ieq);
  ctx.add_rhs(b, ieq);
}

void Capacitor::stamp_ac(const AcStampContext& ctx) const {
  const NodeId a = nodes_[0], b = nodes_[1];
  ctx.add_c(a, a, farad_);
  ctx.add_c(b, b, farad_);
  ctx.add_c(a, b, -farad_);
  ctx.add_c(b, a, -farad_);
}

void Capacitor::set_transient_ic(const StampContext& ctx) {
  v_prev_ = ctx.v(nodes_[0]) - ctx.v(nodes_[1]);
  i_prev_ = 0.0;
}

void Capacitor::accept_step(const StampContext& ctx) {
  const double v_new = ctx.v(nodes_[0]) - ctx.v(nodes_[1]);
  if (ctx.trapezoidal) {
    i_prev_ = 2.0 * farad_ / ctx.dt_s * (v_new - v_prev_) - i_prev_;
  } else {
    i_prev_ = farad_ / ctx.dt_s * (v_new - v_prev_);
  }
  v_prev_ = v_new;
}

// ----------------------------------------------------------------- VSource

VSource::VSource(std::string name, NodeId n_plus, NodeId n_minus,
                 WaveformPtr wave)
    : Element(std::move(name), {n_plus, n_minus}), wave_(std::move(wave)) {
  CARBON_REQUIRE(wave_ != nullptr, "null waveform");
}

void VSource::stamp(const StampContext& ctx) const {
  const NodeId a = nodes_[0], b = nodes_[1];
  const int br = branch_base_;  // row/col index (1-based after nodes)
  CARBON_REQUIRE(br > 0, "branch index not assigned");
  // KCL: branch current enters node a, leaves node b.
  ctx.add_jac(a, br, 1.0);
  ctx.add_jac(b, br, -1.0);
  // Branch equation: v(a) - v(b) = V(t).
  ctx.add_jac(br, a, 1.0);
  ctx.add_jac(br, b, -1.0);
  const double v = ctx.transient ? wave_->value(ctx.time_s)
                                 : wave_->dc_value();
  ctx.add_rhs(br, ctx.source_scale * v);
}

void VSource::collect_breakpoints(double t_stop,
                                  std::vector<double>& out) const {
  wave_->breakpoints(t_stop, out);
}

void VSource::stamp_ac(const AcStampContext& ctx) const {
  const NodeId a = nodes_[0], b = nodes_[1];
  const int br = branch_base_;
  ctx.add_g(a, br, 1.0);
  ctx.add_g(b, br, -1.0);
  ctx.add_g(br, a, 1.0);
  ctx.add_g(br, b, -1.0);
  ctx.add_rhs(br, phys::Complex{ac_magnitude_, 0.0});
}

// ----------------------------------------------------------------- ISource

ISource::ISource(std::string name, NodeId n_plus, NodeId n_minus,
                 WaveformPtr wave)
    : Element(std::move(name), {n_plus, n_minus}), wave_(std::move(wave)) {
  CARBON_REQUIRE(wave_ != nullptr, "null waveform");
}

void ISource::collect_breakpoints(double t_stop,
                                  std::vector<double>& out) const {
  wave_->breakpoints(t_stop, out);
}

void ISource::stamp(const StampContext& ctx) const {
  const double i = ctx.source_scale * (ctx.transient
                                           ? wave_->value(ctx.time_s)
                                           : wave_->dc_value());
  // Current flows from n+ through the source to n-: injects into n-.
  ctx.add_rhs(nodes_[0], -i);
  ctx.add_rhs(nodes_[1], i);
}

// ------------------------------------------------------------------- Diode

Diode::Diode(std::string name, NodeId anode, NodeId cathode, double i_sat_a,
             double ideality, double temperature_k)
    : Element(std::move(name), {anode, cathode}), i_sat_(i_sat_a),
      n_(ideality), vt_(8.617333e-5 * temperature_k) {
  CARBON_REQUIRE(i_sat_a > 0.0, "saturation current must be positive");
  CARBON_REQUIRE(ideality >= 1.0, "ideality must be >= 1");
}

void Diode::reset_state() { cache_valid_ = false; }

double Diode::evaluate(double v_raw, double* i0, double* g) const {
  // Junction-voltage limiting keeps exp() in range during NR.
  const double v_crit = n_ * vt_ * std::log(n_ * vt_ / (i_sat_ * 1.414));
  const double v = std::min(v_raw, std::max(v_crit, 0.8));
  const double e = std::exp(v / (n_ * vt_));
  *i0 = i_sat_ * (e - 1.0);
  *g = i_sat_ * e / (n_ * vt_);
  return v;
}

void Diode::stamp(const StampContext& ctx) const {
  const NodeId a = nodes_[0], b = nodes_[1];
  const double v_raw = ctx.v(a) - ctx.v(b);

  // Quiescent-device bypass, mirroring Fet: when the junction voltage
  // moved less than bypass_vtol since the cached evaluation, reuse the
  // cached {i0, g} and linearize about the cached (limited) bias — the
  // Taylor expansion the cache is valid for, consistent to
  // O(bypass_vtol^2 / Vt) here.
  double i0, g_exp, v_lin;
  if (cache_valid_ && ctx.bypass_vtol > 0.0 &&
      std::abs(v_raw - v_cache_) <= ctx.bypass_vtol) {
    i0 = i0_cache_;
    g_exp = g_cache_;
    v_lin = vlim_cache_;
    if (ctx.record) ++ctx.record->device_bypasses;
  } else {
    v_lin = evaluate(v_raw, &i0, &g_exp);
    if (!std::isfinite(i0) || !std::isfinite(g_exp)) {
      throw NonFiniteEvalError(
          name_, "diode '" + name_ + "': non-finite junction evaluation at v=" +
                     std::to_string(v_raw));
    }
    v_cache_ = v_raw;
    vlim_cache_ = v_lin;
    i0_cache_ = i0;
    g_cache_ = g_exp;
    cache_valid_ = true;
    if (ctx.record) ++ctx.record->device_evals;
  }

  const double g = std::max(g_exp, ctx.gmin);
  const double ieq = i0 - g * v_lin;
  ctx.add_jac(a, a, g);
  ctx.add_jac(b, b, g);
  ctx.add_jac(a, b, -g);
  ctx.add_jac(b, a, -g);
  ctx.add_rhs(a, -ieq);
  ctx.add_rhs(b, ieq);
}

void Diode::stamp_ac(const AcStampContext& ctx) const {
  const NodeId a = nodes_[0], b = nodes_[1];
  // Same junction linearization as the DC stamp and collect_noise, so the
  // AC conductance and the shot-noise current always describe one bias.
  double i0, g_exp;
  evaluate(ctx.v_dc(a) - ctx.v_dc(b), &i0, &g_exp);
  const double g = g_exp + 1e-12;  // floor keeps a reverse-biased row regular
  ctx.add_g(a, a, g);
  ctx.add_g(b, b, g);
  ctx.add_g(a, b, -g);
  ctx.add_g(b, a, -g);
}

void Diode::collect_noise(const NoiseContext& ctx,
                          std::vector<NoiseSource>& out) const {
  double i0, g;
  evaluate(ctx.v_dc(nodes_[0]) - ctx.v_dc(nodes_[1]), &i0, &g);
  NoiseSource s;
  s.label = name_ + ".shot";
  s.n_plus = nodes_[0];
  s.n_minus = nodes_[1];
  s.white_a2_hz = 2.0 * kElementaryCharge * std::abs(i0);
  out.push_back(std::move(s));
}

// --------------------------------------------------------------------- Fet

Fet::Fet(std::string name, NodeId drain, NodeId gate, NodeId source,
         device::DeviceModelPtr model, double multiplier)
    : Element(std::move(name), {drain, gate, source}),
      model_(std::move(model)), mult_(multiplier) {
  CARBON_REQUIRE(model_ != nullptr, "null device model");
  CARBON_REQUIRE(multiplier > 0.0, "multiplier must be positive");
}

void Fet::reset_state() { cache_valid_ = false; }

void Fet::set_model(device::DeviceModelPtr model) {
  CARBON_REQUIRE(model != nullptr, "fet model must not be null");
  model_ = std::move(model);
  cache_valid_ = false;  // cached eval belongs to the old model
}

void Fet::stamp(const StampContext& ctx) const {
  const NodeId d = nodes_[0], g = nodes_[1], s = nodes_[2];
  const double vgs = ctx.v(g) - ctx.v(s);
  const double vds = ctx.v(d) - ctx.v(s);

  // Quiescent-device bypass: when the terminal voltages moved less than
  // bypass_vtol since the cached eval(), reuse the cached {id, gm, gds}
  // and linearize the companion around the *cached* bias point — that is
  // exactly the Taylor expansion the cache is valid for, so the served
  // stamp is consistent to O(bypass_vtol^2 * curvature).
  double vgs_lin = vgs, vds_lin = vds;
  device::DeviceEval e;
  if (cache_valid_ && ctx.bypass_vtol > 0.0 &&
      std::abs(vgs - vgs_cache_) <= ctx.bypass_vtol &&
      std::abs(vds - vds_cache_) <= ctx.bypass_vtol) {
    e = eval_cache_;
    vgs_lin = vgs_cache_;
    vds_lin = vds_cache_;
    if (ctx.record) ++ctx.record->device_bypasses;
  } else {
    // One eval() gives current and both conductances — a single table
    // lookup for tabulated models, a finite-difference fallback otherwise.
    e = model_->eval(vgs, vds);
    if (!e.is_finite()) {
      throw NonFiniteEvalError(
          name_, "fet '" + name_ + "': model '" + model_->name() +
                     "' returned a non-finite eval at vgs=" +
                     std::to_string(vgs) + " vds=" + std::to_string(vds));
    }
    eval_cache_ = e;
    vgs_cache_ = vgs;
    vds_cache_ = vds;
    cache_valid_ = true;
    if (ctx.record) ++ctx.record->device_evals;
  }
  const double id0 = mult_ * e.id;
  const double gm = mult_ * e.gm;
  const double gds = mult_ * e.gds + ctx.gmin;  // keep Jacobian non-singular

  // Norton companion: id = id0 + gm (vgs - vgs0) + gds (vds - vds0)
  //                     = gm*vgs + gds*vds + ieq.
  const double ieq = id0 - gm * vgs_lin - gds * vds_lin;

  // Drain row: +id; source row: -id.
  ctx.add_jac(d, g, gm);
  ctx.add_jac(d, s, -gm);
  ctx.add_jac(d, d, gds);
  ctx.add_jac(d, s, -gds);
  ctx.add_rhs(d, -ieq);

  ctx.add_jac(s, g, -gm);
  ctx.add_jac(s, s, gm);
  ctx.add_jac(s, d, -gds);
  ctx.add_jac(s, s, gds);
  ctx.add_rhs(s, ieq);

  // Tiny shunt on the gate so an otherwise-floating gate node never makes
  // the Jacobian singular (the gate is DC-open in this model).
  ctx.add_jac(g, g, std::max(ctx.gmin, 1e-12));
}

void Fet::stamp_ac(const AcStampContext& ctx) const {
  const NodeId d = nodes_[0], g = nodes_[1], s = nodes_[2];
  const double vgs = ctx.v_dc(g) - ctx.v_dc(s);
  const double vds = ctx.v_dc(d) - ctx.v_dc(s);
  const device::DeviceEval e = model_->eval(vgs, vds);
  const double gm = mult_ * e.gm;
  const double gds = mult_ * e.gds + 1e-12;
  ctx.add_g(d, g, gm);
  ctx.add_g(d, s, -gm - gds);
  ctx.add_g(d, d, gds);
  ctx.add_g(s, g, -gm);
  ctx.add_g(s, s, gm + gds);
  ctx.add_g(s, d, -gds);
  ctx.add_g(g, g, 1e-12);
}

void Fet::collect_noise(const NoiseContext& ctx,
                        std::vector<NoiseSource>& out) const {
  const NodeId d = nodes_[0], g = nodes_[1], s = nodes_[2];
  const double vgs = ctx.v_dc(g) - ctx.v_dc(s);
  const double vds = ctx.v_dc(d) - ctx.v_dc(s);
  const device::DeviceEval e = model_->eval(vgs, vds);
  const device::NoiseParams p = model_->noise_params();

  NoiseSource th;
  th.label = name_ + ".thermal";
  th.n_plus = d;
  th.n_minus = s;
  th.white_a2_hz =
      p.gamma * 4.0 * kBoltzmann * ctx.temperature_k * std::abs(mult_ * e.gm);
  out.push_back(std::move(th));

  if (p.kf > 0.0) {
    NoiseSource fl;
    fl.label = name_ + ".flicker";
    fl.n_plus = d;
    fl.n_minus = s;
    fl.flicker_a2 = p.kf * std::pow(std::abs(mult_ * e.id), p.af);
    fl.flicker_exp = 1.0;
    out.push_back(std::move(fl));
  }
}

}  // namespace carbon::spice