#pragma once

/// @file elements.h
/// Circuit elements and their MNA stamps.  The solver formulation is the
/// classic Newton–Raphson companion-model scheme: at each iteration every
/// element stamps a linearized conductance into the Jacobian and a Norton
/// equivalent current into the right-hand side, around the present iterate.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/ivmodel.h"
#include "phys/linalg_complex.h"
#include "phys/require.h"
#include "spice/waveform.h"

namespace carbon::spice {

/// Node index; 0 is ground.
using NodeId = int;

/// Thrown by a nonlinear element's stamp() when its device model returns a
/// non-finite current or conductance.  Carries the element name so the
/// convergence-failure report can point at the culprit device instead of
/// letting a NaN poison the Jacobian and surface as an unattributed
/// singularity.
class NonFiniteEvalError : public phys::ConvergenceError {
 public:
  NonFiniteEvalError(std::string element, const std::string& what)
      : phys::ConvergenceError(what), element_(std::move(element)) {}
  const std::string& element() const { return element_; }

 private:
  std::string element_;
};

struct SolveRecord;  // analyses.h

/// Everything an element needs to stamp itself.
///
/// Two write modes, in priority order:
///  1. slot mode — jac_slots/rhs_slots point at the element's pre-resolved
///     value-pointer list (built once per topology by spice::MnaSystem);
///     add_jac/add_rhs stream through them with no index arithmetic and no
///     ground branch.  This is the Newton hot path.
///  2. capture mode — capture_jac/capture_rhs record the (row, col) /
///     row footprint of each add call instead of writing values; MnaSystem
///     uses one capture pass to build the matrix pattern and slot tables.
///
/// Contract for slot mode: an element must issue its add_jac/add_rhs calls
/// in a fixed order; a mode may truncate the sequence (e.g. a capacitor
/// stamps nothing in DC) but never reorder or extend it beyond the sequence
/// captured with transient=true.
struct StampContext {
  const std::vector<double>* x = nullptr;  ///< current iterate

  double time_s = 0.0;       ///< simulation time (sources)
  double source_scale = 1.0; ///< source-stepping homotopy factor
  double gmin = 0.0;         ///< gmin-stepping shunt added by nonlinears

  bool transient = false;    ///< capacitors: companion model vs open
  double dt_s = 0.0;         ///< current step size
  bool trapezoidal = false;  ///< trapezoidal vs backward Euler companion

  /// Quiescent-device bypass tolerance [V]; > 0 lets a FET whose terminal
  /// voltages moved less than this since its last eval() reuse the cached
  /// {id, gm, gds} stamp.  0 disables the bypass (every stamp evaluates).
  double bypass_vtol = 0.0;
  /// Optional solve record (SolverOptions::record): nonlinear stamps count
  /// their device evals and bypasses into it, and stamp_all charges the
  /// dynamic elements' stamp() time to its eval phase.
  SolveRecord* record = nullptr;

  /// When true, add_jac advances the slot cursor without writing: set by
  /// MnaSystem::stamp_all for elements whose Jacobian footprint is constant
  /// and already present in the memcpy-restored static baseline.
  bool suppress_jac = false;

  // --- slot mode (set per element by MnaSystem::stamp_all) ---
  double* const* jac_slots = nullptr;  ///< value pointer per add_jac call
  double* const* rhs_slots = nullptr;  ///< value pointer per add_rhs call
  mutable int jac_cursor = 0;
  mutable int rhs_cursor = 0;

  // --- capture mode (set by MnaSystem::build) ---
  std::vector<std::pair<int, int>>* capture_jac = nullptr;
  std::vector<int>* capture_rhs = nullptr;

#ifndef NDEBUG
  // Captured footprint of the element being stamped; add_jac/add_rhs
  // assert the slot-mode call sequence against it.
  const std::pair<int, int>* debug_jac = nullptr;
  const int* debug_rhs = nullptr;
  int debug_jac_count = 0;
  int debug_rhs_count = 0;
#endif

  /// Voltage of node @p n in the current iterate (0 for ground).
  double v(NodeId n) const { return n == 0 ? 0.0 : (*x)[n - 1]; }
  /// Add to Jacobian entry for (row node/branch i, col j), skipping ground.
  void add_jac(int row, int col, double val) const;
  /// Add to RHS entry, skipping ground.
  void add_rhs(int row, double val) const;
};

/// Context of a small-signal (AC) assembly around a DC operating point.
///
/// Elements describe their linearized equivalent through three calls whose
/// *values* are all frequency-independent:
///   add_g(r, c, g)    — conductance part [S] (the real G matrix),
///   add_c(r, c, c_f)  — capacitance part [F], entering as j*omega*c_f,
///   add_rhs(r, v)     — stimulus phasor.
/// Each call records its footprint AND value into cap_g/cap_c/cap_rhs.
/// spice::AcSystem runs ONE capture pass per (topology, operating point)
/// and then never calls stamp_ac again: per frequency point it
/// memcpy-restores the captured G image and rescales the captured jωC
/// entries through direct value pointers.
struct AcStampContext {
  const std::vector<double>* x_dc = nullptr;  ///< converged DC solution

  /// One captured add_g/add_c call: MNA coordinates (1-based, 0 = ground)
  /// plus the frequency-independent value.
  struct CoordValue {
    int row = 0;
    int col = 0;
    double value = 0.0;
  };
  struct RhsValue {
    int row = 0;
    phys::Complex value;
  };
  std::vector<CoordValue>* cap_g = nullptr;
  std::vector<CoordValue>* cap_c = nullptr;
  std::vector<RhsValue>* cap_rhs = nullptr;

  double v_dc(NodeId n) const { return n == 0 ? 0.0 : (*x_dc)[n - 1]; }
  void add_g(int row, int col, double g_siemens) const;
  void add_c(int row, int col, double c_farad) const;
  void add_rhs(int row, phys::Complex val) const;
};

/// One equivalent noise-current source between two circuit nodes, with the
/// standard white + 1/f^exp power spectral density [A^2/Hz]:
///   S_i(f) = white_a2_hz + flicker_a2 / f^flicker_exp.
/// Elements emit these from collect_noise() at the DC operating point;
/// the small-signal pass (spice::small_signal) propagates each to the
/// output through one adjoint solve per frequency.
struct NoiseSource {
  std::string label;           ///< "element.kind", e.g. "m1.flicker"
  NodeId n_plus = 0;           ///< current injected into this node...
  NodeId n_minus = 0;          ///< ...and drawn from this one
  double white_a2_hz = 0.0;    ///< white PSD [A^2/Hz]
  double flicker_a2 = 0.0;     ///< flicker coefficient [A^2 * Hz^(exp-1)]
  double flicker_exp = 1.0;    ///< flicker frequency exponent

  double psd_a2_hz(double f_hz) const;
};

/// Operating-point context handed to Element::collect_noise.
struct NoiseContext {
  const std::vector<double>* x_dc = nullptr;  ///< converged DC solution
  double temperature_k = 300.0;

  double v_dc(NodeId n) const { return n == 0 ? 0.0 : (*x_dc)[n - 1]; }
};

/// Base class of all circuit elements.
class Element {
 public:
  Element(std::string name, std::vector<NodeId> nodes);
  virtual ~Element() = default;

  const std::string& name() const { return name_; }
  const std::vector<NodeId>& nodes() const { return nodes_; }

  /// True when the element's I(V) is nonlinear (affects gmin placement).
  virtual bool is_nonlinear() const { return false; }

  /// True when every value this element adds to the Jacobian is a constant
  /// of the netlist (independent of the iterate, time, step size, gmin and
  /// source scale).  MnaSystem stamps such elements once into a static
  /// baseline that is memcpy-restored each iteration instead of re-stamped;
  /// their RHS contributions (if any) are still stamped every iteration.
  virtual bool jacobian_is_constant() const { return false; }

  /// Append the element's waveform discontinuity times in [0, t_stop] to
  /// @p out (source corner points).  The adaptive transient engine steps
  /// exactly onto these so the LTE controller never straddles a corner.
  virtual void collect_breakpoints(double /*t_stop*/,
                                   std::vector<double>& /*out*/) const {}

  /// Number of MNA branch-current unknowns this element owns.
  virtual int num_branches() const { return 0; }
  /// Assign the element's first branch index (rows after node voltages).
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  /// Stamp the linearized element into the system.
  virtual void stamp(const StampContext& ctx) const = 0;

  /// Stamp the small-signal equivalent at the DC operating point.  The
  /// default stamps nothing (ideal current sources are AC-open).
  virtual void stamp_ac(const AcStampContext& /*ctx*/) const {}

  /// Append the element's small-signal noise sources, evaluated at the DC
  /// operating point in @p ctx, to @p out.  Default: noiseless (sources,
  /// capacitors, ideal elements).
  virtual void collect_noise(const NoiseContext& /*ctx*/,
                             std::vector<NoiseSource>& /*out*/) const {}

  /// Transient bookkeeping: accept the converged step (update state).
  virtual void accept_step(const StampContext& /*ctx*/) {}

  /// Adopt the t = 0 operating point @p ctx.x as the element's initial
  /// dynamic state (TransientIc::kFromOperatingPoint).  Default: nothing.
  virtual void set_transient_ic(const StampContext& /*ctx*/) {}

  /// Reset dynamic state (before a new analysis).
  virtual void reset_state() {}

 protected:
  std::string name_;
  std::vector<NodeId> nodes_;
  int branch_base_ = -1;
};

/// Linear resistor.
class Resistor final : public Element {
 public:
  Resistor(std::string name, NodeId n1, NodeId n2, double ohms);
  bool jacobian_is_constant() const override { return true; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  /// Thermal (Johnson) noise: white 4kT/R current PSD across the resistor.
  void collect_noise(const NoiseContext& ctx,
                     std::vector<NoiseSource>& out) const override;
  double resistance() const { return ohms_; }
  /// Retarget the resistance in place (deck retune).  The Jacobian
  /// footprint is value-independent, so slot tables stay valid; any
  /// MnaSystem static baseline must be refreshed afterwards.
  void set_resistance(double ohms) {
    CARBON_REQUIRE(ohms != 0.0, "resistance must be nonzero");
    ohms_ = ohms;
  }

 private:
  double ohms_;
};

/// Linear capacitor with optional initial condition.
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId n1, NodeId n2, double farad,
            double v_init = 0.0);
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  void accept_step(const StampContext& ctx) override;
  void set_transient_ic(const StampContext& ctx) override;
  void reset_state() override;
  double capacitance() const { return farad_; }
  /// Retarget the capacitance / initial condition in place (deck retune).
  void set_capacitance(double farad) { farad_ = farad; }
  void set_v_init(double v) { v_init_ = v; }

 private:
  double farad_;
  double v_init_;
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
};

/// Independent voltage source (owns one branch current unknown).
class VSource final : public Element {
 public:
  VSource(std::string name, NodeId n_plus, NodeId n_minus, WaveformPtr wave);
  int num_branches() const override { return 1; }
  /// The incidence/branch rows are +-1 constants; only the RHS follows the
  /// waveform, so the Jacobian footprint lives in the static baseline.
  bool jacobian_is_constant() const override { return true; }
  void collect_breakpoints(double t_stop,
                           std::vector<double>& out) const override;
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  const Waveform& wave() const { return *wave_; }
  const WaveformPtr& wave_ptr() const { return wave_; }
  /// Replace the waveform (used by DC sweeps).
  void set_wave(WaveformPtr wave) { wave_ = std::move(wave); }
  /// AC stimulus amplitude of this source (default 0; the ac_sweep driver
  /// sets 1 on the designated input).
  void set_ac_magnitude(double mag) { ac_magnitude_ = mag; }
  double ac_magnitude() const { return ac_magnitude_; }

 private:
  WaveformPtr wave_;
  double ac_magnitude_ = 0.0;
};

/// Independent current source (flows from n+ through the source to n-).
class ISource final : public Element {
 public:
  ISource(std::string name, NodeId n_plus, NodeId n_minus, WaveformPtr wave);
  /// Stamps no Jacobian entries at all, so trivially constant.
  bool jacobian_is_constant() const override { return true; }
  void collect_breakpoints(double t_stop,
                           std::vector<double>& out) const override;
  void stamp(const StampContext& ctx) const override;
  /// Replace the waveform (deck retune).
  void set_wave(WaveformPtr wave) { wave_ = std::move(wave); }

 private:
  WaveformPtr wave_;
};

/// Junction diode (anode, cathode) with exponential law and NR limiting.
class Diode final : public Element {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, double i_sat_a,
        double ideality = 1.0, double temperature_k = 300.0);
  bool is_nonlinear() const override { return true; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  /// Shot noise 2qI at the operating-point junction current.
  void collect_noise(const NoiseContext& ctx,
                     std::vector<NoiseSource>& out) const override;
  void reset_state() override;
  /// Retarget the junction parameters in place (deck retune); the thermal
  /// voltage keeps the construction temperature.
  void set_params(double i_sat_a, double ideality) {
    CARBON_REQUIRE(i_sat_a > 0.0, "saturation current must be positive");
    i_sat_ = i_sat_a;
    n_ = ideality;
    cache_valid_ = false;  // cached linearization belongs to the old law
  }

 private:
  /// Junction current/conductance at @p v_raw with NR junction-voltage
  /// limiting; returns the limited voltage actually used.
  double evaluate(double v_raw, double* i0, double* g) const;

  double i_sat_, n_, vt_;
  // Quiescent-device bypass, mirroring Fet: when StampContext::bypass_vtol
  // > 0 and the junction voltage moved less than it since the cache was
  // filled, stamp() reuses the cached {i0, g} linearization about the
  // cached (limited) bias instead of recomputing the exponential.
  mutable double v_cache_ = 0.0;     ///< raw junction voltage at cache fill
  mutable double vlim_cache_ = 0.0;  ///< limited voltage the stamp expands at
  mutable double i0_cache_ = 0.0, g_cache_ = 0.0;
  mutable bool cache_valid_ = false;
};

/// Three-terminal FET wrapping any device compact model.
/// Conventions follow IDeviceModel: current flows drain -> source for
/// n-type with positive vgs/vds.  Gate is DC-open (add explicit capacitors
/// for gate loading).
class Fet final : public Element {
 public:
  Fet(std::string name, NodeId drain, NodeId gate, NodeId source,
      device::DeviceModelPtr model, double multiplier = 1.0);
  bool is_nonlinear() const override { return true; }
  void stamp(const StampContext& ctx) const override;
  void stamp_ac(const AcStampContext& ctx) const override;
  /// Channel thermal noise gamma*4kT*gm plus Kf/Af flicker noise, with the
  /// parameters supplied by the device model's noise_params().
  void collect_noise(const NoiseContext& ctx,
                     std::vector<NoiseSource>& out) const override;
  void reset_state() override;
  const device::IDeviceModel& model() const { return *model_; }
  /// Swap the compact model in place (deck retune re-solves a cached
  /// topology under each step point's models this way).  The stamp
  /// footprint is model-independent, so the matrix pattern and slot tables
  /// stay valid; the quiescent-bypass cache is invalidated.
  void set_model(device::DeviceModelPtr model);
  double multiplier() const { return mult_; }
  /// Retarget the parallel-device multiplier in place (deck retune).
  void set_multiplier(double mult) {
    mult_ = mult;
    cache_valid_ = false;
  }

 private:
  device::DeviceModelPtr model_;
  double mult_;
  // Quiescent-device bypass: the last evaluated bias point and its raw
  // (unscaled) model evaluation.  When StampContext::bypass_vtol > 0 and
  // the terminal voltages moved less than it since the cache was filled,
  // stamp() reuses the cached linearization instead of calling eval().
  // mutable because stamp() is const; analyses are single-threaded.
  mutable double vgs_cache_ = 0.0, vds_cache_ = 0.0;
  mutable device::DeviceEval eval_cache_{};
  mutable bool cache_valid_ = false;
};

}  // namespace carbon::spice
