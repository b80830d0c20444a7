#pragma once

/// @file integrator.h
/// The adaptive-transient building blocks: a local-truncation-error (LTE)
/// step-size controller and the polynomial predictor history it feeds on.
///
/// The transient engine integrates with an implicit corrector (trapezoidal
/// after start-up, backward Euler at discontinuities) and estimates the
/// corrector's LTE from its divergence from an explicit polynomial
/// predictor extrapolated through the previous accepted solutions.  With
/// step h into the new point and previous accepted steps h1, h2 the
/// classic divided-difference error constants give
///
///   predictor (quadratic):  E_p =  x'''/6 * h (h+h1) (h+h1+h2)
///   trapezoidal corrector:  E_c = -x'''/12 * h^3
///   predictor (linear):     E_p =  x''/2  * h (h+h1)
///   backward Euler:         E_c = -x''/2  * h^2
///
/// so |LTE| = |x_corr - x_pred| * |E_c| / |E_p - E_c|, a factor that
/// depends only on the step history.  The controller turns the worst
/// per-node ratio of LTE against tolerance into an accept/reject decision
/// and the next step size (growth/shrink clamped, bounded by dt_min/max).
/// Both pieces are pure and independently unit-tested.

#include <vector>

namespace carbon::spice {

/// Tolerances and limits of the LTE step controller.
struct LteControlConfig {
  double reltol = 1e-3;       ///< relative LTE tolerance per node
  double abstol = 1e-6;       ///< absolute LTE tolerance [V]
  double trtol = 7.0;         ///< SPICE-style LTE overestimation factor
  double safety = 0.9;        ///< target a fraction of the allowed error
  double growth_limit = 2.0;  ///< max step growth per accepted step
  double shrink_limit = 0.1;  ///< max step shrink per rejected step
  double dt_min = 0.0;        ///< smallest step; a step at the floor is
                              ///< always accepted (progress guarantee)
  double dt_max = 0.0;        ///< largest step (waveform sampling bound)
};

/// Accept/reject + next-step policy from a scalar error ratio: the
/// stateless deadbeat rule, one instance per transient run.
class LteController {
 public:
  explicit LteController(const LteControlConfig& cfg);

  struct Decision {
    bool accept = false;
    double dt_next = 0.0;
  };

  /// Decide on a step of size @p dt whose worst LTE/tolerance ratio is
  /// @p err_ratio (<= 1 means within tolerance).  @p error_order is the
  /// corrector's local error order: 2 for backward Euler (error ~ h^2),
  /// 3 for trapezoidal (error ~ h^3).  A step already at dt_min is always
  /// accepted so the engine cannot stall.  Stateless deadbeat rule.
  Decision decide(double dt, double err_ratio, int error_order) const;

 private:
  LteControlConfig cfg_;
};

/// Ring of the last two accepted solutions, feeding the explicit predictor
/// (which doubles as the Newton warm start) and the divided-difference LTE
/// factor.  reset() after a waveform discontinuity: extrapolating across a
/// source corner would poison both.
class PredictorHistory {
 public:
  /// Forget everything (history restarts from the next accepted point).
  void reset();

  /// Record that the engine accepted a step of size @p h_s that started
  /// from @p x_old (the previously current solution).
  void advance(const std::vector<double>& x_old, double h_s);

  /// Accepted points available, counting the engine's current solution:
  /// 1 right after reset, 2 after one accepted step, capped at 3.
  int depth() const { return depth_; }

  /// Polynomial predictor order usable for a step from the current
  /// solution: 0 (none), 1 (linear) or 2 (quadratic).
  int order() const { return depth_ - 1 > 2 ? 2 : depth_ - 1; }

  /// Extrapolate @p h_s past the current solution @p x_now into @p out
  /// (resized).  Returns the predictor order used; 0 leaves out = x_now.
  int predict(const std::vector<double>& x_now, double h_s,
              std::vector<double>& out) const;

  /// |LTE| = factor * |x_corr - x_pred| for a step of size @p h_s with the
  /// given corrector and the predictor order @p pred_order that produced
  /// x_pred.  Requires pred_order >= 1.
  double lte_factor(double h_s, bool trapezoidal, int pred_order) const;

 private:
  std::vector<double> x1_, x2_;  ///< previous / before-previous solutions
  double h1_ = 0.0, h2_ = 0.0;   ///< step sizes that produced them
  int depth_ = 1;
};

/// Worst per-node ratio |x_corr - x_pred| * factor / (trtol * (abstol +
/// reltol * max(|corr|, |pred|))) over the first @p n_nodes entries (node
/// voltages only; branch currents are not LTE-controlled).
double lte_error_ratio(const std::vector<double>& x_corr,
                       const std::vector<double>& x_pred, int n_nodes,
                       double factor, const LteControlConfig& cfg);

/// Worst per-entry ratio |a[i] - b[i]| / (abstol + reltol * max(|a[i]|,
/// |b[i]|)) over the first @p n entries — movement between two states in
/// Newton-tolerance units.  The pseudo-transient continuation uses it as
/// its settledness measure: a pseudo-step whose ratio drops below 1 moved
/// the solution less than the Newton tolerance, so the trajectory has
/// reached (pseudo-)steady state.
double max_update_ratio(const std::vector<double>& a,
                        const std::vector<double>& b, int n, double abstol,
                        double reltol);

/// Sort, clip to (0, t_stop) and dedupe (within a relative epsilon) a raw
/// breakpoint list collected from the circuit's sources.
std::vector<double> merge_breakpoints(std::vector<double> pts, double t_stop);

}  // namespace carbon::spice
