#include "spice/integrator.h"

#include <algorithm>
#include <cmath>

#include "phys/require.h"

namespace carbon::spice {

LteController::LteController(const LteControlConfig& cfg) : cfg_(cfg) {
  CARBON_REQUIRE(cfg.reltol > 0.0 && cfg.abstol > 0.0, "bad LTE tolerances");
  CARBON_REQUIRE(cfg.trtol >= 1.0, "trtol must be >= 1");
  CARBON_REQUIRE(cfg.growth_limit > 1.0 && cfg.shrink_limit < 1.0 &&
                     cfg.shrink_limit > 0.0,
                 "bad step growth/shrink limits");
  CARBON_REQUIRE(cfg.dt_min > 0.0 && cfg.dt_max >= cfg.dt_min,
                 "bad dt_min/dt_max");
}

LteController::Decision LteController::decide(double dt, double err_ratio,
                                              int error_order) const {
  CARBON_REQUIRE(error_order == 2 || error_order == 3,
                 "corrector error order must be 2 (BE) or 3 (trap)");
  const double r = std::max(err_ratio, 1e-10);  // flat regions: full growth
  const double ideal = cfg_.safety * std::pow(r, -1.0 / error_order);

  Decision d;
  if (err_ratio <= 1.0 || dt <= cfg_.dt_min * (1.0 + 1e-12)) {
    d.accept = true;  // within tolerance, or at the floor (must progress)
    d.dt_next = dt * std::min(ideal, cfg_.growth_limit);
  } else {
    d.accept = false;
    // Retry strictly smaller, but never collapse faster than shrink_limit.
    d.dt_next = dt * std::clamp(ideal, cfg_.shrink_limit, 0.9);
  }
  d.dt_next = std::clamp(d.dt_next, cfg_.dt_min, cfg_.dt_max);
  return d;
}

void PredictorHistory::reset() {
  depth_ = 1;
  h1_ = h2_ = 0.0;
}

void PredictorHistory::advance(const std::vector<double>& x_old, double h_s) {
  x2_.swap(x1_);
  h2_ = h1_;
  x1_ = x_old;
  h1_ = h_s;
  if (depth_ < 3) ++depth_;
}

int PredictorHistory::predict(const std::vector<double>& x_now, double h_s,
                              std::vector<double>& out) const {
  const size_t n = x_now.size();
  out.resize(n);
  if (depth_ < 2 || h1_ <= 0.0) {
    std::copy(x_now.begin(), x_now.end(), out.begin());
    return 0;
  }
  if (depth_ < 3 || h2_ <= 0.0) {
    const double a = h_s / h1_;  // linear extrapolation
    for (size_t i = 0; i < n; ++i) {
      out[i] = x_now[i] + a * (x_now[i] - x1_[i]);
    }
    return 1;
  }
  // Quadratic Newton extrapolation through (t-h1-h2, t-h1, t).
  for (size_t i = 0; i < n; ++i) {
    const double d1 = (x_now[i] - x1_[i]) / h1_;
    const double d2 = (x1_[i] - x2_[i]) / h2_;
    const double dd = (d1 - d2) / (h1_ + h2_);
    out[i] = x_now[i] + h_s * d1 + h_s * (h_s + h1_) * dd;
  }
  return 2;
}

double PredictorHistory::lte_factor(double h_s, bool trapezoidal,
                                    int pred_order) const {
  CARBON_REQUIRE(pred_order >= 1 && h_s > 0.0,
                 "lte_factor needs a predictor and a positive step");
  if (trapezoidal && pred_order >= 2) {
    // Both errors carry x''': E_c = -h^3/12, E_p = h(h+h1)(h+h1+h2)/6.
    const double ec = h_s * h_s * h_s / 12.0;
    const double ep = h_s * (h_s + h1_) * (h_s + h1_ + h2_) / 6.0;
    return ec / (ep + ec);
  }
  if (!trapezoidal && pred_order >= 2) {
    // Backward Euler against a quadratic predictor: the predictor is
    // x''-exact, so the divergence already *is* the corrector's x'' error
    // term (the predictor's own x''' error is higher order).
    return 1.0;
  }
  // Linear-predictor cases — BE, or trapezoidal before the quadratic
  // predictor is available (the x''-based estimate is conservative
  // there): E_c = -x''/2 h^2, E_p = x''/2 h(h+h1).
  const double ec = h_s * h_s;
  const double ep = h_s * (h_s + h1_);
  return ec / (ep + ec);
}

double lte_error_ratio(const std::vector<double>& x_corr,
                       const std::vector<double>& x_pred, int n_nodes,
                       double factor, const LteControlConfig& cfg) {
  double worst = 0.0;
  for (int i = 0; i < n_nodes; ++i) {
    const double lte = factor * std::abs(x_corr[i] - x_pred[i]);
    const double tol =
        cfg.trtol *
        (cfg.abstol +
         cfg.reltol * std::max(std::abs(x_corr[i]), std::abs(x_pred[i])));
    worst = std::max(worst, lte / tol);
  }
  return worst;
}

double max_update_ratio(const std::vector<double>& a,
                        const std::vector<double>& b, int n, double abstol,
                        double reltol) {
  double worst = 0.0;
  for (int i = 0; i < n; ++i) {
    const double tol =
        abstol + reltol * std::max(std::abs(a[i]), std::abs(b[i]));
    worst = std::max(worst, std::abs(a[i] - b[i]) / tol);
  }
  return worst;
}

std::vector<double> merge_breakpoints(std::vector<double> pts, double t_stop) {
  std::sort(pts.begin(), pts.end());
  const double eps = 1e-12 * t_stop;
  std::vector<double> out;
  out.reserve(pts.size());
  for (double t : pts) {
    if (t <= eps || t >= t_stop - eps) continue;
    if (!out.empty() && t - out.back() <= eps) continue;
    out.push_back(t);
  }
  return out;
}

}  // namespace carbon::spice
