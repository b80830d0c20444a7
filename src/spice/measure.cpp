#include "spice/measure.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "phys/require.h"

namespace carbon::spice {

// Data that cannot give a measurement throws PreconditionError with the
// reason alone: clients read it as the measure's error.

VtcMetrics analyze_vtc(const phys::DataTable& vtc, const std::string& vin_col,
                       const std::string& vout_col, double v_dd) {
  const std::vector<double> vin = vtc.column(vin_col);
  const std::vector<double> vout = vtc.column(vout_col);
  const int n = static_cast<int>(vin.size());
  if (n < 3) throw phys::PreconditionError("VTC needs at least 3 points");

  VtcMetrics m;
  m.v_dd = v_dd;

  // Switching threshold: vout - vin crossing zero.
  m.v_switch = v_dd / 2.0;
  for (int i = 1; i < n; ++i) {
    const double f0 = vout[i - 1] - vin[i - 1];
    const double f1 = vout[i] - vin[i];
    if (f0 >= 0.0 && f1 < 0.0) {
      const double t = f0 / (f0 - f1);
      m.v_switch = vin[i - 1] + t * (vin[i] - vin[i - 1]);
      break;
    }
  }

  // Segment slopes; the VTC of an inverter is monotone decreasing.
  std::vector<double> slope(n - 1);
  for (int i = 0; i < n - 1; ++i) {
    slope[i] = (vout[i + 1] - vout[i]) / (vin[i + 1] - vin[i]);
  }
  for (double s : slope) m.max_abs_gain = std::max(m.max_abs_gain, -s);
  m.regenerative = m.max_abs_gain > 1.0;

  if (!m.regenerative) {
    // No unity-gain pair: logic levels are undefined, noise margins zero —
    // exactly the paper's verdict on the non-saturating inverter.
    m.v_il = m.v_ih = m.v_switch;
    m.v_oh = vout.front();
    m.v_ol = vout.back();
    m.nm_low = m.nm_high = 0.0;
    return m;
  }

  // First input where the falling slope reaches -1 (VIL) and the last (VIH).
  int i_il = -1, i_ih = -1;
  for (int i = 0; i < n - 1; ++i) {
    if (slope[i] <= -1.0) { i_il = i; break; }
  }
  for (int i = n - 2; i >= 0; --i) {
    if (slope[i] <= -1.0) { i_ih = i; break; }
  }
  CARBON_REQUIRE(i_il >= 0 && i_ih >= 0, "inconsistent slope scan");

  // Interpolate the exact unity-gain inputs within the bracketing segments.
  auto interp_unity = [&](int seg, bool entering) {
    const int prev = entering ? seg - 1 : seg + 1;
    if (prev < 0 || prev >= n - 1) return 0.5 * (vin[seg] + vin[seg + 1]);
    const double s0 = slope[prev], s1 = slope[seg];
    if (s1 == s0) return vin[seg];
    const double t = (-1.0 - s0) / (s1 - s0);
    const double x0 = 0.5 * (vin[prev] + vin[prev + 1]);
    const double x1 = 0.5 * (vin[seg] + vin[seg + 1]);
    return x0 + std::clamp(t, 0.0, 1.0) * (x1 - x0);
  };
  m.v_il = interp_unity(i_il, true);
  m.v_ih = interp_unity(i_ih, false);

  // Output levels at the unity-gain inputs.
  auto vout_at = [&](double x) {
    if (x <= vin.front()) return vout.front();
    if (x >= vin.back()) return vout.back();
    for (int i = 1; i < n; ++i) {
      if (vin[i] >= x) {
        const double t = (x - vin[i - 1]) / (vin[i] - vin[i - 1]);
        return vout[i - 1] + t * (vout[i] - vout[i - 1]);
      }
    }
    return vout.back();
  };
  m.v_oh = vout_at(m.v_il);
  m.v_ol = vout_at(m.v_ih);
  m.nm_low = m.v_il - m.v_ol;
  m.nm_high = m.v_oh - m.v_ih;
  return m;
}

double crossing_time(const phys::DataTable& tran, const std::string& col,
                     double level, bool rising, double t_min) {
  const std::vector<double> t = tran.column("time_s");
  const std::vector<double> v = tran.column(col);
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i] < t_min) continue;
    const bool crossed = rising ? (v[i - 1] < level && v[i] >= level)
                                : (v[i - 1] > level && v[i] <= level);
    if (crossed) {
      const double f = (level - v[i - 1]) / (v[i] - v[i - 1]);
      return t[i - 1] + f * (t[i] - t[i - 1]);
    }
  }
  return -1.0;
}

double propagation_delay(const phys::DataTable& tran,
                         const std::string& in_col,
                         const std::string& out_col, double v_dd,
                         bool in_rising) {
  const double mid = 0.5 * v_dd;
  const double t_in = crossing_time(tran, in_col, mid, in_rising);
  if (t_in < 0.0) {
    throw phys::PreconditionError("input never crosses mid level");
  }
  const double t_out = crossing_time(tran, out_col, mid, !in_rising, t_in);
  if (t_out < 0.0) {
    throw phys::PreconditionError("output never crosses mid level");
  }
  return t_out - t_in;
}

double oscillation_period(const phys::DataTable& tran, const std::string& col,
                          double v_mid, int skip_cycles) {
  // Scan the samples directly — one crossing per rising segment.
  const std::vector<double> t = tran.column("time_s");
  const std::vector<double> v = tran.column(col);
  std::vector<double> crossings;
  for (size_t i = 1; i < t.size(); ++i) {
    if (v[i - 1] < v_mid && v[i] >= v_mid) {
      const double f = (v_mid - v[i - 1]) / (v[i] - v[i - 1]);
      crossings.push_back(t[i - 1] + f * (t[i] - t[i - 1]));
    }
  }
  if (static_cast<int>(crossings.size()) < skip_cycles + 2) {
    throw phys::PreconditionError("not enough oscillation cycles recorded");
  }
  double sum = 0.0;
  int count = 0;
  for (size_t i = skip_cycles + 1; i < crossings.size(); ++i) {
    sum += crossings[i] - crossings[i - 1];
    ++count;
  }
  return sum / count;
}

double supply_energy(const phys::DataTable& tran, const std::string& i_col,
                     double v_dd) {
  const std::vector<double> t = tran.column("time_s");
  const std::vector<double> i = tran.column(i_col);
  double e = 0.0;
  for (size_t k = 1; k < t.size(); ++k) {
    // SPICE sign: a sourcing supply has negative branch current.
    e += -0.5 * (i[k] + i[k - 1]) * v_dd * (t[k] - t[k - 1]);
  }
  return e;
}

double column_stat(const phys::DataTable& table, const std::string& xcol,
                   const std::string& col, ColumnStat stat, double from,
                   double to) {
  const std::vector<double> x = table.column(xcol);
  const std::vector<double> v = table.column(col);
  double lo = 0.0, hi = 0.0, sum = 0.0, sum_sq = 0.0, span = 0.0;
  size_t count = 0;
  double x_prev = 0.0, v_prev = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] < from || x[i] > to) continue;
    if (count == 0) {
      lo = hi = v[i];
    } else {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
      // Trapezoid weights: adaptive grids are far from uniform.
      const double w = x[i] - x_prev;
      sum += 0.5 * (v[i] + v_prev) * w;
      sum_sq += 0.5 * (v[i] * v[i] + v_prev * v_prev) * w;
      span += w;
    }
    x_prev = x[i];
    v_prev = v[i];
    ++count;
  }
  if (count == 0) throw phys::PreconditionError("empty measurement window");
  switch (stat) {
    case ColumnStat::kMax:
      return hi;
    case ColumnStat::kMin:
      return lo;
    case ColumnStat::kPeakToPeak:
      return hi - lo;
    case ColumnStat::kAvg:
      return span > 0.0 ? sum / span : v_prev;
    case ColumnStat::kRms:
      return span > 0.0 ? std::sqrt(sum_sq / span) : std::abs(v_prev);
  }
  CARBON_REQUIRE(false, "column_stat: unreachable");
  return 0.0;
}

double value_at(const phys::DataTable& table, const std::string& xcol,
                const std::string& col, double x) {
  const std::vector<double> xs = table.column(xcol);
  const std::vector<double> vs = table.column(col);
  if (xs.empty()) throw phys::PreconditionError("empty table");
  if (x <= xs.front()) return vs.front();
  if (x >= xs.back()) return vs.back();
  for (size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] >= x) {
      const double w = xs[i] - xs[i - 1];
      if (w <= 0.0) return vs[i];
      const double f = (x - xs[i - 1]) / w;
      return vs[i - 1] + f * (vs[i] - vs[i - 1]);
    }
  }
  return vs.back();
}

}  // namespace carbon::spice
