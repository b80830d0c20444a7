#pragma once

/// @file devstats.h
/// Statistical device characterization of placed CNT populations: build a
/// FET at every placement site and measure it, reproducing the >10,000
/// device study of H. Park et al. (ref [22]) that the paper highlights as
/// the first statistics at that scale.

#include <vector>

#include "fab/placement.h"
#include "phys/stats.h"
#include "phys/table.h"

namespace carbon::fab {

/// Measured figures of one fabricated device site.
struct MeasuredDevice {
  int tubes = 0;            ///< bridging tubes
  int metallic_tubes = 0;   ///< bridging metallic tubes
  double ion_a = 0.0;       ///< on-current
  double ioff_a = 0.0;      ///< off-current
  double on_off = 0.0;      ///< Ion/Ioff
  bool functional = false;  ///< meets the on/off and drive specs
};

/// Electrical assumptions of the statistical study.
struct MeasurementModel {
  double vdd = 0.5;
  /// Per-tube semiconducting on/off currents [A] (means).
  double ion_semi_mean = 5e-6;
  double ioff_semi_mean = 50e-12;
  /// Log-normal spread (sigma of ln I) from diameter/contact variation.
  double sigma_ln = 0.35;
  /// A metallic tube conducts this much regardless of gate [A].
  double metallic_current = 15e-6;
  /// Functional spec.
  double min_on_off = 1e3;
  double min_ion_a = 1e-6;
};

/// Measure every site.
std::vector<MeasuredDevice> measure_sites(const std::vector<DeviceSite>& sites,
                                          const MeasurementModel& model,
                                          phys::Rng& rng);

/// Parallel measurement: fixed chunks of devices each draw their variation
/// from their own RNG stream (phys::parallel_for_seeded), so the statistics
/// are bit-for-bit identical for any thread count (num_threads 0 = default
/// pool).
std::vector<MeasuredDevice> measure_sites_parallel(
    const std::vector<DeviceSite>& sites, const MeasurementModel& model,
    std::uint64_t seed, int num_threads = 0);

/// Aggregate statistics of a measured population.
struct PopulationStats {
  int devices = 0;
  int functional = 0;
  double yield = 0.0;
  double median_on_off = 0.0;
  double median_ion_a = 0.0;
  double mean_tubes = 0.0;
  double short_fraction = 0.0;  ///< devices containing a metallic tube
};
PopulationStats summarize(const std::vector<MeasuredDevice>& devices);

/// Histogram table of log10(on/off). Columns: log10_onoff, fraction.
phys::DataTable on_off_histogram(const std::vector<MeasuredDevice>& devices,
                                 int bins = 24);

}  // namespace carbon::fab
