#include "fab/devstats.h"

#include <cmath>

#include "phys/parallel.h"
#include "phys/require.h"

namespace carbon::fab {

namespace {

MeasuredDevice measure_one(const DeviceSite& site,
                           const MeasurementModel& model, phys::Rng& rng) {
  MeasuredDevice d;
  for (const auto& tube : site.tubes) {
    if (!tube.bridges_channel) continue;
    ++d.tubes;
    const double spread = std::exp(rng.normal(0.0, model.sigma_ln));
    if (tube.chirality.is_metallic()) {
      ++d.metallic_tubes;
      const double i_m = model.metallic_current * spread;
      d.ion_a += i_m;
      d.ioff_a += i_m;  // no gate control: conducts in the off state too
    } else {
      d.ion_a += model.ion_semi_mean * spread;
      d.ioff_a += model.ioff_semi_mean * spread;
    }
  }
  d.on_off = (d.ioff_a > 0.0) ? d.ion_a / d.ioff_a : 0.0;
  d.functional = d.tubes > 0 && d.on_off >= model.min_on_off &&
                 d.ion_a >= model.min_ion_a;
  return d;
}

}  // namespace

std::vector<MeasuredDevice> measure_sites(const std::vector<DeviceSite>& sites,
                                          const MeasurementModel& model,
                                          phys::Rng& rng) {
  std::vector<MeasuredDevice> out;
  out.reserve(sites.size());
  for (const auto& site : sites) {
    out.push_back(measure_one(site, model, rng));
  }
  return out;
}

std::vector<MeasuredDevice> measure_sites_parallel(
    const std::vector<DeviceSite>& sites, const MeasurementModel& model,
    std::uint64_t seed, int num_threads) {
  std::vector<MeasuredDevice> out(sites.size());
  phys::parallel_for_seeded(static_cast<long>(sites.size()), seed,
                            [&](long begin, long end, phys::Rng& rng) {
                              for (long i = begin; i < end; ++i) {
                                out[i] = measure_one(sites[i], model, rng);
                              }
                            },
                            num_threads);
  return out;
}

PopulationStats summarize(const std::vector<MeasuredDevice>& devices) {
  PopulationStats s;
  s.devices = static_cast<int>(devices.size());
  if (devices.empty()) return s;
  std::vector<double> onoff, ion;
  double tubes = 0.0;
  int shorts = 0;
  for (const auto& d : devices) {
    if (d.functional) ++s.functional;
    if (d.tubes > 0) {
      onoff.push_back(d.on_off);
      ion.push_back(d.ion_a);
    }
    tubes += d.tubes;
    shorts += (d.metallic_tubes > 0) ? 1 : 0;
  }
  s.yield = static_cast<double>(s.functional) / s.devices;
  if (!onoff.empty()) {
    s.median_on_off = phys::median(onoff);
    s.median_ion_a = phys::median(ion);
  }
  s.mean_tubes = tubes / s.devices;
  s.short_fraction = static_cast<double>(shorts) / s.devices;
  return s;
}

phys::DataTable on_off_histogram(const std::vector<MeasuredDevice>& devices,
                                 int bins) {
  CARBON_REQUIRE(bins >= 1, "need at least one bin");
  phys::Histogram h(0.0, 8.0, bins);
  for (const auto& d : devices) {
    if (d.tubes > 0 && d.on_off > 0.0) h.add(std::log10(d.on_off));
  }
  phys::DataTable t({"log10_onoff", "fraction"});
  for (int i = 0; i < h.bins(); ++i) {
    t.add_row({h.bin_center(i), h.bin_fraction(i)});
  }
  return t;
}

}  // namespace carbon::fab
