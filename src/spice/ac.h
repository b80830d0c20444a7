#pragma once

/// @file ac.h
/// Small-signal AC analysis: linearize the circuit at its DC operating
/// point and solve the complex MNA system across a frequency sweep.  This
/// backs the RF discussion of the paper's Section II (gain roll-off, poles,
/// the fmax collapse of non-saturating devices).  The sweep is the .ac half
/// of the small-signal pass; both are defined in smallsignal.cpp.

#include <string>
#include <vector>

#include "phys/table.h"
#include "spice/circuit.h"
#include "spice/smallsignal.h"

namespace carbon::spice {

/// Run an AC sweep with @p input as the unit-magnitude stimulus: the
/// small-signal pass with @p probes and no noise output.
phys::DataTable ac_sweep(Circuit& ckt, VSource& input,
                         const std::vector<std::string>& probes,
                         const AcOptions& opt = {});

/// -3 dB frequency of a probe column relative to its lowest-frequency
/// magnitude; negative if it never drops below the corner.
double corner_frequency(const phys::DataTable& ac,
                        const std::string& mag_column);

}  // namespace carbon::spice
