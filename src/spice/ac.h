#pragma once

/// @file ac.h
/// Small-signal AC analysis: linearize the circuit at its DC operating
/// point and solve the complex MNA system across a frequency sweep.  This
/// backs the RF discussion of the paper's Section II (gain roll-off, poles,
/// the fmax collapse of non-saturating devices).
///
/// The sweep runs on spice::AcSystem (smallsignal.h): one value-capture
/// pass per sweep and a complex sparse LU whose symbolic analysis is
/// amortized across every frequency point, mirroring the Newton engine.
/// The companion noise analysis lives in smallsignal.h as well.

#include <string>
#include <vector>

#include "phys/table.h"
#include "spice/analyses.h"
#include "spice/circuit.h"

namespace carbon::spice {

class AcSystem;

/// Options of an AC sweep.
struct AcOptions {
  double f_start_hz = 1e3;
  double f_stop_hz = 1e12;
  int points_per_decade = 10;
  SolverOptions dc;  ///< operating-point solver options

  /// Optional caller-owned reuse state (deck sessions): the Newton
  /// workspace backs the operating-point solve, the AcSystem keeps its
  /// captured footprint + complex symbolic analysis across sweeps of one
  /// topology.  Null = per-call locals, as before.  Not owned.
  NewtonWorkspace* workspace = nullptr;
  AcSystem* system = nullptr;
};

/// Run an AC sweep with @p input as the unit-magnitude stimulus.
/// Columns: freq_hz, then |v(<probe>)| and phase_deg(<probe>) per probe.
/// The stimulus magnitude of every other source is left untouched (they
/// are AC-grounded unless set_ac_magnitude was called), and the input's
/// own magnitude is restored when the sweep returns or throws.
phys::DataTable ac_sweep(Circuit& ckt, VSource& input,
                         const std::vector<std::string>& probes,
                         const AcOptions& opt = {});

/// -3 dB frequency of a probe column relative to its lowest-frequency
/// magnitude; negative if it never drops below the corner.
double corner_frequency(const phys::DataTable& ac,
                        const std::string& mag_column);

}  // namespace carbon::spice
