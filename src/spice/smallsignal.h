#pragma once

/// @file smallsignal.h
/// The small-signal subsystem: a complex MNA backend with the same
/// symbolic-reuse discipline as the real Newton engine, and the one pass
/// that runs .ac and .noise on it.  This is the third analysis pillar
/// next to DC and transient — it backs the paper's RF/analog case for
/// CNT/GNR FETs (transconductance roll-off, f_T, noise at scaled supplies).
///
/// AcSystem is the engine.  One *value-capture* pass per (topology,
/// operating point) records every element's small-signal footprint — the
/// frequency-independent conductance image G, the capacitance entries that
/// enter as jωC, and the stimulus phasor — and resolves them to direct
/// value slots of a complex CSR matrix.  After that no element is ever
/// consulted again: each frequency point memcpy-restores the G image,
/// rescales the captured jωC entries in place, and refactors the complex
/// sparse LU on the pattern analyzed ONCE for the whole sweep (the MNA
/// pattern is frequency-independent).
///
/// small_signal() runs .ac and .noise: per frequency one factorization,
/// the forward solve and one adjoint (transposed) solve per noise output,
/// whose solution is the transfer from every noise source and from the
/// input to that output (Rohrer, Nagel, Meyer, Weber, JSSC 6(4), 1971).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "phys/linalg_complex.h"
#include "phys/sparse.h"
#include "phys/table.h"
#include "spice/analyses.h"
#include "spice/circuit.h"

namespace carbon::spice {

/// Complex MNA system for small-signal analyses.  Build once per circuit
/// topology + operating point; assemble_factor() + solve per frequency.
/// The sparse pattern and its LU symbolic analysis persist across builds
/// for the same topology (only the captured values are refreshed), so
/// repeated sweeps after re-biasing pay no symbolic work either.
class AcSystem {
 public:
  AcSystem() = default;
  // Slot tables index the instance's own value buffers.
  AcSystem(const AcSystem&) = delete;
  AcSystem& operator=(const AcSystem&) = delete;

  /// (Re)capture the circuit linearized at the DC solution @p x_dc.
  /// Cheap when the topology is unchanged: the pattern, slot tables and LU
  /// analysis are reused and only the captured values are refreshed.
  void build(Circuit& ckt, const std::vector<double>& x_dc);

  int size() const { return n_; }

  /// Assemble the system at angular frequency @p omega (restore the G
  /// baseline, add jωC through the recorded slots) and factor it.
  /// Returns false on numerical singularity.
  bool assemble_factor(double omega);

  /// Solve A x = b in place.  assemble_factor() must have succeeded.
  void solve_in_place(std::vector<phys::Complex>& bx) const {
    slu_.solve_in_place(bx);
  }

  /// Adjoint solve Aᵀ x = b in place (plain transpose): the noise
  /// analysis' one-solve-per-frequency transfer evaluation.
  void solve_transpose_in_place(std::vector<phys::Complex>& bx) const {
    slu_.solve_transpose_in_place(bx);
  }

  /// The captured stimulus vector (frequency-independent): solve this to
  /// get the response to the designated AC inputs.
  const std::vector<phys::Complex>& stimulus() const { return rhs_; }

  /// Symbolic analyses performed by the complex sparse LU; stays at 1 per
  /// topology when pattern reuse works (diagnostics).
  int analyze_count() const { return slu_.analyze_count(); }

 private:
  std::uint64_t uid_ = 0;
  std::uint64_t revision_ = 0;
  int n_ = 0;
  bool built_ = false;

  phys::SparseMatrixZ smat_;
  phys::SparseLuZ slu_;

  /// Captured G image over the CSR values, memcpy-restored at every
  /// frequency point.
  std::vector<phys::Complex> baseline_;
  /// Captured jωC entries: CSR value slot plus capacitance, merged per
  /// slot.  Per point: value[slot] += j * omega * c.
  std::vector<std::pair<int, double>> c_entries_;
  std::vector<phys::Complex> rhs_;
};

/// Log-spaced frequency grid with @p points_per_decade, endpoints
/// inclusive — the grid a small-signal pass marches.
std::vector<double> log_frequency_grid(double f_start_hz, double f_stop_hz,
                                       int points_per_decade);

/// Options of a small-signal pass, .ac and .noise alike.
struct AcOptions {
  double f_start_hz = 1e3;
  double f_stop_hz = 1e12;
  int points_per_decade = 10;
  double temperature_k = 300.0;  ///< of the noise sources
  SolverOptions dc;  ///< operating-point solver options

  /// Optional caller-owned reuse state (deck sessions): the Newton
  /// workspace backs the operating-point solve, the AcSystem keeps its
  /// captured footprint + complex symbolic analysis across passes of one
  /// topology.  Null = per-call locals.  Not owned.
  NewtonWorkspace* workspace = nullptr;
  AcSystem* system = nullptr;
};

/// One .noise output of a small-signal pass and its input source.
struct NoiseRequest {
  const VSource* input = nullptr;
  std::string output;
};

/// Result of a noise analysis.
struct NoiseResult {
  /// Columns: freq_hz, onoise_v2_hz (output noise PSD [V^2/Hz]),
  /// inoise_v2_hz (input-referred PSD), gain_mag (|H| input -> output).
  phys::DataTable table;

  /// Integrated output / input-referred noise [V^2] over [0, f_stop]:
  /// trapezoid across the swept band plus a flat extension of the
  /// f_start PSD down to DC (exact for white-dominated spectra; a 1/f
  /// corner below f_start is deliberately not extrapolated).
  double onoise_total_v2 = 0.0;
  double inoise_total_v2 = 0.0;

  /// Per-source integrated output-noise contributions [V^2], labelled as
  /// the elements labelled them ("r1.thermal", "m1.flicker", ...), in
  /// netlist order.  Sums to onoise_total_v2.
  std::vector<std::pair<std::string, double>> contributions;
};

struct SmallSignalResult {
  /// Columns: freq_hz, then mag(<probe>) and phase_deg(<probe>) per probe
  /// node, then mag(i(<src>)) and phase_deg(i(<src>)) per current probe;
  /// empty without an .ac input.
  phys::DataTable ac;
  std::vector<NoiseResult> noise;  ///< one per NoiseRequest, in order
};

/// The small-signal pass over one frequency grid.  .ac: @p ac_input is the
/// unit-magnitude stimulus (other sources keep their magnitudes; the
/// input's own comes back when the pass returns or throws), @p probes the
/// recorded nodes and @p currents the voltage sources whose branch current
/// is recorded; null input = no forward solve.  .noise: every element's
/// noise sources at the operating point, propagated to each output, with
/// output and input-referred densities and integrated totals.  The gain is
/// the transfer from the request's input alone; it makes no noise itself.
SmallSignalResult small_signal(Circuit& ckt, VSource* ac_input,
                               const std::vector<std::string>& probes,
                               const std::vector<const VSource*>& currents,
                               const std::vector<NoiseRequest>& noise,
                               const AcOptions& opt = {});

/// The small-signal pass for one noise output.
NoiseResult noise_sweep(Circuit& ckt, VSource& input,
                        const std::string& output_node,
                        const AcOptions& opt = {});

}  // namespace carbon::spice
