#pragma once

/// @file mna.h
/// The MNA assembly + linear-solve backend shared by every analysis.
///
/// MnaSystem owns the sparse CSR Jacobian, the RHS vector, and — the heart
/// of the fast path — the *slot tables*: one capture pass per circuit
/// topology records each element's stamp footprint, builds the matrix
/// pattern from it, and resolves every future add_jac/add_rhs call to a
/// direct value pointer.  After build(), a Newton iteration is:
/// restore_baseline(), stamp_all(), factor(), solve_in_place() — no index
/// arithmetic in the stamps, no allocation, and no symbolic factorization
/// work: the sparse LU (phys::SparseLu, the KLU recipe) reuses the ordering
/// and fill pattern computed once per topology across every iteration,
/// sweep point and time step.  It is the one linear backend at every size,
/// from a 5-unknown inverter to a 4096-unknown ladder.
///
/// Static/dynamic stamp split: build() classifies every element, stamps
/// the constant-Jacobian ones (resistors, source incidence rows) once
/// into a *baseline* value image, and stamp_all() then skips their
/// Jacobian writes — so an assembly pass MUST start from
/// restore_baseline(), not zero().  zero() alone leaves the static
/// entries absent (it exists for the pattern-build internals).

#include <cstdint>
#include <utility>
#include <vector>

#include "phys/sparse.h"
#include "spice/circuit.h"
#include "spice/elements.h"

namespace carbon::spice {

class MnaSystem {
 public:
  MnaSystem() = default;
  // Slot tables hold pointers into the instance's own buffers.
  MnaSystem(const MnaSystem&) = delete;
  MnaSystem& operator=(const MnaSystem&) = delete;

  /// Build pattern + slot tables for @p ckt (runs assign_branches).  Cheap
  /// to call again for the same topology: a no-op when matches() holds.
  void build(Circuit& ckt);

  /// True when the instance is built for @p ckt's current topology.
  bool matches(const Circuit& ckt) const;

  int size() const { return n_; }
  /// Structural nonzeros of the Jacobian.
  int nnz() const { return smat_.nnz(); }

  /// Zero the Jacobian values and the RHS.  NOT the start of an assembly
  /// pass — stamp_all() skips the static elements, whose values only
  /// restore_baseline() brings back.
  void zero();

  /// Re-stamp the constant-Jacobian elements into the static baseline
  /// after their *values* changed under an unchanged topology (deck
  /// retune: Resistor::set_resistance and friends do not bump the circuit
  /// revision precisely so the pattern, slot tables and sparse symbolic
  /// analysis survive).  Also drops the Shamanskii factored-image cache,
  /// which belongs to the old values.  No-op requirement: build() must
  /// have run for the current topology.
  void refresh_baseline();

  /// Full pattern rebuilds performed by build() over the life of the
  /// instance (cache-effectiveness diagnostics: stays at 1 per topology
  /// when workspace reuse works).
  long build_count() const { return builds_; }

  /// Start a stamping pass: restore the Jacobian values to the static
  /// baseline (the summed contributions of every jacobian_is_constant()
  /// element, memcpy'd back instead of re-stamped) and zero the RHS.  This
  /// is what the Newton loop calls instead of zero(); stamp_all() then
  /// skips the static elements' Jacobian writes.
  void restore_baseline();

  /// Elements whose stamp() call is skipped entirely by stamp_all()
  /// (constant Jacobian already in the baseline, no RHS footprint) —
  /// resistors, mostly.  Diagnostics for tests.
  int static_skipped_count() const { return static_skipped_; }

  /// Stamp every element of @p ckt through its slot table.  @p ctx carries
  /// the solve state (iterate, gmin, source scale, transient step); its
  /// slot fields are managed here.
  void stamp_all(const Circuit& ckt, StampContext& ctx);

  /// Number of node-voltage unknowns (rows [0, node_count()) of the
  /// system); the remaining rows are source branch currents.
  int node_count() const { return n_nodes_; }

  /// Add a conductance @p geq from every node to ground plus the matching
  /// history current geq * x_ref[i] on the RHS — the artificial-capacitor
  /// stamp of pseudo-transient continuation (geq = C/dt, x_ref = previous
  /// accepted state).  build() guarantees every node diagonal is in the
  /// pattern, so this is a direct value write with no pattern growth.
  /// Call between stamp_all() and factor(); restore_baseline() clears it
  /// again.
  void add_node_shunts(double geq, const std::vector<double>& x_ref);

  /// Factor the assembled Jacobian.  Returns false on numerical
  /// singularity (callers treat it as a failed homotopy rung).  Refactors
  /// on the recorded pattern and transparently re-runs the pivot analysis
  /// if the values drifted too far from the ones the pivots were picked
  /// for.
  ///
  /// Shamanskii / modified-Newton fast path: when the assembled values are
  /// bit-identical to the last successfully factored Jacobian — which is
  /// exactly what happens when every device served its stamp from the
  /// quiescent-bypass cache and the companion conductances (dt) did not
  /// change — the numeric refactorization is skipped entirely and the held
  /// factorization is reused.  Bitwise comparison makes the reuse exact,
  /// never approximate.
  bool factor();

  /// factor() calls served by the identical-Jacobian fast path (cumulative
  /// for the life of the instance).
  long factor_skip_count() const { return factor_skips_; }

  /// Why the last factor() returned false (reset on every factor() call).
  /// `row` is the 0-based unknown index of the culprit — a node voltage
  /// when row < node_count(), a branch current otherwise; -1 when the
  /// failure could not be attributed to a row.
  struct FactorFailure {
    enum class Kind : std::uint8_t {
      kNone = 0,   ///< last factor() succeeded
      kSingular,   ///< pivot collapsed numerically
      kNonFinite,  ///< NaN/Inf in the Jacobian, RHS, or elimination
    };
    Kind kind = Kind::kNone;
    int row = -1;
  };
  const FactorFailure& factor_failure() const { return failure_; }

  /// Solve J x = b in place (b in @p bx, x out).  factor() must have
  /// succeeded.
  void solve_in_place(std::vector<double>& bx) const;

  /// Copy the assembled RHS into @p out (resized to size()).
  void copy_rhs(std::vector<double>& out) const;

  /// Symbolic analyses performed by the LU (diagnostics; stays at 1 per
  /// topology when pattern reuse works).
  int analyze_count() const { return slu_.analyze_count(); }

 private:
  /// Stamp the static elements into a fresh baseline image (shared tail
  /// of build() and refresh_baseline()).
  void stamp_static_baseline();

  const Circuit* ckt_ = nullptr;
  std::uint64_t uid_ = 0;
  std::uint64_t revision_ = 0;
  int n_ = 0;
  int n_nodes_ = 0;
  FactorFailure failure_;

  phys::SparseMatrix smat_;
  phys::SparseLu slu_;

  std::vector<double> rhs_;
  double jac_trash_ = 0.0;  ///< sink of ground-row/col stamp writes
  double rhs_trash_ = 0.0;
  std::vector<double*> node_diag_;  ///< per-node diagonal value pointers

  // Per-element slot tables (value pointer per captured add call).
  std::vector<double*> jac_slots_, rhs_slots_;
  std::vector<int> jac_off_, rhs_off_;  // per-element offsets, size+1 each
  // Captured footprints, kept for slot-order assertions in debug builds.
  std::vector<std::pair<int, int>> jac_coords_;
  std::vector<int> rhs_rows_;

  // Static/dynamic stamp split: how stamp_all() treats each element.
  enum class StampMode : std::uint8_t {
    kDynamic,    ///< full stamp every iteration
    kStaticRhs,  ///< Jacobian from the baseline, RHS stamped (sources)
    kSkip,       ///< Jacobian from the baseline, no RHS — not visited
  };
  std::vector<StampMode> stamp_mode_;
  std::vector<double> baseline_;  ///< static Jacobian values (CSR order)
  int static_skipped_ = 0;

  // Shamanskii fast path: image of the last successfully factored values.
  std::vector<double> factored_values_;
  bool factored_valid_ = false;
  long factor_skips_ = 0;
  long builds_ = 0;
};

}  // namespace carbon::spice
