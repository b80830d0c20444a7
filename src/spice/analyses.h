#pragma once

/// @file analyses.h
/// Circuit analyses: Newton–Raphson operating point behind a convergence
/// escalation ladder (plain NR → adaptive gmin ramp → source stepping →
/// pseudo-transient continuation), DC sweeps, and transient simulation with
/// backward-Euler and trapezoidal integration: one step loop, on an
/// LTE-controlled adaptive grid or a fixed dt grid.
/// Failures surface as a structured SolveFailure (stage reached, worst
/// nodes by name, oscillation/singularity culprits), never as silent NaNs
/// or a bare boolean.

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "core/report.h"
#include "obs/trace.h"
#include "phys/cancel.h"
#include "phys/require.h"
#include "phys/table.h"
#include "spice/circuit.h"
#include "spice/mna.h"

namespace carbon::spice {

struct SolveRecord;

/// Newton solver options.
struct SolverOptions {
  int max_iterations = 120;
  double v_abstol = 1e-9;      ///< absolute voltage tolerance [V]
  double reltol = 1e-6;        ///< relative tolerance
  double v_step_limit = 0.4;   ///< max node-voltage change per NR step [V]
                               ///< (the escalation ladder caps it at
                               ///< half the largest source voltage)
  double gmin_final = 1e-12;   ///< residual gmin kept in the Jacobian [S]

  // --- escalation-ladder stages (ConvergenceOrchestrator) ---
  bool allow_gmin_stepping = true;    ///< stage 2 of the ladder
  bool allow_source_stepping = true;  ///< stage 3
  bool allow_pseudo_transient = true; ///< stage 4 (fallback of last resort)

  /// Optional cooperative stop signal, polled at every Newton iteration
  /// and every transient step.  When it fires (explicit cancel() or an
  /// armed deadline), the solve throws phys::CancelledError — which is NOT
  /// a ConvergenceError, so the escalation ladder never mistakes it for a
  /// failed homotopy rung: it unwinds straight to the caller.  A hung
  /// corner case thus degrades to a bounded, attributable stop instead of
  /// wedging the thread.  Not owned; must outlive the solve.
  const phys::CancelToken* cancel = nullptr;

  /// Optional record of the solve's own work (see SolveRecord); every
  /// analysis copies it into the StampContexts it builds.  Not owned; must
  /// outlive the solve.  Single-threaded: parallel solves need one record
  /// each.
  SolveRecord* record = nullptr;
};

/// Stage of the convergence escalation ladder.
enum class SolveStage {
  kNewton = 0,        ///< plain damped Newton from the initial point
  kGminStepping,      ///< adaptive gmin ramp with backtracking
  kSourceStepping,    ///< source-scale homotopy with adaptive increments
  kPseudoTransient,   ///< artificial-capacitor continuation (last resort)
};

/// Human-readable stage name ("newton", "gmin-stepping", ...).
const char* solve_stage_name(SolveStage stage);

/// Structured description of a convergence failure: the deepest ladder
/// stage reached, the proximate cause, and every culprit the solver could
/// attribute — the singular/NaN row by name, the worst update/tolerance
/// nodes of the last Newton attempt, and nodes whose updates kept flipping
/// sign (the limit-cycle signature of metastable decks).  Earlier stages'
/// attributions are kept when a later stage has nothing better (a floating
/// node names itself in stage 1; pseudo-transient only reports "stalled").
struct SolveFailure {
  enum class Cause {
    kMaxIterations,  ///< Newton ran out of iterations
    kSingular,       ///< Jacobian numerically singular
    kNonFinite,      ///< NaN/Inf from a device model or in the system
    kStalled,        ///< a homotopy ramp could no longer advance
  };

  SolveStage stage = SolveStage::kNewton;  ///< deepest stage attempted
  Cause cause = Cause::kMaxIterations;
  int bad_row = -1;      ///< unknown index of the singular/NaN row (-1 n/a)
  std::string culprit;   ///< named culprit: node, branch or device
  struct NodeResidual {
    std::string node;    ///< node name
    double ratio;        ///< |update| / tolerance at the last iteration
  };
  std::vector<NodeResidual> worst_nodes;      ///< sorted, worst first
  std::vector<std::string> oscillating_nodes; ///< sign-flip suspects

  /// One-line report naming stage, cause and every attribution above.
  std::string to_string() const;
};

/// Thrown by operating_point (and transient recovery) when the whole
/// escalation ladder fails; carries the structured SolveFailure.
class SolveFailureError : public phys::ConvergenceError {
 public:
  explicit SolveFailureError(SolveFailure failure);
  const SolveFailure& failure() const { return failure_; }

 private:
  SolveFailure failure_;
};

/// How an operating point was won: the stage that converged and the work
/// each ladder stage performed.
struct NewtonStats {
  SolveStage stage = SolveStage::kNewton;  ///< stage that converged
  int iterations = 0;        ///< NR iterations of the final solve
  int gmin_rungs = 0;        ///< gmin-ramp Newton solves
  int gmin_backtracks = 0;   ///< gmin rungs that failed and backed off
  int source_rungs = 0;      ///< source-ramp Newton solves
  int source_backtracks = 0; ///< source rungs that failed and backed off
  long ptc_steps = 0;        ///< accepted pseudo-transient steps
  long ptc_rejections = 0;   ///< pseudo-steps rejected (Newton failure)
};

/// Everything one solve reports about its own work, reached through
/// SolverOptions::record (and StampContext::record inside the stamps).
/// transient() fills the run counters, zeroing them after its initial
/// operating point so they describe one run's time steps; the dynamic
/// stamps count device evals and bypasses; and while collect_phases is set
/// the solve loops add their wall time to the phase split, which
/// accumulates over every solve the record is attached to.
struct SolveRecord {
  /// Time the phases: a few steady_clock samples per Newton iteration and
  /// two per dynamic element stamp.  Off (the default) reads no clock.
  bool collect_phases = false;

  NewtonStats op;                  ///< initial operating-point ladder stats
  long steps_accepted = 0;
  long steps_rejected_lte = 0;     ///< LTE-controller rejections (adaptive)
  long steps_rejected_newton = 0;  ///< nonconvergence retries
  long newton_iterations = 0;      ///< total NR iterations, incl. rejected
  long breakpoints_hit = 0;        ///< source corners stepped onto exactly
  long jacobian_reuses = 0;        ///< this run's factor() calls served by
                                   ///< the identical-Jacobian (Shamanskii)
                                   ///< fast path of MnaSystem
  long orchestrator_recoveries = 0;///< dt_min Newton collapses recovered by
                                   ///< re-entering the escalation ladder
  double dt_smallest = 0.0;        ///< smallest accepted step [s]
  double dt_largest = 0.0;         ///< largest accepted step [s]
  long device_evals = 0;           ///< compact-model eval() calls issued
  long device_bypasses = 0;        ///< stamps served from the quiescent cache

  enum Phase {
    kStamp,   ///< baseline restore + matrix/RHS assembly, minus eval
    kEval,    ///< device evaluation inside the dynamic stamps
    kFactor,  ///< LU factorization (numeric refactor; skips excluded)
    kSolve,   ///< back-substitution of the factored system
    kPhases
  };
  static constexpr const char* kPhaseNames[kPhases] = {"stamp", "eval",
                                                       "factor", "solve"};
  std::array<long long, kPhases> phase_ns{};  ///< phase split [ns]

  long long phase_total() const {
    return phase_ns[kStamp] + phase_ns[kEval] + phase_ns[kFactor] +
           phase_ns[kSolve];
  }
};

/// The clock of the solve loops.  lap() charges the time since the last
/// mark to a SolveRecord phase, minus what nested laps charged meanwhile
/// (the Newton stamp lap thus excludes the eval time stamp_all charges per
/// dynamic element), and emits it as a tracer span.  The clock is read
/// only when the record collects phases or a tracer is attached.
class PhaseClock {
 public:
  /// @p traced = false: time into @p rec only, never for a tracer.
  explicit PhaseClock(SolveRecord* rec, bool traced = true)
      : rec_(rec && rec->collect_phases ? rec : nullptr),
        tr_(traced ? obs::tracer() : nullptr) {}

  bool on() const { return rec_ || tr_; }

  /// Open a lap sequence (one Newton iteration, one frequency point).
  void start() {
    if (!on()) return;
    t_start_ = t_ = obs::now_ns();
    if (rec_) charged_ = rec_->phase_total();
  }

  /// Close a lap: charge it to @p phase; with a tracer, record @p span.
  void lap(SolveRecord::Phase phase, const char* span = nullptr) {
    if (!on()) return;
    const long long t = obs::now_ns();
    if (rec_) {
      rec_->phase_ns[phase] += (t - t_) - (rec_->phase_total() - charged_);
      charged_ = rec_->phase_total();
    }
    if (tr_ && span) tr_->span(span, t_, t - t_);
    t_ = t;
  }

  /// Record span @p name from start() to the last lap.
  void span_since_start(const char* name) const {
    if (tr_) tr_->span(name, t_start_, t_ - t_start_);
  }

 private:
  SolveRecord* rec_;
  obs::Tracer* tr_;
  long long t_start_ = 0, t_ = 0, charged_ = 0;
};

/// Machine-readable reports (core::Json; objects keep field order), the
/// structured siblings of SolveFailure::to_string().  A SolveRecord renders
/// as a transient's stats block: run counters but no evals or phases.
core::Json to_json(const SolveFailure& failure);
core::Json to_json(const NewtonStats& stats);
core::Json to_json(const SolveRecord& record);

/// Short cause tag ("max-iterations", "singular", "non-finite",
/// "stalled") — the machine-readable sibling of the prose used in
/// SolveFailure::to_string().
const char* solve_cause_name(SolveFailure::Cause cause);

/// Converged solution plus metadata.
struct Solution {
  std::vector<double> x;  ///< node voltages then branch currents
  NewtonStats stats;      ///< ladder accounting (stage, iterations, rungs)
};

/// Per-solve diagnostics newton_solve fills when given a non-null pointer:
/// why the solve stopped, the factor-failure culprit, per-unknown update
/// ratios of the last iteration and per-node update sign-flip counts (the
/// oscillation detector).  Tracking costs one extra O(n) pass per
/// iteration and only runs when requested.
struct NewtonDiag {
  enum class Reason {
    kConverged = 0,
    kMaxIterations,
    kSingular,    ///< factor() failed on a collapsed pivot
    kNonFinite,   ///< device eval or system values went NaN/Inf
  };
  Reason reason = Reason::kConverged;
  int iterations = 0;
  int bad_row = -1;          ///< factor-failure row (unknown index)
  std::string culprit;       ///< device name for NonFiniteEvalError
  double worst_ratio = 0.0;  ///< worst |update|/tolerance, last iteration
  std::vector<double> update_ratio;  ///< per-unknown, last iteration
  std::vector<int> sign_flips;       ///< per-node update sign flips
};

/// Persistent Newton scratch: the assembled MNA system (Jacobian pattern,
/// slot tables, sparse LU workspace) plus the update vector,
/// built once per circuit topology and reused across iterations — and,
/// when the caller keeps the workspace alive, across the points of a sweep
/// or the steps of a transient.  After prepare() has run for a topology, a
/// Newton iteration performs no heap allocation and no symbolic
/// factorization work.
struct NewtonWorkspace {
  MnaSystem mna;
  std::vector<double> x_new;

  /// (Re)build the MNA system when the circuit topology changed; cheap
  /// no-op otherwise.
  void prepare(Circuit& ckt);
  int size() const { return mna.size(); }
};

/// One full Newton–Raphson solve at fixed gmin / source scale, running on
/// @p ws.  Returns true on convergence; @p x is updated in place.  Exposed
/// for benchmarks and custom analysis drivers; most callers want
/// operating_point.
///
/// @param diag     optional failure diagnostics (see NewtonDiag)
/// @param ptc_geq  when > 0, an artificial conductance added from every
///                 node to ground together with the history current
///                 ptc_geq * (*ptc_ref)[i] — the pseudo-transient
///                 continuation stamp (geq = C/dt, ref = previous
///                 pseudo-step state)
bool newton_solve(Circuit& ckt, std::vector<double>& x,
                  const SolverOptions& opts, double gmin, double source_scale,
                  const StampContext& proto, NewtonWorkspace& ws,
                  int* iterations, NewtonDiag* diag = nullptr,
                  double ptc_geq = 0.0,
                  const std::vector<double>* ptc_ref = nullptr);

/// The convergence escalation ladder: plain Newton, then (as allowed by
/// SolverOptions) an adaptive gmin ramp with backtracking, source stepping
/// with adaptive increments, and pseudo-transient continuation as the
/// fallback of last resort.  operating_point runs it for the DC solve and
/// the transient engine re-enters it when Newton collapses at dt_min.
///
/// Every Newton solve of the ladder limits node-voltage steps to
/// SolverOptions::v_step_limit or half the circuit's largest source
/// voltage, whichever is smaller: a limit wider than the supply damps
/// nothing, and an iterate on a flat (saturated or off) device branch then
/// overshoots the far rail and back, capped both ways, for good — the
/// two-cycle a 0.44 V CNT NAND2 output falls into at 0.4 V (0.32 <-> 0.72 V).
///
/// Failure reporting accumulates across stages: the ladder remembers the
/// most informative attribution (singular row, NaN device, oscillating
/// nodes) seen anywhere and throws one SolveFailureError describing the
/// deepest stage reached.
class ConvergenceOrchestrator {
 public:
  ConvergenceOrchestrator(Circuit& ckt, const SolverOptions& opts,
                          NewtonWorkspace& ws);

  /// Run the ladder from @p x (updated in place on success).  @p proto
  /// carries the stamp-context template (DC for operating_point; the
  /// failed step's transient context for dt_min recovery).  Returns the
  /// ladder accounting on success; throws SolveFailureError on failure.
  NewtonStats solve(std::vector<double>& x, const StampContext& proto);

 private:
  bool run_newton(std::vector<double>& x, const StampContext& proto,
                  double gmin, double source_scale, double ptc_geq = 0.0,
                  const std::vector<double>* ptc_ref = nullptr);
  bool gmin_ramp(std::vector<double>& x, const StampContext& proto);
  bool source_ramp(std::vector<double>& x, const StampContext& proto);
  bool pseudo_transient(std::vector<double>& x, const StampContext& proto);
  void merge_failure(SolveStage stage, SolveFailure::Cause ladder_cause);
  [[noreturn]] void fail();

  Circuit& ckt_;
  const SolverOptions& opts_;
  SolverOptions newton_opts_;  ///< opts_ with the ladder's step limit
  NewtonWorkspace& ws_;
  NewtonStats stats_;
  NewtonDiag diag_;       ///< diagnostics of the most recent Newton solve
  SolveFailure report_;   ///< accumulated failure description
};

/// DC operating point via the escalation ladder.  Throws SolveFailureError
/// (a ConvergenceError carrying the structured SolveFailure) when every
/// enabled stage fails.
/// @param x0  optional warm start (same layout as Solution::x)
/// @param ws  optional caller-owned workspace, reused across calls (sweep
///            drivers pass one so per-point solves allocate nothing)
Solution operating_point(Circuit& ckt, const SolverOptions& opts = {},
                         const std::vector<double>* x0 = nullptr,
                         NewtonWorkspace* ws = nullptr);

/// Voltage of a named node in a solution.
double node_voltage(const Circuit& ckt, const Solution& sol,
                    const std::string& node_name);

/// Resolve probe names to node ids once per analysis (sweep/transient/AC
/// record loops then index the solution vector directly instead of doing a
/// name lookup per point).  Throws on unknown nodes.
std::vector<NodeId> resolve_probes(const Circuit& ckt,
                                   const std::vector<std::string>& probes);

/// Current through a voltage source (positive = into its + terminal,
/// i.e. SPICE convention: current delivered *into* the source).
double vsource_current(const Circuit& ckt, const Solution& sol,
                       const VSource& src);

/// Sweep a voltage source and record node voltages.
/// Columns: sweep value, then one column per probe node.  The swept
/// source's waveform is restored when the sweep returns or throws.
/// @param ws  optional caller-owned workspace (see operating_point); a
///            session running many sweeps on one topology passes the same
///            one so the pattern/symbolic work is done once, not per sweep.
phys::DataTable dc_sweep(Circuit& ckt, VSource& swept,
                         const std::vector<double>& values,
                         const std::vector<std::string>& probes,
                         const SolverOptions& opts = {},
                         NewtonWorkspace* ws = nullptr);

/// How the transient initializes energy-storage elements.
enum class TransientIc {
  /// Capacitors start from their construction-time v_init (the seed
  /// engine's behaviour, kept as the default): a node held high by the DC
  /// operating point but loaded by a v_init = 0 capacitor snaps toward 0
  /// on the first step.
  kFromInit,
  /// Capacitors take their initial voltage from the t = 0 operating
  /// point (standard SPICE semantics without UIC): the transient starts
  /// from a true equilibrium, which is what hold-state workloads (SRAM
  /// write, bias-settled cells) need.
  kFromOperatingPoint,
};

/// Transient options.  One step loop runs two step-size policies:
///  * adaptive (adaptive = true): local-truncation-error controlled
///    variable steps.  dt becomes the *initial* step; each accepted step
///    estimates the corrector LTE from its divergence from a polynomial
///    predictor, grows/shrinks the step against lte_reltol/lte_abstol,
///    rejects oversized steps, and lands exactly on source-waveform
///    breakpoints (restarting the integrator there with a BE step);
///  * fixed (adaptive = false): the dt grid, the bit-stable reference the
///    adaptive policy is verified against.  The LTE controller stays out of
///    the step choice: every step starts at exactly dt (dt_min and dt_max
///    do not apply), Newton warm-starts from the last solution without a
///    predictor, no source corner is landed on, and a Newton failure halves
///    the step.
/// A step may retry a Newton failure at a smaller step up to 12 times (the
/// fixed grid halves it with no dt_min floor, the adaptive grid quarters it
/// down to dt_min) before the escalation ladder takes it over.
/// Both policies end with a step landing exactly on t_stop and restart the
/// integrator with a BE step after a ladder recovery.
struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 1e-12;         ///< fixed: the grid; adaptive: initial step
  bool trapezoidal = true;   ///< trapezoidal after a BE start-up step

  bool adaptive = false;
  double lte_reltol = 1e-3;  ///< relative LTE tolerance per node (> 0)
  double lte_abstol = 1e-6;  ///< absolute LTE tolerance [V] (> 0)
  double dt_min = 0.0;       ///< 0 = auto: max(t_stop * 1e-12, dt * 1e-6)
  double dt_max = 0.0;       ///< 0 = auto: t_stop / 50

  /// Quiescent-device bypass tolerance [V] forwarded to the stamps; a FET
  /// whose terminal voltages moved less than this since its last eval()
  /// serves its cached {id, gm, gds} linearization.  0 disables.
  double bypass_vtol = 0.0;

  /// When > 0, record rows at this fixed interval (linearly interpolated
  /// from the accepted steps) instead of one row per accepted step, so
  /// adaptive runs don't explode DataTable row counts — and so runs with
  /// different stepping land on a common grid for RMS comparison.
  double dt_print = 0.0;

  TransientIc ic = TransientIc::kFromInit;
  /// solver.record (optional) receives the run counters, which the
  /// adaptive/fixed benchmark pair compares at matched accuracy.
  SolverOptions solver;

  /// Optional caller-owned Newton workspace.  A SimSession re-runs one
  /// cached topology for every step point and repeated deck and passes the
  /// same workspace each time, so the matrix pattern, slot tables and the
  /// symbolic factorization are built once per topology instead of once
  /// per run.  Null = per-call workspace.
  NewtonWorkspace* workspace = nullptr;
};

/// Transient run recording node voltages (and optionally source currents).
/// Columns: time_s, then one per probe node, then "i(<src>)" per tracked
/// source.
phys::DataTable transient(Circuit& ckt, const TransientOptions& opts,
                          const std::vector<std::string>& probes,
                          const std::vector<const VSource*>& current_probes = {});

}  // namespace carbon::spice
