#pragma once

/// @file ensemble.h
/// Fault-tolerant ensemble engine: Monte-Carlo / corner batches that
/// re-solve one circuit topology under thousands of perturbed device
/// models, sharded over the phys thread pool with production failure
/// semantics.  This is the fab-variation yield workload (the paper ranks
/// CNT/GNR devices by how they survive diameter/contact variation) run the
/// way a service would run it:
///
///  * Per-trial fault isolation — every exception a trial can throw
///    (SolveFailureError, NonFiniteEvalError, SingularMatrixError,
///    deadline/cancellation, anything else) is caught at the trial
///    boundary and converted into a structured TrialResult.  Trial 713
///    hitting a pathological corner yields a record naming stage, cause
///    and culprit; the batch always completes and reports a yield plus a
///    failure taxonomy.
///  * Retry with escalation — a failed trial re-runs with progressively
///    stronger SolverOptions (full convergence ladder enabled, more
///    iteration/rung headroom, tighter damping, finer time stepping),
///    bounded by a per-trial retry budget.
///  * Deadlines and cooperative cancellation — a per-trial and a per-batch
///    wall-clock budget armed on a phys::CancelToken that the Newton and
///    transient inner loops poll, so a hung corner degrades to a timed_out
///    record instead of wedging a worker.
///  * Deterministic checkpoint/resume — completed trials are spilled
///    incrementally (binary, bit-exact doubles) to a checkpoint file; an
///    interrupted batch resumed from it skips the completed trials and
///    reproduces bit-identical statistics.
///  * Determinism — trial i draws its variates from the decorrelated
///    stream phys::stream_seed(seed, i) regardless of which worker runs it
///    or how many retries earlier trials burned, so results are
///    bit-identical for any thread count.
///
/// The fault-injection counterpart (device::FaultyModelDecorator, see
/// device/faulty.h) lets tests force every one of these paths on purpose.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/report.h"
#include "phys/cancel.h"
#include "phys/rng.h"
#include "spice/analyses.h"

namespace carbon::spice {

/// Terminal disposition of one trial.
enum class TrialOutcome : int {
  kOk = 0,        ///< the trial function returned a measurement
  kSolveFailure,  ///< convergence ladder exhausted (SolveFailureError)
  kNonFinite,     ///< NaN/Inf device eval outside the ladder
  kSingular,      ///< singular matrix escaping the solver layers
  kTimedOut,      ///< a wall-clock deadline expired
  kCancelled,     ///< explicit cancellation stopped the trial / batch
  kError,         ///< any other std::exception from the trial body
};
const char* trial_outcome_name(TrialOutcome outcome);

/// What a successful trial hands back to the runner.
struct TrialMeasurement {
  double metric = 0.0;   ///< scalar figure of the trial (e.g. final v(q))
  bool pass = false;     ///< the yield criterion
  SolveRecord stats;     ///< work accounting of the successful attempt
};

/// One trial's structured record — failure or success, every trial gets
/// one; the batch result is the full vector plus aggregate statistics.
struct TrialResult {
  long index = -1;
  bool ok = false;
  bool pass = false;          ///< yield criterion (only when ok)
  double metric = 0.0;        ///< measurement (only when ok)
  TrialOutcome outcome = TrialOutcome::kCancelled;
  int retries = 0;            ///< escalated re-runs consumed (0 = first try)
  long long wall_ns = 0;      ///< wall time across all attempts
  bool from_checkpoint = false;  ///< loaded, not recomputed, this run
  SolveFailure failure;       ///< structured ladder report (solve failures)
  std::string error;          ///< exception message (non-ok outcomes)
  SolveRecord stats;          ///< work accounting of the successful attempt

  /// Taxonomy bucket, e.g. "ok", "solve-failure/gmin-stepping/singular",
  /// "timed-out" — the key the batch summary histograms failures under.
  std::string taxonomy() const;
};

/// Per-attempt context handed to the trial function.
struct TrialContext {
  long index = 0;    ///< trial number in [0, num_trials)
  int attempt = 0;   ///< 0 = first run, 1.. = escalated retries
  phys::Rng& rng;    ///< deterministic per-trial stream, fresh per attempt
  /// Solver options for this attempt: the batch's base options escalated
  /// by EnsembleRunner::escalate_solver, with the trial's cancel token
  /// already wired in.  Use these (or tuned()) for every solve.
  const SolverOptions& solver;
  /// The per-trial stop token (deadline armed, chained to the batch's).
  /// Pass it to any custom long-running loop the trial body owns.
  const phys::CancelToken* cancel = nullptr;

  /// @p base transient options adapted to this attempt: solver installed
  /// and, on retries, stepping escalated (finer dt, more halving headroom).
  TransientOptions tuned(TransientOptions base) const;
};

/// Batch configuration.
struct EnsembleOptions {
  std::uint64_t seed = 0x5eed;
  int num_threads = 0;        ///< 0 = default pool width
  int max_retries = 2;        ///< escalated re-runs per failed trial
  double trial_deadline_s = 0.0;  ///< per-attempt wall budget (0 = none)
  double batch_deadline_s = 0.0;  ///< whole-batch wall budget (0 = none)
  /// Optional external cancellation (not owned; must outlive run()).  The
  /// batch also stops when this fires.
  const phys::CancelToken* cancel = nullptr;
  /// When non-empty, completed trials are appended here incrementally and
  /// a later run with identical configuration resumes from it.
  std::string checkpoint_path;
  /// Folded into the checkpoint identity hash together with seed,
  /// num_trials and max_retries: bump it when the trial function changes
  /// meaning, so stale checkpoints are rejected instead of silently mixed.
  std::string config_tag;
  SolverOptions solver;       ///< attempt-0 solver options
};

/// Aggregate batch statistics.
struct EnsembleSummary {
  long trials = 0;
  long ok = 0;               ///< trials that produced a measurement
  long passed = 0;           ///< ok trials meeting the yield criterion
  long failed = 0;           ///< terminal structured failures
  long timed_out = 0;
  long cancelled = 0;        ///< stopped by batch cancel/deadline, not run
  long from_checkpoint = 0;  ///< results loaded instead of recomputed
  long retried_trials = 0;   ///< trials that needed at least one retry
  long retries_total = 0;
  long recovered_by_retry = 0;  ///< ok trials whose first attempt failed
  double yield = 0.0;        ///< passed / trials
  double wall_s = 0.0;       ///< batch wall time this run
  int threads = 0;           ///< resolved worker count
  /// taxonomy() -> count over every non-ok trial.
  std::map<std::string, long> failure_taxonomy;
};

struct EnsembleResult {
  std::vector<TrialResult> trials;  ///< index == trial number
  EnsembleSummary summary;
};

/// The runner.  Usage:
///
///   EnsembleOptions eo;
///   eo.seed = 42; eo.checkpoint_path = "yield.ckpt";
///   EnsembleRunner runner(eo);
///   auto result = runner.run(1000, [&](int /*worker*/) {
///     // Per-worker state: one bench circuit + one Newton workspace,
///     // reused across every trial this worker executes.
///     auto bench = std::make_shared<WorkerBench>(...);
///     return [bench](TrialContext& ctx) -> TrialMeasurement {
///       auto params = fab::perturb_alpha_power(nominal, var, ctx.rng);
///       bench->retarget(params);             // Fet::set_model per device
///       auto tr = transient(*bench->ckt, ctx.tuned(base_tran), {"q"});
///       return {final_q(tr), final_q(tr) < 0.1, stats};
///     };
///   });
///
/// The worker factory runs once per worker thread (it must be
/// thread-safe); exceptions it throws are configuration errors and
/// propagate out of run().  Exceptions from the *trial function* are the
/// isolated, per-trial kind described above and never escape the batch.
class EnsembleRunner {
 public:
  using TrialFn = std::function<TrialMeasurement(TrialContext&)>;
  using WorkerFactory = std::function<TrialFn(int worker)>;

  explicit EnsembleRunner(EnsembleOptions opts) : opts_(std::move(opts)) {}

  /// Run @p num_trials trials (resuming from the checkpoint when one is
  /// configured and present).  Always returns a complete result; throws
  /// only for configuration errors (bad checkpoint identity, factory
  /// failure), never for trial failures.
  EnsembleResult run(long num_trials, const WorkerFactory& make_worker) const;

  /// The retry-escalation policy: attempt 0 returns @p base unchanged;
  /// each retry enables the full convergence ladder and adds iteration /
  /// rung / pseudo-step headroom while tightening the Newton damping.
  static SolverOptions escalate_solver(const SolverOptions& base,
                                       int attempt);
  /// Transient-side escalation: finer initial/minimum step and more
  /// halving headroom per retry.
  static void escalate_transient(TransientOptions& tran, int attempt);

 private:
  struct RunOne {
    TrialResult result;
    bool terminal = true;  ///< false: batch-level stop, do not checkpoint
  };
  RunOne run_one(long index, const TrialFn& fn,
                 const phys::CancelToken& batch) const;

  EnsembleOptions opts_;
};

/// Machine-readable reports (core::Json; objects keep field order, doubles
/// round-trip via %.17g) — a yield dashboard or CI gate consumes the JSON.
/// A trial's stats and failure render as in analyses.h.
core::Json to_json(const TrialResult& result);
core::Json to_json(const EnsembleSummary& summary);
/// Full batch report: {"summary": ..., "trials": [...]}.
core::Json to_json(const EnsembleResult& result);

}  // namespace carbon::spice
