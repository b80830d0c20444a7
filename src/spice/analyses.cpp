#include "spice/analyses.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace.h"
#include "phys/require.h"
#include "spice/integrator.h"

namespace carbon::spice {

void NewtonWorkspace::prepare(Circuit& ckt) {
  mna.build(ckt);
  x_new.resize(mna.size());
}

const char* solve_stage_name(SolveStage stage) {
  switch (stage) {
    case SolveStage::kNewton: return "newton";
    case SolveStage::kGminStepping: return "gmin-stepping";
    case SolveStage::kSourceStepping: return "source-stepping";
    case SolveStage::kPseudoTransient: return "pseudo-transient";
  }
  return "unknown";
}

namespace {

const char* cause_name(SolveFailure::Cause cause) {
  switch (cause) {
    case SolveFailure::Cause::kMaxIterations:
      return "Newton ran out of iterations";
    case SolveFailure::Cause::kSingular:
      return "Jacobian is numerically singular";
    case SolveFailure::Cause::kNonFinite:
      return "non-finite value (NaN/Inf) in the system";
    case SolveFailure::Cause::kStalled:
      return "continuation stalled";
  }
  return "unknown";
}

/// Human name of MNA unknown @p row: a node voltage for the first
/// num_nodes rows, a source branch current after.
std::string row_name(const Circuit& ckt, int row) {
  if (row < 0) return {};
  if (row < ckt.num_nodes()) {
    return "node '" + ckt.node_name(row + 1) + "'";
  }
  return "branch current #" + std::to_string(row - ckt.num_nodes());
}

// The convergence ladder's fixed schedule (ConvergenceOrchestrator).
constexpr double kGminInitial = 1e-3;  ///< gmin ramp start [S]
constexpr int kGminSteps = 10;         ///< nominal gmin ladder length: sets
                                       ///< the ramp's first descent factor
constexpr int kGminMaxRungs = 48;      ///< Newton solves the gmin ramp may
                                       ///< spend (escalation + descent +
                                       ///< backtracks)
constexpr int kSourceSteps = 10;       ///< nominal source ladder length: sets
                                       ///< the first scale increment
constexpr int kSourceMaxRungs = 48;    ///< Newton solves of the source ramp
constexpr double kPtcCFarad = 1e-6;    ///< pseudo-transient node capacitance
constexpr double kPtcDtInitial = 1e-4; ///< first pseudo-step [s]
constexpr double kPtcDtGrowth = 10.0;  ///< max pseudo-step growth per step
constexpr int kPtcMaxSteps = 500;      ///< pseudo-step budget
constexpr int kFailureReportNodes = 5; ///< worst nodes a SolveFailure lists

/// Newton failures one transient step may retry at a smaller step before
/// the escalation ladder takes it over.
constexpr int kMaxStepHalvings = 12;

/// The ladder's Newton step limit (see ConvergenceOrchestrator).  A circuit
/// without a nonzero voltage source keeps opts.v_step_limit.
double ladder_step_limit(const Circuit& ckt, const SolverOptions& opts,
                         const StampContext& proto) {
  double v_max = 0.0;
  for (const auto& el : ckt.elements()) {
    if (const auto* src = dynamic_cast<const VSource*>(el.get())) {
      const double v = proto.transient ? src->wave().value(proto.time_s)
                                       : src->wave().dc_value();
      v_max = std::max(v_max, std::abs(v));
    }
  }
  return v_max > 0.0 ? std::min(opts.v_step_limit, 0.5 * v_max)
                     : opts.v_step_limit;
}

}  // namespace

std::string SolveFailure::to_string() const {
  std::ostringstream os;
  os << "operating point failed at stage '" << solve_stage_name(stage)
     << "': " << cause_name(cause);
  if (!culprit.empty()) os << "; culprit: " << culprit;
  if (!worst_nodes.empty()) {
    os << "; worst nodes:";
    for (const auto& w : worst_nodes) {
      os << " " << w.node << " (" << w.ratio << "x tol)";
    }
  }
  if (!oscillating_nodes.empty()) {
    os << "; oscillating:";
    for (const auto& n : oscillating_nodes) os << " " << n;
  }
  return os.str();
}

SolveFailureError::SolveFailureError(SolveFailure failure)
    : phys::ConvergenceError(failure.to_string()),
      failure_(std::move(failure)) {}

const char* solve_cause_name(SolveFailure::Cause cause) {
  switch (cause) {
    case SolveFailure::Cause::kMaxIterations: return "max-iterations";
    case SolveFailure::Cause::kSingular: return "singular";
    case SolveFailure::Cause::kNonFinite: return "non-finite";
    case SolveFailure::Cause::kStalled: return "stalled";
  }
  return "?";
}

core::Json to_json(const SolveFailure& failure) {
  auto j = core::Json::object();
  j.set("stage", solve_stage_name(failure.stage));
  j.set("cause", solve_cause_name(failure.cause));
  j.set("bad_row", failure.bad_row);
  j.set("culprit", failure.culprit);
  auto worst = core::Json::array();
  for (const auto& n : failure.worst_nodes) {
    worst.push(core::Json::object().set("node", n.node).set("ratio", n.ratio));
  }
  j.set("worst_nodes", std::move(worst));
  auto osc = core::Json::array();
  for (const auto& n : failure.oscillating_nodes) osc.push(n);
  j.set("oscillating_nodes", std::move(osc));
  return j;
}

core::Json to_json(const NewtonStats& stats) {
  auto j = core::Json::object();
  j.set("stage", solve_stage_name(stats.stage));
  j.set("iterations", stats.iterations);
  j.set("gmin_rungs", stats.gmin_rungs);
  j.set("gmin_backtracks", stats.gmin_backtracks);
  j.set("source_rungs", stats.source_rungs);
  j.set("source_backtracks", stats.source_backtracks);
  j.set("ptc_steps", stats.ptc_steps);
  j.set("ptc_rejections", stats.ptc_rejections);
  j.set("used_gmin_stepping", stats.stage == SolveStage::kGminStepping);
  j.set("used_source_stepping", stats.stage == SolveStage::kSourceStepping);
  j.set("used_pseudo_transient", stats.stage == SolveStage::kPseudoTransient);
  return j;
}

core::Json to_json(const SolveRecord& record) {
  auto j = core::Json::object();
  j.set("steps_accepted", record.steps_accepted);
  j.set("steps_rejected_lte", record.steps_rejected_lte);
  j.set("steps_rejected_newton", record.steps_rejected_newton);
  j.set("newton_iterations", record.newton_iterations);
  j.set("breakpoints_hit", record.breakpoints_hit);
  j.set("jacobian_reuses", record.jacobian_reuses);
  j.set("orchestrator_recoveries", record.orchestrator_recoveries);
  j.set("dt_smallest", record.dt_smallest);
  j.set("dt_largest", record.dt_largest);
  j.set("op", to_json(record.op));
  return j;
}

/// One full Newton–Raphson solve at fixed gmin / source scale, on a
/// caller-provided workspace.  The loop body is allocation-free when diag
/// is null: every element stamps through its pre-resolved slot table, the
/// LU refactors on the recorded pattern, and the solve happens in the
/// x_new buffer.  With diag,
/// one extra O(n) pass per iteration tracks update ratios and per-node
/// sign flips for the failure report.
bool newton_solve(Circuit& ckt, std::vector<double>& x,
                  const SolverOptions& opts, double gmin, double source_scale,
                  const StampContext& proto, NewtonWorkspace& ws,
                  int* iterations, NewtonDiag* diag, double ptc_geq,
                  const std::vector<double>* ptc_ref) {
  const int n = ckt.num_unknowns();
  const int n_nodes = ckt.num_nodes();
  try {
    ws.prepare(ckt);
  } catch (const NonFiniteEvalError& e) {
    // The pattern-capture pass evaluates every device once, so a model
    // that returns NaN from its very first eval throws HERE on the worker
    // that builds the pattern — and inside the Newton loop on a worker
    // whose workspace already has it.  Classify both identically (a
    // failed rung for the escalation ladder) so a solve's failure record
    // does not depend on which solves ran earlier on the same workspace.
    if (diag) {
      diag->reason = NewtonDiag::Reason::kNonFinite;
      diag->culprit = e.element();
      diag->iterations = 0;
      diag->bad_row = -1;
      diag->worst_ratio = 0.0;
      diag->update_ratio.clear();
      diag->sign_flips.clear();
    }
    return false;
  }

  std::vector<int> prev_sign;
  if (diag) {
    diag->reason = NewtonDiag::Reason::kMaxIterations;
    diag->iterations = 0;
    diag->bad_row = -1;
    diag->culprit.clear();
    diag->worst_ratio = 0.0;
    diag->update_ratio.assign(n, 0.0);
    diag->sign_flips.assign(n_nodes, 0);
    prev_sign.assign(n_nodes, 0);
  }

  // Observability hooks, hoisted out of the loop: one TLS load for the
  // tracer per solve.  Unobserved (the default), the iteration body reads
  // no clock.
  PhaseClock clock(opts.record);
  obs::ScopedSpan solve_span("newton-solve");

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    // Cooperative cancellation / deadline poll: one relaxed load (plus a
    // clock read when a deadline is armed) per iteration.  Throws
    // CancelledError, which is not a ConvergenceError — the escalation
    // ladder unwinds instead of treating it as a failed rung.
    if (opts.cancel) opts.cancel->throw_if_stopped("newton");

    clock.start();
    ws.mna.restore_baseline();

    StampContext ctx = proto;
    ctx.x = &x;
    ctx.gmin = gmin;
    ctx.source_scale = source_scale;
    ctx.record = opts.record;
    try {
      ws.mna.stamp_all(ckt, ctx);
    } catch (const NonFiniteEvalError& e) {
      if (diag) {
        diag->reason = NewtonDiag::Reason::kNonFinite;
        diag->culprit = e.element();
        diag->iterations = iter;
      }
      return false;
    }
    if (ptc_geq > 0.0) ws.mna.add_node_shunts(ptc_geq, *ptc_ref);
    // stamp_all charged the dynamic elements' model-eval time to kEval;
    // the stamp phase is the assembly remainder.
    clock.lap(SolveRecord::kStamp, "stamp");

    if (!ws.mna.factor()) {
      if (diag) {
        const MnaSystem::FactorFailure& ff = ws.mna.factor_failure();
        diag->reason =
            ff.kind == MnaSystem::FactorFailure::Kind::kNonFinite
                ? NewtonDiag::Reason::kNonFinite
                : NewtonDiag::Reason::kSingular;
        diag->bad_row = ff.row;
        diag->iterations = iter;
      }
      return false;  // singular/non-finite at this homotopy rung
    }
    clock.lap(SolveRecord::kFactor, "factor");
    ws.mna.copy_rhs(ws.x_new);
    ws.mna.solve_in_place(ws.x_new);
    clock.lap(SolveRecord::kSolve, "solve");
    clock.span_since_start("newton-iter");

    // A finite factorization can still overflow in the substitution when
    // the pivots sit right at the singularity floor; reject the update
    // rather than poisoning the iterate.
    for (int i = 0; i < n; ++i) {
      if (!std::isfinite(ws.x_new[i])) {
        if (diag) {
          diag->reason = NewtonDiag::Reason::kNonFinite;
          diag->bad_row = i;
          diag->iterations = iter;
        }
        return false;
      }
    }

    // Damped update: limit node-voltage movement per iteration.
    double max_dv = 0.0;
    for (int i = 0; i < n_nodes; ++i) {
      max_dv = std::max(max_dv, std::abs(ws.x_new[i] - x[i]));
    }
    double damp = 1.0;
    if (max_dv > opts.v_step_limit) damp = opts.v_step_limit / max_dv;

    double worst = 0.0;
    for (int i = 0; i < n; ++i) {
      const double xi = x[i] + damp * (ws.x_new[i] - x[i]);
      const double tol = opts.v_abstol + opts.reltol * std::abs(xi);
      const double ratio = std::abs(xi - x[i]) / tol;
      worst = std::max(worst, ratio);
      if (diag) {
        diag->update_ratio[i] = ratio;
        if (i < n_nodes) {
          // Oscillation detector: count update sign reversals per node.
          // A limit-cycling Newton (the metastable-ring signature) flips
          // nearly every iteration; a healthy solve almost never does.
          const double d = ws.x_new[i] - x[i];
          const int s = d > 0.0 ? 1 : (d < 0.0 ? -1 : 0);
          if (s != 0) {
            if (prev_sign[i] != 0 && s != prev_sign[i]) ++diag->sign_flips[i];
            prev_sign[i] = s;
          }
        }
      }
      x[i] = xi;
    }
    if (iterations) *iterations = iter + 1;
    if (diag) {
      diag->iterations = iter + 1;
      diag->worst_ratio = worst;
    }
    if (worst < 1.0 && damp == 1.0) {
      if (diag) diag->reason = NewtonDiag::Reason::kConverged;
      return true;
    }
  }
  return false;  // diag->reason stays kMaxIterations
}

// ------------------------------------------------- ConvergenceOrchestrator

ConvergenceOrchestrator::ConvergenceOrchestrator(Circuit& ckt,
                                                 const SolverOptions& opts,
                                                 NewtonWorkspace& ws)
    : ckt_(ckt), opts_(opts), ws_(ws) {}

bool ConvergenceOrchestrator::run_newton(std::vector<double>& x,
                                         const StampContext& proto,
                                         double gmin, double source_scale,
                                         double ptc_geq,
                                         const std::vector<double>* ptc_ref) {
  int iters = 0;
  const bool ok = newton_solve(ckt_, x, newton_opts_, gmin, source_scale,
                               proto, ws_, &iters, &diag_, ptc_geq, ptc_ref);
  stats_.iterations = iters;  // the last solve is the one that counts
  return ok;
}

void ConvergenceOrchestrator::merge_failure(SolveStage stage,
                                            SolveFailure::Cause ladder_cause) {
  report_.stage = stage;  // deepest stage attempted so far
  switch (diag_.reason) {
    case NewtonDiag::Reason::kSingular:
      report_.cause = SolveFailure::Cause::kSingular;
      break;
    case NewtonDiag::Reason::kNonFinite:
      report_.cause = SolveFailure::Cause::kNonFinite;
      break;
    default:
      report_.cause = ladder_cause;
      break;
  }
  // Attributions stick: a later stage without a culprit keeps the earlier
  // stage's (the floating node names itself in stage 1; a stalled
  // pseudo-transient run has nothing to add).
  if (diag_.bad_row >= 0) {
    report_.bad_row = diag_.bad_row;
    report_.culprit = row_name(ckt_, diag_.bad_row);
  }
  if (!diag_.culprit.empty()) {
    report_.culprit = "device '" + diag_.culprit + "'";
  }
  const int n_nodes = ckt_.num_nodes();
  if (!diag_.update_ratio.empty() && diag_.worst_ratio > 0.0) {
    std::vector<std::pair<double, int>> ranked;
    ranked.reserve(n_nodes);
    for (int i = 0; i < n_nodes; ++i) {
      if (diag_.update_ratio[i] >= 1.0) {
        ranked.emplace_back(diag_.update_ratio[i], i);
      }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (static_cast<int>(ranked.size()) > kFailureReportNodes) {
      ranked.resize(kFailureReportNodes);
    }
    if (!ranked.empty()) {
      report_.worst_nodes.clear();
      for (const auto& [ratio, i] : ranked) {
        report_.worst_nodes.push_back({ckt_.node_name(i + 1), ratio});
      }
    }
  }
  if (!diag_.sign_flips.empty() && diag_.iterations >= 8) {
    const int threshold = std::max(4, diag_.iterations / 3);
    std::vector<std::string> osc;
    for (int i = 0; i < n_nodes; ++i) {
      if (diag_.sign_flips[i] >= threshold) {
        osc.push_back(ckt_.node_name(i + 1));
        if (static_cast<int>(osc.size()) >= kFailureReportNodes) break;
      }
    }
    if (!osc.empty()) report_.oscillating_nodes = std::move(osc);
  }
}

void ConvergenceOrchestrator::fail() { throw SolveFailureError(report_); }

bool ConvergenceOrchestrator::gmin_ramp(std::vector<double>& x,
                                        const StampContext& proto) {
  const std::vector<double> x0 = x;
  int rungs = 0;

  // Phase 1: land anywhere on the ladder — start at kGminInitial and
  // escalate the shunt when even that fails.
  double gmin = kGminInitial;
  bool landed = false;
  while (rungs < kGminMaxRungs && gmin <= 1e2) {
    ++rungs;
    x = x0;
    if (run_newton(x, proto, gmin, 1.0)) {
      landed = true;
      break;
    }
    gmin *= 100.0;
  }
  stats_.gmin_rungs = rungs;
  if (!landed) return false;

  // Phase 2: descend toward gmin_final with a multiplicative factor that
  // accelerates on success (fac^2) and backs off on failure (sqrt(fac))
  // instead of marching a fixed geometric ladder off a cliff.
  double fac = std::pow(opts_.gmin_final / kGminInitial, 1.0 / kGminSteps);
  fac = std::clamp(fac, 1e-6, 0.9);
  std::vector<double> x_good = x;
  while (gmin > opts_.gmin_final * (1.0 + 1e-9)) {
    if (rungs >= kGminMaxRungs) break;
    const double next = std::max(gmin * fac, opts_.gmin_final);
    ++rungs;
    ++stats_.gmin_rungs;
    x = x_good;
    if (run_newton(x, proto, next, 1.0)) {
      gmin = next;
      x_good = x;
      fac = std::max(fac * fac, 1e-9);
    } else {
      ++stats_.gmin_backtracks;
      fac = std::sqrt(fac);
      if (fac > 0.97) break;  // rung spacing collapsed: stalled
    }
  }
  stats_.gmin_rungs = rungs;
  if (gmin <= opts_.gmin_final * (1.0 + 1e-9)) {
    x = x_good;
    return true;
  }
  // Stalled mid-ramp: one direct jump to gmin_final from the deepest
  // converged rung sometimes lands in the basin anyway.
  x = x_good;
  return run_newton(x, proto, opts_.gmin_final, 1.0);
}

bool ConvergenceOrchestrator::source_ramp(std::vector<double>& x,
                                          const StampContext& proto) {
  const int n = ckt_.num_unknowns();
  x.assign(n, 0.0);  // zero bias: the homotopy's natural start
  std::vector<double> x_good = x;
  double scale = 0.0;
  double ds = 1.0 / kSourceSteps;
  int rungs = 0;
  while (scale < 1.0 - 1e-12 && rungs < kSourceMaxRungs) {
    const double next = std::min(scale + ds, 1.0);
    ++rungs;
    x = x_good;
    if (run_newton(x, proto, opts_.gmin_final, next)) {
      scale = next;
      x_good = x;
      ds = std::min(ds * 2.0, 0.5);  // regrow after backtracks, capped
    } else {
      ++stats_.source_backtracks;
      ds *= 0.25;
      if (ds < 1e-4) break;  // increment collapsed: stalled
    }
  }
  stats_.source_rungs = rungs;
  x = x_good;
  return scale >= 1.0 - 1e-12;
}

bool ConvergenceOrchestrator::pseudo_transient(std::vector<double>& x,
                                               const StampContext& proto) {
  const int n_nodes = ckt_.num_nodes();
  std::vector<double> x_prev = x;

  // The pseudo-step controller is the transient LteController reused with
  // the Newton iteration count as its error measure: cheap pseudo-steps
  // (few iterations) grow dt toward the pure DC problem, laborious ones
  // hold it back, failed ones shrink it.
  LteControlConfig pcfg;
  pcfg.reltol = opts_.reltol;
  pcfg.abstol = opts_.v_abstol;
  pcfg.safety = 1.0;
  pcfg.trtol = 1.0;
  pcfg.growth_limit = kPtcDtGrowth;
  pcfg.shrink_limit = 0.1;
  pcfg.dt_min = kPtcDtInitial * 1e-9;
  pcfg.dt_max = kPtcDtInitial * 1e15;
  const LteController ctl(pcfg);

  double dt = kPtcDtInitial;
  double verify_gate = 1.0;
  int structural_verify_failures = 0;

  for (int step = 0; step < kPtcMaxSteps; ++step) {
    const double geq = kPtcCFarad / dt;
    x = x_prev;
    if (!run_newton(x, proto, opts_.gmin_final, 1.0, geq, &x_prev)) {
      ++stats_.ptc_rejections;
      dt *= 0.25;
      if (dt < pcfg.dt_min) {
        x = x_prev;
        return false;  // even a heavily shunted step will not converge
      }
      continue;
    }
    ++stats_.ptc_steps;

    // Settled?  Movement below the Newton tolerance means the pseudo
    // trajectory reached steady state: verify WITHOUT the artificial
    // shunts so a genuinely defective deck (floating node) still fails
    // with the right diagnosis instead of a shunt-masked fake solution.
    const double move =
        max_update_ratio(x, x_prev, n_nodes, opts_.v_abstol, opts_.reltol);
    if (move < verify_gate) {
      std::vector<double> x_verify = x;
      if (run_newton(x_verify, proto, opts_.gmin_final, 1.0)) {
        x = std::move(x_verify);
        return true;
      }
      if (diag_.reason == NewtonDiag::Reason::kSingular ||
          diag_.reason == NewtonDiag::Reason::kNonFinite) {
        // Structural defect: more pseudo-time cannot regularize an
        // unshunted singular Jacobian.  Give up early with this diagnosis.
        if (++structural_verify_failures >= 2) {
          x = x_prev;
          return false;
        }
      }
      // Not converged yet: demand 4x more settling before re-verifying.
      verify_gate = std::max(move * 0.25, 1e-12);
    }

    const double err = stats_.iterations /
                       (0.25 * std::max(1, opts_.max_iterations));
    dt = ctl.decide(dt, err, 2).dt_next;  // state already converged; only
                                          // the dt_next policy is used
    x_prev = x;
  }

  // Pseudo-step budget exhausted: one last unshunted solve, both as a
  // final chance and to harvest an attributable diagnosis.
  x = x_prev;
  return run_newton(x, proto, opts_.gmin_final, 1.0);
}

NewtonStats ConvergenceOrchestrator::solve(std::vector<double>& x,
                                           const StampContext& proto) {
  stats_ = NewtonStats{};
  report_ = SolveFailure{};
  newton_opts_ = opts_;
  newton_opts_.v_step_limit = ladder_step_limit(ckt_, opts_, proto);
  const std::vector<double> x0 = x;

  // Stage 1: plain damped Newton from the initial point.
  if (run_newton(x, proto, opts_.gmin_final, 1.0)) {
    stats_.stage = SolveStage::kNewton;
    return stats_;
  }
  merge_failure(SolveStage::kNewton, SolveFailure::Cause::kMaxIterations);
  obs::Tracer* const tr = obs::tracer();

  // Stage 2: adaptive gmin ramp with backtracking.
  if (opts_.allow_gmin_stepping) {
    if (tr) tr->instant("ladder:gmin-stepping", obs::now_ns());
    x = x0;
    if (gmin_ramp(x, proto)) {
      stats_.stage = SolveStage::kGminStepping;
      return stats_;
    }
    merge_failure(SolveStage::kGminStepping, SolveFailure::Cause::kStalled);
  }

  // Stage 3: source-scale homotopy with adaptive increments.
  if (opts_.allow_source_stepping) {
    if (tr) tr->instant("ladder:source-stepping", obs::now_ns());
    if (source_ramp(x, proto)) {
      stats_.stage = SolveStage::kSourceStepping;
      return stats_;
    }
    merge_failure(SolveStage::kSourceStepping, SolveFailure::Cause::kStalled);
  }

  // Stage 4: pseudo-transient continuation, the fallback of last resort.
  if (opts_.allow_pseudo_transient) {
    if (tr) tr->instant("ladder:pseudo-transient", obs::now_ns());
    x = x0;
    if (pseudo_transient(x, proto)) {
      stats_.stage = SolveStage::kPseudoTransient;
      return stats_;
    }
    merge_failure(SolveStage::kPseudoTransient, SolveFailure::Cause::kStalled);
  }

  fail();
}

Solution operating_point(Circuit& ckt, const SolverOptions& opts,
                         const std::vector<double>* x0, NewtonWorkspace* ws) {
  ckt.assign_branches();
  const int n = ckt.num_unknowns();
  CARBON_REQUIRE(n > 0, "empty circuit");

  NewtonWorkspace local_ws;
  NewtonWorkspace& w = ws ? *ws : local_ws;

  Solution sol;
  sol.x.assign(n, 0.0);
  if (x0 && static_cast<int>(x0->size()) == n) sol.x = *x0;

  StampContext proto;  // DC: transient=false
  ConvergenceOrchestrator orch(ckt, opts, w);
  sol.stats = orch.solve(sol.x, proto);  // throws SolveFailureError
  return sol;
}

double node_voltage(const Circuit& ckt, const Solution& sol,
                    const std::string& node_name) {
  const NodeId id = ckt.find_node(node_name);
  if (id == 0) return 0.0;
  return sol.x[id - 1];
}

double vsource_current(const Circuit& ckt, const Solution& sol,
                       const VSource& src) {
  const int row = ckt.vsource_branch_index(src);
  return sol.x[row - 1];
}

std::vector<NodeId> resolve_probes(const Circuit& ckt,
                                   const std::vector<std::string>& probes) {
  std::vector<NodeId> ids;
  ids.reserve(probes.size());
  for (const auto& p : probes) ids.push_back(ckt.find_node(p));
  return ids;
}

phys::DataTable dc_sweep(Circuit& ckt, VSource& swept,
                         const std::vector<double>& values,
                         const std::vector<std::string>& probes,
                         const SolverOptions& opts, NewtonWorkspace* ws) {
  CARBON_REQUIRE(!values.empty(), "empty sweep");
  CARBON_REQUIRE(!probes.empty(), "no probe nodes");
  std::vector<std::string> cols{"sweep_v"};
  for (const auto& p : probes) cols.push_back("v(" + p + ")");
  phys::DataTable table(cols);

  // Probe names resolve to node ids once, not once per point.
  const std::vector<NodeId> probe_ids = resolve_probes(ckt, probes);

  // One workspace for the whole sweep: the matrix pattern, slot tables and
  // LU buffers persist across points, and each point warm-starts from the
  // previous solution.  A caller-owned workspace extends the reuse across
  // sweeps (deck sessions).
  NewtonWorkspace local;
  NewtonWorkspace& work = ws ? *ws : local;
  // The swept source gets its own waveform back, even when a point throws.
  struct WaveGuard {
    VSource& src;
    WaveformPtr prev;
    ~WaveGuard() { src.set_wave(std::move(prev)); }
  } guard{swept, swept.wave_ptr()};
  std::vector<double> warm;
  for (double v : values) {
    swept.set_wave(dc(v));
    const Solution sol =
        operating_point(ckt, opts, warm.empty() ? nullptr : &warm, &work);
    warm = sol.x;
    std::vector<double> row{v};
    for (const NodeId id : probe_ids) {
      row.push_back(id == 0 ? 0.0 : sol.x[id - 1]);
    }
    table.add_row(row);
  }
  return table;
}

namespace {

/// Row recorder of the transient step loop: either
/// one row per accepted step (dt_print = 0), or rows thinned onto a
/// uniform dt_print grid interpolated between accepted steps — adaptive
/// runs then don't explode the DataTable, and runs with different stepping
/// land on a common grid for RMS comparison.  Interior samples use a
/// quadratic through the last three accepted points when one is available:
/// adaptive steps can span many print intervals, and linear interpolation
/// over such a span would add an O(h^2 x'') waveform error far above the
/// LTE the controller worked to bound.
class TransientRecorder {
 public:
  TransientRecorder(phys::DataTable& table, std::vector<NodeId> probe_ids,
                    std::vector<int> branch_rows, double dt_print)
      : table_(table), probe_ids_(std::move(probe_ids)),
        branch_rows_(std::move(branch_rows)), dt_print_(dt_print) {}

  void initial(const std::vector<double>& x) {
    emit_point(0.0, x);
    next_print_ = dt_print_;
  }

  void accepted(double t_old, const std::vector<double>& x_old, double t_new,
                const std::vector<double>& x_new) {
    if (dt_print_ <= 0.0) {
      emit_point(t_new, x_new);
      return;
    }
    const double eps = 1e-9 * dt_print_;
    while (next_print_ <= t_new + eps) {
      emit_interp(std::min(next_print_, t_new), t_old, x_old, t_new, x_new);
      next_print_ += dt_print_;
    }
    // Slide the 3-point window.
    t_m1_ = t_old;
    x_m1_ = x_old;
    have_m1_ = true;
  }

  /// The integrator landed on a waveform corner: the solution is only C0
  /// there, so drop the pre-corner history point instead of letting the
  /// quadratic smear the kink.
  void discontinuity() { have_m1_ = false; }

  /// Make sure the run ends with an exact row at t_end (thinned mode only;
  /// per-step mode already recorded it).
  void finish(double t_end, const std::vector<double>& x_end) {
    if (dt_print_ <= 0.0) return;
    if (last_t_ < t_end - 1e-9 * dt_print_) emit_point(t_end, x_end);
  }

 private:
  void emit_point(double t, const std::vector<double>& x) {
    row_.clear();
    row_.push_back(t);
    for (const NodeId id : probe_ids_) {
      row_.push_back(id == 0 ? 0.0 : x[id - 1]);
    }
    for (const int br : branch_rows_) row_.push_back(x[br - 1]);
    table_.add_row(row_);
    last_t_ = t;
  }

  void emit_interp(double t, double t0, const std::vector<double>& x0,
                   double t1, const std::vector<double>& x1) {
    // Lagrange weights for (t_m1, t0, t1) -> t; linear fallback without a
    // third point.
    double wm = 0.0, w0, w1;
    if (have_m1_ && t_m1_ < t0) {
      wm = (t - t0) * (t - t1) / ((t_m1_ - t0) * (t_m1_ - t1));
      w0 = (t - t_m1_) * (t - t1) / ((t0 - t_m1_) * (t0 - t1));
      w1 = (t - t_m1_) * (t - t0) / ((t1 - t_m1_) * (t1 - t0));
    } else {
      const double f = std::clamp((t - t0) / (t1 - t0), 0.0, 1.0);
      w0 = 1.0 - f;
      w1 = f;
    }
    row_.clear();
    row_.push_back(t);
    const auto interp = [&](int idx) {
      const double quad = wm == 0.0 ? 0.0 : wm * x_m1_[idx];
      return quad + w0 * x0[idx] + w1 * x1[idx];
    };
    for (const NodeId id : probe_ids_) {
      row_.push_back(id == 0 ? 0.0 : interp(id - 1));
    }
    for (const int br : branch_rows_) row_.push_back(interp(br - 1));
    table_.add_row(row_);
    last_t_ = t;
  }

  phys::DataTable& table_;
  std::vector<NodeId> probe_ids_;
  std::vector<int> branch_rows_;
  double dt_print_ = 0.0;
  double next_print_ = 0.0;
  double last_t_ = -1.0;
  double t_m1_ = 0.0;
  std::vector<double> x_m1_;
  bool have_m1_ = false;
  std::vector<double> row_;
};

void note_accepted_step(SolveRecord& st, double h) {
  ++st.steps_accepted;
  st.dt_smallest =
      st.dt_smallest == 0.0 ? h : std::min(st.dt_smallest, h);
  st.dt_largest = std::max(st.dt_largest, h);
}

}  // namespace

phys::DataTable transient(Circuit& ckt, const TransientOptions& opts,
                          const std::vector<std::string>& probes,
                          const std::vector<const VSource*>& current_probes) {
  CARBON_REQUIRE(opts.t_stop > 0.0 && opts.dt > 0.0,
                 "transient needs positive t_stop and dt");
  CARBON_REQUIRE(!probes.empty(), "no probe nodes");

  std::vector<std::string> cols{"time_s"};
  for (const auto& p : probes) cols.push_back("v(" + p + ")");
  for (const auto* src : current_probes) cols.push_back("i(" + src->name() + ")");
  phys::DataTable table(cols);

  ckt.reset_state();
  ckt.assign_branches();

  // Workspace shared by the initial OP and every time step — and, when the
  // caller provides one (a session's cached topology), across whole
  // transient runs.
  NewtonWorkspace local_ws;
  NewtonWorkspace& ws = opts.workspace ? *opts.workspace : local_ws;

  // Initial condition: DC operating point with sources at t=0.  Factor
  // skips are counted from here: the workspace may be shared across runs.
  const long skips0 = ws.mna.factor_skip_count();
  Solution sol = operating_point(ckt, opts.solver, nullptr, &ws);
  std::vector<double> x = sol.x;
  std::vector<double> x_try, x_pred;

  // Resolve probe nodes and source branch rows once; the record loop runs
  // every accepted time step.
  const std::vector<NodeId> probe_ids = resolve_probes(ckt, probes);
  std::vector<int> branch_rows;
  branch_rows.reserve(current_probes.size());
  for (const auto* src : current_probes) {
    branch_rows.push_back(ckt.vsource_branch_index(*src));
  }

  if (opts.ic == TransientIc::kFromOperatingPoint) {
    StampContext ic_ctx;
    ic_ctx.x = &x;
    for (const auto& el : ckt.elements()) el->set_transient_ic(ic_ctx);
  }

  // The run counters start from zero; the phase split accumulates on.
  SolveRecord local_record;
  SolveRecord& st = opts.solver.record ? *opts.solver.record : local_record;
  SolveRecord run;
  run.collect_phases = st.collect_phases;
  run.phase_ns = st.phase_ns;
  run.op = sol.stats;
  st = run;

  TransientRecorder rec(table, probe_ids, branch_rows, opts.dt_print);
  rec.initial(x);

  // Stamp-context prototype shared by every step.
  StampContext proto_base;
  proto_base.transient = true;
  proto_base.bypass_vtol = opts.bypass_vtol;

  double t = 0.0;

  // One TLS load per transient call; step-loop instrumentation below is
  // branch-only when no tracer is attached.
  obs::Tracer* const tr = obs::tracer();

  // One step loop for both grids.  The adaptive grid takes LTE-controlled
  // variable steps on a trapezoidal corrector (BE at start-up, after
  // breakpoints and after ladder recoveries), with the polynomial predictor
  // doubling as the Newton warm start.  The fixed grid (adaptive = false)
  // keeps the LTE controller out of the step choice; the five lines marked
  // "Fixed grid" are all it does differently.
  const bool fixed = !opts.adaptive;
  LteControlConfig cfg;
  cfg.reltol = opts.lte_reltol;
  cfg.abstol = opts.lte_abstol;
  cfg.dt_max = opts.dt_max > 0.0 ? opts.dt_max : opts.t_stop / 50.0;
  cfg.dt_min = opts.dt_min > 0.0
                   ? opts.dt_min
                   : std::max(opts.t_stop * 1e-12, opts.dt * 1e-6);
  cfg.dt_min = std::min(cfg.dt_min, cfg.dt_max);
  const LteController ctl(cfg);
  PredictorHistory hist;

  // Fixed grid: no source corners to land on.
  const std::vector<double> bps =
      fixed ? std::vector<double>{} : ckt.collect_breakpoints(opts.t_stop);
  size_t bp_idx = 0;

  const double t_eps = 1e-12 * opts.t_stop;
  // Fixed grid: the first step is dt, unclamped by dt_min/dt_max.
  double dt = fixed ? opts.dt : std::clamp(opts.dt, cfg.dt_min, cfg.dt_max);
  int consecutive_failures = 0;

  while (t < opts.t_stop - t_eps) {
    if (opts.solver.cancel) opts.solver.cancel->throw_if_stopped("transient");
    obs::ScopedSpan step_span("tran-step");
    // Never step across a source corner: clamp to the next breakpoint (or
    // t_stop) and land on it exactly.
    while (bp_idx < bps.size() && bps[bp_idx] <= t + t_eps) ++bp_idx;
    const double t_limit = bp_idx < bps.size() ? bps[bp_idx] : opts.t_stop;
    double h = dt;
    bool hits_limit = false;
    if (t + h >= t_limit - t_eps) {
      h = t_limit - t;
      hits_limit = true;
    }

    const bool use_trap = opts.trapezoidal && hist.depth() >= 2;

    StampContext proto = proto_base;
    proto.dt_s = h;
    proto.trapezoidal = use_trap;
    proto.time_s = t + h;

    // Fixed grid: Newton starts from the last solution, with no predictor.
    const int pred_order = fixed ? 0 : hist.predict(x, h, x_pred);
    x_try = pred_order > 0 ? x_pred : x;

    int iters = 0;
    const bool converged =
        newton_solve(ckt, x_try, opts.solver, opts.solver.gmin_final, 1.0,
                     proto, ws, &iters);
    st.newton_iterations += iters;
    bool recovered = false;
    if (!converged) {
      if (tr) tr->instant("newton-reject", obs::now_ns());
      ++st.steps_rejected_newton;
      ++consecutive_failures;
      // Fixed grid: halve the step, with no dt_min floor.
      if (consecutive_failures <= kMaxStepHalvings &&
          (fixed || h > cfg.dt_min * (1.0 + 1e-12))) {
        dt = fixed ? 0.5 * h : std::max(0.25 * h, cfg.dt_min);
        continue;
      }
      // Step-size control exhausted (at the dt_min floor, or out of
      // halvings): re-enter the full convergence ladder for this step from
      // the last accepted state.  Throws SolveFailureError with the
      // per-node diagnosis when even that fails.
      if (tr) tr->instant("recovery", obs::now_ns());
      ConvergenceOrchestrator orch(ckt, opts.solver, ws);
      x_try = x;
      const NewtonStats rs = orch.solve(x_try, proto);
      st.newton_iterations += rs.iterations;
      ++st.orchestrator_recoveries;
      recovered = true;
    }
    consecutive_failures = 0;

    if (recovered) {
      // The ladder may have dragged the iterate through arbitrary
      // homotopy states; there is no usable LTE estimate, and the
      // history polynomial no longer describes the trajectory.  Accept
      // the step, keep the current (small) step size and restart the
      // integrator's memory below.
    } else if (pred_order > 0) {
      const double factor = hist.lte_factor(h, use_trap, pred_order);
      const double ratio =
          lte_error_ratio(x_try, x_pred, ckt.num_nodes(), factor, cfg);
      const LteController::Decision dec =
          ctl.decide(h, ratio, use_trap && pred_order >= 2 ? 3 : 2);
      if (!dec.accept) {
        if (tr) tr->instant("lte-reject", obs::now_ns());
        ++st.steps_rejected_lte;
        dt = dec.dt_next;
        continue;
      }
      dt = dec.dt_next;
    } else {
      // Start-up / post-breakpoint step has no error estimate: accept but
      // grow only modestly until the predictor is back.
      dt = std::clamp(2.0 * h, cfg.dt_min, cfg.dt_max);
    }

    // Accept: update element state with the converged voltages.
    StampContext accept_ctx = proto;
    accept_ctx.x = &x_try;
    for (const auto& el : ckt.elements()) el->accept_step(accept_ctx);
    const double t_new = hits_limit ? t_limit : t + h;
    rec.accepted(t, x, t_new, x_try);
    if (recovered) {
      hist.reset();
      rec.discontinuity();
      dt = std::clamp(h, cfg.dt_min, cfg.dt_max);
    } else {
      hist.advance(x, h);
    }
    std::swap(x, x_try);
    t = t_new;
    note_accepted_step(st, h);

    if (hits_limit && t < opts.t_stop - t_eps) {
      // Landed on a waveform corner: the history on the far side describes
      // a different polynomial, so restart the integrator.  The first step
      // after the restart is a blind BE step (no predictor, no LTE test),
      // so take it at a tenth of the reference dt — its uncontrolled
      // O(h^2) error would otherwise set the accuracy floor of the run.
      if (tr) tr->instant("breakpoint", obs::now_ns());
      ++st.breakpoints_hit;
      hist.reset();
      rec.discontinuity();
      dt = std::clamp(0.1 * opts.dt, cfg.dt_min, cfg.dt_max);
    }
    // Fixed grid: every step after an accepted one is dt again.
    if (fixed) dt = opts.dt;
  }
  rec.finish(opts.t_stop, x);
  st.jacobian_reuses = ws.mna.factor_skip_count() - skips0;
  return table;
}

}  // namespace carbon::spice
