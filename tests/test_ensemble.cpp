// Fault-tolerant ensemble engine: per-trial fault isolation across every
// injected failure kind, retry escalation recovering recoverable corners,
// per-trial and per-batch deadlines, cooperative cancellation mid-Newton
// and mid-transient, deterministic checkpoint/resume with bit-identical
// statistics, thread-count invariance, and the JSON report surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "circuit/cells.h"
#include "circuit/sram.h"
#include "device/alpha_power.h"
#include "device/faulty.h"
#include "device/ivmodel.h"
#include "fab/devstats.h"
#include "phys/cancel.h"
#include "phys/require.h"
#include "spice/analyses.h"
#include "spice/circuit.h"
#include "spice/ensemble.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
namespace cc = carbon::circuit;
namespace fab = carbon::fab;
namespace phys = carbon::phys;

dev::AlphaPowerParams nominal_params() {
  return dev::make_fig2_saturating_params();
}

// ---------------------------------------------------------------------------
// Worker state for the cheap DC yield trials: one inverter bench + Newton
// workspace per worker, device models swapped per trial (topology and the
// shared matrix pattern stay fixed).
// ---------------------------------------------------------------------------

struct InvWorker {
  cc::InverterBench bench;
  sp::NewtonWorkspace ws;
  sp::Fet* nfet = nullptr;
  sp::Fet* pfet = nullptr;
};

std::shared_ptr<InvWorker> make_inv_worker() {
  auto w = std::make_shared<InvWorker>();
  w->bench = cc::make_inverter(
      std::make_shared<dev::AlphaPowerModel>(nominal_params()));
  w->bench.vin->set_wave(sp::dc(0.45));
  for (const auto& el : w->bench.ckt->elements()) {
    if (auto* f = dynamic_cast<sp::Fet*>(el.get())) {
      (f->model().polarity() == dev::Polarity::kPType ? w->pfet : w->nfet) = f;
    }
  }
  return w;
}

using FaultChooser = std::function<dev::FaultSpec(long index)>;

/// DC trial: perturb the nominal device from the trial's RNG stream,
/// optionally wrap it in an injected fault, swap it into the shared bench
/// and solve the operating point.  Metric = v(out); pass = output high.
sp::EnsembleRunner::TrialFn inv_trial(std::shared_ptr<InvWorker> w,
                                      FaultChooser fault = nullptr) {
  return [w, fault](sp::TrialContext& tctx) -> sp::TrialMeasurement {
    fab::DeviceVariation var;
    const auto p = fab::perturb_alpha_power(nominal_params(), var, tctx.rng);
    dev::DeviceModelPtr n = std::make_shared<dev::AlphaPowerModel>(p);
    if (fault) {
      const dev::FaultSpec spec = fault(tctx.index);
      if (spec.kind != dev::FaultKind::kNone) n = dev::with_fault(n, spec);
    }
    w->nfet->set_model(n);
    w->pfet->set_model(std::make_shared<dev::PTypeMirror>(n));
    w->bench.ckt->reset_state();
    const auto sol =
        sp::operating_point(*w->bench.ckt, tctx.solver, nullptr, &w->ws);
    const double vout = sp::node_voltage(*w->bench.ckt, sol, "out");
    sp::TrialMeasurement m;
    m.metric = vout;
    m.pass = vout > 0.5;
    m.stats.op = sol.stats;
    return m;
  };
}

std::string temp_ckpt(const std::string& tag) {
  const auto path =
      std::filesystem::temp_directory_path() / ("carbon_ens_" + tag + ".ckpt");
  std::filesystem::remove(path);
  return path.string();
}

// ---------------------------------------------------------------------------
// Fault isolation
// ---------------------------------------------------------------------------

TEST(Ensemble, IsolatesEveryTrialFault) {
  sp::EnsembleOptions eo;
  eo.seed = 11;
  eo.num_threads = 2;
  eo.max_retries = 0;
  eo.trial_deadline_s = 0.15;
  const long n = 12;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i == 3) {
      s.kind = dev::FaultKind::kNanEval;  // permanent NaN from eval 0
    } else if (i == 5) {
      s.kind = dev::FaultKind::kOpenCircuit;
    } else if (i == 7) {
      s.kind = dev::FaultKind::kStall;  // 50 ms/eval vs a 150 ms deadline
      s.stall_s = 50e-3;
    }
    return s;
  };
  sp::EnsembleRunner runner(eo);
  const auto res = runner.run(n, [&](int) {
    auto w = make_inv_worker();
    auto base = inv_trial(w, fault);
    return [base](sp::TrialContext& tctx) -> sp::TrialMeasurement {
      if (tctx.index == 9) throw std::runtime_error("synthetic trial bug");
      return base(tctx);
    };
  });

  ASSERT_EQ(static_cast<long>(res.trials.size()), n);
  // Every trial has a terminal structured record; the batch completed.
  for (const auto& r : res.trials) {
    EXPECT_NE(r.outcome, sp::TrialOutcome::kCancelled) << "trial " << r.index;
  }
  // NaN device: the ladder fails with a non-finite attribution.
  const auto& nan_trial = res.trials[3];
  EXPECT_FALSE(nan_trial.ok);
  EXPECT_EQ(nan_trial.outcome, sp::TrialOutcome::kSolveFailure);
  EXPECT_EQ(nan_trial.failure.cause, sp::SolveFailure::Cause::kNonFinite);
  EXPECT_FALSE(nan_trial.error.empty());
  // Stalled device: the per-trial deadline converts the hang to timed_out.
  const auto& stall_trial = res.trials[7];
  EXPECT_FALSE(stall_trial.ok);
  EXPECT_EQ(stall_trial.outcome, sp::TrialOutcome::kTimedOut);
  // A bug in the trial body itself is contained too.
  const auto& bug_trial = res.trials[9];
  EXPECT_FALSE(bug_trial.ok);
  EXPECT_EQ(bug_trial.outcome, sp::TrialOutcome::kError);
  EXPECT_NE(bug_trial.error.find("synthetic trial bug"), std::string::npos);
  // The healthy neighbours all succeeded despite sharing workers with the
  // faulty ones.
  for (long i : {0L, 1L, 2L, 4L, 6L, 8L, 10L, 11L}) {
    EXPECT_TRUE(res.trials[i].ok) << "trial " << i << ": "
                                  << res.trials[i].error;
  }
  EXPECT_EQ(res.summary.trials, n);
  EXPECT_GE(res.summary.failed, 2);
  EXPECT_EQ(res.summary.timed_out, 1);
  EXPECT_FALSE(res.summary.failure_taxonomy.empty());
}

// ---------------------------------------------------------------------------
// Retry escalation
// ---------------------------------------------------------------------------

TEST(Ensemble, EscalationPolicyStrengthensMonotonically) {
  sp::SolverOptions base;
  base.allow_gmin_stepping = false;
  base.allow_source_stepping = false;
  base.allow_pseudo_transient = false;
  const auto a0 = sp::EnsembleRunner::escalate_solver(base, 0);
  EXPECT_FALSE(a0.allow_gmin_stepping);  // attempt 0 = the caller's options
  const auto a1 = sp::EnsembleRunner::escalate_solver(base, 1);
  const auto a2 = sp::EnsembleRunner::escalate_solver(base, 2);
  EXPECT_TRUE(a1.allow_gmin_stepping);
  EXPECT_TRUE(a1.allow_source_stepping);
  EXPECT_TRUE(a1.allow_pseudo_transient);
  EXPECT_GT(a1.max_iterations, base.max_iterations);
  EXPECT_GT(a2.max_iterations, a1.max_iterations);
  EXPECT_LT(a1.v_step_limit, base.v_step_limit);  // tighter damping
  EXPECT_GT(a2.gmin_max_rungs, a1.gmin_max_rungs);

  sp::TransientOptions t1;
  t1.dt = 1e-12;
  t1.max_step_halvings = 12;
  sp::EnsembleRunner::escalate_transient(t1, 1);
  EXPECT_LT(t1.dt, 1e-12);
  EXPECT_GT(t1.max_step_halvings, 12);
}

TEST(Ensemble, RetryRecoversNonMonotoneCorner) {
  // The injected wiggle defeats plain damped Newton (the weak attempt-0
  // options below), but the escalated retry opens the full ladder, which
  // cracks it — the "recoverable corner" contract.
  sp::EnsembleOptions eo;
  eo.seed = 21;
  eo.num_threads = 1;
  eo.max_retries = 2;
  eo.solver.allow_gmin_stepping = false;
  eo.solver.allow_source_stepping = false;
  eo.solver.allow_pseudo_transient = false;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i == 1) {
      s.kind = dev::FaultKind::kNonMonotone;
      s.wiggle_amp_a = 3e-4;        // comparable to the device's mA-scale
      s.wiggle_freq_per_v = 300.0;  // current: folds the I-V hard
    }
    return s;
  };
  sp::EnsembleRunner runner(eo);
  const auto res =
      runner.run(3, [&](int) { return inv_trial(make_inv_worker(), fault); });
  const auto& wiggly = res.trials[1];
  EXPECT_TRUE(wiggly.ok) << wiggly.error;
  EXPECT_GE(wiggly.retries, 1);
  EXPECT_GE(res.summary.recovered_by_retry, 1);
  EXPECT_GE(res.summary.retries_total, 1);
  // Clean trials did not pay for the faulty one's retries.
  EXPECT_EQ(res.trials[0].retries, 0);
  EXPECT_EQ(res.trials[2].retries, 0);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(Cancellation, StopsNewtonMidSolve) {
  // Every eval sleeps 10 ms; the armed 40 ms deadline fires between Newton
  // iterations and unwinds as CancelledError — NOT as a convergence
  // failure the escalation ladder would swallow.
  dev::FaultSpec s;
  s.kind = dev::FaultKind::kStall;
  s.stall_s = 10e-3;
  auto bench = cc::make_inverter(dev::with_fault(
      std::make_shared<dev::AlphaPowerModel>(nominal_params()), s));
  phys::CancelToken tok;
  tok.set_deadline_after(0.04);
  sp::SolverOptions o;
  o.cancel = &tok;
  EXPECT_THROW(sp::operating_point(*bench.ckt, o), phys::CancelledError);
}

TEST(Cancellation, StopsTransientMidRun) {
  // The stall arms only after 200 faithful evals, so the operating point
  // succeeds and the deadline fires inside the step loop.
  dev::FaultSpec s;
  s.kind = dev::FaultKind::kStall;
  s.stall_s = 10e-3;
  s.trigger_evals = 200;
  auto bench = cc::make_inverter(dev::with_fault(
      std::make_shared<dev::AlphaPowerModel>(nominal_params()), s));
  phys::CancelToken tok;
  tok.set_deadline_after(0.05);
  sp::TransientOptions opt;
  opt.t_stop = 1e-9;
  opt.dt = 1e-12;
  opt.solver.cancel = &tok;
  EXPECT_THROW(sp::transient(*bench.ckt, opt, {"out"}), phys::CancelledError);
}

TEST(Cancellation, ExplicitCancelWinsImmediately) {
  auto bench = cc::make_inverter(
      std::make_shared<dev::AlphaPowerModel>(nominal_params()));
  phys::CancelToken tok;
  tok.cancel();
  sp::SolverOptions o;
  o.cancel = &tok;
  try {
    sp::operating_point(*bench.ckt, o);
    FAIL() << "expected CancelledError";
  } catch (const phys::CancelledError& e) {
    EXPECT_FALSE(e.deadline_expired());
  }
}

TEST(Ensemble, BatchDeadlineExpiresMidEnsemble) {
  // Two workers; the first few trials per block are fast, then every trial
  // stalls.  The 250 ms batch budget lets the fast ones finish, converts
  // the in-flight stalled ones to timed_out, and stamps structured
  // "never ran" records on the rest — the batch returns promptly either
  // way.
  sp::EnsembleOptions eo;
  eo.seed = 31;
  eo.num_threads = 2;
  eo.max_retries = 0;
  eo.batch_deadline_s = 0.25;
  const long n = 30;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i % 15 >= 4) {  // indices 0-3 and 15-18 are healthy
      s.kind = dev::FaultKind::kStall;
      s.stall_s = 25e-3;
    }
    return s;
  };
  sp::EnsembleRunner runner(eo);
  const auto res =
      runner.run(n, [&](int) { return inv_trial(make_inv_worker(), fault); });
  EXPECT_GE(res.summary.ok, 2);
  EXPECT_GE(res.summary.timed_out, n / 2);
  EXPECT_EQ(res.summary.ok + res.summary.timed_out + res.summary.failed +
                res.summary.cancelled,
            n);
  // The batch did not run anywhere near the serial stall time (~16 s).
  EXPECT_LT(res.summary.wall_s, 5.0);
  for (const auto& r : res.trials) {
    if (!r.ok) EXPECT_EQ(r.outcome, sp::TrialOutcome::kTimedOut);
  }
}

TEST(Ensemble, ExternalCancelStopsBatch) {
  auto external = std::make_shared<phys::CancelToken>();
  sp::EnsembleOptions eo;
  eo.seed = 41;
  eo.num_threads = 1;  // deterministic order: trial k runs k-th
  eo.cancel = external.get();
  sp::EnsembleRunner runner(eo);
  const auto res = runner.run(10, [&](int) {
    auto base = inv_trial(make_inv_worker());
    return [base, external](sp::TrialContext& tctx) -> sp::TrialMeasurement {
      auto m = base(tctx);
      if (tctx.index == 2) external->cancel();  // after finishing trial 2
      return m;
    };
  });
  EXPECT_TRUE(res.trials[0].ok);
  EXPECT_TRUE(res.trials[2].ok);
  for (long i = 3; i < 10; ++i) {
    EXPECT_EQ(res.trials[i].outcome, sp::TrialOutcome::kCancelled);
  }
  EXPECT_EQ(res.summary.cancelled, 7);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

sp::EnsembleOptions ckpt_options(const std::string& path) {
  sp::EnsembleOptions eo;
  eo.seed = 77;
  eo.num_threads = 2;
  eo.max_retries = 1;
  eo.checkpoint_path = path;
  eo.config_tag = "dc-yield-v1";
  return eo;
}

FaultChooser sparse_nan_fault() {
  return [](long i) {
    dev::FaultSpec s;
    if (i % 10 == 7) s.kind = dev::FaultKind::kNanEval;
    return s;
  };
}

void expect_bit_identical(const sp::EnsembleResult& a,
                          const sp::EnsembleResult& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].ok, b.trials[i].ok) << "trial " << i;
    EXPECT_EQ(a.trials[i].pass, b.trials[i].pass) << "trial " << i;
    EXPECT_EQ(a.trials[i].metric, b.trials[i].metric)
        << "trial " << i << " (bit-identical metric)";
    EXPECT_EQ(a.trials[i].outcome, b.trials[i].outcome) << "trial " << i;
    EXPECT_EQ(a.trials[i].retries, b.trials[i].retries) << "trial " << i;
  }
  EXPECT_EQ(a.summary.ok, b.summary.ok);
  EXPECT_EQ(a.summary.passed, b.summary.passed);
  EXPECT_EQ(a.summary.yield, b.summary.yield);
  EXPECT_EQ(a.summary.retries_total, b.summary.retries_total);
}

TEST(EnsembleCheckpoint, KilledRunResumesBitIdentical) {
  const long n = 40;
  // Reference: one uninterrupted run, no checkpoint.
  sp::EnsembleOptions ref = ckpt_options("");
  const auto full = sp::EnsembleRunner(ref).run(
      n, [&](int) { return inv_trial(make_inv_worker(), sparse_nan_fault()); });

  // Interrupted run: an external cancel "kills" the batch partway through.
  const std::string path = temp_ckpt("resume");
  phys::CancelToken killer;
  std::atomic<long> completed{0};
  sp::EnsembleOptions eo = ckpt_options(path);
  eo.cancel = &killer;
  const auto partial = sp::EnsembleRunner(eo).run(n, [&](int) {
    auto base = inv_trial(make_inv_worker(), sparse_nan_fault());
    return [base, &killer,
            &completed](sp::TrialContext& tctx) -> sp::TrialMeasurement {
      auto m = base(tctx);
      if (completed.fetch_add(1) + 1 >= 10) killer.cancel();
      return m;
    };
  });
  const long done = partial.summary.ok + partial.summary.failed;
  ASSERT_GT(done, 0);
  ASSERT_LT(done, n) << "the kill must interrupt the batch for this test";
  ASSERT_GT(partial.summary.cancelled, 0);

  // Resume: same configuration, no kill.  Loaded trials are not re-run.
  sp::EnsembleOptions resume = ckpt_options(path);
  const auto resumed = sp::EnsembleRunner(resume).run(n, [&](int) {
    return inv_trial(make_inv_worker(), sparse_nan_fault());
  });
  EXPECT_GT(resumed.summary.from_checkpoint, 0);
  EXPECT_EQ(resumed.summary.cancelled, 0);
  expect_bit_identical(full, resumed);

  // And a second resume is a pure replay: everything from the checkpoint.
  const auto replay = sp::EnsembleRunner(resume).run(n, [&](int) {
    return inv_trial(make_inv_worker(), sparse_nan_fault());
  });
  EXPECT_EQ(replay.summary.from_checkpoint, n);
  expect_bit_identical(full, replay);
  std::filesystem::remove(path);
}

TEST(EnsembleCheckpoint, ToleratesTornTail) {
  const long n = 12;
  const std::string path = temp_ckpt("torn");
  sp::EnsembleOptions eo = ckpt_options(path);
  const auto full = sp::EnsembleRunner(eo).run(
      n, [&](int) { return inv_trial(make_inv_worker()); });

  // Simulate a kill mid-append: chop a few bytes off the last record.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  const auto resumed = sp::EnsembleRunner(eo).run(
      n, [&](int) { return inv_trial(make_inv_worker()); });
  EXPECT_EQ(resumed.summary.from_checkpoint, n - 1);  // torn record re-ran
  expect_bit_identical(full, resumed);
  std::filesystem::remove(path);
}

/// Nearly-ideal threshold switch: 0 -> 1 mA across ~1 mV at v = 0.5.
/// Diode-connected against a 1 kOhm load line crossing mid-jump, plain
/// Newton two-cycles and only the escalation ladder converges.
struct ThresholdSwitch final : dev::IDeviceModel {
  std::string nm = "step";
  double drain_current(double vgs, double /*vds*/) const override {
    return 0.5e-3 * (1.0 + std::tanh((vgs - 0.5) / 1e-3));
  }
  const std::string& name() const override { return nm; }
};

/// A ladder block names the winning stage twice, as `stage` and as the
/// used_* flags; the two must agree.
void expect_flags_match_stage(const carbon::core::Json& ladder) {
  const std::string stage = ladder["stage"].as_string();
  EXPECT_EQ(ladder["used_gmin_stepping"].as_bool(), stage == "gmin-stepping")
      << ladder.dump();
  EXPECT_EQ(ladder["used_source_stepping"].as_bool(),
            stage == "source-stepping")
      << ladder.dump();
  EXPECT_EQ(ladder["used_pseudo_transient"].as_bool(),
            stage == "pseudo-transient")
      << ladder.dump();
}

TEST(EnsembleReport, LadderFlagsAgreeWithStageAfterResume) {
  // Trial i solves the limit-cycle deck with the ladder stopped after stage
  // i % 4 (trial 0 mod 4 gets a load line plain Newton solves), so all
  // four stages are won.  A checkpoint restores the stage; the rendered
  // flags must follow it on the resumed trials too.
  const auto trial = [](int) {
    return [](sp::TrialContext& tctx) -> sp::TrialMeasurement {
      const int last_stage = static_cast<int>(tctx.index % 4);
      sp::Circuit ckt;
      ckt.add_vsource("vdd", "vdd", "0", last_stage == 0 ? 0.2 : 1.0);
      ckt.add_resistor("rl", "vdd", "sw", 1e3);
      ckt.add_fet("mstep", "sw", "sw", "0",
                  std::make_shared<ThresholdSwitch>());
      sp::SolverOptions o = tctx.solver;
      o.allow_gmin_stepping = last_stage == 1;
      o.allow_source_stepping = last_stage == 2;
      o.allow_pseudo_transient = last_stage == 3;
      sp::TrialMeasurement m;
      m.stats.op = sp::operating_point(ckt, o).stats;
      m.pass = true;
      return m;
    };
  };
  const long n = 8;
  const std::string path = temp_ckpt("ladder");
  sp::EnsembleOptions eo;
  eo.num_threads = 2;
  eo.max_retries = 0;
  eo.checkpoint_path = path;
  eo.config_tag = "ladder-flags-v1";
  const auto fresh = sp::EnsembleRunner(eo).run(n, trial);
  const auto resumed = sp::EnsembleRunner(eo).run(n, trial);
  EXPECT_EQ(resumed.summary.from_checkpoint, n);
  std::vector<std::string> stages;
  for (const sp::EnsembleResult* res : {&fresh, &resumed}) {
    for (const sp::TrialResult& t : res->trials) {
      ASSERT_TRUE(t.ok) << "trial " << t.index << ": " << t.error;
      const carbon::core::Json ladder = sp::to_json(t)["stats"]["op"];
      expect_flags_match_stage(ladder);
      stages.push_back(ladder["stage"].as_string());
    }
  }
  const std::vector<std::string> kStages = {
      "newton", "gmin-stepping", "source-stepping", "pseudo-transient"};
  for (long i = 0; i < 2 * n; ++i) {
    EXPECT_EQ(stages[i], kStages[i % 4]) << "rendered trial " << i;
  }
  std::filesystem::remove(path);
}

TEST(EnsembleCheckpoint, RejectsMismatchedConfiguration) {
  const long n = 4;
  const std::string path = temp_ckpt("mismatch");
  sp::EnsembleOptions eo = ckpt_options(path);
  sp::EnsembleRunner(eo).run(n,
                             [&](int) { return inv_trial(make_inv_worker()); });
  sp::EnsembleOptions other = eo;
  other.seed = 78;  // different stream: its results must not be mixed in
  EXPECT_THROW(sp::EnsembleRunner(other).run(
                   n, [&](int) { return inv_trial(make_inv_worker()); }),
               carbon::phys::PreconditionError);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(Ensemble, ThreadCountInvariant) {
  const long n = 64;
  auto run_with = [&](int threads) {
    sp::EnsembleOptions eo;
    eo.seed = 55;
    eo.num_threads = threads;
    eo.max_retries = 1;
    return sp::EnsembleRunner(eo).run(n, [&](int) {
      return inv_trial(make_inv_worker(), sparse_nan_fault());
    });
  };
  const auto one = run_with(1);
  const auto four = run_with(4);
  expect_bit_identical(one, four);
}

// ---------------------------------------------------------------------------
// Scale: the acceptance workload (cheap DC trials)
// ---------------------------------------------------------------------------

TEST(Ensemble, ThousandTrialsWithInjectedFaultsComplete) {
  sp::EnsembleOptions eo;
  eo.seed = 99;
  eo.max_retries = 1;
  const long n = 1000;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i % 20 == 7) s.kind = dev::FaultKind::kNanEval;       // 5%
    else if (i % 50 == 13) s.kind = dev::FaultKind::kOpenCircuit;
    return s;
  };
  sp::EnsembleRunner runner(eo);
  const auto res =
      runner.run(n, [&](int) { return inv_trial(make_inv_worker(), fault); });
  EXPECT_EQ(res.summary.trials, n);
  EXPECT_EQ(res.summary.ok + res.summary.failed + res.summary.timed_out +
                res.summary.cancelled,
            n);
  EXPECT_EQ(res.summary.cancelled, 0);
  EXPECT_EQ(res.summary.timed_out, 0);
  EXPECT_GE(res.summary.failed, 50);  // every NaN trial fails structurally
  EXPECT_GE(res.summary.ok, 900);
  EXPECT_GT(res.summary.yield, 0.0);
  EXPECT_FALSE(res.summary.failure_taxonomy.empty());
  // Every NaN-injected trial carries a structured, attributed record.
  for (long i = 7; i < n; i += 20) {
    EXPECT_FALSE(res.trials[i].ok);
    EXPECT_EQ(res.trials[i].outcome, sp::TrialOutcome::kSolveFailure);
    EXPECT_EQ(res.trials[i].failure.cause, sp::SolveFailure::Cause::kNonFinite);
  }
}

// ---------------------------------------------------------------------------
// SRAM-write transient realism
// ---------------------------------------------------------------------------

TEST(Ensemble, SramWriteYieldWithFaultInjection) {
  sp::EnsembleOptions eo;
  eo.seed = 123;
  eo.max_retries = 1;
  eo.trial_deadline_s = 30.0;  // generous; guards the suite against hangs
  const long n = 24;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i % 6 == 2) {  // ~17% fault-injected trials
      s.kind = dev::FaultKind::kNanEval;
      s.trigger_evals = 400;  // arm mid-transient, past the operating point
    }
    return s;
  };
  sp::EnsembleRunner runner(eo);
  const auto res = runner.run(n, [&](int) {
    struct Worker {
      cc::SramWriteBench bench;
      sp::NewtonWorkspace ws;
      std::vector<sp::Fet*> nfets, pfets;
    };
    auto w = std::make_shared<Worker>();
    w->bench = cc::make_sram_write_bench(
        std::make_shared<dev::AlphaPowerModel>(nominal_params()));
    for (const auto& el : w->bench.ckt->elements()) {
      if (auto* f = dynamic_cast<sp::Fet*>(el.get())) {
        (f->model().polarity() == dev::Polarity::kPType ? w->pfets : w->nfets)
            .push_back(f);
      }
    }
    return [w, fault](sp::TrialContext& tctx) -> sp::TrialMeasurement {
      fab::DeviceVariation var;
      const auto p = fab::perturb_alpha_power(nominal_params(), var, tctx.rng);
      dev::DeviceModelPtr nm = std::make_shared<dev::AlphaPowerModel>(p);
      const dev::FaultSpec spec = fault(tctx.index);
      if (spec.kind != dev::FaultKind::kNone) nm = dev::with_fault(nm, spec);
      for (auto* f : w->nfets) f->set_model(nm);
      auto pm = std::make_shared<dev::PTypeMirror>(nm);
      for (auto* f : w->pfets) f->set_model(pm);
      w->bench.ckt->reset_state();

      sp::TransientOptions base;
      base.t_stop = 4e-9;
      base.dt = 1e-12;
      base.adaptive = true;
      base.lte_reltol = 1e-3;
      base.dt_print = 20e-12;
      base.ic = sp::TransientIc::kFromOperatingPoint;
      base.workspace = &w->ws;
      sp::TransientOptions opt = tctx.tuned(base);
      sp::TrialMeasurement m;
      opt.solver.record = &m.stats;
      const auto tr = sp::transient(*w->bench.ckt, opt, {"q", "qb"});
      const double q_end = tr.at(tr.num_rows() - 1, 1);
      const double qb_end = tr.at(tr.num_rows() - 1, 2);
      m.metric = q_end;
      m.pass = q_end < 0.1 && qb_end > 0.5;  // the write flipped the cell
      return m;
    };
  });
  EXPECT_EQ(res.summary.trials, n);
  EXPECT_EQ(res.summary.cancelled, 0);
  EXPECT_EQ(res.summary.timed_out, 0);
  // All fault-free trials complete and the nominal cell writes correctly.
  EXPECT_GE(res.summary.ok, n - 4 - 2);
  EXPECT_GT(res.summary.passed, n / 2);
  // Every injected mid-transient NaN produced a structured failure record.
  long injected_failures = 0;
  for (long i = 2; i < n; i += 6) {
    if (!res.trials[i].ok) {
      ++injected_failures;
      EXPECT_NE(res.trials[i].taxonomy(), "ok");
      EXPECT_FALSE(res.trials[i].error.empty());
    }
  }
  EXPECT_GE(injected_failures, 3);
}

// ---------------------------------------------------------------------------
// JSON report surface
// ---------------------------------------------------------------------------

TEST(EnsembleJson, SerializesTrialsAndSummary) {
  sp::EnsembleOptions eo;
  eo.seed = 7;
  eo.num_threads = 1;
  eo.max_retries = 0;
  const auto fault = [](long i) {
    dev::FaultSpec s;
    if (i == 1) s.kind = dev::FaultKind::kNanEval;
    return s;
  };
  const auto res = sp::EnsembleRunner(eo).run(
      3, [&](int) { return inv_trial(make_inv_worker(), fault); });
  const std::string text = to_json(res).dump(2);
  EXPECT_NE(text.find("\"summary\""), std::string::npos);
  EXPECT_NE(text.find("\"failure_taxonomy\""), std::string::npos);
  EXPECT_NE(text.find("\"solve-failure/"), std::string::npos);
  EXPECT_NE(text.find("\"yield\""), std::string::npos);
  // The failed trial carries its structured failure block.
  EXPECT_NE(text.find("\"cause\": \"non-finite\""), std::string::npos);

  // Compact dump is valid single-line JSON-ish (no stray newlines).
  const std::string compact = to_json(res.summary).dump();
  EXPECT_EQ(compact.find('\n'), std::string::npos);

  // String escaping round-trips quotes and control characters.
  auto j = carbon::core::Json::object();
  j.set("k", "a\"b\\c\n\x01");
  EXPECT_EQ(j.dump(), "{\"k\":\"a\\\"b\\\\c\\n\\u0001\"}");
}

}  // namespace
