#include "spice/ensemble.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "obs/trace.h"
#include "phys/parallel.h"
#include "phys/require.h"
#include "spice/elements.h"

namespace carbon::spice {

namespace {

using Clock = std::chrono::steady_clock;

long long elapsed_ns(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// ---------------------------------------------------------------------------
// Checkpoint format (single-host binary, bit-exact doubles):
//
//   header : u32 magic | u32 version | u64 config_hash | i64 num_trials
//   record : u32 marker | u32 payload_size | payload
//
// Records are appended (and flushed) one per completed trial, so a killed
// run leaves at most one torn record at the tail.  The loader accepts every
// intact prefix and truncates the rest: resume never needs a clean
// shutdown.  The config hash folds seed / trial count / retry budget / the
// caller's config_tag, so a checkpoint is only ever replayed into the run
// that produced it.
//
// Persisted per trial: identity, disposition, retries, wall time, metric,
// the structured failure core (stage / cause / bad row / culprit / message)
// and the headline work counters.  Per-node attribution lists and eval
// counters are diagnostics of the original run and are not carried across
// a resume.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kMagic = 0x454e5343;         // "ENSC"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kRecordMarker = 0x5452494c;  // "TRIL"
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

void put_bytes(std::string& buf, const void* p, std::size_t n) {
  buf.append(static_cast<const char*>(p), n);
}

template <typename T>
void put(std::string& buf, T v) {
  put_bytes(buf, &v, sizeof v);
}

void put_str(std::string& buf, const std::string& s) {
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

struct ByteReader {
  const char* p;
  const char* end;

  template <typename T>
  bool get(T& v) {
    if (static_cast<std::size_t>(end - p) < sizeof v) return false;
    std::memcpy(&v, p, sizeof v);
    p += sizeof v;
    return true;
  }
  bool get_str(std::string& s) {
    std::uint32_t n = 0;
    if (!get(n)) return false;
    if (static_cast<std::size_t>(end - p) < n) return false;
    s.assign(p, n);
    p += n;
    return true;
  }
};

std::string serialize_record(const TrialResult& r) {
  std::string payload;
  payload.reserve(128);
  put<std::int64_t>(payload, r.index);
  put<std::uint8_t>(payload, r.ok ? 1 : 0);
  put<std::uint8_t>(payload, r.pass ? 1 : 0);
  put<std::int32_t>(payload, static_cast<std::int32_t>(r.outcome));
  put<std::int32_t>(payload, r.retries);
  put<std::int64_t>(payload, r.wall_ns);
  put<double>(payload, r.metric);
  put<std::int32_t>(payload, static_cast<std::int32_t>(r.failure.stage));
  put<std::int32_t>(payload, static_cast<std::int32_t>(r.failure.cause));
  put<std::int32_t>(payload, r.failure.bad_row);
  put_str(payload, r.failure.culprit);
  put_str(payload, r.error);
  put<std::int64_t>(payload, r.stats.steps_accepted);
  put<std::int64_t>(payload, r.stats.steps_rejected_lte);
  put<std::int64_t>(payload, r.stats.steps_rejected_newton);
  put<std::int64_t>(payload, r.stats.newton_iterations);
  put<std::int64_t>(payload, r.stats.breakpoints_hit);
  put<std::int64_t>(payload, r.stats.jacobian_reuses);
  put<std::int64_t>(payload, r.stats.orchestrator_recoveries);
  put<double>(payload, r.stats.dt_smallest);
  put<double>(payload, r.stats.dt_largest);
  put<std::int32_t>(payload, static_cast<std::int32_t>(r.stats.op.stage));
  put<std::int32_t>(payload, r.stats.op.iterations);
  put<std::int64_t>(payload, r.stats.op.ptc_steps);

  std::string record;
  record.reserve(payload.size() + 8);
  put<std::uint32_t>(record, kRecordMarker);
  put<std::uint32_t>(record, static_cast<std::uint32_t>(payload.size()));
  record.append(payload);
  return record;
}

bool parse_record(ByteReader& in, TrialResult& r) {
  std::int64_t index = 0;
  std::uint8_t ok = 0, pass = 0;
  std::int32_t outcome = 0, retries = 0;
  std::int64_t wall_ns = 0;
  std::int32_t f_stage = 0, f_cause = 0, f_bad_row = 0;
  std::int32_t op_stage = 0, op_iterations = 0;
  if (!in.get(index) || !in.get(ok) || !in.get(pass) || !in.get(outcome) ||
      !in.get(retries) || !in.get(wall_ns) || !in.get(r.metric) ||
      !in.get(f_stage) || !in.get(f_cause) || !in.get(f_bad_row) ||
      !in.get_str(r.failure.culprit) || !in.get_str(r.error) ||
      !in.get(r.stats.steps_accepted) || !in.get(r.stats.steps_rejected_lte) ||
      !in.get(r.stats.steps_rejected_newton) ||
      !in.get(r.stats.newton_iterations) || !in.get(r.stats.breakpoints_hit) ||
      !in.get(r.stats.jacobian_reuses) ||
      !in.get(r.stats.orchestrator_recoveries) ||
      !in.get(r.stats.dt_smallest) || !in.get(r.stats.dt_largest) ||
      !in.get(op_stage) || !in.get(op_iterations) ||
      !in.get(r.stats.op.ptc_steps)) {
    return false;
  }
  if (outcome < 0 || outcome > static_cast<int>(TrialOutcome::kError)) {
    return false;
  }
  r.index = index;
  r.ok = ok != 0;
  r.pass = pass != 0;
  r.outcome = static_cast<TrialOutcome>(outcome);
  r.retries = retries;
  r.wall_ns = wall_ns;
  r.failure.stage = static_cast<SolveStage>(f_stage);
  r.failure.cause = static_cast<SolveFailure::Cause>(f_cause);
  r.failure.bad_row = f_bad_row;
  r.stats.op.stage = static_cast<SolveStage>(op_stage);
  r.stats.op.iterations = op_iterations;
  r.from_checkpoint = true;
  return true;
}

std::uint64_t config_hash(const EnsembleOptions& opts, long num_trials) {
  std::uint64_t h = phys::stream_seed(opts.seed, 0x9d);
  h = phys::stream_seed(h, static_cast<std::uint64_t>(num_trials));
  h = phys::stream_seed(h, static_cast<std::uint64_t>(opts.max_retries));
  for (unsigned char c : opts.config_tag) h = phys::stream_seed(h, c);
  return h;
}

/// Incremental checkpoint file: load on construction context, append per
/// completed trial.  All methods assume external serialization (the runner
/// holds a mutex around append()).
class Checkpoint {
 public:
  Checkpoint(const EnsembleOptions& opts, long num_trials)
      : path_(opts.checkpoint_path),
        hash_(config_hash(opts, num_trials)),
        num_trials_(num_trials) {}

  bool enabled() const { return !path_.empty(); }

  /// Load every intact record into @p trials (marking from_checkpoint),
  /// truncate any torn tail, and leave the file open for appending.
  /// Returns the number of trials restored.
  long load(std::vector<TrialResult>& trials) {
    if (!enabled()) return 0;

    std::string data;
    {
      std::ifstream in(path_, std::ios::binary);
      if (in) {
        data.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
      }
    }

    long loaded = 0;
    std::size_t valid_end = 0;
    if (data.size() >= kHeaderBytes) {
      ByteReader head{data.data(), data.data() + kHeaderBytes};
      std::uint32_t magic = 0, version = 0;
      std::uint64_t hash = 0;
      std::int64_t trials_in_file = 0;
      head.get(magic);
      head.get(version);
      head.get(hash);
      head.get(trials_in_file);
      CARBON_REQUIRE(magic == kMagic && version == kVersion,
                     "'" + path_ + "' is not an ensemble checkpoint");
      CARBON_REQUIRE(
          hash == hash_ && trials_in_file == num_trials_,
          "checkpoint '" + path_ +
              "' was written by a different ensemble configuration "
              "(seed/trials/retries/config_tag); refusing to mix results");
      valid_end = kHeaderBytes;
      while (true) {
        std::uint32_t marker = 0, size = 0;
        ByteReader frame{data.data() + valid_end, data.data() + data.size()};
        if (!frame.get(marker) || marker != kRecordMarker) break;
        if (!frame.get(size) || size > kMaxRecordBytes) break;
        if (static_cast<std::size_t>(frame.end - frame.p) < size) break;
        ByteReader body{frame.p, frame.p + size};
        TrialResult r;
        if (!parse_record(body, r)) break;
        if (r.index >= 0 && r.index < num_trials_) {
          if (!trials[r.index].from_checkpoint) ++loaded;
          trials[r.index] = std::move(r);
        }
        valid_end += 8 + size;
      }
    }

    if (valid_end == 0) {
      // Absent, torn-header or foreign-free file: start a fresh checkpoint.
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      CARBON_REQUIRE(out.good(),
                     "cannot create checkpoint file '" + path_ + "'");
      std::string header;
      put<std::uint32_t>(header, kMagic);
      put<std::uint32_t>(header, kVersion);
      put<std::uint64_t>(header, hash_);
      put<std::int64_t>(header, num_trials_);
      out.write(header.data(), static_cast<std::streamsize>(header.size()));
      out.flush();
    } else if (valid_end < data.size()) {
      std::filesystem::resize_file(path_, valid_end);
    }

    out_.open(path_, std::ios::binary | std::ios::app);
    CARBON_REQUIRE(out_.good(),
                   "cannot open checkpoint file '" + path_ + "' for append");
    return loaded;
  }

  void append(const TrialResult& r) {
    const std::string record = serialize_record(r);
    out_.write(record.data(), static_cast<std::streamsize>(record.size()));
    out_.flush();
  }

 private:
  std::string path_;
  std::uint64_t hash_ = 0;
  long num_trials_ = 0;
  std::ofstream out_;
};

}  // namespace

const char* trial_outcome_name(TrialOutcome outcome) {
  switch (outcome) {
    case TrialOutcome::kOk: return "ok";
    case TrialOutcome::kSolveFailure: return "solve_failure";
    case TrialOutcome::kNonFinite: return "non_finite";
    case TrialOutcome::kSingular: return "singular";
    case TrialOutcome::kTimedOut: return "timed_out";
    case TrialOutcome::kCancelled: return "cancelled";
    case TrialOutcome::kError: return "error";
  }
  return "?";
}

std::string TrialResult::taxonomy() const {
  switch (outcome) {
    case TrialOutcome::kOk:
      return "ok";
    case TrialOutcome::kSolveFailure:
      return std::string("solve-failure/") + solve_stage_name(failure.stage) +
             "/" + solve_cause_name(failure.cause);
    case TrialOutcome::kNonFinite: return "non-finite-eval";
    case TrialOutcome::kSingular: return "singular-matrix";
    case TrialOutcome::kTimedOut: return "timed-out";
    case TrialOutcome::kCancelled: return "cancelled";
    case TrialOutcome::kError: return "error";
  }
  return "?";
}

TransientOptions TrialContext::tuned(TransientOptions base) const {
  base.solver = solver;
  EnsembleRunner::escalate_transient(base, attempt);
  return base;
}

SolverOptions EnsembleRunner::escalate_solver(const SolverOptions& base,
                                              int attempt) {
  SolverOptions o = base;
  if (attempt <= 0) return o;
  // A retry means the base options already lost; stop being polite.  Open
  // the whole ladder, add iteration/rung/pseudo-step headroom per attempt,
  // and tighten the Newton damping — smaller per-step moves converge more
  // corners at the price of more iterations, which we just granted.
  o.allow_gmin_stepping = true;
  o.allow_source_stepping = true;
  o.allow_pseudo_transient = true;
  const int boost = 1 << std::min(attempt, 4);
  o.max_iterations = std::min(2000, base.max_iterations * boost);
  o.gmin_max_rungs = base.gmin_max_rungs + 32 * attempt;
  o.source_max_rungs = base.source_max_rungs + 32 * attempt;
  o.ptc_max_steps = base.ptc_max_steps + 500 * attempt;
  o.v_step_limit =
      std::max(0.05, base.v_step_limit / (1 << std::min(attempt, 3)));
  return o;
}

void EnsembleRunner::escalate_transient(TransientOptions& tran, int attempt) {
  if (attempt <= 0) return;
  const double shrink = std::pow(4.0, std::min(attempt, 5));
  tran.dt /= shrink;
  if (tran.dt_min > 0.0) tran.dt_min /= shrink;
  tran.max_step_halvings += 4 * attempt;
}

EnsembleRunner::RunOne EnsembleRunner::run_one(
    long index, const TrialFn& fn, const phys::CancelToken& batch) const {
  RunOne out;
  TrialResult& r = out.result;
  r.index = index;
  obs::ScopedSpan trial_span("ensemble-trial");
  const auto t0 = Clock::now();

  for (int attempt = 0; attempt <= opts_.max_retries; ++attempt) {
    if (batch.stopped()) {
      // Batch-level stop before this attempt started: record why the trial
      // never ran, and keep it out of the checkpoint so a resumed run
      // executes it for real.
      r.ok = false;
      r.outcome = batch.cancelled() ? TrialOutcome::kCancelled
                                    : TrialOutcome::kTimedOut;
      r.error = batch.cancelled() ? "batch cancelled before the trial ran"
                                  : "batch deadline expired before the trial "
                                    "ran";
      out.terminal = false;
      break;
    }

    phys::CancelToken trial_token(&batch);
    if (opts_.trial_deadline_s > 0.0) {
      trial_token.set_deadline_after(opts_.trial_deadline_s);
    }
    SolverOptions solver = escalate_solver(opts_.solver, attempt);
    solver.cancel = &trial_token;
    // A fresh stream per attempt: the retry redraws the *same* perturbed
    // device, so escalation changes only the solve strategy, and trial
    // results stay independent of how many retries other trials burned.
    phys::Rng rng(phys::stream_seed(opts_.seed, static_cast<std::uint64_t>(index)));
    TrialContext ctx{index, attempt, rng, solver, &trial_token};
    r.retries = attempt;

    try {
      TrialMeasurement m = fn(ctx);
      r.ok = true;
      r.pass = m.pass;
      r.metric = m.metric;
      r.stats = m.stats;
      r.outcome = TrialOutcome::kOk;
      r.failure = SolveFailure{};
      r.error.clear();
      break;
    } catch (const phys::CancelledError& e) {
      r.ok = false;
      r.error = e.what();
      if (batch.stopped()) {
        // The batch pulled the plug mid-trial; this is not the trial's own
        // fault, so it is re-runnable on resume.
        r.outcome = batch.cancelled() ? TrialOutcome::kCancelled
                                      : TrialOutcome::kTimedOut;
        out.terminal = false;
      } else {
        r.outcome = TrialOutcome::kTimedOut;
      }
      break;  // the wall budget is spent: retrying would time out again
    } catch (const SolveFailureError& e) {
      r.ok = false;
      r.outcome = TrialOutcome::kSolveFailure;
      r.failure = e.failure();
      r.error = e.what();
    } catch (const NonFiniteEvalError& e) {
      r.ok = false;
      r.outcome = TrialOutcome::kNonFinite;
      r.failure.culprit = e.element();
      r.error = e.what();
    } catch (const phys::SingularMatrixError& e) {
      r.ok = false;
      r.outcome = TrialOutcome::kSingular;
      r.failure.bad_row = e.row();
      r.error = e.what();
    } catch (const std::exception& e) {
      r.ok = false;
      r.outcome = TrialOutcome::kError;
      r.error = e.what();
    }
    // Structured failure: fall through into the next escalated attempt.
  }

  r.wall_ns = elapsed_ns(t0);
  return out;
}

EnsembleResult EnsembleRunner::run(long num_trials,
                                   const WorkerFactory& make_worker) const {
  CARBON_REQUIRE(num_trials > 0, "ensemble needs at least one trial");
  CARBON_REQUIRE(make_worker != nullptr, "ensemble needs a worker factory");
  const auto t_start = Clock::now();

  EnsembleResult res;
  res.trials.resize(static_cast<std::size_t>(num_trials));
  for (long i = 0; i < num_trials; ++i) res.trials[i].index = i;

  Checkpoint ckpt(opts_, num_trials);
  const long loaded = ckpt.load(res.trials);

  phys::CancelToken batch(opts_.cancel);
  if (opts_.batch_deadline_s > 0.0) {
    batch.set_deadline_after(opts_.batch_deadline_s);
  }

  std::vector<long> pending;
  pending.reserve(static_cast<std::size_t>(num_trials - loaded));
  for (long i = 0; i < num_trials; ++i) {
    if (!res.trials[i].from_checkpoint) pending.push_back(i);
  }

  if (!pending.empty()) {
    std::mutex ckpt_mutex;
    std::atomic<int> next_worker{0};
    // Propagate the caller's tracer onto the worker threads: each worker
    // records into its own ring, so trial spans stay lock-free.
    obs::Tracer* const parent_tracer = obs::tracer();
    phys::parallel_for(
        static_cast<long>(pending.size()),
        [&](long begin, long end) {
          obs::TraceAttach trace_attach(parent_tracer);
          const int worker =
              next_worker.fetch_add(1, std::memory_order_relaxed);
          TrialFn fn = make_worker(worker);
          CARBON_REQUIRE(fn != nullptr,
                         "worker factory returned a null trial function");
          for (long k = begin; k < end; ++k) {
            RunOne out = run_one(pending[k], fn, batch);
            if (out.terminal && ckpt.enabled()) {
              std::lock_guard<std::mutex> lock(ckpt_mutex);
              ckpt.append(out.result);
            }
            res.trials[static_cast<std::size_t>(pending[k])] =
                std::move(out.result);
          }
        },
        opts_.num_threads);
  }

  EnsembleSummary& s = res.summary;
  s.trials = num_trials;
  for (const TrialResult& r : res.trials) {
    if (r.from_checkpoint) ++s.from_checkpoint;
    if (r.retries > 0) {
      ++s.retried_trials;
      s.retries_total += r.retries;
    }
    if (r.ok) {
      ++s.ok;
      if (r.pass) ++s.passed;
      if (r.retries > 0) ++s.recovered_by_retry;
    } else {
      ++s.failure_taxonomy[r.taxonomy()];
      switch (r.outcome) {
        case TrialOutcome::kTimedOut: ++s.timed_out; break;
        case TrialOutcome::kCancelled: ++s.cancelled; break;
        default: ++s.failed; break;
      }
    }
  }
  s.yield = static_cast<double>(s.passed) / static_cast<double>(num_trials);
  s.threads =
      opts_.num_threads > 0 ? opts_.num_threads : phys::default_num_threads();
  s.wall_s = static_cast<double>(elapsed_ns(t_start)) * 1e-9;
  return res;
}

core::Json to_json(const TrialResult& result) {
  auto j = core::Json::object();
  j.set("index", result.index);
  j.set("outcome", trial_outcome_name(result.outcome));
  j.set("taxonomy", result.taxonomy());
  j.set("ok", result.ok);
  j.set("pass", result.pass);
  j.set("metric", result.metric);
  j.set("retries", result.retries);
  j.set("wall_ns", static_cast<long long>(result.wall_ns));
  j.set("from_checkpoint", result.from_checkpoint);
  if (!result.ok) {
    j.set("error", result.error);
    if (result.outcome == TrialOutcome::kSolveFailure) {
      j.set("failure", to_json(result.failure));
    }
  } else {
    j.set("stats", to_json(result.stats));
  }
  return j;
}

core::Json to_json(const EnsembleSummary& summary) {
  auto j = core::Json::object();
  j.set("trials", summary.trials);
  j.set("ok", summary.ok);
  j.set("passed", summary.passed);
  j.set("failed", summary.failed);
  j.set("timed_out", summary.timed_out);
  j.set("cancelled", summary.cancelled);
  j.set("from_checkpoint", summary.from_checkpoint);
  j.set("retried_trials", summary.retried_trials);
  j.set("retries_total", summary.retries_total);
  j.set("recovered_by_retry", summary.recovered_by_retry);
  j.set("yield", summary.yield);
  j.set("wall_s", summary.wall_s);
  j.set("threads", summary.threads);
  auto taxonomy = core::Json::object();
  for (const auto& [bucket, count] : summary.failure_taxonomy) {
    taxonomy.set(bucket, count);
  }
  j.set("failure_taxonomy", std::move(taxonomy));
  return j;
}

core::Json to_json(const EnsembleResult& result) {
  auto j = core::Json::object();
  j.set("summary", to_json(result.summary));
  auto trials = core::Json::array();
  for (const TrialResult& r : result.trials) trials.push(to_json(r));
  j.set("trials", std::move(trials));
  return j;
}

}  // namespace carbon::spice
