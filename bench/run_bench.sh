#!/usr/bin/env bash
# Run the perf-kernel microbenchmarks and record the results (plus the
# headline speedups: tabulated-vs-direct VTC sweep, parallel Monte Carlo,
# the O(N) per-unknown cost ratios of the Newton-solve, AC-sweep and
# large-array transient scaling families, and the fault-injected ensemble
# yield sweep) in BENCH_perf.json at the repo root.
# Usage:
#
#   bench/run_bench.sh [build_dir] [extra google-benchmark args...]
#
# Every benchmark runs 5 repetitions unless the arguments pick a count
# (--benchmark_repetitions=N).  Summary figures are medians over the
# repetitions; summary.spread records each benchmark's median and
# coefficient of variation, next to nproc and the CPU model.  A run whose
# thread pool had one thread publishes no parallel-scaling figures
# (placement_mc_speedup, ensemble thread efficiency).
#
# The build dir defaults to ./build.  The script configures and builds it
# with -DCMAKE_BUILD_TYPE=Release -DCARBON_BUILD_BENCH=ON itself, and the
# recording step REFUSES to write BENCH_perf.json when:
#  * the perf_kernels binary reports anything but a Release build of
#    libcarbon (JSON context keys carbon_build_type /
#    carbon_cmake_build_type), or
#  * google-benchmark itself is a debug build (context key
#    library_build_type) — a debug benchmark library taints the timing
#    loop itself.  CI builds benchmark Release from source (see the
#    bench-smoke job); on a machine where only a distro debug build is
#    available, CARBON_BENCH_ALLOW_DEBUG_BENCHLIB=1 records anyway and
#    stamps the override into the summary (the fixed-vs-adaptive and
#    scaling *ratios* are measured inside one binary and stay valid;
#    absolute times should not be trusted).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE=Release -DCARBON_BUILD_BENCH=ON
if ! cmake --build "$build_dir" -j --target perf_kernels; then
  echo "error: could not build perf_kernels — is google-benchmark installed?" >&2
  exit 1
fi
bin="$build_dir/perf_kernels"

raw_json="$(mktemp)"
trap 'rm -f "$raw_json"' EXIT

repetitions=(--benchmark_repetitions=5)
for arg in "$@"; do
  case "$arg" in --benchmark_repetitions=*) repetitions=() ;; esac
done

"$bin" --benchmark_format=json --benchmark_out_format=json \
       --benchmark_out="$raw_json" ${repetitions[@]+"${repetitions[@]}"} \
       "$@" >/dev/null

python3 - "$raw_json" "$repo_root/BENCH_perf.json" <<'EOF'
import json, os, statistics, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    data = json.load(f)

ctx = data.get("context", {})
build_type = ctx.get("carbon_build_type", "unknown")
cmake_type = ctx.get("carbon_cmake_build_type", "unknown")
if build_type != "release" or cmake_type.lower() != "release":
    sys.exit(
        f"error: refusing to record benchmarks from a non-Release library "
        f"build (carbon_build_type={build_type}, "
        f"carbon_cmake_build_type={cmake_type}); rebuild with "
        f"-DCMAKE_BUILD_TYPE=Release")

# Same gate for google-benchmark itself: a debug benchmark library taints
# the timing loop around every measurement.
bench_lib_type = ctx.get("library_build_type", "unknown")
bench_lib_override = False
if bench_lib_type != "release":
    if os.environ.get("CARBON_BENCH_ALLOW_DEBUG_BENCHLIB") != "1":
        sys.exit(
            f"error: refusing to record benchmarks against a non-Release "
            f"google-benchmark (library_build_type={bench_lib_type}); build "
            f"benchmark Release from source (see the bench-smoke job in "
            f".github/workflows/ci.yml) or set "
            f"CARBON_BENCH_ALLOW_DEBUG_BENCHLIB=1 to record anyway — "
            f"in-binary ratios stay valid, absolute times are tainted")
    bench_lib_override = True
    print("warning: recording against a debug google-benchmark library "
          "(CARBON_BENCH_ALLOW_DEBUG_BENCHLIB=1); absolute times tainted",
          file=sys.stderr)

# One list of per-repetition entries per benchmark; google-benchmark's own
# aggregates (mean/median/stddev/cv) are recomputed here instead, so a
# single-repetition run summarizes the same way.
runs = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") != "aggregate":
        runs.setdefault(b.get("run_name", b["name"]), []).append(b)

def entry_ns(b):
    # Benchmarks may report in us (the Newton family) or ns; normalise.
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
    return b["real_time"] * scale

def real_time_ns(name):
    reps = runs.get(name)
    return statistics.median(entry_ns(b) for b in reps) if reps else None

def counter(name, key):
    return statistics.median(b[key] for b in runs[name])

summary = {}
# Provenance, duplicated from the context block so consumers (and the CI
# release-build assert) can read it without digging through the context.
summary["carbon_build_type"] = build_type
summary["carbon_cmake_build_type"] = cmake_type
summary["benchmark_library_build_type"] = bench_lib_type

# Spread: median and coefficient of variation of every benchmark over its
# repetitions (cv is null below two), and the machine they ran on.
def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"

summary["nproc"] = len(os.sched_getaffinity(0))
summary["cpu_model"] = cpu_model()
threads = int(ctx.get("carbon_threads", summary["nproc"]))
summary["threads"] = threads
summary["repetitions"] = max((len(r) for r in runs.values()), default=0)
spread = {}
for name, reps in runs.items():
    t = [entry_ns(b) for b in reps]
    spread[name] = {
        "median_ns": statistics.median(t),
        "cv": statistics.stdev(t) / statistics.mean(t) if len(t) > 1 else None,
    }
summary["spread"] = spread

direct = real_time_ns("BM_SpiceVtcSweepCntfetDirect")
fast = real_time_ns("BM_SpiceVtcSweepWarmStart")
if direct and fast:
    summary["vtc_sweep_direct_ns"] = direct
    summary["vtc_sweep_tabulated_warmstart_ns"] = fast
    summary["vtc_sweep_speedup"] = direct / fast

serial = real_time_ns("BM_PlacementMonteCarlo")
par = real_time_ns("BM_PlacementMonteCarloParallel/0")
if serial and par:
    summary["placement_mc_serial_ns"] = serial
    summary["placement_mc_parallel_ns"] = par
    if threads > 1:
        summary["placement_mc_speedup"] = serial / par

# Scaling families: the per-unknown (per-stage, per-cell) cost ratio
# between the largest and the smallest size guards O(N) scaling (1.0 =
# perfectly linear) of the sparse Newton solve, the sparse-complex AC
# sweep, and the large-array adaptive transients.
for family, key in (("BM_NewtonSolveSparse", "newton_solve"),
                    ("BM_AcSweepSparse", "ac_sweep"),
                    ("BM_TransientRingScaleAdaptive", "transient_ring_scale"),
                    ("BM_TransientSramColumnAdaptive",
                     "transient_sram_column")):
    sizes = {}
    for name in runs:
        prefix = f"{family}/"
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            n = int(name[len(prefix):])
            sizes[n] = real_time_ns(name)
    if len(sizes) >= 2:
        n_lo, n_hi = min(sizes), max(sizes)
        summary[f"{key}_ns"] = {str(n): t for n, t in sorted(sizes.items())}
        summary[f"{key}_per_unit_ratio"] = (
            (sizes[n_hi] / n_hi) / (sizes[n_lo] / n_lo))

# Adaptive transient engine: fixed-vs-adaptive pairs on the ring-oscillator
# and SRAM-write workloads.  Wall-clock speedup plus the deterministic work
# counters (Newton iterations, device evals) and the accuracy-vs-reference
# metrics each benchmark computed against its 4x-finer fixed-step run.
for pair, key in (("RingOsc", "transient_ring"),
                  ("SramWrite", "transient_sram")):
    fx, ad = f"BM_Transient{pair}Fixed", f"BM_Transient{pair}Adaptive"
    if not (fx in runs and ad in runs):
        continue
    t_fx, t_ad = real_time_ns(fx), real_time_ns(ad)
    summary[f"{key}_fixed_ns"] = t_fx
    summary[f"{key}_adaptive_ns"] = t_ad
    summary[f"{key}_speedup"] = t_fx / t_ad
    summary[f"{key}_newton_reduction"] = (
        counter(fx, "newton_iters") / counter(ad, "newton_iters"))
    summary[f"{key}_deviceeval_reduction"] = (
        counter(fx, "device_evals") / counter(ad, "device_evals"))
    summary[f"{key}_fixed_rms_v"] = counter(fx, "rms_v_vs_ref")
    summary[f"{key}_adaptive_rms_v"] = counter(ad, "rms_v_vs_ref")
    if "period_relerr" in runs[fx][0]:
        summary[f"{key}_fixed_period_relerr"] = counter(fx, "period_relerr")
        summary[f"{key}_adaptive_period_relerr"] = counter(ad, "period_relerr")

# Fault-tolerant ensemble engine: the SRAM write yield sweep with ~5%
# fault-injected trials.  Per-size trial throughput plus the yield and
# failure/retry accounting and the thread-scaling efficiency against the
# in-binary serial reference (1.0 = perfect scaling).
# The thread efficiency is left out of a one-thread run.
ens = {}
for name in runs:
    prefix = "BM_EnsembleSramYield/"
    if name.startswith(prefix):
        tail = name[len(prefix):].split("/")[0]  # strip /real_time
        if tail.isdigit():
            ens[int(tail)] = name
ens_keys = ["trials_per_s", "yield", "failed", "retried", "recovered",
            "threads"] + (["thread_efficiency"] if threads > 1 else [])
if ens:
    summary["ensemble_sram_yield"] = {
        str(n): {k: counter(name, k) for k in ens_keys}
        for n, name in sorted(ens.items())
    }
    big = summary["ensemble_sram_yield"][str(max(ens))]
    summary["ensemble_trials_per_s"] = big["trials_per_s"]
    if threads > 1:
        summary["ensemble_thread_efficiency"] = big["thread_efficiency"]

if bench_lib_override:
    summary["benchmark_library_debug_override"] = True

data["summary"] = summary
with open(out_path, "w") as f:
    json.dump(data, f, indent=2)

for k, v in summary.items():
    if k == "spread":
        continue  # per-benchmark detail stays in the JSON
    if isinstance(v, dict):
        print(f"{k}:")
        for kk, vv in v.items():
            if isinstance(vv, dict):
                inner = ", ".join(f"{a}={b:.4g}" for a, b in vv.items())
                print(f"  {kk}: {inner}")
            else:
                print(f"  {kk}: {vv}")
    elif isinstance(v, float):
        print(f"{k}: {v:.4g}")
    else:
        print(f"{k}: {v}")
print(f"wrote {out_path}")
EOF
