#!/usr/bin/env python3
"""Deck benchmark for carbon_simd and carbon_sim.

    python3 deckbench/run.py --workload cmos_cells --seed 1 --seconds 15 \
        --trace 0

Run from the repository root.  Builds the program in Release from the
repository's CMake project into .deckbench_build/, generates the
workload's deck stream from the seed (decks.py) and measures it:

  --trace 0  end-to-end: carbon_simd under a closed loop from the C++
             load generator (deckbench_load), then carbon_sim processes
             over the same stream.
  --trace 1  per layer: the daemon's own counters under the same loop,
             then the traced in-process replay (deckbench_trace).

Every document is checked (checks.py).  The last line of stdout is one
JSON object: correct, attempted, failed and the metrics.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import checks  # noqa: E402
import decks  # noqa: E402
from selfcheck import SelfCheckError, self_check  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".deckbench_build")
WORK = os.path.join(ROOT, ".deckbench_out")

# Two connections on two workers: on a 4-core box a 2x2 closed loop
# repeated within +-3% where 1x1 swung by +-10%, and it leaves cores for
# the client and the rest of the machine.  No more connections than cores,
# and workers never fewer than connections: a keep-alive connection pins a
# worker until it closes.
CONNECTIONS = min(2, os.cpu_count() or 1)
WORKERS = CONNECTIONS
# Daemon launches per run for setup_s (the median is reported): where
# set-up takes milliseconds, more launches steady the median.
SETUP_LAUNCHES = {"cmos_cells": 21, "cnt_cells": 5, "linear_nets": 21}
# carbon_sim processes per run (the median is reported), and passes over
# the stream in each: one to three seconds per process.
BATCH_RUNS = 5
BATCH_PASSES = {"cmos_cells": 4, "cnt_cells": 1, "linear_nets": 1}


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(cmd))
    bins = {"sim": os.path.join(BUILD, "carbon", "carbon_sim"),
            "simd": os.path.join(BUILD, "carbon", "carbon_simd"),
            "load": os.path.join(BUILD, "deckbench_load"),
            "trace": os.path.join(BUILD, "deckbench_trace")}
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("missing program %s" % path)
    return bins


def frame(i, text):
    return json.dumps({"type": "run", "id": i, "deck": text}) + "\n"


# ----------------------------------------------------------------- daemon

class Daemon:
    """carbon_simd on an ephemeral loopback port; always stopped and
    waited for."""

    def __init__(self, binary):
        self.proc = subprocess.Popen(
            [binary, "--tcp", "0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        ready = self.proc.stdout.readline()
        try:
            self.port = json.loads(ready)["port"]
        except (ValueError, KeyError):
            self.stop()
            raise BenchError("carbon_simd did not start: %r" % ready)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def exchange(self, frames):
        """Send frames one at a time on one connection; return replies."""
        replies = []
        with socket.create_connection(("127.0.0.1", self.port)) as s:
            reader = s.makefile("rb")
            for f in frames:
                s.sendall(f.encode())
                replies.append(reader.readline())
            reader.close()
        return replies

    def metrics(self):
        reply = json.loads(self.exchange(['{"type":"metrics"}\n'])[0])
        return reply["metrics"]


def histogram(metrics, family, labels=""):
    for v in metrics[family]["values"]:
        if v.get("labels", "") == labels:
            return v["count"], v["sum_s"]
    raise BenchError("no histogram %s{%s}" % (family, labels))


def run_load(bins, port, frames_path, seconds, replies_path=None):
    cmd = [bins["load"], "--port", str(port), "--frames", frames_path,
           "--connections", str(CONNECTIONS), "--seconds", str(seconds)]
    if replies_path:
        cmd += ["--replies", replies_path]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=seconds + 150)
    if out.returncode != 0:
        raise BenchError("load generator failed")
    return json.loads(out.stdout)


def is_ok(raw):
    try:
        return json.loads(raw).get("ok") is True
    except ValueError:
        return False


# ------------------------------------------------------------- end to end

def end_to_end(bins, workload, stream, frames_path, seconds, work):
    ops = Ops()
    first_of_class = {}
    for i, d in enumerate(stream):
        first_of_class.setdefault(d.cls, frame(i, d.text))
    warm = list(first_of_class.values())

    setups = []
    daemon = None
    launches = SETUP_LAUNCHES[workload]
    try:
        for launch in range(launches):
            t0 = time.perf_counter()
            daemon = Daemon(bins["simd"])
            replies = daemon.exchange(warm)
            setups.append(time.perf_counter() - t0)
            ops.count(len(replies), sum(not is_ok(r) for r in replies))
            if launch + 1 < launches:
                daemon.stop()
                daemon = None

        replies_path = os.path.join(work, "replies.jsonl")
        cpu0 = daemon.cpu_s()
        load = run_load(bins, daemon.port, frames_path, seconds, replies_path)
        cpu1 = daemon.cpu_s()
        rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon:
            daemon.stop()
    completed = load["completed"]
    ops.count(completed, load["failed"])
    if completed == 0:
        raise BenchError("no request completed")

    passes = BATCH_PASSES[workload]
    text = "".join(d.text for d in stream) * passes
    batch_ms = []
    for _ in range(BATCH_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run([bins["sim"], "--compact"], input=text,
                             stdout=subprocess.PIPE, text=True, timeout=60)
        wall_s = time.perf_counter() - t0
        docs = [json.loads(line) for line in out.stdout.splitlines()]
        if len(docs) != len(stream) * passes:
            raise BenchError("carbon_sim printed %d documents for %d decks"
                             % (len(docs), len(stream) * passes))
        batch_ms.append(wall_s * 1e3 / len(docs))
        ops.count(len(docs), sum(d.get("ok") is not True for d in docs))

    batch_docs = docs[:len(stream)]
    ops.checks(checks.check_docs(stream, batch_docs))
    with open(replies_path) as f:
        served = [line for line in f.read().split("\n")[:len(stream)]]
    for i, (raw, doc) in enumerate(zip(served, batch_docs)):
        problem = checks.agree(json.loads(raw), doc) if raw else "not served"
        ops.checks([("deck %d service vs batch" % i, problem)])

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "req_per_s": (load["req_per_s"], "1/s"),
        "latency_p50_ms": (load["p50_ms"], "ms"),
        "latency_p90_ms": (load["p90_ms"], "ms"),
        "cpu_ms_per_req": ((cpu1 - cpu0) * 1e3 / completed, "ms"),
        "daemon_rss_mb": (rss_mb, "MiB"),
        "batch_ms_per_deck": (statistics.median(batch_ms), "ms"),
    }
    return metrics, ops, batch_docs


# ---------------------------------------------------------------- traced

def traced(bins, workload, stream, frames_path, seconds, work):
    ops = Ops()
    daemon = Daemon(bins["simd"])
    try:
        before = daemon.metrics()
        load = run_load(bins, daemon.port, frames_path, seconds / 2)
        after = daemon.metrics()
    finally:
        daemon.stop()
    ops.count(load["completed"], load["failed"])

    def mean_delta_ms(family, labels=""):
        c0, s0 = histogram(before, family, labels)
        c1, s1 = histogram(after, family, labels)
        if c1 <= c0:
            raise BenchError("no %s samples" % family)
        return (s1 - s0) * 1e3 / (c1 - c0)

    service_ms = mean_delta_ms("carbon_request_seconds", 'outcome="ok"')
    queue_ms = mean_delta_ms("carbon_queue_wait_seconds")

    docs_path = os.path.join(work, "trace_docs.jsonl")
    out = subprocess.run([bins["trace"], "--frames", frames_path,
                          "--seconds", str(seconds / 2), "--docs", docs_path],
                         stdout=subprocess.PIPE, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("traced replay failed")
    t = json.loads(out.stdout)
    with open(docs_path) as f:
        docs = [json.loads(line) for line in f]
    ops.count(t["decks"], t["failed"])
    ops.checks(checks.check_docs(stream, docs))

    n = float(t["decks"])
    wall = t["decode_ms"] + t["parse_ms"] + t["run_on_ms"] + t["render_ms"]
    metrics = {
        "serve.service_ms_per_req": (service_ms, "ms"),
        "serve.overhead_ms_per_req": (load["mean_ms"] - service_ms, "ms"),
        "serve.queue_wait_ms_per_conn": (queue_ms, "ms"),
        "serve.request_decode_ms_per_req": (t["decode_ms"] / n, "ms"),
        "parser.parse_ms_per_deck": (t["parse_ms"] / n, "ms"),
        "parser.instantiate_ms_per_deck": (t["instantiate_ms"] / n, "ms"),
        "parser.retune_ms_per_step": (t["retune_first_ms"] / t["steps"],
                                      "ms"),
        "session.run_ms_per_deck": (t["run_off_ms"] / n, "ms"),
        "session.wall_ms_per_deck": (wall / n, "ms"),
        "session.other_ms_per_deck": (t["other_ms"] / n, "ms"),
        "session.cache_hit_ratio": (t["cache_hits"] / n, "ratio"),
        "session.pattern_builds_per_deck": (t["pattern_builds"] / n,
                                            "count"),
        "session.symbolic_analyses_per_deck": (t["symbolic_analyses"] / n,
                                               "count"),
        "analyses.newton_iters_per_deck": (t["newton_iters"] / n, "count"),
        "analyses.tran_steps_per_deck": (t["tran_steps"] / n, "count"),
        "analyses.lte_rejects_per_deck": (t["lte_rejects"] / n, "count"),
        "analyses.op_escalations_per_deck": (t["op_escalations"] / n,
                                             "count"),
        "mna.stamp_ms_per_deck": (t["stamp_ms"] / n, "ms"),
        "mna.factor_ms_per_deck": (t["factor_ms"] / n, "ms"),
        "mna.solve_ms_per_deck": (t["solve_ms"] / n, "ms"),
        "device.eval_ms_per_deck": (t["eval_ms"] / n, "ms"),
        "device.eval_ns_per_call": (t["eval_ns_per_call"], "ns"),
        "device.model_build_ms": (t["model_build_ms"] / t["model_builds"],
                                  "ms"),
        "report.render_ms_per_deck": (t["render_ms"] / n, "ms"),
        "report.kb_per_deck": (t["bytes"] / 1024.0 / n, "KiB"),
        "obs.phase_overhead_ms_per_deck": (
            (t["run_on_ms"] - t["run_off_ms"]) / n, "ms"),
    }
    return metrics, ops, docs


# ------------------------------------------------------------ operations

class Ops:
    """Operations attempted and failed; a failed check is a failed
    operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def checks(self, results):
        for name, problem in results:
            self.attempted += 1
            if problem:
                self.failed += 1
                self.problems.append("%s: %s" % (name, problem))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        bins = build()
        stream = decks.generate(args.workload, args.seed)
        work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
        os.makedirs(work, exist_ok=True)
        try:
            frames_path = os.path.join(work, "frames.jsonl")
            with open(frames_path, "w") as f:
                f.writelines(frame(i, d.text) for i, d in enumerate(stream))
            measure = traced if args.trace else end_to_end
            metrics, ops, docs = measure(bins, args.workload, stream,
                                         frames_path, args.seconds, work)
            self_check(args.workload, args.seed, stream, docs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass
    except (BenchError, SelfCheckError, subprocess.TimeoutExpired,
            OSError) as exc:
        print("deckbench: %s" % exc, file=sys.stderr)
        return 2
    for problem in ops.problems[:20]:
        print("deckbench: FAILED %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
