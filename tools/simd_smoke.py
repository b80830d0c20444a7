#!/usr/bin/env python3
"""Fault-mix smoke test for carbon_simd, the concurrent simulation service.

Boots the daemon on an ephemeral TCP port with the fault-injection models
registered, then hammers it from concurrent client threads with the full
fault mix — good decks (an .ac+.noise deck with a measure over a
missing column among them), parse errors (overflowing .step/.dc grids,
out-of-range element values, waveform arguments and .model values among
them), NaN solve failures, injected hangs under tight deadlines,
oversized requests and mid-request disconnects — and asserts the
robustness contract:

  * every request on a surviving connection yields exactly one JSON
    document (ok, or a structured error of the expected type);
  * one CNT NAND2 deck sent by every client thread at once (first uses of
    one model-store key, built once while the others wait) comes back ok
    with identical measures;
  * no reply names a server source file (no "/src/" anywhere);
  * a half-closed client (shutdown(SHUT_WR) after its run, as nc -N does)
    still gets exactly one document, then the daemon closes;
  * hung solves come back as bounded {"type":"timeout"} documents;
  * oversized frames are rejected with {"type":"too_large"};
  * a saturated queue sheds load with {"type":"overload"} documents;
  * idle connections cost no worker: with more idle sockets open than
    workers, a fresh socket's health request and good deck are answered;
  * the process fd limit only delays new connections: a daemon started
    with a low RLIMIT_NOFILE and held past it does not spin, and serves a
    fresh health request once some connections close;
  * health reporting stays coherent (in_flight returns to 0);
  * {"type":"metrics"} exposes a conserved Prometheus snapshot: each
    carbon_request_seconds{outcome=X} histogram count equals the
    matching carbon_requests_total{outcome=X} counter, the
    queue-wait histogram count equals the started run requests once the
    storm quiesces, and carbon_model_store_total{event="build"} equals
    the number of distinct model-store keys the run sent;
  * SIGTERM drains gracefully: the process exits 0 within the drain
    budget after finishing or cancelling in-flight work.

Exits 0 when every assertion holds.  Stdlib only.
"""

import argparse
import json
import os
import re
import resource
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

GOOD_DECK = (
    "v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n"
    ".op\n.probe none\n.measure op vout value v(out)\n.end\n"
)
PARSE_DECK = "r1 in out\n.op\n.end\n"
# Grids whose point count overflows an int (the .step one crashed the
# daemon until the count was checked before the cast).
STEP_DECK = "v1 a 0 1\nr1 a 0 {r}\n.param r=1\n.step param r 1 1e12 1\n.op\n"
DC_DECK = "v1 a 0 1\nr1 a 0 1k\n.dc v1 0 1e9 1e-3\n"
# Values out of range, in GOOD_DECK's topology: a worker that has it cached
# retunes instead of instantiating, and must refuse the same way.
NEG_R_DECK = "v1 in 0 1\nr1 in out -1k\nr2 out 0 1k\n.op\n.end\n"
INF_DECK = "v1 in 0 1e300t\nr1 in out 1k\nr2 out 0 1k\n.op\n.end\n"
NAN_SOURCE_DECK = "v1 in 0 {0/0}\nr1 in out 1k\nr2 out 0 1k\n.op\n.end\n"
PULSE_DECK = ("v1 in 0 pulse(0 1 0 0 0 1n 2n)\nr1 in out 1k\nr2 out 0 1k\n"
              ".op\n.end\n")
# .model values the model constructors refuse: refused before any build.
CNT_L0_DECK = ".model n cnfet(l=0)\nv1 d 0 0.5\nmn d d 0 n\n.op\n.end\n"
ALPHA0_DECK = ".model n alphan(alpha=0)\nv1 d 0 1\nmn d d 0 n\n.op\n.end\n"
PARSE_DECKS = [PARSE_DECK, STEP_DECK, DC_DECK, NEG_R_DECK, INF_DECK,
               NAN_SOURCE_DECK, PULSE_DECK, CNT_L0_DECK, ALPHA0_DECK]
# A CNT NAND2 truth table: ncnt and pcnt share one model-store key for the
# CNT-FET and one for its table at the deck's span, the only models any
# deck of the run builds.
NAND2_DECK = (
    ".param vdd=0.45 a=0 b=0\n"
    ".model ncnt cnfet(l=18n)\n.model pcnt cpfet(l=18n)\n"
    "vdd vdd 0 {vdd}\nva a 0 {a*vdd}\nvb b 0 {b*vdd}\n"
    "mpa out a vdd pcnt\nmpb out b vdd pcnt\n"
    "mna out a mid ncnt\nmnb mid b 0 ncnt\n"
    ".op\n.step param a list 0 1\n.step param b list 0 1\n"
    ".probe none\n.measure op out value v(out)\n.end\n"
)
MODEL_KEYS = 2
# One small-signal pass serves both cards; the second measure reads a
# column the .ac table lacks and must come back null, not fail the deck.
AC_DECK = (
    "v1 in 0 dc 0 ac 1\nr1 in out 1k\nc1 out 0 1n\n"
    ".ac dec 10 1k 1meg\n.noise v(out) v1 dec 10 1k 1meg\n"
    ".measure ac f3db corner v(out)\n.measure ac missing max v(nosuch)\n"
    ".end\n"
)
NAN_DECK = "v1 d 0 1\nv2 g 0 1\nm1 d g 0 nanfet\n.op\n.end\n"
# A transient on a stalling FET: every accepted step burns a stalled
# eval, so the run cannot finish inside the deadline below.
HANG_DECK = (
    "v1 d 0 1\n"
    "v2 g 0 pulse(0 1 1n 1n 1n 5n 10n)\n"
    "m1 d g 0 hangfet\n"
    "c1 d 0 1p\n"
    ".tran 0.1n 1000n\n.probe none\n.end\n"
)

failures = []
failures_lock = threading.Lock()


def fail(msg):
    with failures_lock:
        failures.append(msg)
    print("FAIL: " + msg, file=sys.stderr)


WORKERS = 4
# Descriptor limit of the fd-limit daemon: stdio, the listener and the
# wake pipe leave it room for about 26 connections.
FD_LIMIT = 32


class Client:
    def __init__(self, port, timeout=20.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv_doc(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        if b"/src/" in line:
            fail("reply names a source file: " + line[:200].decode())
        return json.loads(line)

    def rpc(self, obj):
        try:
            self.send(obj)
        except OSError:
            pass  # shed connections may EPIPE; the rejection doc is readable
        try:
            return self.recv_doc()
        except (OSError, ValueError):
            return None

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def abort(self):
        """Hang up with a reset.  An orderly close() is a FIN, which the
        daemon cannot tell from a half-close until it writes the reply."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        self.close()


def expect_type(doc, want, what):
    if doc is None:
        fail(f"{what}: no document received")
        return
    if want == "ok":
        if not doc.get("ok"):
            fail(f"{what}: expected ok, got {json.dumps(doc)[:200]}")
    else:
        got = (doc.get("error") or {}).get("type")
        if doc.get("ok") or got != want:
            fail(f"{what}: expected error type {want!r}, got "
                 f"{json.dumps(doc)[:200]}")


def first_model_use(port, barrier, outs):
    """Send NAND2_DECK the moment every client thread is ready."""
    c = Client(port)
    try:
        barrier.wait()
        doc = c.rpc({"type": "run", "deck": NAND2_DECK})
        expect_type(doc, "ok", "CNT NAND2 deck")
        if doc and doc.get("ok"):
            outs.append([s["measures"]["out"] for s in doc["steps"]])
    finally:
        c.close()


def client_mix(port, seed, rounds, barrier, outs):
    first_model_use(port, barrier, outs)
    for i in range(rounds):
        kind = (seed + i) % 5
        try:
            c = Client(port)
        except OSError:
            continue  # connect refused under load: acceptable shedding
        try:
            if kind == 0:
                doc = c.rpc({"type": "run", "deck": GOOD_DECK, "id": i})
                expect_type(doc, "ok", "good deck")
                if doc and doc.get("ok"):
                    vout = doc["steps"][0]["measures"]["vout"]
                    if abs(vout - 0.5) > 1e-9:
                        fail(f"good deck: vout {vout} != 0.5")
                    if doc.get("id") != i:
                        fail("good deck: response id not echoed")
                doc = c.rpc({"type": "run", "deck": AC_DECK})
                expect_type(doc, "ok", "ac+noise deck")
                if doc and doc.get("ok"):
                    step = doc["steps"][0]
                    if step["measures"]["missing"] is not None or \
                            "missing" not in step.get("measure_errors", {}):
                        fail("ac+noise deck: missing column measure not "
                             "null: " + json.dumps(step)[:200])
                    if abs(step["measures"]["f3db"] / 159155.0 - 1) > 0.05:
                        fail(f"ac+noise deck: f3db {step['measures']['f3db']}")
            elif kind == 1:
                for deck in PARSE_DECKS:
                    expect_type(c.rpc({"type": "run", "deck": deck}),
                                "parse", "parse-error deck")
            elif kind == 2:
                expect_type(c.rpc({"type": "run", "deck": NAN_DECK}),
                            "solve_failure", "NaN deck")
            elif kind == 3:
                expect_type(c.rpc({"type": "run", "deck": HANG_DECK,
                                   "deadline_ms": 300}),
                            "timeout", "hung deck")
            else:
                # Mid-request disconnect: send a hung solve and walk away.
                c.send({"type": "run", "deck": HANG_DECK,
                        "deadline_ms": 10000})
                time.sleep(0.02)
                c.abort()
        except OSError as e:
            fail(f"kind {kind}: transport error {e}")
        finally:
            c.close()


def prom_value(text, name, labels=""):
    """Value of a single Prometheus sample, e.g.
    prom_value(text, "carbon_requests_total", 'outcome="ok"')."""
    sample = name + ("{" + labels + "}" if labels else "")
    m = re.search(r"^%s (-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)$"
                  % re.escape(sample), text, re.MULTILINE)
    return float(m.group(1)) if m else None


def wait_quiescent(port, budget_s=15.0):
    """Poll health until no work is queued or in flight."""
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        c = Client(port)
        health = c.rpc({"type": "health"})
        c.close()
        if health and health.get("ok"):
            srv = health["server"]
            if srv["in_flight"] == 0 and srv["queue_depth"] == 0:
                return True
        time.sleep(0.1)
    return False


def check_metrics(port):
    """Histogram-count conservation: the request-latency histograms must
    agree exactly with the per-outcome counters, and the queue-wait
    histogram with admission accounting, once the storm has quiesced."""
    if not wait_quiescent(port):
        fail("metrics: server did not quiesce")
        return
    c = Client(port)
    doc = c.rpc({"type": "metrics"})
    c.close()
    if not doc or not doc.get("ok") or doc.get("type") != "metrics":
        fail("metrics request failed: " + json.dumps(doc)[:200])
        return
    text = doc.get("prometheus", "")
    outcomes = ["ok", "parse", "solve_failure", "timeout", "cancelled",
                "internal"]
    finished = 0
    for outcome in outcomes:
        labels = 'outcome="%s"' % outcome
        counter = prom_value(text, "carbon_requests_total", labels)
        hist = prom_value(text, "carbon_request_seconds_count", labels)
        if counter is None or hist is None:
            fail(f"metrics: missing samples for outcome {outcome}")
            continue
        if counter != hist:
            fail(f"metrics: carbon_request_seconds_count{{{labels}}} "
                 f"{hist} != carbon_requests_total {counter}")
        finished += int(counter)
    if finished < 1:
        fail("metrics: no finished requests recorded")
    accepted = prom_value(text, "carbon_accepted_total")
    shed = prom_value(text, "carbon_rejected_total", 'reason="overload"')
    started = prom_value(text, "carbon_requests_started_total")
    qwait = prom_value(text, "carbon_queue_wait_seconds_count")
    if None in (accepted, shed, started, qwait):
        fail("metrics: missing admission samples")
    elif qwait != started:
        fail(f"metrics: queue-wait count {qwait} != started run requests "
             f"{started}")
    builds = prom_value(text, "carbon_model_store_total", 'event="build"')
    if builds != MODEL_KEYS:
        fail(f"metrics: {builds} model-store builds, the run sent "
             f"{MODEL_KEYS} distinct model key(s)")
    # The JSON snapshot must carry the same vocabulary.
    if "carbon_request_seconds" not in (doc.get("metrics") or {}):
        fail("metrics: JSON snapshot missing carbon_request_seconds")
    print("metrics: conserved over %d finished requests "
          "(accepted=%d shed=%d)" % (finished, accepted, shed))


def check_half_close(port):
    """A run sent before shutdown(SHUT_WR) gets exactly one document: the
    daemon answers the lent request, then closes at the client's EOF."""
    c = Client(port)
    try:
        c.send({"type": "run", "deck": HANG_DECK, "deadline_ms": 300})
        c.sock.shutdown(socket.SHUT_WR)
        docs = []
        while True:
            doc = c.recv_doc()
            if doc is None:
                break
            docs.append(doc)
    except (OSError, ValueError) as e:
        fail(f"half-close: {e!r}")
        return
    finally:
        c.close()
    if len(docs) != 1:
        fail(f"half-close: {len(docs)} documents, want 1")
        return
    expect_type(docs[0], "timeout", "half-closed run")
    print("half-close: one document, then EOF")


def check_idle_sockets(port):
    """Idle keep-alive sockets must not hold workers: with workers + 2 of
    them open, a fresh socket is still served."""
    idle = [Client(port) for _ in range(WORKERS + 2)]
    try:
        c = Client(port, timeout=5.0)
        try:
            expect_type(c.rpc({"type": "health"}), "ok",
                        "health beside idle sockets")
            expect_type(c.rpc({"type": "run", "deck": GOOD_DECK}), "ok",
                        "run beside idle sockets")
        finally:
            c.close()
    finally:
        for s in idle:
            s.close()
    print(f"idle sockets: served beside {len(idle)} idle connections")


def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def check_fd_limit(binary):
    """Hold more connections than a low RLIMIT_NOFILE admits: the daemon
    must neither spin on accept() nor stop serving once some close."""
    def lower_limit():  # runs in the child only
        _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (FD_LIMIT, hard))

    proc = subprocess.Popen(
        [binary, "--tcp", "0", "--workers", "2", "--drain-ms", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lower_limit)
    held = []
    try:
        port = json.loads(proc.stdout.readline())["port"]
        held = [Client(port, timeout=5.0) for _ in range(2 * FD_LIMIT)]
        time.sleep(0.2)  # let the daemon take what it can
        cpu0 = cpu_seconds(proc.pid)
        time.sleep(1.0)
        busy = cpu_seconds(proc.pid) - cpu0
        if busy > 0.5:
            fail(f"fd limit: daemon busy {busy:.2f} s of 1 s at the limit")
        for s in held[:3 * FD_LIMIT // 2]:
            s.close()
        c = Client(port, timeout=5.0)
        try:
            expect_type(c.rpc({"type": "health"}), "ok",
                        "health after the fd limit")
        finally:
            c.close()
        print(f"fd limit: {len(held)} connections held at RLIMIT_NOFILE "
              f"{FD_LIMIT}, {busy:.2f} s daemon CPU in 1 s")
    except (OSError, ValueError, KeyError) as e:
        fail(f"fd limit: {e!r}")
    finally:
        for s in held:
            s.close()
        proc.send_signal(signal.SIGTERM)
        try:
            if proc.wait(timeout=10.0) != 0:
                fail(f"fd limit: drain exit code {proc.returncode}")
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("fd limit: daemon did not drain")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary", required=True, help="path to carbon_simd")
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--drain-ms", type=int, default=3000)
    args = ap.parse_args()

    proc = subprocess.Popen(
        [args.binary, "--tcp", "0", "--workers", str(WORKERS), "--queue", "8",
         "--test-models", "--no-tables", "--max-request-bytes", "65536",
         "--drain-ms", str(args.drain_ms)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = json.loads(proc.stdout.readline())
        if not ready.get("ready"):
            sys.exit("carbon_simd did not report ready: " + json.dumps(ready))
        port = ready["port"]
        print(f"ready on port {port}, {ready['workers']} workers")

        # Oversized request: rejected with a structured document, closed.
        c = Client(port)
        doc = c.rpc({"type": "run", "deck": "x" * 100000})
        expect_type(doc, "too_large", "oversized request")
        c.close()

        # Malformed request: structured bad_request, connection survives.
        c = Client(port)
        c.sock.sendall(b"this is not json\n")
        expect_type(c.recv_doc(), "bad_request", "malformed request")
        expect_type(c.rpc({"type": "run", "deck": GOOD_DECK}), "ok",
                    "request after bad_request")
        c.close()

        # Overflowing .step and .dc grids: parse documents, and the daemon
        # still answers on the same connection.
        c = Client(port)
        for deck, what in ((STEP_DECK, ".step grid"), (DC_DECK, ".dc grid")):
            expect_type(c.rpc({"type": "run", "deck": deck}), "parse", what)
            expect_type(c.rpc({"type": "health"}), "ok",
                        "health after " + what)
        c.close()

        # The concurrent fault mix, opened by every client's first use of
        # one model-store key at once.
        barrier = threading.Barrier(args.clients)
        outs = []
        threads = [threading.Thread(target=client_mix,
                                    args=(port, t, args.rounds, barrier,
                                          outs))
                   for t in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if len(outs) != args.clients or any(o != outs[0] for o in outs):
            fail(f"CNT NAND2 deck: measures differ or are missing: {outs}")
        else:
            print(f"first model use: {len(outs)} identical NAND2 tables "
                  f"{outs[0]}")

        # Overload burst: more simultaneous hung solves than workers+queue
        # slots; at least one connection must be shed with an overload doc.
        burst = []
        for _ in range(16):
            try:
                b = Client(port)
                b.send({"type": "run", "deck": HANG_DECK,
                        "deadline_ms": 1500})
                burst.append(b)
            except OSError:
                pass
        outcomes = {"overload": 0, "timeout": 0, "none": 0}
        for b in burst:
            d = b.recv_doc() if b else None
            if d is None:
                outcomes["none"] += 1
            else:
                outcomes[(d.get("error") or {}).get("type", "?")] = \
                    outcomes.get((d.get("error") or {}).get("type", "?"),
                                 0) + 1
            b.close()
        print("overload burst outcomes:", outcomes)
        if outcomes.get("overload", 0) < 1:
            fail("overload burst: no connection was shed")
        if outcomes.get("none", 0):
            fail(f"overload burst: {outcomes['none']} connections got no "
                 "document")

        check_half_close(port)
        check_idle_sockets(port)

        # Health must be coherent after the storm.
        c = Client(port)
        health = c.rpc({"type": "health"})
        c.close()
        if not health or not health.get("ok"):
            fail("health request failed")
        else:
            srv = health["server"]
            print("health:", json.dumps(srv["requests"]))
            if srv["requests"]["timeout"] < 1:
                fail("health: no timeouts recorded despite hung decks")
            if srv["disconnects"] < 1:
                fail("health: no disconnects recorded")
            store = srv.get("model_store") or {}
            if store.get("builds") != MODEL_KEYS or store.get("hits", 0) < 1:
                fail("health: model_store " + json.dumps(store))

        # Metrics exposition: histogram/counter conservation at rest.
        check_metrics(port)

        # Graceful drain: SIGTERM, exit 0 within budget + slack.
        t0 = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        try:
            rc = proc.wait(timeout=args.drain_ms / 1000.0 + 10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            sys.exit("carbon_simd did not drain within budget")
        elapsed = time.monotonic() - t0
        print(f"drained in {elapsed:.2f}s, exit {rc}")
        print(proc.stderr.read().strip(), file=sys.stderr)
        if rc != 0:
            fail(f"drain exit code {rc} != 0")
    finally:
        if proc.poll() is None:
            proc.kill()

    check_fd_limit(args.binary)

    if failures:
        sys.exit(f"{len(failures)} smoke assertion(s) failed")
    print("carbon_simd smoke: all assertions passed")


if __name__ == "__main__":
    main()
