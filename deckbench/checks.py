"""Output checks against independent computations and properties the
method must have, never against stored copies of earlier output.

check_docs(decks, docs) returns one (name, problem) pair per check that
ran: problem is None when the check passed.  Per deck there is one check
of its own document; each ring group adds one cross-deck check.
agree(doc_a, doc_b) compares the service and batch documents of one deck.
"""

import math

K_BOLTZMANN = 1.380649e-23

# Tolerances, each with its reason.
RAIL_FRACTION = 0.1      # a logic level is within 10% of vdd of its rail
MONOTONE_SLACK = 1e-6    # allowed reversal, as a fraction of vdd / the source
RING_PERIOD_RTOL = 0.05  # period per stage across stage counts
RING_MIN_SWING = 0.5     # steady oscillation swings at least half of vdd
AC_RTOL = 1e-6           # direct solve against the ladder recursion
NOISE_RTOL = 0.03        # 10 points/decade trapezoid over a Lorentzian tail
                         # overestimates by about 1%; the band edges lose
                         # well under 0.5%
SETTLE_RTOL = 0.005      # .tran runs 7 slowest time constants: e^-7 < 0.1%
AGREE_RTOL = 1e-3        # transient LTE reltol: a retuned cached circuit may
AGREE_ATOL = 1e-9        # step differently from a fresh one


def _steps(doc):
    return doc.get("steps") or []


def analysis(step, kind):
    for a in step.get("analyses", []):
        if a.get("type") == kind:
            return a
    raise KeyError("no %s analysis" % kind)


def _column(table, name):
    idx = table["columns"].index(name)
    return [row[idx] for row in table["rows"]]


def _measure(step, name):
    value = (step.get("measures") or {}).get(name)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError("measure %s is %r" % (name, value))
    return value


def _require(cond, what):
    if not cond:
        raise ValueError(what)


def _monotone(values, slack, rising):
    sign = 1.0 if rising else -1.0
    return all(sign * (b - a) >= -slack for a, b in zip(values, values[1:]))


# ------------------------------------------------------------ cell checks

def _check_vtc(deck, doc):
    steps = _steps(doc)
    _require(len(steps) == len(deck.meta["supplies"]), "step count")
    for vdd, step in zip(deck.meta["supplies"], steps):
        table = analysis(step, "dc")["table"]
        vout = _column(table, "v(out)")
        _require(len(vout) == deck.meta["points"] + 1, "sweep points")
        _require(_monotone(vout, MONOTONE_SLACK * vdd, rising=False),
                 "VTC not monotone at vdd=%g" % vdd)
        _require(vout[0] >= (1 - RAIL_FRACTION) * vdd and
                 vout[-1] <= RAIL_FRACTION * vdd,
                 "VTC misses a rail at vdd=%g" % vdd)
        _require(_measure(step, "gain") > 1.0, "gain <= 1")
        _require(_measure(step, "nml") > 0 and _measure(step, "nmh") > 0,
                 "noise margin <= 0")
        if deck.meta["mirrored"]:
            # Mirrored n/p devices: the switching point is vdd/2, to within
            # one sweep step.
            _require(abs(_measure(step, "vswitch") - vdd / 2) <=
                     vdd / deck.meta["points"],
                     "vswitch off vdd/2 at vdd=%g" % vdd)


def _check_ring(deck, doc):
    step = _steps(doc)[0]
    vdd = deck.meta["vdd"]
    _require(_measure(step, "period") > 0, "period <= 0")
    _require(_measure(step, "swing") >= RING_MIN_SWING * vdd,
             "oscillation died out")


def _check_sram(deck, doc):
    step = _steps(doc)[0]
    hi, lo = (1 - RAIL_FRACTION) * deck.meta["vdd"], \
        RAIL_FRACTION * deck.meta["vdd"]
    q0, qb0 = _measure(step, "q0"), _measure(step, "qb0")
    q1, qb1 = _measure(step, "q1"), _measure(step, "qb1")
    if deck.meta["write_one"]:
        ok = q0 <= lo and qb0 >= hi and q1 >= hi and qb1 <= lo
    else:
        ok = q0 >= hi and qb0 <= lo and q1 <= lo and qb1 >= hi
    _require(ok, "write did not flip q/qb")


def _check_chain(deck, doc):
    step = _steps(doc)[0]
    vdd = deck.meta["vdd"]
    out = _column(analysis(step, "tran")["table"],
                  "v(%s)" % deck.meta["out"])
    _require(_measure(step, "delay") > 0, "delay <= 0")
    # Odd chain: output high before the input edge, low after it.
    _require(out[0] >= (1 - RAIL_FRACTION) * vdd and
             out[-1] <= RAIL_FRACTION * vdd, "chain output levels")


def _check_gate(deck, doc):
    vdd = deck.meta["vdd"]
    steps = _steps(doc)
    _require(len(steps) == 4, "truth table rows")
    # The first .step card (a) varies slowest.
    for step, (a, b) in zip(steps, ((0, 0), (0, 1), (1, 0), (1, 1))):
        params = step.get("params", {})
        _require(params.get("a") == a and params.get("b") == b,
                 "step order")
        high = not (a and b) if deck.meta["kind"] == "nand2" \
            else not (a or b)
        out = _measure(step, "out")
        _require(out >= (1 - RAIL_FRACTION) * vdd if high
                 else out <= RAIL_FRACTION * vdd,
                 "%s(%d,%d) = %g" % (deck.meta["kind"], a, b, out))


# ----------------------------------------------------------- linear checks

def ladder_response(r, c, freq):
    """Node voltages of an RC ladder (series r[k] into node k+1, shunt c[k]
    at node k+1, open far end) driven by 1 V at angular frequency 2 pi f."""
    w = 2 * math.pi * freq
    n = len(r)
    z = [0j] * n  # impedance from node k+1 to ground, looking downstream
    z[n - 1] = 1 / (1j * w * c[n - 1])
    for k in range(n - 2, -1, -1):
        z[k] = 1 / (1j * w * c[k] + 1 / (r[k + 1] + z[k + 1]))
    v, out = 1 + 0j, []
    for k in range(n):
        v = v * z[k] / (r[k] + z[k])
        out.append(v)
    return out


def _check_linear(deck, doc):
    meta = deck.meta
    step = _steps(doc)[0]
    ac = analysis(step, "ac")["table"]
    freqs = _column(ac, "freq_hz")
    mags = {node: _column(ac, "mag(%s)" % node) for node in meta["nodes"]}
    if meta["kind"] == "ladder":
        for i, f in enumerate(freqs):
            ref = ladder_response(meta["r"], meta["c"], f)
            for k, node in enumerate(meta["nodes"]):
                _require(abs(mags[node][i] - abs(ref[k])) <=
                         AC_RTOL * abs(ref[k]) + 1e-15,
                         "AC |v(%s)| at %g Hz" % (node, f))
    else:
        # No resistive path to ground: unit gain below the slowest pole.
        for node in meta["nodes"]:
            _require(abs(mags[node][0] - 1) <= 1e-3, "AC DC gain")

    # Equipartition: a grounded capacitor C in thermal equilibrium with the
    # network's resistors holds <v^2> = kT/C, whatever the network.
    noise = analysis(step, "noise")["onoise_total_v2"]
    ktc = K_BOLTZMANN * meta["temp"] / meta["c_out"]
    _require(abs(noise / ktc - 1) <= NOISE_RTOL,
             "output noise %.4g V^2 against kT/C %.4g" % (noise, ktc))

    # Grounded-capacitor RC networks are positive systems: a rising input
    # gives a monotone rise at every node, settling at the source value.
    tran = analysis(step, "tran")["table"]
    v_src = meta["v_src"]
    for node in meta["nodes"]:
        v = _column(tran, "v(%s)" % node)
        _require(_monotone(v, MONOTONE_SLACK * v_src, rising=True),
                 "step response of %s not monotone" % node)
        _require(abs(v[-1] - v_src) <= SETTLE_RTOL * v_src,
                 "%s settles at %g, not %g" % (node, v[-1], v_src))


_CHECKS = {"vtc": _check_vtc, "ring": _check_ring, "sram": _check_sram,
           "chain": _check_chain, "nand2": _check_gate, "nor2": _check_gate,
           "ladder": _check_linear, "mesh": _check_linear}


def check_deck(deck, doc):
    """Problem text of one deck's document, or None when it passes."""
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return "not ok: %r" % (doc.get("error") if isinstance(doc, dict)
                               else doc)
    try:
        _CHECKS[deck.cls](deck, doc)
    except (KeyError, ValueError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def check_ring_group(decks, docs):
    """Ring period divided by stage count agrees across the stage counts
    of one parameter group."""
    try:
        per_stage = [_measure(_steps(doc)[0], "period") / d.meta["stages"]
                     for d, doc in zip(decks, docs)]
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    if max(per_stage) > (1 + RING_PERIOD_RTOL) * min(per_stage):
        return "period per stage spread: %s" % per_stage
    return None


def check_docs(decks, docs):
    results = []
    for i, (deck, doc) in enumerate(zip(decks, docs)):
        results.append(("deck %d (%s)" % (i, deck.cls), check_deck(deck, doc)))
    groups = {}
    for deck, doc in zip(decks, docs):
        if deck.cls == "ring":
            groups.setdefault(deck.meta["group"], []).append((deck, doc))
    for name, members in sorted(groups.items()):
        if len(members) > 1:
            results.append(("ring group %s" % name,
                            check_ring_group(*zip(*members))))
    return results


# ------------------------------------------------------------- agreement

# Bookkeeping that legitimately differs between a server worker's session
# and a batch process: cache counters, cache-hit flags, phase times, the
# echoed request id, and solver counters of a differently warmed session.
_VOLATILE = {"session", "cache_hit", "id", "stats"}


def agree(a, b, path="doc"):
    """None when two documents agree within solver tolerance, else the
    first difference found."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = (set(a) | set(b)) - _VOLATILE
        for k in sorted(keys):
            if k not in a or k not in b:
                return "%s.%s missing on one side" % (path, k)
            diff = agree(a[k], b[k], "%s.%s" % (path, k))
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return "%s: length %d vs %d" % (path, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            diff = agree(x, y, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        if abs(a - b) <= AGREE_RTOL * max(abs(a), abs(b)) + AGREE_ATOL:
            return None
        return "%s: %r vs %r" % (path, a, b)
    return None if a == b else "%s: %r vs %r" % (path, a, b)
