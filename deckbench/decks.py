"""Seeded deck streams for the three workloads.

generate(workload, seed) returns the workload's deck stream: a list of
Deck records in a fixed class order.  The seed draws only element and
model values, so every seed has the same deck classes, sizes and
topologies, and the same seed always gives byte-identical deck text.  Each
deck carries the facts its output checker needs (checks.py), computed
here from the drawn values and never from the program's output.
"""

import math
import random

WORKLOADS = ("cmos_cells", "cnt_cells", "linear_nets")


class Deck:
    __slots__ = ("cls", "text", "meta")

    def __init__(self, cls, text, meta):
        self.cls = cls
        self.text = text
        self.meta = meta


def num(x):
    """Deck number text: 6 significant digits, so decks are byte-stable."""
    return "%.6g" % x


def _vtc_measures():
    return "".join(
        ".measure dc %s vtc v(in) v(out) vdd={vdd} metric=%s\n" % (m, m)
        for m in ("gain", "nml", "nmh", "vswitch"))


def _inverter_subckt(pmodel, nmodel):
    return (".subckt inv in out vdd cl=1f v0=0\n"
            "mp out in vdd %s\n"
            "mn out in 0 %s\n"
            "cload out 0 {cl} ic={v0}\n"
            ".ends\n" % (pmodel, nmodel))


# --------------------------------------------------------------- cmos_cells

def _alpha_card(rng):
    """A mirrored alphan/alphap pair: the p card repeats the n options."""
    opts = "vt=%s alpha=%s k=%s lambda=%s ss=%s" % (
        num(rng.uniform(0.18, 0.24)), num(rng.uniform(1.2, 1.4)),
        num(rng.uniform(150e-6, 250e-6)), num(rng.uniform(0.06, 0.10)),
        num(rng.uniform(75, 90)))
    cards = (".model ndev alphan(%s)\n.model pdev alphap(%s)\n" % (opts, opts))
    values = dict(kv.split("=") for kv in opts.split())
    return cards, {k: float(v) for k, v in values.items()}


# Built-in nfet (make_fig2_saturating_params), used by decks without cards.
_BUILTIN_ALPHA = {"vt": 0.2, "alpha": 1.3, "k": 5e-4}


def _alpha_models(rng, use_card):
    if use_card:
        cards, p = _alpha_card(rng)
        return cards, "pdev", "ndev", p
    return "", "pfet", "nfet", dict(_BUILTIN_ALPHA)


def _alpha_stage_delay(p, vdd, cl):
    """Rough inverter delay [s] of an alpha-power stage, for sizing .tran:
    calibrated on a 3-stage ring (vt 0.2, alpha 1.3, k 60u, 5 fF, 1 V:
    0.5 ns period)."""
    ref = 0.5e-9 / 6.0 * 60e-6 * 0.8 ** 1.3 / 5e-15
    return ref * cl * vdd / (p["k"] * (vdd - p["vt"]) ** p["alpha"])


def _cmos_vtc(rng, i, use_card):
    cards, pm, nm, _ = _alpha_models(rng, use_card)
    supplies = [s * rng.uniform(0.97, 1.03) for s in (0.7, 0.85, 1.0)]
    text = (".title cmos vtc %d\n" % i +
            ".param vdd=%s\n" % num(supplies[0]) + cards +
            "vdd vdd 0 {vdd}\n"
            "vin in 0 0\n"
            "mp out in vdd %s\n"
            "mn out in 0 %s\n"
            ".dc vin 0 {vdd} {vdd/40}\n" % (pm, nm) +
            ".step param vdd list %s\n" % " ".join(num(s) for s in supplies) +
            ".probe v(out)\n" + _vtc_measures() + ".end\n")
    return Deck("vtc", text, {"supplies": [float(num(s)) for s in supplies],
                              "points": 40, "mirrored": True})


def _ring_text(title, cards, pm, nm, stages, vdd, cl, period):
    tstop = 8.0 * period
    lines = [".title %s\n" % title,
             ".param vdd=%s cl=%s\n" % (num(vdd), num(cl)), cards,
             _inverter_subckt(pm, nm), "vdd vdd 0 {vdd}\n"]
    for k in range(1, stages + 1):
        nxt = k % stages + 1
        ic = " v0={vdd}" if k == 1 else ""
        lines.append("x%d n%d n%d vdd inv cl={cl}%s\n" % (k, k, nxt, ic))
    lines.append(".tran %s %s ic=init\n" % (num(tstop / 400), num(tstop)))
    lines.append(".probe none\n")
    lines.append(".measure tran period period v(n1) vdd={vdd} skip=2\n")
    lines.append(".measure tran swing pp v(n1) from=%s\n" % num(tstop / 2))
    lines.append(".end\n")
    return "".join(lines)


def _cmos_rings(rng, group, stage_counts):
    cards, pm, nm, p = _alpha_models(rng, use_card=group % 2 == 1)
    vdd = rng.uniform(0.8, 1.0)
    cl = rng.uniform(4e-15, 6e-15)
    vdd, cl = float(num(vdd)), float(num(cl))
    out = []
    for n in stage_counts:
        period = 2 * n * _alpha_stage_delay(p, vdd, cl)
        text = _ring_text("cmos ring%d %d" % (n, group), cards, pm, nm, n,
                          vdd, cl, period)
        out.append(Deck("ring", text, {"stages": n, "vdd": vdd,
                                       "group": "cmos%d" % group}))
    return out


def _cmos_sram(rng, i):
    cards, pm, nm, _ = _alpha_models(rng, use_card=i % 2 == 0)
    vdd = float(num(rng.uniform(0.8, 1.0)))
    write_one = i % 2 == 0
    text = (".title cmos sram write %d\n" % i +
            ".param vdd=%s cacc=%s\n" % (num(vdd),
                                         num(rng.uniform(1.5e-15, 2.5e-15))) +
            cards +
            ".subckt cell in out vdd v0=0\n"
            "mp out in vdd %s\n"
            "mn out in 0 %s\n"
            "cout out 0 {cacc} ic={v0}\n"
            ".ends\n" % (pm, nm) +
            "vdd vdd 0 {vdd}\n"
            "vbl bl 0 %s\n" % ("{vdd}" if write_one else "0") +
            "vblb blb 0 %s\n" % ("0" if write_one else "{vdd}") +
            "vwl wl 0 PULSE(0 {vdd} 0.5n 20p 20p 1n 4n)\n"
            # x1 drives qb and x2 drives q: a write of 1 starts from q = 0.
            "x1 q qb vdd cell v0=%s\n" % ("{vdd}" if write_one else "0") +
            "x2 qb q vdd cell v0=%s\n" % ("0" if write_one else "{vdd}") +
            "maxl q wl bl %s\n"
            "maxr qb wl blb %s\n"
            ".tran 10p 2.5n ic=init\n"
            ".probe v(q) v(qb)\n"
            ".measure tran q0 find v(q) at=0.4n\n"
            ".measure tran qb0 find v(qb) at=0.4n\n"
            ".measure tran q1 find v(q) at=2.4n\n"
            ".measure tran qb1 find v(qb) at=2.4n\n"
            ".end\n" % (nm, nm))
    return Deck("sram", text, {"vdd": vdd, "write_one": write_one})


def _cmos_chain(rng, i, stages):
    cards, pm, nm, p = _alpha_models(rng, use_card=i % 2 == 1)
    vdd = float(num(rng.uniform(0.8, 1.0)))
    cl = float(num(rng.uniform(4e-15, 6e-15)))
    t_edge = 0.1e-9
    tstop = t_edge + 4.0 * stages * _alpha_stage_delay(p, vdd, cl)
    lines = [".title cmos chain%d %d\n" % (stages, i),
             ".param vdd=%s cl=%s\n" % (num(vdd), num(cl)), cards,
             _inverter_subckt(pm, nm), "vdd vdd 0 {vdd}\n",
             "vin n0 0 PULSE(0 {vdd} %s 20p 20p 1 2)\n" % num(t_edge)]
    for k in range(1, stages + 1):
        lines.append("x%d n%d n%d vdd inv cl={cl}\n" % (k, k - 1, k))
    out = "n%d" % stages
    # Odd stage counts: the delay measure wants an inverting path.
    lines += [".tran %s %s\n" % (num(tstop / 200), num(tstop)),
              ".probe v(n0) v(%s)\n" % out,
              ".measure tran delay delay v(n0) v(%s) vdd={vdd} rise\n" % out,
              ".end\n"]
    return Deck("chain", "".join(lines), {"vdd": vdd, "stages": stages,
                                          "out": out})


# Ring groups: stage counts simulated at one parameter set each.
CMOS_RING_GROUPS = ((3, 5, 7, 9), (3, 5, 7), (3, 5, 7), (3, 7), (3,))


def cmos_cells(rng):
    """25 decks: 4 supply-stepped VTCs, 4 SRAM writes, 4 inverter chains
    (5 and 9 stages) and 13 rings in five parameter groups (5 of 3 stages,
    3 of 5, 4 of 7, 1 of 9), interleaved.  Sorted by cost the 3-stage rings
    hold ranks 11-15 and the 7-stage rings 21-24 of 25, so the 50th and
    90th latency percentiles fall inside one class, not on a boundary."""
    vtc = [_cmos_vtc(rng, i, use_card=i % 2 == 1) for i in range(4)]
    sram = [_cmos_sram(rng, i) for i in range(4)]
    chain = [_cmos_chain(rng, i, 5 if i < 2 else 9) for i in range(4)]
    rings = []
    for g, counts in enumerate(CMOS_RING_GROUPS):
        rings += _cmos_rings(rng, g, counts)
    cells = vtc + sram + chain
    out = []
    while cells or rings:
        out += cells[:1] + rings[:1]
        cells, rings = cells[1:], rings[1:]
    return out


# ---------------------------------------------------------------- cnt_cells

def _cnt_tech(rng, vdd_lo, vdd_hi):
    return {"l": float(num(rng.uniform(10e-9, 30e-9))),
            "vdd": float(num(rng.uniform(vdd_lo, vdd_hi)))}


def _cnt_cards(tech):
    l = num(tech["l"])
    return ".model ncnt cnfet(l=%s)\n.model pcnt cpfet(l=%s)\n" % (l, l)


def _cnt_ring_period(vdd, stages, cl):
    """Rough ring period [s] for sizing .tran: 3-stage, 1 fF periods at
    0.5/0.55/0.6 V interpolated in log space, scaled by stages and cl."""
    pts = ((0.5, 0.32e-9), (0.55, 0.235e-9), (0.6, 0.185e-9))
    (v0, p0), (v1, p1) = pts[:2] if vdd <= pts[1][0] else pts[1:]
    w = (vdd - v0) / (v1 - v0)
    base = math.exp((1 - w) * math.log(p0) + w * math.log(p1))
    return base * stages / 3.0 * cl / 1e-15


def _cnt_vtc(tech, i):
    text = (".title cnt vtc %d\n" % i +
            ".param vdd=%s\n" % num(tech["vdd"]) + _cnt_cards(tech) +
            "vdd vdd 0 {vdd}\n"
            "vin in 0 0\n"
            "mp out in vdd pcnt\n"
            "mn out in 0 ncnt\n"
            ".dc vin 0 {vdd} {vdd/20}\n"
            ".probe v(out)\n" + _vtc_measures() + ".end\n")
    return Deck("vtc", text, {"supplies": [tech["vdd"]], "points": 20,
                              "mirrored": True})


def _cnt_gate(tech, kind, i):
    """NAND2/NOR2 truth table: a 2x2 .step grid over the input levels."""
    if kind == "nand2":
        pull = ("mpa out a vdd pcnt\nmpb out b vdd pcnt\n"
                "mna out a mid ncnt\nmnb mid b 0 ncnt\n")
    else:
        pull = ("mpa mid a vdd pcnt\nmpb out b mid pcnt\n"
                "mna out a 0 ncnt\nmnb out b 0 ncnt\n")
    text = (".title cnt %s %d\n" % (kind, i) +
            ".param vdd=%s a=0 b=0\n" % num(tech["vdd"]) + _cnt_cards(tech) +
            "vdd vdd 0 {vdd}\n"
            "va a 0 {a*vdd}\n"
            "vb b 0 {b*vdd}\n" + pull +
            ".op\n"
            ".step param a list 0 1\n"
            ".step param b list 0 1\n"
            ".probe v(out)\n"
            ".measure op out value v(out)\n"
            ".end\n")
    return Deck(kind, text, {"vdd": tech["vdd"], "kind": kind})


def _cnt_ring(tech, stages, cl, group):
    period = _cnt_ring_period(tech["vdd"], stages, cl)
    text = _ring_text("cnt ring%d %d" % (stages, group), _cnt_cards(tech),
                      "pcnt", "ncnt", stages, tech["vdd"], cl, period)
    return Deck("ring", text, {"stages": stages, "vdd": tech["vdd"],
                               "group": "cnt%d" % group})


def cnt_cells(rng):
    """15 decks on two technology points (gate length, supply), whose cells
    share their .model cards: 5 VTCs and 8 NAND2/NOR2 truth tables, plus a
    3- and a 5-stage ring at a third point.  Sorted by cost the gates hold
    ranks 6-13 and the 3-stage ring rank 14 of 15, so the 50th and 90th
    latency percentiles fall inside one class, not on a boundary."""
    a = _cnt_tech(rng, 0.3, 0.45)
    b = _cnt_tech(rng, 0.45, 0.6)
    ring_tech = _cnt_tech(rng, 0.5, 0.6)
    cl = float(num(rng.uniform(0.8e-15, 1.2e-15)))
    vtc = [_cnt_vtc((a, b)[i % 2], i) for i in range(5)]
    gates = [_cnt_gate((a, b)[(i + i // 4) % 2], ("nand2", "nor2")[i // 4], i)
             for i in range(8)]
    rings = [_cnt_ring(ring_tech, 3, cl, 0), _cnt_ring(ring_tech, 5, cl, 0)]
    return [vtc[0], gates[0], gates[4], rings[0], vtc[1], gates[1], gates[5],
            vtc[2], gates[2], gates[6], rings[1], vtc[3], gates[3], gates[7],
            vtc[4]]


# -------------------------------------------------------------- linear_nets

TEMP_K = 300.0  # .options temp of every linear deck

# Ladder sections and mesh sides: every size is its own topology, 25 in
# all, more than the session cache's 16 entries.
LADDER_SECTIONS = (6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 64, 80, 96, 128)
MESH_SIDES = (4, 6, 8, 10, 12, 16, 20, 24, 32, 44)


def _ladder_tau_bound(sections, r_max, c_max):
    """Slowest time constant of a uniform ladder (series R into the first
    node, shunt C at every node, open far end) at the largest R and C: an
    upper bound for any ladder, or edge-driven mesh, drawn below them."""
    lam = 4.0 * math.sin(math.pi / (2.0 * (2 * sections + 1))) ** 2
    return r_max * c_max / lam


def _linear_analyses(out, v_src, tau_slow, tau_fast):
    f_lo = 1e-2 / (2 * math.pi * tau_slow)
    f_hi = 300.0 / (2 * math.pi * tau_fast)
    tstop = 7.0 * tau_slow
    return (".options temp=%s\n" % num(TEMP_K) +
            ".ac dec 10 %s %s\n" % (num(f_lo), num(f_hi)) +
            ".noise v(%s) vin dec 10 %s %s\n" % (out, num(f_lo), num(f_hi)) +
            ".tran %s %s print=%s\n" % (num(tau_fast / 5), num(tstop),
                                        num(tstop / 100)),
            {"v_src": v_src, "temp": TEMP_K})


def _ladder(rng, sections):
    r = [float(num(rng.uniform(800.0, 1200.0))) for _ in range(sections)]
    c = [float(num(rng.uniform(0.8e-12, 1.2e-12))) for _ in range(sections)]
    v_src = float(num(rng.uniform(0.5, 1.5)))
    tau_slow = _ladder_tau_bound(sections, 1200.0, 1.2e-12)
    tau_fast = 800.0 * 0.8e-12 / 2.0
    rise = tau_fast
    lines = [".title rc ladder %d\n" % sections,
             "vin n0 0 PULSE(0 %s 0 %s %s 1 2) ac 1\n"
             % (num(v_src), num(rise), num(rise))]
    for k in range(1, sections + 1):
        lines.append("r%d n%d n%d %s\n" % (k, k - 1, k, num(r[k - 1])))
        lines.append("c%d n%d 0 %s\n" % (k, k, num(c[k - 1])))
    out = "n%d" % sections
    analyses, meta = _linear_analyses(out, v_src, tau_slow, tau_fast)
    lines.append(analyses)
    lines.append(".end\n")
    meta.update({"kind": "ladder", "r": r, "c": c, "out": out,
                 "c_out": c[-1], "nodes": ["n%d" % k
                                           for k in range(1, sections + 1)]})
    return Deck("ladder", "".join(lines), meta)


def _mesh(rng, side):
    """side x side grid of grounded capacitors joined by resistors, driven
    along its left column through one resistor per row."""
    v_src = float(num(rng.uniform(0.5, 1.5)))
    rise = 800.0 * 0.8e-12 / 2.0
    lines = [".title rc mesh %dx%d\n" % (side, side),
             "vin src 0 PULSE(0 %s 0 %s %s 1 2) ac 1\n"
             % (num(v_src), num(rise), num(rise))]
    caps = {}
    for y in range(side):
        for x in range(side):
            node = "m%d_%d" % (y, x)
            left = "src" if x == 0 else "m%d_%d" % (y, x - 1)
            lines.append("rh%d_%d %s %s %s\n" % (
                y, x, left, node, num(rng.uniform(800.0, 1200.0))))
            if y > 0:
                lines.append("rv%d_%d m%d_%d %s %s\n" % (
                    y, x, y - 1, x, node, num(rng.uniform(800.0, 1200.0))))
            cap = float(num(rng.uniform(0.8e-12, 1.2e-12)))
            caps[node] = cap
            lines.append("c%d_%d %s 0 %s\n" % (y, x, node, num(cap)))
    # Every mesh node is at least as fast as its edge-driven row ladder: the
    # row's bound holds for the mesh (more conductance, same capacitance).
    tau_slow = _ladder_tau_bound(side, 1200.0, 1.2e-12)
    tau_fast = 800.0 * 0.8e-12 / 5.0
    out = "m%d_%d" % (side - 1, side - 1)
    probes = sorted({"m%d_%d" % (k, k) for k in range(side)} |
                    {"m0_%d" % (side - 1), "m%d_0" % (side - 1)})
    analyses, meta = _linear_analyses(out, v_src, tau_slow, tau_fast)
    lines.append(".probe %s\n" % " ".join("v(%s)" % p for p in probes))
    lines.append(analyses)
    lines.append(".end\n")
    meta.update({"kind": "mesh", "out": out, "c_out": caps[out],
                 "nodes": probes})
    return Deck("mesh", "".join(lines), meta)


def linear_nets(rng):
    """25 decks, each its own topology: 15 RC ladders (6-128 sections) and
    10 RC meshes (4x4 to 44x44), small and large interleaved.  Sorted by
    cost the 24x24 mesh holds rank 23 of 25, the 90th latency percentile;
    the 50th falls among mid-size ladders of near-equal cost."""
    ladders = [_ladder(rng, n) for n in LADDER_SECTIONS]
    meshes = [_mesh(rng, s) for s in MESH_SIDES]
    out = []
    for k in range(len(ladders)):
        out.append(ladders[k])
        if k < len(meshes):
            out.append(meshes[k])
    return out


def generate(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    return globals()[workload](rng)
