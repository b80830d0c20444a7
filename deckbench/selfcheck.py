"""The benchmark's own self-check, run after every measurement.

The same seed must give byte-identical decks, and every output checker
must reject a deliberately perturbed copy of a document it passed: one
perturbation per checked property.  A failure here is a fault of the
benchmark, not of the program.
"""

import json

import checks
import decks


class SelfCheckError(Exception):
    pass


def _analysis(doc, kind):
    return checks.analysis(doc["steps"][0], kind)


def _scale_column(table, column, row, factor):
    table["rows"][row][table["columns"].index(column)] *= factor


def _set_last(table, column, value):
    table["rows"][-1][table["columns"].index(column)] = value


def _dip(table, column):
    """Make one sample fall 1% of its value below the one before it."""
    col = table["columns"].index(column)
    rows = table["rows"]
    mid = len(rows) // 2
    rows[mid][col] = rows[mid - 1][col] * 0.99


def _swap(table, column):
    """Swap two samples mid-sweep, where a VTC changes fastest."""
    col = table["columns"].index(column)
    rows = table["rows"]
    mid = len(rows) // 2
    rows[mid][col], rows[mid + 1][col] = rows[mid + 1][col], rows[mid][col]


def _measures(doc, step=0):
    return doc["steps"][step]["measures"]


def perturbations(deck):
    """Edits, each of which breaks one property the deck's checker is for."""
    meta = deck.meta
    if deck.cls == "vtc":
        return [lambda d: _swap(_analysis(d, "dc")["table"], "v(out)")]
    if deck.cls == "ring":
        return [lambda d: _measures(d).update(swing=0.1 * meta["vdd"])]
    if deck.cls == "sram":
        return [lambda d: _measures(d).update(q1=_measures(d)["q0"],
                                              qb1=_measures(d)["qb0"])]
    if deck.cls == "chain":
        return [lambda d: _measures(d).update(delay=-_measures(d)["delay"]),
                lambda d: _set_last(_analysis(d, "tran")["table"],
                                    "v(%s)" % meta["out"], meta["vdd"])]
    if deck.cls in ("nand2", "nor2"):
        return [lambda d: _measures(d, -1).update(
            out=meta["vdd"] - _measures(d, -1)["out"])]
    node = meta["nodes"][0]
    return [lambda d: _scale_column(_analysis(d, "ac")["table"],
                                    "mag(%s)" % node, 0, 1.01),
            lambda d: _analysis(d, "noise").update(
                onoise_total_v2=1.1 * _analysis(d, "noise")
                ["onoise_total_v2"]),
            lambda d: _dip(_analysis(d, "tran")["table"], "v(%s)" % node)]


def _copy(doc):
    return json.loads(json.dumps(doc))


def self_check(workload, seed, stream, docs):
    again = decks.generate(workload, seed)
    if [d.text for d in again] != [d.text for d in stream]:
        raise SelfCheckError("deck generation is not deterministic")

    tried = set()
    for deck, doc in zip(stream, docs):
        if deck.cls in tried or checks.check_deck(deck, doc):
            continue
        tried.add(deck.cls)
        for edit in perturbations(deck):
            bad = _copy(doc)
            edit(bad)
            if checks.check_deck(deck, bad) is None:
                raise SelfCheckError("the %s checker passed a perturbed "
                                     "document" % deck.cls)
        # Agreement: a 1% shift of every measure or of one table sample.
        bad = _copy(doc)
        step = bad["steps"][0]
        for k in step.get("measures") or {}:
            step["measures"][k] *= 1.01
        for a in step["analyses"]:
            if "table" in a:
                a["table"]["rows"][-1][-1] *= 1.01
                break
        if checks.agree(doc, bad) is None:
            raise SelfCheckError("agreement passed a perturbed %s document"
                                 % deck.cls)

    groups = {}
    for deck, doc in zip(stream, docs):
        if deck.cls == "ring":
            groups.setdefault(deck.meta["group"], []).append((deck, doc))
    for members in groups.values():
        group_decks, group_docs = zip(*members)
        if len(members) < 2 or checks.check_ring_group(group_decks,
                                                        group_docs):
            continue
        bad = [_copy(doc) for doc in group_docs]
        _measures(bad[0])["period"] *= 1.2
        if checks.check_ring_group(group_decks, bad) is None:
            raise SelfCheckError("the ring group checker passed a perturbed "
                                 "document")
