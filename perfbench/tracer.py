"""Spans around the public calls of each sl2swc layer, recorded from outside
the package: `install()` swaps the named functions and methods for timing
wrappers in every loaded `sl2swc` module, the spans stay in memory, and
`dump()` writes them out when the traced process ends.  `layer_metrics()`
turns the spans of a traced pass into the per-layer metrics.

A span is [id, name, parent id, start ns, end ns, op index, note]; the note
carries a call's outcome where a metric needs it (cache hit or miss, oracle
mismatch).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute) for functions, (module, class, method) for methods.
# Span names are "<module>.<attribute>" or "<module>.<class>.<method>".
TRACED = [
    ("algebra", "field_make"),
    ("algebra", "FieldTable", "__init__"),
    ("groups", "build_sl2"),
    ("groups", "build_gl2"),
    ("groups", "conjugacy"),
    ("groups", "find_quaternion"),
    ("groups", "standard_subgroup"),
    ("characters", "char_table"),
    ("characters", "VirtualRep", "character"),
    ("cohomology", "Ring", "__init__"),
    ("cohomology", "poly_ring"),
    ("cohomology", "center_ring"),
    ("cohomology", "quaternion8_ring"),
    ("cohomology", "genq_ring"),
    ("cohomology", "sl2_odd_ring"),
    ("cohomology", "dickson_ring"),
    ("cohomology", "unipotent_ring"),
    ("cohomology", "dickson"),
    ("cohomology", "RestrictionMap", "__init__"),
    ("cohomology", "RestrictionMap", "__call__"),
    ("cohomology", "restrict_q8_to_center"),
    ("cohomology", "restrict_genq_to_q8"),
    ("cohomology", "restrict_sl2odd_to_center"),
    ("cohomology", "dickson_expansion"),
    ("cohomology", "steenrod_sq"),
    ("cohomology", "steenrod_total"),
    ("swc", "swc_report"),
    ("swc", "total_swc"),
    ("swc", "total_swc_expanded"),
    ("swc", "obstruction"),
    ("swc", "top_class_nonzero"),
    ("oracle", "swc_from_center"),
    ("oracle", "swc_from_quaternion"),
    ("oracle", "swc_from_unipotent"),
    ("oracle", "verify_swc_formula"),
    ("oracle", "wu_formula_holds"),
    ("oracle", "run_suite"),
    ("cli", "parse_rep"),
    ("cli", "load_cached_table"),
    ("cli", "table_from_payload"),
    ("cli", "serialize_table"),
    ("cli", "store_table"),
]

# Timed metrics: span names whose outermost occurrences are summed, and span
# names whose time inside them is subtracted (a layer's own share).
TIMED = {
    "cli.cache_load_s": ({"cli.load_cached_table"}, set()),
    "cli.serialize_s": ({"cli.serialize_table"}, set()),
    "cli.store_s": ({"cli.store_table"}, set()),
    "algebra.field_table_s": ({"algebra.field_make", "algebra.FieldTable.__init__"}, set()),
    "groups.build_s": ({"groups.build_sl2", "groups.build_gl2"}, set()),
    "groups.conjugacy_s": ({"groups.conjugacy"}, set()),
    "groups.find_quaternion_s": ({"groups.find_quaternion"}, set()),
    # conjugacy is timed on its own, so the table is timed as if it were cached
    "characters.char_table_s": ({"characters.char_table"}, {"groups.conjugacy"}),
    "characters.virtual_character_s": ({"characters.VirtualRep.character"}, set()),
    "swc.report_s": ({"swc.swc_report"}, set()),
    "swc.total_s": ({"swc.total_swc"}, set()),
    "swc.expanded_s": ({"swc.total_swc_expanded"}, set()),
    "cohomology.ring_build_s": ({
        "cohomology.Ring.__init__", "cohomology.poly_ring", "cohomology.center_ring",
        "cohomology.quaternion8_ring", "cohomology.genq_ring", "cohomology.sl2_odd_ring",
        "cohomology.dickson_ring", "cohomology.unipotent_ring", "cohomology.dickson",
    }, set()),
    "cohomology.restriction_s": ({
        "cohomology.RestrictionMap.__init__", "cohomology.RestrictionMap.__call__",
        "cohomology.restrict_q8_to_center", "cohomology.restrict_genq_to_q8",
        "cohomology.restrict_sl2odd_to_center", "cohomology.dickson_expansion",
    }, set()),
    "cohomology.steenrod_s": ({"cohomology.steenrod_sq", "cohomology.steenrod_total"}, set()),
    "oracle.center_s": ({"oracle.swc_from_center"}, set()),
    "oracle.quaternion_s": ({"oracle.swc_from_quaternion"}, set()),
    "oracle.unipotent_s": ({"oracle.swc_from_unipotent"}, set()),
}

ORACLE_CASES = {"oracle.verify_swc_formula", "oracle.wu_formula_holds"}


class Recorder:
    """In-memory span stack and counters for one traced process."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        spans, stack, op = self.spans, self.stack, self.op
        note_of = _NOTES.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(self, *args) if before else None
            sid = len(spans)
            span = [sid, name, stack[-1] if stack else None, 0, 0, op, None]
            spans.append(span)
            stack.append(sid)
            span[3] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span[4] = time.perf_counter_ns()
                span[6] = type(e).__name__
                raise
            else:
                span[4] = time.perf_counter_ns()
                if note_of:
                    span[6] = note_of(self, out, pre, *args)
                return out
            finally:
                stack.pop()

        return traced


def _conjugacy_before(rec, G):
    return G._conj is None


def _conjugacy_note(rec, conj, computed, G):
    if computed:
        rec.count("groups.power_products", (len(G) + conj.nclasses()) * conj.exponent)
    return None


def _char_table_before(rec, G):
    return G._char_table is None


def _char_table_note(rec, table, computed, G):
    if computed:
        from sl2swc.algebra import euler_phi
        rec.count("characters.cyclo_phi", euler_phi(table.m))
    return None


def _cache_note(rec, table, pre, *args):
    rec.count("cli.cache_hits" if table is not None else "cli.cache_misses", 1)
    return "hit" if table is not None else "miss"


def _store_note(rec, payload, pre, cache_dir, table):
    from sl2swc.cli import cache_path
    rec.count("cli.table_bytes",
              cache_path(cache_dir, table.group.kind, table.group.q).stat().st_size)
    return None


def _wu_note(rec, holds, pre, *args):
    return None if holds else "Mismatch"


_BEFORE = {
    "groups.conjugacy": _conjugacy_before,
    "characters.char_table": _char_table_before,
}
_NOTES = {
    "groups.conjugacy": _conjugacy_note,
    "characters.char_table": _char_table_note,
    "cli.load_cached_table": _cache_note,
    "cli.store_table": _store_note,
    "oracle.wu_formula_holds": _wu_note,
}


def install(rec: Recorder) -> None:
    """Wrap every TRACED callable, rebinding each module-level alias of it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sl2swc" or name.startswith("sl2swc."))]
    for target in TRACED:
        mod = sys.modules[f"sl2swc.{target[0]}"]
        if len(target) == 3:
            cls = getattr(mod, target[1])
            orig = cls.__dict__[target[2]]
            setattr(cls, target[2], rec.wrap(".".join(target), orig))
            continue
        orig = getattr(mod, target[1])
        wrapped = rec.wrap(".".join(target), orig)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)


def dump(rec: Recorder, path, startup_s: float) -> None:
    with open(path, "w") as fh:
        json.dump({"startup_s": startup_s, "counters": rec.counters,
                   "spans": rec.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[4] - s[3]
    return own


def _outermost(spans, names):
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for s in spans:
        if s[1] not in names:
            continue
        p = s[2]
        while p is not None and spans[p][1] not in names:
            p = spans[p][2]
        if p is None:
            out.append(s)
    return out


def _under(spans, roots, names):
    """Total time of the outermost `names` spans below any span in `roots`."""
    root_ids = {s[0] for s in roots}
    total = 0
    for s in _outermost(spans, names):
        p = s[2]
        while p is not None and p not in root_ids:
            p = spans[p][2]
        if p is not None:
            total += s[4] - s[3]
    return total


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the dumps of its processes.

    Each `_s` metric is the time spent inside the named calls, summed over the
    pass; `cli.startup_s` is the median per process; the oracle case latencies
    are taken over every `verify_swc_formula` and `wu_formula_holds` call.
    """
    out = {name: 0 for name in TIMED}
    counters: dict[str, int] = {}
    cases = []
    mismatches = 0
    for tr in traces:
        spans = tr["spans"]
        for metric, (names, minus) in TIMED.items():
            roots = _outermost(spans, names)
            ns = sum(s[4] - s[3] for s in roots)
            if minus:
                ns -= _under(spans, roots, minus)
            out[metric] += ns
        for s in _outermost(spans, ORACLE_CASES):
            cases.append((s[4] - s[3]) / 1e6)
            mismatches += s[6] == "Mismatch"
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v
    metrics = {k: v / 1e9 for k, v in out.items()}
    metrics["cli.startup_s"] = (statistics.median(tr["startup_s"] for tr in traces)
                                if traces else 0.0)
    for k in ("cli.cache_hits", "cli.cache_misses", "cli.table_bytes",
              "groups.power_products", "characters.cyclo_phi"):
        metrics[k] = counters.get(k, 0)
    metrics["oracle.cases"] = len(cases)
    metrics["oracle.mismatches"] = mismatches
    metrics["oracle.case_p50_ms"] = statistics.median(cases) if cases else 0.0
    metrics["oracle.case_p95_ms"] = _percentile(cases, 0.95) if cases else 0.0
    return metrics


def _percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]
