"""Span tracing of commprob's module boundaries, installed from outside.

The tracer wraps public functions of ``catalog``, ``groups``,
``branching``, ``formulas``, ``oracle`` and ``cli``.  A wrapper replaces
the function at every call site, that is in every commprob module whose
attribute is the original function object, so calls between modules and
calls inside one module (``groups.conjugacy_classes`` calling
``generating_ids``) are both seen.  ``uninstall`` puts every original
back.

Each call records a span (id, name, start, end, parent id, info) in
memory.  The parent is the innermost open span, so a traced pass must
run on one thread (threaded workloads run their one-thread form when
traced).  Element products are counted by
wrapping the ``mul`` of every :class:`MatrixOps` that
``groups.matrix_operations`` hands out, so every matrix group built
while the tracer is installed counts its products; permutation and
table groups are not counted.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent info")

PACKAGE_MODULES = (
    "commprob", "commprob.catalog", "commprob.groups", "commprob.branching",
    "commprob.formulas", "commprob.oracle", "commprob.cli",
)

# (span name, home module, attribute); formulas._run_job is the one private
# function traced, because it is verify's unit of work (one grid job)
TRACED = (
    ("catalog.build", "catalog", "build"),
    ("groups.centralizer", "groups", "centralizer"),
    ("groups.conjugacy_classes", "groups", "conjugacy_classes"),
    ("groups.generating_ids", "groups", "generating_ids"),
    ("groups.is_abelian", "groups", "is_abelian"),
    ("branching.build_branching", "branching", "build_branching"),
    ("branching.lump", "branching", "lump"),
    ("branching.c_tuples", "branching", "c_tuples"),
    ("branching.cp_via_branching", "branching", "cp_via_branching"),
    ("branching.cp_via_lescot", "branching", "cp_via_lescot"),
    ("formulas.verify_suite", "formulas", "verify_suite"),
    ("formulas.job", "formulas", "_run_job"),
    ("formulas.render_table", "formulas", "render_table"),
    ("formulas.report_json", "formulas", "report_json"),
    ("oracle.simultaneous_classes_count", "oracle", "simultaneous_classes_count"),
    ("oracle.commuting_tuples_count", "oracle", "commuting_tuples_count"),
    ("oracle.commuting_pairs_matrix_algebra", "oracle",
     "commuting_pairs_matrix_algebra"),
    ("cli.cache_store", "cli", "cache_store"),
    ("cli.cache_load", "cli", "cache_load"),
    ("cli.main", "cli", "main"),
)

# functions whose cache hands back an object it returned before
HIT_BY_IDENTITY = frozenset({
    "catalog.build", "groups.centralizer", "groups.conjugacy_classes"})


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._open = []
        self._patches = []
        self._seen = {}
        self._ticks = itertools.count()
        self._tick_reads = 0

    # -- installation --

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for name, home, attr in TRACED:
            original = getattr(importlib.import_module("commprob." + home), attr)
            self._patch(modules, attr, original, self._wrap(name, original))
        original = importlib.import_module("commprob.groups").matrix_operations
        self._patch(modules, "matrix_operations", original,
                    self._counting_ops(original))

    def _patch(self, modules, attr, original, replacement):
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, replacement)
                self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- recording --

    def products(self) -> int:
        """Matrix products made so far by groups built under the tracer."""
        value = next(self._ticks) - self._tick_reads
        self._tick_reads += 1
        return value

    def _counting_ops(self, matrix_operations):
        tick = self._ticks.__next__

        @functools.wraps(matrix_operations)
        def counting_matrix_operations(fld, d):
            ops = matrix_operations(fld, d)
            mul = ops.mul

            def counted_mul(a, b):
                tick()
                return mul(a, b)

            return dataclasses.replace(ops, mul=counted_mul)

        return counting_matrix_operations

    def _first_return(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj  # pinned, so ids are never reused
        return True

    def _describe(self, name, args, result):
        if name in HIT_BY_IDENTITY:
            hit = not self._first_return(result)
            if name == "groups.centralizer":
                H = args[0]
                return (hit, H.order == H.group.order)
            return hit
        if name == "cli.cache_load":
            return result is not None
        if name == "branching.build_branching":
            return (args[0].descriptor, result.dimension,
                    sum(1 for st in result.states if st.abelian))
        if name == "branching.lump":
            return result.dimension
        if name == "oracle.simultaneous_classes_count":
            return (result.tuple_count, result.orbit_count)
        return None

    def _wrap(self, name, fn):
        stack = self._open
        spans = self.spans
        next_id = self._ids.__next__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else 0
            sid = next_id()
            stack.append(sid)
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = self._describe(name, args, result) if ok else None
                spans.append(Span(sid, name, start, end, parent, info))

        return traced


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> its duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


# name -> unit, in report order; every name matches [A-Za-z0-9_.-]+
LAYER_UNITS = {
    "catalog.build_s": "s",
    "catalog.build_calls": "count",
    "catalog.build_hit_ratio": "ratio",
    "groups.centralizer_s": "s",
    "groups.centralizer_root_s": "s",
    "groups.centralizer_calls": "count",
    "groups.centralizer_hit_ratio": "ratio",
    "groups.classes_s": "s",
    "groups.classes_calls": "count",
    "groups.gens_s": "s",
    "groups.abelian_s": "s",
    "groups.products": "count",
    "branching.expand_self_s": "s",
    "branching.states": "count",
    "branching.abelian_states": "count",
    "branching.lumped_dim": "count",
    "branching.lump_s": "s",
    "branching.power_s": "s",
    "branching.lescot_self_s": "s",
    "formulas.verify_s": "s",
    "formulas.verify_self_s": "s",
    "formulas.jobs": "count",
    "formulas.job_max_s": "s",
    "formulas.render_s": "s",
    "oracle.classes_count_s": "s",
    "oracle.tuples_s": "s",
    "oracle.tuples": "count",
    "oracle.orbits": "count",
    "oracle.pair_scan_s": "s",
    "cli.cache_store_s": "s",
    "cli.cache_load_s": "s",
    "cli.cache_hit_ratio": "ratio",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
}

# measured on the untraced passes of a traced run, not from spans
PROCESS_METRICS = ("proc.cpu_s", "proc.cpu_util", "trace.overhead_frac")

# exact values that must repeat between traced runs
EXACT_METRICS = (
    "catalog.build_calls", "catalog.build_hit_ratio",
    "groups.centralizer_calls", "groups.centralizer_hit_ratio",
    "groups.classes_calls", "groups.products",
    "branching.states", "branching.abelian_states", "branching.lumped_dim",
    "formulas.jobs", "oracle.tuples", "oracle.orbits", "cli.cache_hit_ratio",
)


def layer_metrics(spans, products: int) -> dict:
    """Per-layer values of one traced pass (every LAYER_UNITS name except
    PROCESS_METRICS).  ``_s`` values are inclusive span time unless the
    name says ``self``."""
    own = self_times(spans)
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name, keep=lambda info: True):
        return sum(s.end - s.start for s in by[name] if keep(s.info))

    def self_total(name):
        return sum(own[s.sid] for s in by[name])

    def hit_ratio(name, hit):
        calls = by[name]
        return sum(1 for s in calls if hit(s.info)) / len(calls) if calls else 0.0

    expanded = {s.info[0]: s.info[1:] for s in by["branching.build_branching"]
                if s.info is not None}
    reports = [s.info for s in by["oracle.simultaneous_classes_count"]
               if s.info is not None]
    jobs = by["formulas.job"]
    return {
        "catalog.build_s": total("catalog.build"),
        "catalog.build_calls": len(by["catalog.build"]),
        "catalog.build_hit_ratio": hit_ratio("catalog.build", bool),
        "groups.centralizer_s": total("groups.centralizer"),
        "groups.centralizer_root_s": total(
            "groups.centralizer", lambda info: info is not None and info[1]),
        "groups.centralizer_calls": len(by["groups.centralizer"]),
        "groups.centralizer_hit_ratio": hit_ratio(
            "groups.centralizer", lambda info: info is not None and info[0]),
        "groups.classes_s": total("groups.conjugacy_classes"),
        "groups.classes_calls": len(by["groups.conjugacy_classes"]),
        "groups.gens_s": total("groups.generating_ids"),
        "groups.abelian_s": total("groups.is_abelian"),
        "groups.products": products,
        "branching.expand_self_s": self_total("branching.build_branching"),
        "branching.states": sum(v[0] for v in expanded.values()),
        "branching.abelian_states": sum(v[1] for v in expanded.values()),
        "branching.lumped_dim": sum(s.info for s in by["branching.lump"]
                                    if s.info is not None),
        "branching.lump_s": total("branching.lump"),
        "branching.power_s": total("branching.c_tuples"),
        "branching.lescot_self_s": self_total("branching.cp_via_lescot"),
        "formulas.verify_s": total("formulas.verify_suite"),
        "formulas.verify_self_s": self_total("formulas.verify_suite"),
        "formulas.jobs": len(jobs),
        "formulas.job_max_s": max((s.end - s.start for s in jobs), default=0.0),
        "formulas.render_s": total("formulas.render_table")
        + total("formulas.report_json"),
        "oracle.classes_count_s": total("oracle.simultaneous_classes_count"),
        "oracle.tuples_s": total("oracle.commuting_tuples_count"),
        "oracle.tuples": sum(r[0] for r in reports),
        "oracle.orbits": sum(r[1] for r in reports),
        "oracle.pair_scan_s": total("oracle.commuting_pairs_matrix_algebra"),
        "cli.cache_store_s": total("cli.cache_store"),
        "cli.cache_load_s": total("cli.cache_load"),
        "cli.cache_hit_ratio": hit_ratio("cli.cache_load", bool),
    }


def spans_json(spans, origin: float) -> list:
    """Spans as JSON-ready dicts, times in seconds from ``origin``."""
    return [
        {"id": s.sid, "name": s.name, "start": round(s.start - origin, 7),
         "end": round(s.end - origin, 7), "parent": s.parent, "info": s.info}
        for s in spans
    ]
