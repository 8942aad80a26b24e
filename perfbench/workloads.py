"""The benchmark's workloads: their items, set-up, timed work and checks.

A workload is a fixed tuple of items.  ``setup`` builds, through
``catalog.build``, every group the workload hands to the engine;
``run`` does the timed work of one item; ``check`` compares its output
with the expected values after the timed pass and returns the list of
failures.  An item counts as ``attempts`` checked outputs.  A
``threaded`` workload also has a one-thread form (``one_thread``), which
traced passes run: with two threads, threads race to fill the same
caches and the work counts stop being exact.  Every
commprob function is looked up on its module at call time, so an
installed tracer sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

from commprob import branching, catalog, cli, feitfine, formulas, oracle

import expected

HERE = os.path.dirname(os.path.abspath(__file__))
NS = (2, 3, 4, 5)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# branch-large: cold `branching --lump`, disk cache, cp_n two ways
# ---------------------------------------------------------------------------

class Branch:
    attempts = 1
    threaded = False

    def __init__(self, name, items):
        self.name, self.items = name, items

    def setup(self, items, scratch, one_thread=False):
        return {item.descriptor: catalog.build(item.descriptor) for item in items}

    def run(self, groups, item):
        G = groups[item.descriptor]
        bm = branching.build_branching(G)
        lumped = branching.lump(bm)
        cli.cache_store(item.descriptor, G.order, bm)
        loaded = cli.cache_load(item.descriptor, G.order)
        return {
            "matrix": bm,
            "lumped_dim": lumped.dimension,
            "loaded": loaded,
            "branching": {n: branching.cp_via_branching(G, n) for n in NS},
            "lescot": {n: branching.cp_via_lescot(G, n) for n in NS},
        }

    def check(self, groups, item, out):
        bm = out["matrix"]
        bad = []
        if out["loaded"] != bm:
            bad.append("reloaded matrix differs from the built one")
        abelian = sum(1 for st in bm.states if st.abelian)
        if (bm.dimension, abelian, out["lumped_dim"]) != (
                item.states, item.abelian_states, item.lumped_dim):
            bad.append(f"states/abelian/lumped {bm.dimension}/{abelian}/"
                       f"{out['lumped_dim']}, expected {item.states}/"
                       f"{item.abelian_states}/{item.lumped_dim}")
        for n in NS:
            table = formulas.REGISTRY[(item.family, n)].formula.evaluate(item.q)
            got = (out["branching"][n], out["lescot"][n], table)
            if got != (_frac(item.cp[n]),) * 3:
                bad.append(f"cp_{n}: branching/lescot/table {got}, "
                           f"expected {item.cp[n]}")
        return [f"{item.descriptor}: {b}" for b in bad]


# ---------------------------------------------------------------------------
# verify-default: `commprob verify --grid default --threads 2 --json PATH`
# ---------------------------------------------------------------------------

class Verify:
    items = ("verify",)
    attempts = expected.VERIFY_ROWS
    threaded = True

    def __init__(self, name):
        self.name = name

    def setup(self, items, scratch, one_thread=False):
        return {"report": os.path.join(scratch, "verify-report.json"),
                "threads": "1" if one_thread else "2"}

    def run(self, state, item):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--grid", "default", "--threads",
                             state["threads"], "--json", state["report"]])

    def check(self, state, item, exit_code):
        """Items are the reference report's rows; a row fails when it is
        not reproduced exactly (the erratum rows must still mismatch)."""
        with open(os.path.join(HERE, expected.VERIFY_REPORT), "rb") as fh:
            reference = json.loads(fh.read())
        with open(state["report"], "rb") as fh:
            text = fh.read()
        rows = json.loads(text)
        bad = [f"row {i} differs from the reference: {row}"
               for i, (row, ref) in enumerate(zip(rows, reference)) if row != ref]
        if len(rows) != len(reference):
            bad.append(f"{len(rows)} rows, expected {len(reference)}")
        if not bad and hashlib.sha256(text).hexdigest() != expected.VERIFY_REPORT_SHA256:
            bad.append("report is not byte-identical to the reference")
        if not bad and exit_code != expected.VERIFY_EXIT_CODE:
            bad.append(f"exit code {exit_code}, expected {expected.VERIFY_EXIT_CODE}")
        return bad


# ---------------------------------------------------------------------------
# oracle-tuples: orbit enumeration + Burnside, and the pair scan
# ---------------------------------------------------------------------------

class Oracle:
    attempts = 1
    threaded = False

    def __init__(self, name, items):
        self.name, self.items = name, items

    def setup(self, items, scratch, one_thread=False):
        return {item.descriptor: catalog.build(item.descriptor)
                for item in items if isinstance(item, expected.TupleItem)}

    def run(self, groups, item):
        if isinstance(item, expected.PairItem):
            return oracle.commuting_pairs_matrix_algebra(item.d, item.q)
        return oracle.simultaneous_classes_count(groups[item.descriptor], item.n)

    def check(self, groups, item, out):
        if isinstance(item, expected.PairItem):
            closed = feitfine.feit_fine_pairs(item.d, item.q)
            if out == closed == item.pairs:
                return []
            return [f"pairs d={item.d} q={item.q}: scan {out}, Feit-Fine "
                    f"{closed}, expected {item.pairs}"]
        G = groups[item.descriptor]
        engine = branching.c_tuples(branching.build_branching(G), item.n)
        got = (out.tuple_count, out.orbit_count, out.burnside_count, engine)
        want = (item.tuples, item.classes, item.classes, item.classes)
        if got == want:
            return []
        return [f"{item.descriptor} n={item.n}: tuples/orbits/burnside/"
                f"engine {got}, expected {want}"]


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Branch("branch-large", expected.BRANCH_LARGE),
        Verify("verify-default"),
        Oracle("oracle-tuples", expected.ORACLE_TUPLES),
    )
}

# small variants, run only by the self-tests
SELFTEST_WORKLOADS = {
    w.name: w for w in (
        Branch("branch-small", expected.BRANCH_SMALL),
        Oracle("oracle-small", expected.ORACLE_SMALL),
    )
}


def get(name):
    return WORKLOADS.get(name) or SELFTEST_WORKLOADS[name]
