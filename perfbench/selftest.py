"""Self-tests of the benchmark (about 15 s).

    python3 perfbench/selftest.py

They check that a wrong output counts as a failure, that the tracer puts
every commprob function back, that metric names are well formed and
match BENCHMARK.json, that the exact per-layer counts repeat between
traced passes in fresh processes, and that run.py refuses to run without
the package sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import commprob  # noqa: E402
from commprob.formulas import is_known_erratum_row  # noqa: E402

import expected  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
_CACHE = tempfile.TemporaryDirectory()


def setUpModule():
    os.environ["COMMPROB_CACHE"] = _CACHE.name


def tearDownModule():
    _CACHE.cleanup()


def _run_items(wl, items):
    state = wl.setup(items, None)
    return [wl.check(state, item, wl.run(state, item)) for item in items]


def _traced_worker(workload, scratch):
    order = ",".join(str(i) for i in range(len(workloads.get(workload).items)))
    spans = os.path.join(scratch, "spans.json")
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "worker.py"), workload,
         "--order", order, "--scratch", scratch, "--one-thread",
         "--trace", spans, "--launch", repr(time.monotonic())],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checks(unittest.TestCase):
    def test_correct_outputs_pass(self):
        wl = workloads.get("branch-small")
        self.assertEqual(_run_items(wl, wl.items), [[], []])

    def test_wrong_expected_value_is_a_failure(self):
        item = expected.BRANCH_SMALL[0]
        wrong = [item._replace(states=item.states + 1),
                 item._replace(cp={**item.cp, 4: "1/2"})]
        for bad in _run_items(workloads.get("branch-small"), wrong):
            self.assertEqual(len(bad), 1)
        t = expected.ORACLE_SMALL[1]
        p = expected.ORACLE_SMALL[-1]
        wrong = [t._replace(classes=t.classes + 1), p._replace(pairs=p.pairs - 2)]
        for bad in _run_items(workloads.get("oracle-small"), wrong):
            self.assertEqual(len(bad), 1)

    def test_reference_report(self):
        with open(os.path.join(HERE, expected.VERIFY_REPORT), "rb") as fh:
            text = fh.read()
        self.assertEqual(hashlib.sha256(text).hexdigest(),
                         expected.VERIFY_REPORT_SHA256)
        rows = json.loads(text)
        self.assertEqual(len(rows), expected.VERIFY_ROWS)
        red = [r for r in rows if not r["match"]]
        self.assertEqual(len(red), expected.VERIFY_ERRATUM_ROWS)
        self.assertTrue(all(is_known_erratum_row(r) for r in red))

    def test_verify_check_counts_rows(self):
        wl = workloads.get("verify-default")
        with open(os.path.join(HERE, expected.VERIFY_REPORT), encoding="utf-8") as fh:
            rows = json.load(fh)
        with tempfile.TemporaryDirectory() as scratch:
            state = wl.setup(wl.items, scratch)
            shutil.copy(os.path.join(HERE, expected.VERIFY_REPORT), state["report"])
            self.assertEqual(wl.check(state, "verify", 1), [])
            self.assertEqual(len(wl.check(state, "verify", 0)), 1)
            fixed = next(i for i, r in enumerate(rows) if not r["match"])
            rows[fixed]["match"] = True  # an erratum row that stops mismatching
            with open(state["report"], "w", encoding="utf-8") as fh:
                fh.write(commprob.formulas.report_json(rows))
            self.assertEqual(len(wl.check(state, "verify", 1)), 1)


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_function(self):
        modules = [sys.modules[m] for m in tracer.PACKAGE_MODULES]
        before = [dict(vars(m)) for m in modules]
        original = commprob.groups.centralizer
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(commprob.branching.centralizer, original)
        wl = workloads.get("branch-small")
        _run_items(wl, wl.items[:1])
        t.uninstall()
        for m, saved in zip(modules, before):
            for name, value in saved.items():
                self.assertIs(getattr(m, name), value, f"{m.__name__}.{name}")
        self.assertTrue(t.spans)

    def test_metric_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(tracer.LAYER_UNITS.items()))
        self.assertEqual(set(tracer.layer_metrics([], 0)),
                         set(tracer.LAYER_UNITS) - set(tracer.PROCESS_METRICS))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))

    def test_self_time(self):
        S = tracer.Span
        spans = [S(1, "a", 0.0, 10.0, 0, None), S(2, "b", 1.0, 4.0, 1, None),
                 S(3, "c", 3.0, 6.0, 1, None), S(4, "d", 3.5, 3.7, 3, None)]
        own = tracer.self_times(spans)
        self.assertAlmostEqual(own[1], 5.0)
        self.assertAlmostEqual(own[3], 2.8)

    def test_exact_counts_repeat(self):
        for workload in ("branch-small", "oracle-small", "verify-default"):
            runs = []
            for _ in range(2):
                with tempfile.TemporaryDirectory() as scratch:
                    res = _traced_worker(workload, scratch)
                self.assertEqual(res["failed"], 0, res["failures"])
                runs.append({k: res["layers"][k] for k in tracer.EXACT_METRICS})
            self.assertEqual(runs[0], runs[1], workload)
            self.assertGreater(runs[0]["groups.products"], 0, workload)


class Refusal(unittest.TestCase):
    def test_run_needs_the_package_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "oracle-tuples",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
