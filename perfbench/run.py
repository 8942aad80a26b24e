"""commprob benchmark: cold passes of a workload, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; commprob is imported from its ``src``.
One client starts worker processes one after another (a closed loop) and
keeps starting passes until ``--seconds`` have gone by.  Every pass is
cold, because commprob's build, class and centralizer caches live in the
process, as they do for a CLI user.  The seed only shuffles the order of
the workload's items; pass k runs that order rotated by k, so each item
takes each position in turn (peak memory depends on what ran before).
Set-up is also measured in set-up-only processes after each pass (for
about SETUP_SHARE of the pass's time, at least one), and then until there
are MIN_SETUPS samples.

``--trace 0`` reports the end-to-end metrics (medians over the run's
passes).  ``--trace 1`` alternates an untraced and a traced pass and
reports the per-layer metrics, the tracing overhead, and writes every
span to ``perfbench/out/trace-<workload>-seed<N>.json``.  Traced passes
of a threaded workload run its one-thread form, so the run adds an
untraced pass of that form as the overhead baseline; ``proc.*`` always
comes from the untraced passes of the workload's own command.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_SETUPS = 5
SETUP_SHARE = 0.1

# pass kinds: (traced, one-thread form)
PLAIN = (False, False)
ONE_THREAD = (False, True)
TRACED = (True, True)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="branch-large, verify-default or oracle-tuples")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """The passes of one run and what they reported."""

    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        items = list(range(len(workload.items)))
        random.Random(seed).shuffle(items)
        self.order = items
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.results = []   # (kind, result) of completed passes
        self.setups = []
        self.rss_mb = []
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.count = 0

    def worker(self, kind=PLAIN, setup_only=False):
        """Start one worker and wait for it; returns its result or None."""
        traced, one_thread = kind
        k = len(self.results) % len(self.order)
        order = self.order[k:] + self.order[:k]
        self.count += 1
        scratch = os.path.join(self.scratch, f"p{self.count}")
        os.makedirs(scratch)
        spans = os.path.join(scratch, "spans.json")
        cmd = [sys.executable, "-I", WORKER, self.workload.name,
               "--order", ",".join(map(str, order)), "--scratch", scratch]
        if setup_only:
            cmd.append("--setup-only")
        if one_thread:
            cmd.append("--one-thread")
        if traced:
            cmd += ["--trace", spans]
        launch = time.monotonic()
        cmd += ["--launch", repr(launch)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - launch))
        except subprocess.TimeoutExpired:
            return self._lost(setup_only, "worker timed out")
        if proc.returncode != 0:
            return self._lost(setup_only, f"worker exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-400:]}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(res["setup_s"])
        self.rss_mb.append(res["rss_mb"])
        if setup_only:
            return res
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.messages += res["failures"]
        if traced:
            with open(spans, encoding="utf-8") as fh:
                res["spans"] = json.load(fh)
        self.results.append((kind, res))
        return res

    def _lost(self, setup_only, message):
        self.messages.append(message)
        if not setup_only:
            self.attempted += 1
            self.failed += 1
        return None

    def room_for(self, seconds):
        return time.monotonic() + 1.25 * seconds < self.deadline

    def passes(self, kind):
        return [r for k, r in self.results if k == kind]


def _tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _num(v):
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def _summary(name, values, unit):
    tail = _tail(values)
    tail_text = (f"p{tail[0]:.0f} {_num(tail[1])}" if tail
                 else "no percentile with 10 samples beyond it")
    return (f"{name}: median {_num(statistics.median(values))} {unit}, "
            f"{tail_text}, range {_num(min(values))}..{_num(max(values))}, "
            f"n={len(values)}")


def end_to_end(run):
    setups = run.setups
    walls = [r["wall_s"] for r in run.passes(PLAIN)]
    print(_summary("setup_s", setups, "s"))
    print(_summary("wall_s", walls, "s"))
    print(f"peak_rss_mb: max {max(run.rss_mb):.6g} MB over "
          f"{len(run.rss_mb)} processes")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": max(run.rss_mb), "unit": "MB"},
    }


def per_layer(run):
    import tracer

    plain = run.passes(PLAIN)
    baseline = run.passes(ONE_THREAD) if run.workload.threaded else plain
    traced = run.passes(TRACED)
    values = {name: [r["layers"][name] for r in traced]
              for name in tracer.LAYER_UNITS if name not in tracer.PROCESS_METRICS}
    for name in tracer.EXACT_METRICS:
        if len(set(values[name])) > 1:
            run.messages.append(f"{name} differs between traced passes: "
                                f"{values[name]}")
            run.failed += 1
    values["proc.cpu_s"] = [r["cpu_s"] for r in plain]
    values["proc.cpu_util"] = [r["cpu_s"] / r["wall_s"] for r in plain]
    values["trace.overhead_frac"] = [
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in baseline) - 1.0]
    metrics = {}
    for name, unit in tracer.LAYER_UNITS.items():
        print(_summary(name, values[name], unit))
        value = (values[name][0] if name in tracer.EXACT_METRICS
                 else statistics.median(values[name]))
        metrics[name] = {"value": value, "unit": unit}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{run.workload.name}-seed{run.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.workload.name, "seed": run.seed,
                   "passes": [r["spans"] for r in traced]}, fh)
    print(f"spans: {os.path.relpath(path, ROOT)}")
    return metrics


def measure(run, seconds, trace):
    start = time.monotonic()
    kinds = [PLAIN]
    if trace:
        kinds += [ONE_THREAD, TRACED] if run.workload.threaded else [TRACED]
    longest = 0.0
    while True:
        t = time.monotonic()
        for kind in kinds:
            run.worker(kind)
        longest = max(longest, time.monotonic() - t)
        done = time.monotonic() - start >= seconds or not run.room_for(longest)
        t = time.monotonic()
        while not trace and run.room_for(longest / 4):
            run.worker(setup_only=True)
            if time.monotonic() - t >= SETUP_SHARE * longest:
                break
        if done:
            break
    while not trace and len(run.setups) < MIN_SETUPS and run.room_for(longest):
        if run.worker(setup_only=True) is None:
            break


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "commprob", "__init__.py")):
        print(f"error: no commprob package under {os.path.join(ROOT, 'src')}; "
              "run from the root of a commprob checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "commprob"), quiet=1)
    compileall.compile_dir(HERE, maxlevels=0, quiet=1)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = Run(workloads.WORKLOADS[args.workload], args.seed, scratch)
        measure(run, args.seconds, args.trace)
        if not run.passes(PLAIN) or (args.trace and not run.passes(TRACED)):
            for m in run.messages:
                print(m, file=sys.stderr)
            print("error: no pass completed", file=sys.stderr)
            return 1
        metrics = per_layer(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for m in run.messages:
        print(f"FAILED {m}")
    print(f"failed_frac: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} checked outputs)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
