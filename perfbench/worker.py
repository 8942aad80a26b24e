"""One cold pass of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py WORKLOAD --order 1,0 --launch T --scratch DIR
                                [--setup-only] [--one-thread] [--trace SPANS.json]

The process imports commprob from the checkout's ``src``, builds the
workload's groups (set-up), runs its items in the given order (the timed
pass: the sum of the item times, with an untimed garbage collection
before each item), and only then checks the outputs.  ``--launch`` is
the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start, imports and group builds.  With ``--trace``
the tracer is installed before anything is built and removed before the
checks; the spans are written to the given file.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--order", required=True,
                   help="comma-separated item indices, in run order")
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--one-thread", action="store_true",
                   help="run the workload's one-thread form")
    p.add_argument("--trace", metavar="SPANS_JSON")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    origin = time.perf_counter()
    os.environ["COMMPROB_CACHE"] = os.path.join(args.scratch, "cache")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    wl = workloads.get(args.workload)
    items = [wl.items[int(i)] for i in args.order.split(",")]
    state = wl.setup(items, args.scratch, args.one_thread)
    result = {"setup_s": time.monotonic() - args.launch}
    if not args.setup_only:
        outputs = []
        wall = cpu = 0.0
        for item in items:
            # garbage left for the cyclic collector (the oracle's recursive
            # closures keep their tuple lists alive in reference cycles)
            # must land neither in the next item's time nor in its memory
            gc.collect()
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                outputs.append(wl.run(state, item))
            except Exception as exc:  # a failed item must not stop the pass
                outputs.append(exc)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - cpu0
        result["wall_s"] = wall
        result["cpu_s"] = cpu
        if tracer is not None:
            products = tracer.products()
            tracer.uninstall()
        failed = 0
        failures = []
        for item, out in zip(items, outputs):
            if isinstance(out, Exception):
                bad = [f"{item}: raised {out!r}"]
            else:
                try:
                    bad = wl.check(state, item, out)
                except Exception as exc:  # an unreadable output is a failure
                    bad = [f"{item}: check raised {exc!r}"]
            failed += min(len(bad), wl.attempts)
            failures += bad
        result.update(attempted=len(items) * wl.attempts, failed=failed,
                      failures=failures[:10])
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans, products)
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(tracing.spans_json(tracer.spans, origin), fh)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
