"""Command-line front end and the on-disk branching-matrix cache.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 work or size budget exceeded, 4 internal error, 141 stdout closed by
its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
import traceback
from fractions import Fraction

from .branching import (
    BranchingMatrix,
    StateInfo,
    _validate_matrix,
    build_branching,
    c_tuples,
    cp_via_branching,
    cp_via_lescot,
    lump,
)
from .catalog import build, order_formula, parse
from .errors import (
    BudgetError,
    CacheError,
    CommProbError,
    InputError,
    InternalError,
    SizeCapError,
)
from .feitfine import feit_fine_pairs
from .formulas import GRIDS, render_table, report_json, verify_suite
from .groups import conjugacy_classes, z_classes
from .oracle import (
    commuting_pairs_matrix_algebra,
    commuting_tuples_count,
    simultaneous_classes_count,
)

CACHE_FORMAT_VERSION = 2
CACHE_ENV_VAR = "COMMPROB_CACHE"


# ---------------------------------------------------------------------------
# branching-matrix cache
# ---------------------------------------------------------------------------

def cache_dir() -> str:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "commprob")


def _cache_path(descriptor: str) -> str:
    digest = hashlib.sha256(descriptor.encode("utf-8")).hexdigest()[:24]
    return os.path.join(cache_dir(), f"bm-v{CACHE_FORMAT_VERSION}-{digest}.json")


def _state_dict(st: StateInfo) -> dict:
    return {"label": st.label, "order": st.order,
            "class_count": st.class_count, "abelian": st.abelian}


def _state_dicts(bm: BranchingMatrix) -> list:
    return list(map(_state_dict, bm.states))


def _matrix_record(descriptor: str, order: int, bm: BranchingMatrix) -> dict:
    """The fields of the cache record of a branching matrix before its
    ``states`` (``_state_dicts``) and its ``columns``, the sparse columns
    as lists of [child, count] pairs, which ``_record_text`` writes
    after them, in that order."""
    return {
        "version": CACHE_FORMAT_VERSION,
        "descriptor": descriptor,
        "order": order,
        "root_index": bm.root,
    }


def _record_text(descriptor: str, order: int, bm: BranchingMatrix):
    """The compact JSON text of the whole cache record, newline ended, in
    pieces: the fields before the states, then the states and the
    columns one at a time, so that no piece holds more than one of them.
    Each piece is encoded by ``json.dumps`` without indent, which runs
    json's C encoder; ``json.dump`` and an indent run the pure-Python
    one."""
    head = json.dumps(_matrix_record(descriptor, order, bm),
                      separators=(",", ":"))
    yield head[:-1] + ',"states":['
    for i, st in enumerate(bm.states):
        text = json.dumps(_state_dict(st), separators=(",", ":"))
        yield "," + text if i else text
    yield '],"columns":['
    for i, column in enumerate(bm.columns):
        text = json.dumps(column, separators=(",", ":"))
        yield "," + text if i else text
    yield "]}\n"


def _record_matrix(record: dict) -> BranchingMatrix:
    if record.get("version") != CACHE_FORMAT_VERSION:
        raise CacheError("cache record has a different format version")
    states = [
        StateInfo(
            label=s["label"],
            order=int(s["order"]),
            class_count=int(s["class_count"]),
            abelian=bool(s["abelian"]),
        )
        for s in record["states"]
    ]
    columns = [tuple((j, c) for j, c in column)
               for column in record["columns"]]
    root = int(record["root_index"])
    if not 0 <= root < len(states):
        raise CacheError("cache root index out of range")
    if states[root].order != int(record["order"]):
        raise CacheError("cache root order disagrees with the group order")
    bm = BranchingMatrix(states=states, columns=columns, root=root)
    try:
        _validate_matrix(bm)
    except InternalError as exc:
        raise CacheError(f"cache matrix fails validation: {exc}") from exc
    return bm


def cache_store(descriptor: str, order: int, bm: BranchingMatrix) -> bool:
    """Persist a branching matrix; returns False (with a warning) when
    the cache directory is unusable.  Each writer writes its own
    temporary file in the cache directory and renames it into place, so
    concurrent stores of one descriptor never share a file; the
    temporary file is removed when the store fails."""
    path = _cache_path(descriptor)
    text = _record_text(descriptor, order, bm)
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
        # binary, with a small buffer: the text comes in short pieces, and
        # a text file would hold a list of them until it encodes
        with open(fd, "wb", buffering=1024) as fh:
            fh.writelines(map(str.encode, text))
        os.replace(tmp, path)
        return True
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        print(f"warning: cache unavailable ({exc}); continuing without it",
              file=sys.stderr)
        return False


def cache_load(descriptor: str, order: int):
    """Load and validate a cached branching matrix, or None on miss.
    Corrupted records are reported and ignored."""
    path = _cache_path(descriptor)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: ignoring unreadable cache file {path} ({exc})",
              file=sys.stderr)
        return None
    try:
        if not isinstance(record, dict):
            raise CacheError("cache record is not a JSON object")
        if record.get("descriptor") != descriptor or int(record.get("order", -1)) != order:
            raise CacheError("cache record is for a different group")
        return _record_matrix(record)
    except (CacheError, KeyError, TypeError, ValueError) as exc:
        print(f"warning: ignoring invalid cache file {path} ({exc})",
              file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _emit(payload: dict, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _cmd_info(args) -> int:
    desc = parse(args.descriptor)
    G = build(desc)
    cd = conjugacy_classes(G.full())
    zc = len(z_classes(G.full()))
    abelian = cd.k == G.order
    payload = {
        "descriptor": str(desc),
        "order": G.order,
        "abelian": abelian,
        "class_count": cd.k,
        "z_class_count": zc,
    }
    _emit(payload, args.json, [
        f"descriptor:    {desc}",
        f"order:         {G.order}",
        f"abelian:       {'yes' if abelian else 'no'}",
        f"classes:       {cd.k}",
        f"z-classes:     {zc}",
    ])
    return 0


def _cmd_classes(args) -> int:
    desc = parse(args.descriptor)
    G = build(desc)
    # |Z(x)| = |G| / |x^G| by orbit–stabilizer
    rows = [
        {"rep_id": c.rep, "size": c.size, "centralizer_order": G.order // c.size}
        for c in conjugacy_classes(G.full()).classes
    ]
    payload = {"descriptor": str(desc), "order": G.order, "classes": rows}
    lines = [f"{'rep':>6}  {'size':>6}  {'|centralizer|':>13}"]
    for r in rows:
        lines.append(f"{r['rep_id']:>6}  {r['size']:>6}  {r['centralizer_order']:>13}")
    _emit(payload, args.json, lines)
    return 0


def _obtain_branching(desc, use_cache: bool):
    descriptor = str(desc)
    order = None
    if use_cache:
        order = order_formula(desc)
        bm = cache_load(descriptor, order)
        if bm is not None:
            return bm, True
    G = build(desc)
    bm = build_branching(G)
    if use_cache:
        cache_store(descriptor, G.order, bm)
    return bm, False


def _cmd_branching(args) -> int:
    desc = parse(args.descriptor)
    bm, from_cache = _obtain_branching(desc, not args.no_cache)
    payload = {
        "descriptor": str(desc),
        "dimension": bm.dimension,
        "root_index": bm.root,
        "class_count": bm.class_count,
        "column_sums": bm.column_sums(),
        "from_cache": from_cache,
        "states": _state_dicts(bm),
    }
    lines = [
        f"descriptor:   {desc}",
        f"states:       {bm.dimension} (root index {bm.root})",
        f"k(G):         {bm.class_count}",
        f"column sums:  {bm.column_sums()}",
        f"from cache:   {'yes' if from_cache else 'no'}",
    ]
    if args.lump:
        tp = lump(bm)
        payload["lumped"] = {
            "dimension": tp.dimension,
            "root_block": tp.root_block,
            "blocks": tp.blocks,
            "quotient": tp.quotient,
        }
        lines.append(f"lumped dim:   {tp.dimension} (root block {tp.root_block})")
        for j, row in enumerate(tp.quotient):
            lines.append(f"  quotient[{j}]: {row}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_cp(args) -> int:
    desc = parse(args.descriptor)
    n = args.n
    if n < 2:
        raise InputError("--n must be at least 2")
    G = build(desc)
    if args.method == "branching":
        value = cp_via_branching(G, n)
    elif args.method == "lescot":
        value = cp_via_lescot(G, n)
    else:
        value = Fraction(commuting_tuples_count(G, n), G.order ** n)
    payload = {"descriptor": str(desc), "n": n, "method": args.method,
               "value": _frac(value)}
    _emit(payload, args.json, [_frac(value)])
    return 0


def _cmd_ctuples(args) -> int:
    desc = parse(args.descriptor)
    G = build(desc)
    bm = build_branching(G)
    value = c_tuples(bm, args.n)
    payload = {"descriptor": str(desc), "n": args.n, "value": str(value)}
    lines = [str(value)]
    if args.oracle:
        report = simultaneous_classes_count(G, args.n)
        payload["oracle"] = {
            "tuple_count": str(report.tuple_count),
            "orbit_count": str(report.orbit_count),
            "burnside_count": str(report.burnside_count),
        }
        agree = report.orbit_count == value
        payload["oracle_match"] = agree
        lines.append(f"oracle orbits: {report.orbit_count} "
                     f"(burnside {report.burnside_count}, "
                     f"tuples {report.tuple_count})")
        _emit(payload, args.json, lines)
        return 0 if agree else 1
    _emit(payload, args.json, lines)
    return 0


def _cmd_feitfine(args) -> int:
    value = feit_fine_pairs(args.d, args.q)
    payload = {"d": args.d, "q": args.q, "pairs": str(value)}
    lines = [str(value)]
    if args.oracle:
        brute = commuting_pairs_matrix_algebra(args.d, args.q)
        payload["oracle"] = str(brute)
        payload["oracle_match"] = brute == value
        lines.append(f"oracle scan: {brute}")
        _emit(payload, args.json, lines)
        return 0 if brute == value else 1
    _emit(payload, args.json, lines)
    return 0


def _cmd_verify(args) -> int:
    path = args.json_path
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, not {args.threads}")

    def cannot_write(exc):
        return InputError(f"cannot write the report to {path}: "
                          f"{exc.strerror or exc}")

    # a report file is opened before the grid runs, so a path that cannot
    # be written is reported at once
    report = None
    if path and path != "-":
        try:
            report = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise cannot_write(exc) from None
    with report or contextlib.nullcontext():
        rows, ok = verify_suite(args.grid, args.threads)
        # with the report on stdout, the table and summary go to stderr so
        # that stdout stays one JSON document
        out = sys.stdout
        if path == "-":
            sys.stdout.write(report_json(rows))
            out = sys.stderr
        elif report is not None:
            try:
                report.write(report_json(rows))
            except OSError as exc:
                raise cannot_write(exc) from None
    out.write(render_table(rows))
    mismatches = sum(1 for r in rows if not r["match"])
    print(f"rows: {len(rows)}  mismatches: {mismatches}", file=out)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="commprob",
        description="Exact commuting probabilities and branching matrices "
                    "of finite groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, descriptor=True):
        if descriptor:
            p.add_argument("descriptor", help="group descriptor, e.g. 'GL(2,3)'")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("info", help="order, abelian flag, class and z-class counts")
    common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("classes", help="conjugacy class table")
    common(p)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("branching", help="build or load the branching matrix")
    common(p)
    p.add_argument("--lump", action="store_true", help="also print the lumped quotient")
    p.add_argument("--no-cache", action="store_true", help="skip the on-disk cache")
    p.set_defaults(func=_cmd_branching)

    p = sub.add_parser("cp", help="exact commuting probability cp_n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("branching", "lescot", "oracle"),
                   default="branching")
    p.set_defaults(func=_cmd_cp)

    p = sub.add_parser("ctuples", help="count simultaneous conjugacy classes "
                                       "of commuting n-tuples")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check by explicit orbit enumeration")
    p.set_defaults(func=_cmd_ctuples)

    p = sub.add_parser("feitfine", help="closed-form commuting matrix-pair count")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check by brute-force pair scan")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_feitfine)

    p = sub.add_parser("verify", help="run the verification grid")
    p.add_argument("--grid", choices=GRIDS, default="default")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the JSON report to PATH ('-' for stdout, which "
                        "moves the table to stderr)")
    p.add_argument("--threads", type=int, default=1, metavar="K",
                   help="run the grid in K worker processes, K - 1 of them "
                        "forked, that split its groups by order; the report "
                        "is byte-identical for every K (default 1)")
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed the pipe must show here, not in the
        # interpreter's final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``commprob ... | head``): no defect.
        # Point stdout at devnull so the interpreter's final flush of what
        # is still buffered cannot fail again, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (SizeCapError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except CommProbError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other exception is a defect too, not a mismatch (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
