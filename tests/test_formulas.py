import os
import threading
import time
from fractions import Fraction

import pytest

from commprob.branching import cp2_classcount
from commprob.catalog import SMALL_GROUPS, build, metadata
from commprob import formulas
from commprob.catalog import order_formula
from commprob.errors import InputError, InternalError
from commprob.formulas import (
    CP2_PSL2,
    K_PSL2,
    MATRICES,
    REGISTRY,
    SP2_CORRECTED,
    U3_MATRIX_CORRECTED,
    Poly,
    X,
    _matrix_formula_cp,
    binom_poly,
    evaluate,
    evaluate_matrix,
    is_known_erratum_row,
    matrix_column1_sum,
    matrix_cp,
    render_table,
    report_json,
    verify_suite,
)
from commprob.groups import is_solvable
from conftest import fail_in_a_verify_child

pytestmark = pytest.mark.usefixtures("no_child_left")


# -- polynomial helper --

def test_poly_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X**2 - 1
    assert p(3) == 8
    assert (X**3 - X)(5) == 120


def test_poly_binomial():
    # C(q-1, 3) at q = 5 is C(4,3) = 4
    assert binom_poly(X - 1, 3)(5) == 4
    assert binom_poly(X, 2)(4) == 6


def test_poly_zero_and_constants():
    assert Poly()(7) == 0
    assert Poly.const(3)(100) == 3


# -- registry evaluation --

def test_cp2_gl2_at_q4():
    assert evaluate(REGISTRY[("GL2", 2)].formula, 4) == Fraction(1, 12)


def test_cp2_sp2_at_q5():
    assert evaluate(REGISTRY[("Sp2", 2)].formula, 5) == Fraction(3, 40)


def test_cp5_gl3_at_q2():
    v = evaluate(REGISTRY[("GL3", 5)].formula, 2)
    assert v == Fraction(2**8 + 2**7 + 4 * 2**6 + 23 * 16 - 2 * 8 + 13 * 4 - 2 + 4,
                         3**4 * 1 * 2**12 * 7**4)


def test_sp2_validity_rejects_even_q():
    with pytest.raises(InputError):
        evaluate(REGISTRY[("Sp2", 2)].formula, 2)
    with pytest.raises(InputError):
        evaluate(REGISTRY[("Sp2", 3)].formula, 4)


def test_registry_rejects_non_prime_power():
    with pytest.raises(InputError):
        evaluate(REGISTRY[("GL2", 2)].formula, 6)


def test_k_psl2():
    assert evaluate(K_PSL2, 5) == 5
    assert evaluate(K_PSL2, 7) == 6
    assert evaluate(K_PSL2, 9) == 7


def test_cp2_psl2_at_q7():
    assert evaluate(CP2_PSL2, 7) == Fraction(1, 28)


# -- published matrices --

def test_matrix_entries_integral_and_nonnegative():
    grids = {"U2": (2, 3, 4, 5), "Sp2": (3, 5, 7, 9), "GL3": (2, 3, 4, 5),
             "U3": (2, 3, 4, 5)}
    for fam, qs in grids.items():
        for q in qs:
            counts = evaluate_matrix(fam, q)
            assert all(c >= 0 for row in counts for c in row)


def test_matrix_column1_sums():
    assert matrix_column1_sum("U2", 2) == 9
    assert matrix_column1_sum("U2", 3) == 16
    assert matrix_column1_sum("Sp2", 3) == 7
    assert matrix_column1_sum("GL3", 2) == 6
    assert matrix_column1_sum("U3", 2) == 24


def test_sp2_matrix_validity():
    with pytest.raises(InputError):
        evaluate_matrix("Sp2", 2)


def test_matrix_cp_consistency_u2_gl3():
    # the published U2 and GL3 matrices reproduce their published tables
    for fam, qs in (("U2", (2, 3, 4, 5)), ("GL3", (2, 3))):
        for q in qs:
            for n in (2, 3, 4, 5):
                assert matrix_cp(fam, q, n) == \
                    evaluate(REGISTRY[(fam, n)].formula, q), (fam, q, n)


def test_matrix_cp_consistency_n2_all_families():
    for fam, qs in (("U2", (2, 3)), ("Sp2", (3, 5, 7)), ("GL3", (2, 3)),
                    ("U3", (2, 3))):
        for q in qs:
            assert matrix_cp(fam, q, 2) == evaluate(REGISTRY[(fam, 2)].formula, q)


def test_sp2_erratum_matrix_vs_table():
    # the published Sp2 matrix disagrees with the published Sp2 table for
    # n >= 3 (the table's denominators are misprinted); the matrix agrees
    # with the corrected entries, which brute-force enumeration confirms
    for q in (3, 5, 7):
        for n in (3, 4, 5):
            derived = matrix_cp("Sp2", q, n)
            assert derived != evaluate(REGISTRY[("Sp2", n)].formula, q)
            assert derived == SP2_CORRECTED[n].evaluate(q)


def test_sp2_corrected_numerators_match_printed():
    for n in (2, 3, 4, 5):
        assert SP2_CORRECTED[n].num == REGISTRY[("Sp2", n)].formula.num


def test_u3_erratum_matrix_vs_table():
    # the published U3 matrix's (5,5) entry is misprinted; as printed it
    # fails to reproduce the published U3 table, and the single-entry
    # correction q(q+1)^2 fixes it at every grid q
    for q in (2, 3, 4, 5):
        for n in (3, 4, 5):
            assert matrix_cp("U3", q, n) != evaluate(REGISTRY[("U3", n)].formula, q)
            assert _matrix_formula_cp(U3_MATRIX_CORRECTED, q, n) == \
                evaluate(REGISTRY[("U3", n)].formula, q)


def test_u3_corrected_entry():
    assert MATRICES["U3"].entries[4][4] == X**2 * (X + 1)
    assert U3_MATRIX_CORRECTED.entries[4][4] == X * (X + 1)**2


# -- solvability threshold over the catalog --

def test_groups_above_three_fortieths_are_solvable_or_a5():
    threshold = Fraction(3, 40)
    for desc in SMALL_GROUPS:
        G = build(desc)
        if cp2_classcount(G) > threshold:
            solvable = is_solvable(G.full())
            is_a5_like = G.order == 60 and metadata(desc).simple
            assert solvable or is_a5_like, desc


# -- verify suite plumbing --

def test_verify_rows_sorted_and_schema():
    rows, ok = verify_suite("default")
    keys = [(r["key"], r["q"] if r["q"] is not None else -1,
             r["n"] if r["n"] is not None else -1) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert set(r) == {"key", "q", "n", "engine_branching", "engine_lescot",
                          "registry", "match"}
    # the only mismatches are the documented errata comparisons
    assert not ok
    assert all(is_known_erratum_row(r) for r in rows if not r["match"])


def test_verify_erratum_rows_match():
    rows, _ = verify_suite("default")
    err = [r for r in rows if r["key"].startswith("erratum:")]
    assert err and all(r["match"] for r in err)


def test_report_json_roundtrip():
    rows, _ = verify_suite("default")
    import json

    assert json.loads(report_json(rows)) == rows
    text = render_table(rows)
    assert "cp:GL2" in text and "MISMATCH" in text


# -- verify workers --

@pytest.fixture(scope="module")
def serial():
    """The serial rows and report of each grid."""
    out = {}
    for grid in ("default", "full"):
        rows, ok = verify_suite(grid)
        out[grid] = rows, ok, report_json(rows)
    return out


@pytest.mark.parametrize("grid, workers", [
    ("default", 1), ("default", 2), ("default", 3), ("default", 8),
    ("full", 2),
])
def test_workers_give_the_serial_rows_and_report(serial, grid, workers):
    rows, ok = verify_suite(grid, workers)
    assert (rows, ok, report_json(rows)) == serial[grid]


def test_each_job_builds_the_groups_it_records(monkeypatch):
    built = []
    build = formulas.build

    def recorded(desc):
        built.append(desc)
        return build(desc)

    monkeypatch.setattr(formulas, "build", recorded)
    for job in formulas._jobs("default"):
        built.clear()
        formulas._run_job(job)
        assert sorted(built) == sorted(job[0]), job


@pytest.mark.parametrize("workers", [1, 2, 3, 8, 100])
def test_bins_split_the_groups_by_order(monkeypatch, tmp_path, workers):
    # a worker's bin is the jobs it runs: each process appends (pid,
    # position) for each job in one write to a file opened for appending,
    # which the children inherit; the jobs return no rows, so the bins
    # come out of the queue alone
    listed = []
    jobs_of = formulas._jobs

    def jobs(grid):
        listed[:] = jobs_of(grid)
        return listed

    def run(job):
        position = next(i for i, j in enumerate(listed) if j is job)
        os.write(fd, f"{os.getpid()} {position}\n".encode())
        return []

    monkeypatch.setattr(formulas, "_jobs", jobs)
    monkeypatch.setattr(formulas, "_run_job", run)
    fd = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        assert verify_suite("default", workers) == ([], True)
    finally:
        os.close(fd)
    runs = [tuple(map(int, line.split()))
            for line in (tmp_path / "runs").read_text().splitlines()]
    assert sorted(i for _, i in runs) == list(range(len(listed)))
    bins = {}
    for pid, i in runs:
        bins.setdefault(pid, []).append(i)
    assert len(bins) <= workers
    # each group is built in one bin only; one worker runs the jobs in
    # order, and more start here with the heaviest unit, GL(3,3) alone
    groups = [{d for i in b for d in listed[i][0]} for b in bins.values()]
    assert sum(map(len, groups)) == len(set().union(*groups))
    if workers == 1:
        assert bins[os.getpid()] == list(range(len(listed)))
    else:
        first = formulas._units(listed)[0]
        assert {d for i in first for d in listed[i][0]} == {"GL(3,3)"}
        assert bins[os.getpid()][:len(first)] == first


@pytest.mark.parametrize("grid", ["default", "full"])
def test_units_split_the_groups_by_order(grid):
    jobs = formulas._jobs(grid)
    units = formulas._units(jobs)
    assert sorted(i for u in units for i in u) == list(range(len(jobs)))
    assert all(u == sorted(u) for u in units)
    groups = [{d for i in u for d in jobs[i][0]} for u in units]
    # each group is built in one unit only, the units go heaviest first,
    # and the grid's heaviest group is alone in the first
    assert sum(map(len, groups)) == len(set().union(*groups))
    loads = [sum(order_formula(d) for d in g) for g in groups]
    assert loads == sorted(loads, reverse=True)
    assert groups[0] == {"GL(3,3)" if grid == "default" else "U(3,3)"}
    # every job that builds no group is a unit of its own
    assert all(len(u) == 1 for u, g in zip(units, groups) if not g)
    assert (len(units) - 1) * formulas._INDEX_WIDTH <= formulas._QUEUE_BYTES


@pytest.mark.parametrize("workers, failed_fork", [
    (2, None), (3, None), (8, None), (100, None), (3, 2),
])
def test_each_job_runs_once_in_the_worker_of_its_unit(serial, monkeypatch,
                                                       tmp_path, workers,
                                                       failed_fork):
    # every process appends (pid, position) for each job it runs, in one
    # write to a file opened for appending, which the children inherit;
    # the fork numbered failed_fork, if any, fails, which leaves its first
    # unit to the queue
    listed = []
    jobs_of = formulas._jobs
    run_job = formulas._run_job
    forks = []
    fork = os.fork

    def jobs(grid):
        listed[:] = jobs_of(grid)
        return listed

    def run(job):
        position = next(i for i, j in enumerate(listed) if j is job)
        os.write(fd, f"{os.getpid()} {position}\n".encode())
        return run_job(job)

    def counted_fork():
        forks.append(1)
        if len(forks) == failed_fork:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(formulas, "_jobs", jobs)
    monkeypatch.setattr(formulas, "_run_job", run)
    monkeypatch.setattr(os, "fork", counted_fork)
    fd = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        rows, ok = verify_suite("default", workers)
    finally:
        os.close(fd)
    assert (rows, ok) == serial["default"][:2]
    runs = [tuple(map(int, line.split()))
            for line in (tmp_path / "runs").read_text().splitlines()]
    assert sorted(i for _, i in runs) == list(range(len(listed)))
    pid_of = dict((i, pid) for pid, i in runs)
    units = formulas._units(listed)
    assert len(forks) == min(workers, len(units)) - 1
    # a unit runs whole in one worker, and the first in this process
    assert all(len({pid_of[i] for i in u}) == 1 for u in units)
    assert pid_of[units[0][0]] == os.getpid()
    assert len(set(pid_of.values())) <= min(workers, len(units)) - (
        failed_fork is not None)


def test_this_process_takes_units_from_the_queue(serial, monkeypatch,
                                                 tmp_path):
    # child 1 holds its first unit until this process has run a job of a
    # unit past the first, which it can only have taken from the queue
    parent = os.getpid()
    jobs = formulas._jobs("default")
    units = formulas._units(jobs)
    first = {d for i in units[0] for d in jobs[i][0]}
    held = {d for i in units[1] for d in jobs[i][0]}
    taken = tmp_path / "taken"
    run_job = formulas._run_job
    deadline = time.monotonic() + 30

    def run(job):
        groups = set(job[0])
        if os.getpid() == parent and groups and not groups & first:
            taken.touch()
        elif os.getpid() != parent and groups & held:
            while not taken.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
        return run_job(job)

    monkeypatch.setattr(formulas, "_run_job", run)
    assert verify_suite("default", 2) == serial["default"][:2]
    assert taken.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="processes cannot be pinned here")
def test_workers_are_pinned_after_forking(monkeypatch, tmp_path):
    # each child forks with this process's whole CPU set and pins itself
    # to allowed CPU b mod their count; this process pins itself to the
    # first allowed CPU after its forks and restores its set at the end
    allowed = sorted(os.sched_getaffinity(0))
    parent = os.getpid()
    fork = os.fork
    at_fork = []
    pinned = tmp_path / "pinned"
    run_job = formulas._run_job

    def recorded_fork():
        at_fork.append(sorted(os.sched_getaffinity(0)))
        return fork()

    def run(job):
        with open(pinned, "a") as fh:
            fh.write(f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n")
        return run_job(job)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(formulas, "_run_job", run)
    verify_suite("default", 3)
    assert at_fork == [allowed, allowed]
    assert sorted(os.sched_getaffinity(0)) == allowed
    pins = {}
    for line in pinned.read_text().splitlines():
        pid, cpus = line.split(" ", 1)
        pins.setdefault(int(pid), set()).add(cpus)
    # every job of a worker ran on that worker's one CPU
    assert pins.pop(parent) == {str(allowed[:1])}
    assert all(len(cpus) == 1 for cpus in pins.values())
    assert sorted(cpus.pop() for cpus in pins.values()) == sorted(
        str([allowed[b % len(allowed)]]) for b in (1, 2))


def test_matrix_rows_evaluate_each_matrix_once(monkeypatch):
    calls = []
    evaluate_formula = formulas._evaluate_matrix_formula

    def counted(mf, q):
        calls.append((mf.family, q))
        return evaluate_formula(mf, q)

    monkeypatch.setattr(formulas, "_evaluate_matrix_formula", counted)
    checks = (formulas._check_consistency, formulas._check_matrix_erratum)
    jobs = [job for _, job in formulas._jobs("full")
            if getattr(job, "func", None) in checks]
    assert jobs
    for job in jobs:
        calls.clear()
        rows = job()
        assert len(rows) > 1
        assert calls == [(job.args[0].name, job.args[1])], job


def test_workers_below_one_are_refused():
    for workers in (0, -1):
        with pytest.raises(InputError, match="at least 1"):
            verify_suite("default", workers)


def test_a_child_that_exits_without_a_result_is_an_internal_error(monkeypatch):
    fail_in_a_verify_child(monkeypatch, lambda: os._exit(9))
    with pytest.raises(InternalError, match="exit status 9 with no result"):
        verify_suite("default", 2)


def test_an_error_in_the_parents_bin_reaps_every_child(monkeypatch):
    # GL(3,3), the heaviest group, is built in the parent at two workers
    parent = os.getpid()
    check_table = formulas._check_table

    def check(fam, q, G):
        if os.getpid() == parent and fam.name == "GL3" and q == 3:
            raise InternalError("failed in the parent")
        return check_table(fam, q, G)

    monkeypatch.setattr(formulas, "_check_table", check)
    with pytest.raises(InternalError, match="failed in the parent"):
        verify_suite("default", 2)


def test_a_second_thread_keeps_the_grid_serial(serial, monkeypatch):
    def refuse():
        raise AssertionError("verify forked with a second thread running")

    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        rows, _ = verify_suite("default", 2)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert rows == serial["default"][0]


def test_a_failed_fork_runs_the_bin_serially(serial, monkeypatch):
    forks = []

    def fail():
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fail)
    rows, _ = verify_suite("default", 3)
    assert len(forks) == 2
    assert rows == serial["default"][0]
