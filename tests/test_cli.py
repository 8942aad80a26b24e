import json
import os
import subprocess
import sys
import threading

import pytest

from commprob.branching import build_branching
from commprob.catalog import build
from commprob.cli import _cache_path, cache_load, cache_store, main
from commprob.errors import InputError, InternalError, SizeCapError
from commprob.formulas import verify_suite
from commprob.groups import centralizer, conjugacy_classes
from conftest import fail_in_a_verify_child

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COMMPROB_CACHE", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cp_gl23(capsys):
    code, out, _ = run(capsys, "cp", "GL(2,3)", "--n", "2")
    assert code == 0
    assert out.strip() == "1/6"


def test_cp_q8_n3(capsys):
    code, out, _ = run(capsys, "cp", "Q8", "--n", "3")
    assert code == 0
    assert out.strip() == "11/32"


def test_cp_methods_agree(capsys):
    values = {}
    for method in ("branching", "lescot", "oracle"):
        code, out, _ = run(capsys, "cp", "S(4)", "--n", "3", "--method", method)
        assert code == 0
        values[method] = out.strip()
    assert len(set(values.values())) == 1


def test_cp_json_matches_text(capsys):
    code, out, _ = run(capsys, "cp", "Q8", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "5/8"
    code, out, _ = run(capsys, "cp", "Q8", "--n", "2")
    assert out.strip() == payload["value"]


def test_abelian_cp_prints_one_over_one(capsys):
    code, out, _ = run(capsys, "cp", "C(6)", "--n", "4")
    assert code == 0
    assert out.strip() == "1/1"


def test_info(capsys):
    code, out, _ = run(capsys, "info", "U(2,2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "descriptor": "U(2,2)",
        "order": 18,
        "abelian": False,
        "class_count": 9,
        "z_class_count": 3,
    }


def test_classes(capsys):
    code, out, _ = run(capsys, "classes", "S(3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    sizes = sorted(r["size"] for r in payload["classes"])
    assert sizes == [1, 2, 3]
    for r in payload["classes"]:
        assert r["size"] * r["centralizer_order"] == 6


def test_classes_centralizer_orders_match_centralizers(capsys):
    code, out, _ = run(capsys, "classes", "GL(2,3)", "--json")
    assert code == 0
    full = build("GL(2,3)").full()
    rows = json.loads(out)["classes"]
    assert [r["centralizer_order"] for r in rows] == [
        centralizer(full, c.rep).order for c in conjugacy_classes(full).classes
    ]


def test_ctuples_with_oracle(capsys):
    code, out, _ = run(capsys, "ctuples", "Q8", "--n", "2", "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "22"
    assert payload["oracle"]["orbit_count"] == "22"
    assert payload["oracle_match"] is True


def test_oracle_runs_on_a_degree3_group(capsys):
    # GL(3,3) (order 11,232, 24 classes) is within the oracle's k(G)|G|
    # table budget, which its |G|^2 pair scan was not
    code, out, _ = run(capsys, "ctuples", "GL(3,3)", "--n", "2", "--oracle",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["orbit_count"] == "484"
    assert payload["oracle_match"] is True
    code, out, _ = run(capsys, "cp", "GL(3,3)", "--n", "2", "--method",
                       "oracle")
    assert code == 0
    assert out.strip() == "1/468"


def test_ctuples_n0_with_oracle(capsys):
    # one empty tuple, one orbit, by the engine and by the oracle
    code, out, _ = run(capsys, "ctuples", "Q8", "--n", "0", "--oracle")
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "oracle orbits: 1 " in out


def test_feitfine_oracle(capsys):
    code, out, _ = run(capsys, "feitfine", "--d", "2", "--q", "3", "--oracle",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == "945"
    assert payload["oracle_match"] is True


def test_invalid_descriptor_exit_2(capsys):
    code, _, err = run(capsys, "info", "GL(9,9)")
    assert code == 2
    assert "error" in err


def test_size_cap_exit_3(capsys):
    code, _, err = run(capsys, "info", "GL(3,5)")
    assert code == 3


def test_info_rejects_a_huge_cyclic_group_at_once():
    # the order 2^61 - 1 is prime: trial division of it would run for
    # hours, so the size cap must reject the group before anything
    # factors the order
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "commprob", "info", "C(2305843009213693951)"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert "size cap" in proc.stderr


def test_info_rejects_a_huge_prime_field_at_once():
    # q = 2^61 - 1 is prime: parsing must decide that within the timeout,
    # and the size cap then rejects GL(2,q)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "commprob", "info", "GL(2,2305843009213693951)"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "size cap" in proc.stderr


def test_closed_stdout_pipe_exits_141_quietly():
    # a reader that closes the pipe (``commprob ... | head``) is no defect:
    # no traceback, nothing on stderr, exit 128 + SIGPIPE
    env = dict(os.environ, PYTHONPATH=SRC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "commprob", "cp", "Q8", "--n", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=30)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_field_past_the_table_cap_exits_3(capsys, cache_env):
    # GL(1,1031) is a valid descriptor under the group size cap, but
    # GF(1031) is past the dense-table cap: a size cap, found before any
    # table is built
    from commprob.gf import field

    code, _, err = run(capsys, "info", "GL(1,1031)")
    assert code == 3
    assert "table cap" in err
    assert field(1031)._add_table is None
    assert field(1031)._mul_table is None


def test_field_under_the_table_cap_runs(capsys, cache_env):
    code, out, _ = run(capsys, "info", "GL(1,509)")
    assert code == 0
    assert "classes:       508" in out


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "feitfine", "--d", "3", "--q", "3", "--oracle")
    assert code == 3


def test_internal_error_exit_4(capsys, monkeypatch):
    from commprob import cli
    from commprob.errors import InternalError

    def broken(*_args):
        raise InternalError("invariant failed")

    monkeypatch.setattr(cli, "cp_via_branching", broken)
    code, _, err = run(capsys, "cp", "S(3)", "--n", "2")
    assert code == 4
    assert "internal error: invariant failed" in err


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    # an exception outside the package's error classes is a defect: exit 4
    # with the traceback, not exit 1 (a verification mismatch)
    from commprob import cli

    def broken(*_args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cp_via_branching", broken)
    code, _, err = run(capsys, "cp", "S(3)", "--n", "2")
    assert code == 4
    assert "internal error: RuntimeError: unexpected" in err
    assert "Traceback" in err


def test_cp_lescot_large_n(capsys):
    code, lescot, _ = run(capsys, "cp", "Q8", "--n", "1500", "--method", "lescot")
    assert code == 0
    code, branching, _ = run(capsys, "cp", "Q8", "--n", "1500")
    assert code == 0
    assert lescot == branching


@pytest.mark.parametrize("command", [
    ("info", "S(3)"), ("classes", "S(3)"), ("branching", "S(3)"),
    ("cp", "S(3)", "--n", "2"), ("ctuples", "S(3)", "--n", "2"),
    ("feitfine", "--d", "2", "--q", "2"),
])
def test_threads_flag_only_on_verify(command):
    # only verify accepts the flag (and ignores it); the other commands
    # reject it
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", "2"])
    assert exc.value.code == 2


def test_verify_starts_no_thread(tmp_path, capsys, monkeypatch):
    # --threads k runs the grid in k processes, the calling one and k - 1
    # forked ones, never in a thread
    def refuse(self):
        raise RuntimeError("verify started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--grid", "default", "--threads", "2",
                     "--json", str(path))
    assert code == 1
    rows, _ = verify_suite("default")
    assert json.loads(path.read_text(encoding="utf-8")) == rows


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_verify_threads_below_one_exit_2(tmp_path, capsys, threads):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--threads", threads,
                         "--json", str(path))
    assert code == 2
    assert err == f"error: --threads must be at least 1, not {threads}\n"
    assert out == "" and not path.exists()


def test_verify_one_thread_forks_nothing(capsys, monkeypatch):
    def refuse():
        raise AssertionError("verify --threads 1 forked")

    monkeypatch.setattr(os, "fork", refuse)
    code, out, _ = run(capsys, "verify", "--threads", "1")
    assert code == 1
    assert "mismatches:" in out


@pytest.mark.parametrize("error, code", [
    (InternalError("broken invariant"), 4),
    (SizeCapError("too large"), 3),
    (InputError("bad input"), 2),
])
def test_verify_error_in_a_worker_keeps_its_exit_code(capsys, monkeypatch,
                                                      error, code):
    def fail():
        raise error

    fail_in_a_verify_child(monkeypatch, fail)
    got, out, err = run(capsys, "verify", "--threads", "2")
    assert got == code
    assert str(error) in err
    assert "mismatches:" not in out


def test_verify_worker_that_dies_exits_4(capsys, monkeypatch):
    fail_in_a_verify_child(monkeypatch, lambda: os._exit(9))
    code, _, err = run(capsys, "verify", "--threads", "2")
    assert code == 4
    assert err.startswith("internal error: a verify worker ended by exit "
                          "status 9 with no result")


def test_verify_json_on_stdout_is_one_document(capsys):
    # with the report on stdout, the table and the summary go to stderr
    code, out, err = run(capsys, "verify", "--grid", "default", "--json", "-")
    assert code == 1
    rows, _ = verify_suite("default")
    assert json.loads(out) == rows
    assert f"rows: {len(rows)}  mismatches:" in err


def test_branching_lump_json_and_text(capsys):
    code, out, _ = run(capsys, "branching", "GL(3,2)", "--lump", "--no-cache",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    lumped = payload["lumped"]
    assert lumped["dimension"] == 5
    quotient = lumped["quotient"]
    for i, block in enumerate(lumped["blocks"]):
        column = sum(row[i] for row in quotient)
        assert {payload["states"][s]["class_count"] for s in block} == {column}
    assert sum(row[lumped["root_block"]] for row in quotient) == 6
    code, out, _ = run(capsys, "branching", "GL(3,2)", "--lump", "--no-cache")
    assert code == 0
    assert "lumped dim:" in out
    assert [line.split(":")[0].strip() for line in out.splitlines()
            if "quotient[" in line] == [f"quotient[{j}]" for j in range(5)]


# -- cache behavior --

def test_cache_roundtrip(cache_env, capsys):
    code, out1, _ = run(capsys, "branching", "U(2,3)", "--json")
    assert code == 0
    p1 = json.loads(out1)
    assert p1["from_cache"] is False
    code, out2, _ = run(capsys, "branching", "U(2,3)", "--json")
    p2 = json.loads(out2)
    assert p2["from_cache"] is True
    for key in ("dimension", "root_index", "column_sums", "states"):
        assert p1[key] == p2[key]


def test_cache_store_load_equal_matrix(cache_env):
    G = build("Sp(2,3)")
    bm = build_branching(G)
    assert cache_store("Sp(2,3)", G.order, bm)
    loaded = cache_load("Sp(2,3)", G.order)
    assert loaded == bm


def test_cache_miss_on_unknown(cache_env):
    assert cache_load("Sp(2,3)", 24) is None


def test_cache_corrupted_file_recovers(cache_env, capsys):
    code, _, _ = run(capsys, "branching", "D(4)", "--json")
    assert code == 0
    files = list(cache_env.glob("bm-*.json"))
    assert len(files) == 1
    files[0].write_text("{ truncated", encoding="utf-8")
    code, out, err = run(capsys, "branching", "D(4)", "--json")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["from_cache"] is False


@pytest.mark.parametrize("text", ["[]", '"x"'])
def test_cache_non_object_record_recovers(cache_env, capsys, text):
    # valid JSON that is not an object is as invalid as any other record
    cache_env.mkdir(parents=True)
    (cache_env / os.path.basename(_cache_path("S(3)"))).write_text(
        text, encoding="utf-8")
    code, out, err = run(capsys, "branching", "S(3)")
    assert code == 0
    assert "warning: ignoring invalid cache file" in err
    assert "from cache:   no" in out


def test_cache_wrong_order_rejected(cache_env, capsys):
    G = build("Sp(2,3)")
    bm = build_branching(G)
    cache_store("Sp(2,3)", G.order, bm)
    assert cache_load("Sp(2,3)", 25) is None


def test_cache_tampered_matrix_rejected(cache_env, capsys):
    G = build("Q8")
    bm = build_branching(G)
    cache_store("Q8", 8, bm)
    files = list(cache_env.glob("bm-*.json"))
    record = json.loads(files[0].read_text())
    record["matrix"][0] = "999"
    files[0].write_text(json.dumps(record))
    assert cache_load("Q8", 8) is None
    _ = capsys.readouterr()


def _tamper_version(record):
    record["version"] += 1


def _tamper_square(record):
    record["matrix"].pop()


def _tamper_root_index(record):
    record["root_index"] = len(record["states"])


def _tamper_root_order(record):
    record["states"][record["root_index"]]["order"] += 1


@pytest.mark.parametrize("tamper, reason", [
    (_tamper_version, "different format version"),
    (_tamper_square, "not square"),
    (_tamper_root_index, "root index out of range"),
    (_tamper_root_order, "root order disagrees"),
])
def test_cache_record_checks_reject(cache_env, capsys, tamper, reason):
    G = build("Q8")
    cache_store("Q8", G.order, build_branching(G))
    path = _cache_path("Q8")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    tamper(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert cache_load("Q8", G.order) is None
    err = capsys.readouterr().err
    assert "warning: ignoring invalid cache file" in err
    assert reason in err
    code, out, err = run(capsys, "branching", "Q8")
    assert code == 0
    assert "warning: ignoring invalid cache file" in err
    assert "from cache:   no" in out


def test_cache_negative_entry_rejected(cache_env, capsys):
    # the column sums still match k, but one entry is negative
    G = build("Q8")
    bm = build_branching(G)
    cache_store("Q8", 8, bm)
    path = _cache_path("Q8")
    record = json.loads(open(path, encoding="utf-8").read())
    size, root = bm.dimension, bm.root
    other = 1 if root == 0 else 0
    record["matrix"][other * size + root] = "-1"
    record["matrix"][root * size + root] = str(
        bm.counts[root][root] + bm.counts[other][root] + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    assert cache_load("Q8", 8) is None
    assert "negative" in capsys.readouterr().err


def test_cache_unwritable_degrades(tmp_path, monkeypatch, capsys):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory")
    monkeypatch.setenv("COMMPROB_CACHE", str(target / "sub"))
    code, out, err = run(capsys, "branching", "D(3)", "--json")
    assert code == 0
    assert "warning" in err


def test_interleaved_stores_both_succeed(cache_env, monkeypatch, capsys):
    # a second store of the same descriptor runs to the end while the
    # first is renaming its temporary file into place; with one shared
    # temporary file the first rename found it gone
    G = build("Q8")
    bm = build_branching(G)
    replace = os.replace
    inner = []

    def nested(src, dst):
        if not inner:
            inner.append(None)
            inner[0] = cache_store("Q8", G.order, bm)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", nested)
    assert cache_store("Q8", G.order, bm)
    assert inner == [True]
    assert capsys.readouterr().err == ""
    assert [p.name for p in cache_env.iterdir()] == [
        os.path.basename(_cache_path("Q8"))]
    assert cache_load("Q8", G.order) == bm


def test_failed_store_removes_its_temporary_file(cache_env, monkeypatch,
                                                 capsys):
    G = build("Q8")

    def refused(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(os, "replace", refused)
    assert not cache_store("Q8", G.order, build_branching(G))
    assert "warning: cache unavailable (rename refused)" in \
        capsys.readouterr().err
    assert list(cache_env.iterdir()) == []


# -- verify command --

def test_verify_default_grid(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--grid", "default", "--json",
                       str(report))
    # exit 1: the as-printed Sp2 table rows n >= 3 mismatch (documented
    # upstream erratum), and the exit code reflects any mismatch
    assert code == 1
    rows = json.loads(report.read_text())
    from commprob.formulas import is_known_erratum_row

    bad = [r for r in rows if not r["match"]]
    assert bad and all(is_known_erratum_row(r) for r in bad)
    assert "mismatches:" in out


def test_verify_report_under_a_missing_directory_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    # an unwritable report path is invalid input, not an internal error,
    # and it is reported before the grid runs: no group is built
    from commprob import catalog, cli, formulas

    calls = []

    def record(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return called

    for module in (catalog, cli, formulas):
        monkeypatch.setattr(module, "build", record("build"))
    monkeypatch.setattr(cli, "verify_suite", record("verify_suite"))
    path = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "verify", "--grid", "default", "--json", str(path))
    assert calls == []
    assert code == 2
    assert not path.parent.exists()
    assert err.startswith("error: cannot write the report to ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
