"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from commprob import (branching, catalog, cli, feitfine, formulas, gf, groups,
                      oracle)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commprob"


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so invariant checks in the
    # package raise InternalError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")), SRC
    assert not found, "assert statements in src/commprob: " + ", ".join(found)


def test_src_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert list(SRC.glob("*.py")), SRC
    assert not found, "non-stdlib imports in src/commprob: " + ", ".join(found)


def test_readme_lists_the_catalog_families():
    # the README's descriptor table and the catalog's family table name
    # the same families, with the same parameter forms
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Group descriptors\n", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` +\|", section, re.M)
    forms = [family.form for family in catalog._FAMILIES.values()]
    assert sorted(documented) == sorted(forms)


def test_readme_lists_the_verify_row_kinds():
    # the README's row-kind table and the default report name the same
    # keys: FAM and DESC stand for any family or group descriptor
    from commprob.formulas import verify_suite

    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Verify report schema\n", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` +\|", section, re.M)
    patterns = {kind: re.compile(re.escape(kind).replace("FAM", ".+")
                                 .replace("DESC", ".+"))
                for kind in documented}
    keys = {row["key"] for row in verify_suite("default")[0]}
    matched = {kind for kind, pattern in patterns.items()
               for key in keys if pattern.fullmatch(key)}
    undocumented = {key for key in keys
                    if not any(p.fullmatch(key) for p in patterns.values())}
    assert not undocumented
    assert matched == set(documented)


def test_readme_cli_examples_print_their_values(tmp_path, monkeypatch,
                                                capsys):
    # every line `commprob ARGS  # -> VALUE ...` of the README's CLI
    # block exits 0 and prints VALUE first
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    examples = re.findall(r"^commprob (.+?) +# -> (\S+)", block, re.M)
    assert len(examples) >= 4
    monkeypatch.setenv("COMMPROB_CACHE", str(tmp_path / "cache"))
    for args, value in examples:
        code = cli.main(shlex.split(args))
        out = capsys.readouterr().out
        assert (code, out.splitlines()[0]) == (0, value), args


def benchmark_entry_points():
    """Every (module, attribute) of the package that the benchmark reads:
    the functions ``perfbench/tracer.py`` wraps in spans, and each
    ``module.attr`` that ``perfbench/workloads.py`` reads from a module
    it imports from commprob.  Both files are parsed, not imported."""
    bench = ROOT / "perfbench"
    tree = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    traced = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    names = {(home, attr) for _, home, attr in ast.literal_eval(traced)}
    tree = ast.parse((bench / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "commprob"
               for alias in node.names}
    names |= {(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    return names


def test_benchmark_entry_points_exist():
    # a name the benchmark traces or calls that the package no longer
    # has would break its runs, not this suite
    names = benchmark_entry_points()
    assert ("formulas", "_run_job") in names
    assert ("oracle", "simultaneous_classes_count") in names
    missing = sorted(f"{module}.{attr}" for module, attr in names
                     if not hasattr(importlib.import_module(
                         "commprob." + module), attr))
    assert not missing, "benchmark names missing: " + ", ".join(missing)


def test_import_generates_one_dataclass():
    # a dataclass has its methods generated from source text when its
    # module is imported, which every CLI process pays; the record types
    # are plain classes, and MatrixOps stays a dataclass because the
    # benchmark's tracer and tests/test_oracle.py call dataclasses.replace
    # on it.  The CLI imports traceback only on its internal-error path,
    # hashlib only for a cache path and tempfile only to store a record.
    # Under -I alone site may import tempfile itself, so tempfile is
    # checked with site off too (-I -S)
    code = "\n".join([
        "import dataclasses, sys",
        f"sys.path.insert(0, {str(ROOT / 'src')!r})",
        "made = []",
        "generate = dataclasses.dataclass",
        "def counted(cls=None, /, **kw):",
        "    def make(c):",
        "        made.append(c.__module__ + '.' + c.__qualname__)",
        "        return generate(c, **kw)",
        "    return make if cls is None else make(cls)",
        "dataclasses.dataclass = counted",
        "import commprob, commprob.cli",
        "print(made, 'traceback' in sys.modules, 'hashlib' in sys.modules,",
        "      'tempfile' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split()[:3] == ["['commprob.groups.MatrixOps']", "False",
                               "False"]
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         check=True, capture_output=True, text=True,
                         timeout=60).stdout
    assert out.split() == ["['commprob.groups.MatrixOps']", "False", "False",
                           "False"]
    assert dataclasses.is_dataclass(groups.MatrixOps)


def _records():
    """One row per record type: the type, its fields given as keywords,
    its defaults, one field changed, and what equality, hash and repr
    do (repr None: the default object repr)."""
    F = gf.field(3)
    G = catalog.build("C(3)")
    X = formulas.X
    rf = formulas.RationalFunction(X, X + 1)
    state = dict(label="G", order=6, class_count=3, abelian=False)
    rows = [
        (gf.FieldElement, dict(spec=F, coeffs=(1,)), {}, {"coeffs": (2,)},
         "hash", "FieldElement(GF(3), (1,))"),
        (groups.Element, dict(group=G, id=1), {}, {"id": 2},
         "eq", f"Element(id=1, {G.data_of(1)})"),
        (groups.ConjugacyClass, dict(rep=1, size=2, members=(1, 2)), {},
         {"size": 3}, "eq", None),
        (catalog.GroupDescriptor, dict(family="GL", params=(2, 3)), {},
         {"params": (2, 4)}, "eq", "GroupDescriptor(GL(2,3))"),
        (catalog.GroupMeta, dict(abelian=True, simple=False, solvable=True,
                                 p_group=None), {}, {}, "identity", None),
        (catalog._Family, dict(form="C(n)", order=abs, build=None),
         dict(arity=2, degrees=(), field="prime power"), {}, "identity",
         None),
        (branching.StateInfo, state, dict(key=None), {"order": 7}, "eq",
         "StateInfo(label='G', order=6, class_count=3, abelian=False)"),
        (branching.BranchingMatrix,
         dict(states=[branching.StateInfo(**state)], columns=[((0, 3),)],
              root=0), {}, {"columns": [((0, 2),)]}, "eq", None),
        (branching.TypePartition, dict(blocks=[[0]], quotient=[[3]],
                                       block_of=[0], root_block=0), {},
         {"quotient": [[2]]}, "eq", None),
        (feitfine.PartitionPowerNotation, dict(b=(1,)), {}, {}, "identity",
         None),
        (formulas.RationalFunction, dict(num=X, den=X + 1),
         dict(validity=formulas.VALID_PRIME_POWER), {}, "identity", None),
        (formulas.RegistryEntry, dict(key=("GL2", 2), formula=rf,
                                      source="table"), {}, {}, "identity",
         None),
        (formulas.MatrixFormula, dict(family="GL2", entries=((X,),),
                                      order=X, validity="odd"), {}, {},
         "identity", None),
        (formulas.Family, dict(name="GL2", descriptor="GL(2,{q})", order=X,
                               qs={}, table={}),
         dict(validity=formulas.VALID_PRIME_POWER, matrix=None,
              table_fix=None, matrix_fix=None), {}, "identity", None),
        (oracle.TupleOrbitReport, dict(descriptor="C(3)", n=2, tuple_count=9,
                                       orbit_count=9, burnside_count=9),
         dict(method="backtracking+orbit-bfs+burnside"), {}, "identity",
         None),
    ]
    return [pytest.param(*row, id=row[0].__name__) for row in rows]


@pytest.mark.parametrize("cls, fields, defaults, changed, equality, text",
                         _records())
def test_record_types_keep_their_semantics(cls, fields, defaults, changed,
                                           equality, text):
    # equality and hash where a caller or test uses them: by value (and
    # hashable) for "hash", by value and unhashable for "eq", and by
    # identity otherwise; a repr only where one was written
    a, b = cls(**fields), cls(**fields)
    assert not dataclasses.is_dataclass(a) and not hasattr(a, "__dict__")
    assert {k: getattr(a, k) for k in {**fields, **defaults}} == \
        {**fields, **defaults}
    if equality == "identity":
        assert a == a and a != b
        assert hash(a) != hash(b)
    else:
        assert a == b and not a != b and a != object()
        assert a != cls(**{**fields, **changed})
        if equality == "hash":
            assert hash(a) == hash(b)
            assert len({a, b, cls(**{**fields, **changed})}) == 2
        else:
            with pytest.raises(TypeError):
                hash(a)
    if text is not None:
        assert repr(a) == text


def test_state_key_is_left_out_of_equality_and_repr():
    a = branching.StateInfo("G", 6, 3, False, key=(0, 1, 2, 3, 4, 5))
    b = branching.StateInfo("G", 6, 3, False)
    assert a == b and repr(a) == repr(b)


def test_cached_matrix_equals_the_built_one(tmp_path, monkeypatch):
    # the record stores no state keys, so the reloaded matrix equals the
    # built one only because StateInfo.key is left out of equality
    monkeypatch.setenv("COMMPROB_CACHE", str(tmp_path))
    G = catalog.build("GL(2,3)")
    built = branching.build_branching(G)
    assert cli.cache_store("GL(2,3)", G.order, built)
    loaded = cli.cache_load("GL(2,3)", G.order)
    assert loaded == built and loaded is not built
    assert all(st.key is None for st in loaded.states)
    assert all(st.key is not None for st in built.states)


def test_matrix_generators_accept_field_elements():
    # a FieldElement is one entry, not a row (groups._as_matrix reads a
    # tuple as a row), in nested rows and in a flat list alike
    F = gf.field(3)
    one, zero = F.one, F.zero
    for gen in ([[one, one], [zero, one]], [one, one, zero, one]):
        G = groups.Group.from_matrix_generators(F, 2, [gen])
        assert G._data == [(1, 0, 0, 1), (1, 1, 0, 1), (1, 2, 0, 1)]
