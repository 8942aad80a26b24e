"""Checks on the package source itself."""

import ast
import importlib
import pathlib
import re
import shlex
import sys

from commprob import catalog, cli

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
