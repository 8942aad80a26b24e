"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "commprob"


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
