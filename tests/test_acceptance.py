"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each criterion prints one ``ACCEPTANCE`` line.  Two slices of the gate
are expected to fail and do fail, on purpose: the published Sp2 table's
denominators for n >= 3 and the published U3 branching matrix's (5,5)
entry are misprints, established here by the published matrices
themselves, by Lescot's recurrence, and by brute-force tuple counts.
Weakening those comparisons to make them pass would defeat the point of
a verification engine, so they assert the literal criterion and carry
the analysis in their failure messages.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

from conftest import ORACLE_GRID

from commprob.branching import (
    build_branching,
    c_tuples,
    cp2_classcount,
    cp_via_branching,
    cp_via_lescot,
)
from commprob.catalog import SMALL_GROUPS, build, metadata
from commprob.errors import BudgetError
from commprob.feitfine import feit_fine_pairs
from commprob.formulas import (
    CP2_PSL2,
    K_PSL2,
    REGISTRY,
    evaluate,
    matrix_column1_sum,
    matrix_cp,
)
from commprob.groups import conjugacy_classes, derived_length
from commprob.oracle import (
    commuting_pairs_matrix_algebra,
    commuting_tuples_count,
    simultaneous_classes_count,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _report(criterion, message):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_c01_degree2_tables():
    checked = 0
    for fam, desc in (("GL2", "GL(2,{q})"), ("U2", "U(2,{q})")):
        for q in (2, 3, 4, 5):
            G = build(desc.format(q=q))
            for n in (2, 3, 4, 5):
                expected = evaluate(REGISTRY[(fam, n)].formula, q)
                assert cp_via_branching(G, n) == expected, (fam, q, n)
                assert cp_via_lescot(G, n) == expected, (fam, q, n)
                checked += 1
    _report("C1", f"GL2/U2 tables, {checked} grid points exact")


def test_c02_gl2_u2_equal_probabilities():
    for q in (2, 3, 4, 5):
        GL = build(f"GL(2,{q})")
        U = build(f"U(2,{q})")
        for n in range(2, 7):
            assert cp_via_branching(GL, n) == cp_via_branching(U, n), (q, n)
    _report("C2", "cp_n(GL2) = cp_n(U2) for q in 2..5, n in 2..6")


def test_c03_sp2_table_n2_and_q2_exclusion():
    for q in (3, 5, 7):
        G = build(f"Sp(2,{q})")
        expected = evaluate(REGISTRY[("Sp2", 2)].formula, q)
        assert cp_via_branching(G, 2) == expected, q
        assert cp_via_lescot(G, 2) == expected, q
    # q = 2 exclusion: formula invalid (would give 1), true value is 1/2
    G2 = build("Sp(2,2)")
    assert cp_via_branching(G2, 2) == Fraction(1, 2)
    assert not REGISTRY[("Sp2", 2)].formula.valid_at(2)
    _report("C3", "Sp2 table n=2 exact at q in {3,5,7}; q=2 excluded, "
                  "true value 1/2 recorded")


def test_c03_sp2_table_as_printed_n3_to_n5():
    """Expected failure: upstream denominator misprint.

    The printed Sp2 table entries for n >= 3 divide the tuple-class
    count c(n-1) (printed correctly in the numerators) by
    q(q^2-1)^(n-1) instead of |Sp2|^(n-1) = q^(n-1)(q^2-1)^(n-1).  The
    printed Sp2 branching matrix, Lescot's recurrence and brute-force
    enumeration (e.g. 1008 commuting triples in Sp2(F3), so cp_3 =
    1008/24^3 = 7/96, against the printed 7/32) all agree with each
    other and against the printed table.
    """
    failures = []
    for q in (3, 5, 7):
        G = build(f"Sp(2,{q})")
        for n in (3, 4, 5):
            engine = cp_via_branching(G, n)
            printed = evaluate(REGISTRY[("Sp2", n)].formula, q)
            if engine != printed:
                failures.append((q, n, str(engine), str(printed)))
    if failures:
        print("ACCEPTANCE C3 FAIL (documented upstream erratum): "
              f"{len(failures)} printed Sp2 entries for n>=3 disagree "
              "with the engine; printed denominators are q(q^2-1)^(n-1) "
              "instead of |Sp2|^(n-1)")
    assert not failures, (
        "engine vs printed Sp2 table (q, n, engine, printed): "
        f"{failures}; the printed numerators equal c(n-1) exactly, so the "
        "misprint is confined to the denominator power of q"
    )
    _report("C3", "Sp2 table n in 3..5 exact")


def test_c04_degree3_tables():
    for q in (2, 3):
        G = build(f"GL(3,{q})")
        for n in (2, 3, 4, 5):
            expected = evaluate(REGISTRY[("GL3", n)].formula, q)
            assert cp_via_branching(G, n) == expected, (q, n)
            assert cp_via_lescot(G, n) == expected, (q, n)
    U = build("U(3,2)")
    for n in (2, 3, 4, 5):
        expected = evaluate(REGISTRY[("U3", n)].formula, 2)
        assert cp_via_branching(U, n) == expected, n
        assert cp_via_lescot(U, n) == expected, n
    _report("C4", "GL3 q in {2,3} and U3 q=2 tables exact for n in 2..5")


def test_c04_stretch_u3_q3():
    U = build("U(3,3)")
    for n in (2, 3, 4, 5):
        assert cp_via_branching(U, n) == evaluate(REGISTRY[("U3", n)].formula, 3)
    _report("C4+", "stretch: U3 q=3 exact for n in 2..5")


def test_c05_small_group_constants():
    assert cp2_classcount(build("Q8")) == Fraction(5, 8)
    assert cp2_classcount(build("D(4)")) == Fraction(5, 8)
    assert cp2_classcount(build("A(5)")) == Fraction(1, 12)
    assert cp2_classcount(build("PSL(2,3)")) == Fraction(1, 3)
    for q in (5, 7, 9):
        k = conjugacy_classes(build(f"PSL(2,{q})").full()).k
        assert k == (q + 5) // 2, q
        assert Fraction(k) == evaluate(K_PSL2, q)
        assert cp2_classcount(build(f"PSL(2,{q})")) == evaluate(CP2_PSL2, q)
    _report("C5", "Q8/D4/A5/PSL2 constants and k(PSL2(q)) = (q+5)/2 exact")


def test_c06_cross_method_equivalence():
    for desc in SMALL_GROUPS:
        G = build(desc)
        assert G.order <= 200
        for n in (2, 3, 4, 5):
            assert cp_via_branching(G, n) == cp_via_lescot(G, n), (desc, n)
        assert cp_via_branching(G, 2) == cp2_classcount(G), desc
        for n in (2, 3):
            try:
                brute = commuting_tuples_count(G, n)
            except BudgetError:
                continue
            assert Fraction(brute, G.order ** n) == cp_via_branching(G, n), \
                (desc, n)
    # branching vs Lescot on the full verification grid
    grid = [("GL(2,{q})", (2, 3, 4, 5)), ("U(2,{q})", (2, 3, 4, 5)),
            ("Sp(2,{q})", (3, 5, 7)), ("GL(3,{q})", (2, 3)),
            ("U(3,{q})", (2,))]
    for pattern, qs in grid:
        for q in qs:
            G = build(pattern.format(q=q))
            for n in (2, 3, 4, 5):
                assert cp_via_branching(G, n) == cp_via_lescot(G, n), (G.descriptor, n)
    _report("C6", "branching = Lescot on all grids; oracle agrees for "
                  "|G| <= 200, n <= 3")


def test_c07_burnside_and_tuple_identity():
    for desc in ORACLE_GRID:
        G = build(desc)
        for n in (1, 2):
            report = simultaneous_classes_count(G, n)
            assert report.orbit_count == report.burnside_count, (desc, n)
            assert commuting_tuples_count(G, n + 1) == \
                G.order * report.orbit_count, (desc, n)
            B = build_branching(G)
            assert report.orbit_count == c_tuples(B, n), (desc, n)
    _report("C7", "Burnside = orbit partition and |G^(n+1)| = |G| c_G(n) "
                  f"on {len(ORACLE_GRID)} groups")


def test_c08_feit_fine():
    assert feit_fine_pairs(2, 2) == 88
    for d, q in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        assert feit_fine_pairs(d, q) == commuting_pairs_matrix_algebra(d, q), (d, q)
    _report("C8", "P(d,q) = brute-force pair counts on the full grid; "
                  "P(2,2) = 88")


def test_c09_bound_suite():
    five_eighths = Fraction(5, 8)
    one_twelfth = Fraction(1, 12)
    for desc in SMALL_GROUPS:
        G = build(desc)
        meta = metadata(desc)
        cp2 = cp2_classcount(G)
        if not meta.abelian:
            assert cp2 <= five_eighths, desc
        if meta.simple:
            assert cp2 <= one_twelfth, desc
        if meta.p_group is not None and not meta.abelian:
            d = derived_length(G.full())
            assert d is not None and d >= 2, desc
            p = meta.p_group
            bound = Fraction(p ** d + p ** (d - 1) - 1, p ** (2 * d - 1))
            assert cp2 <= bound, desc
    assert cp2_classcount(build("Q8")) == five_eighths
    assert cp2_classcount(build("D(4)")) == five_eighths
    assert cp2_classcount(build("A(5)")) == one_twelfth
    assert cp2_classcount(build("PSL(2,5)")) == one_twelfth
    # rank-2 central-quotient formula
    for desc, p in (("Q8", 2), ("D(4)", 2), ("UT(3,3)", 3)):
        G = build(desc)
        for n in (2, 3, 4):
            expected = Fraction(p ** n + p ** (n - 1) - 1, p ** (2 * n - 1))
            assert cp_via_branching(G, n) == expected, (desc, n)
            assert cp_via_lescot(G, n) == expected, (desc, n)
    _report("C9", "Gustafson, Dixon, p-group and rank-2 bounds all hold "
                  "with the stated equality cases")


def test_c10_registry_consistency_sound_families():
    # matrix -> table consistency where the publication is internally
    # consistent, plus all column-1 sums against the engine
    for fam, qs in (("U2", (2, 3, 4, 5)), ("GL3", (2, 3))):
        for q in qs:
            for n in (2, 3, 4, 5):
                assert matrix_cp(fam, q, n) == \
                    evaluate(REGISTRY[(fam, n)].formula, q), (fam, q, n)
    for fam, qs in (("Sp2", (3, 5, 7)), ("U3", (2, 3))):
        for q in qs:
            assert matrix_cp(fam, q, 2) == \
                evaluate(REGISTRY[(fam, 2)].formula, q), (fam, q)
    colsum_grid = (("U2", 2, 9), ("U2", 3, 16), ("Sp2", 3, 7), ("Sp2", 5, 9),
                   ("Sp2", 7, 11), ("GL3", 2, 6), ("GL3", 3, 24),
                   ("U3", 2, 24), ("U3", 3, 56))
    for fam, q, expected in colsum_grid:
        assert matrix_column1_sum(fam, q) == expected, (fam, q)
        desc = {"U2": "U(2,{})", "Sp2": "Sp(2,{})", "GL3": "GL(3,{})",
                "U3": "U(3,{})"}[fam].format(q)
        assert conjugacy_classes(build(desc).full()).k == expected, (fam, q)
    _report("C10", "U2/GL3 matrices reproduce their tables; all column-1 "
                   "sums equal the engine's k(G)")


def test_c10_registry_consistency_sp2_as_printed():
    """Expected failure: the printed Sp2 matrix contradicts the printed
    Sp2 table for n >= 3 (same denominator misprint as the engine
    comparison; the matrix side is the correct one)."""
    failures = []
    for q in (3, 5, 7):
        for n in (3, 4, 5):
            derived = matrix_cp("Sp2", q, n)
            printed = evaluate(REGISTRY[("Sp2", n)].formula, q)
            if derived != printed:
                failures.append((q, n, str(derived), str(printed)))
    if failures:
        print("ACCEPTANCE C10 FAIL (documented upstream erratum): printed "
              "Sp2 matrix and printed Sp2 table disagree at n>=3")
    assert not failures, (
        "printed-matrix-derived vs printed table (q, n, matrix, table): "
        f"{failures}"
    )


def test_c10_registry_consistency_u3_as_printed():
    """Expected failure: the printed U3 matrix's fifth diagonal entry
    reads q^2(q+1); the state's order is q(q+1)^2 (the GL3 mirror is
    q(q-1)^2).  With that single entry corrected the matrix reproduces
    the printed U3 table exactly at q in {2,3,4,5} for n <= 5, and the
    engine's lumped matrix for U3(F2) and U3(F3) confirms the state
    order directly."""
    failures = []
    for q in (2, 3):
        for n in (3, 4, 5):
            derived = matrix_cp("U3", q, n)
            printed = evaluate(REGISTRY[("U3", n)].formula, q)
            if derived != printed:
                failures.append((q, n, str(derived), str(printed)))
    if failures:
        print("ACCEPTANCE C10 FAIL (documented upstream erratum): printed "
              "U3 matrix (5,5) entry q^2(q+1) should be q(q+1)^2")
    assert not failures, (
        "printed-matrix-derived vs printed table (q, n, matrix, table): "
        f"{failures}"
    )


def test_c11_determinism_across_runs_and_threads(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    env["PYTHONHASHSEED"] = "random"
    reports = []
    for i, threads in enumerate((1, 8, 8)):
        out = tmp_path / f"report{i}.json"
        env["COMMPROB_CACHE"] = str(tmp_path / f"cache{i}")
        proc = subprocess.run(
            [sys.executable, "-m", "commprob", "verify", "--grid", "default",
             "--json", str(out), "--threads", str(threads)],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr  # known-erratum rows mismatch
        assert out.exists(), proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] == reports[2]
    rows = json.loads(reports[0])
    from commprob.formulas import is_known_erratum_row

    assert all(is_known_erratum_row(r) for r in rows if not r["match"])
    _report("C11", "verify reports byte-identical across runs and thread "
                   "counts 1 and 8")
