"""Registry of published closed-form commuting probabilities, plus the
verification harness comparing them with engine output.

The registry stores each table entry exactly as printed in the published
tables for GL2, U2, Sp2, GL3 and U3 over F_q (numerator and denominator
built from the printed factors, no simplification), together with the
four published branching matrices with polynomial entries.  Internal
consistency -- the matrices reproducing the tables through the matrix
power identity -- is checked before the engine is ever consulted, so
transcription slips surface immediately.

Known errata (discovered by that very check and confirmed by direct
enumeration):

* the published Sp2 table's denominators for n >= 3 read
  q(q^2-1)^(n-1), but the tuple-class count c(n-1) printed in the
  numerator must be divided by |Sp2|^(n-1) = q^(n-1)(q^2-1)^(n-1); the
  published Sp2 branching matrix and brute-force tuple counts both give
  the corrected values;
* the published U3 branching matrix's fifth diagonal entry reads
  q^2(q+1) where the state's order is q(q+1)^2 (the mirror of the GL3
  matrix's q(q-1)^2); with that single entry corrected the matrix
  reproduces the published U3 table exactly, and the engine's lumped
  matrix confirms the state order.

The registry keeps the printed forms; corrected variants are registered
separately and both comparisons appear in the verification report.

Each published family is one row of ``FAMILIES``: its catalog
descriptor, validity, order polynomial, the q of each verify grid, its
printed table, its printed matrix if any, and its erratum patch if any.
``REGISTRY``, ``MATRICES`` and the corrected variants are read off those
rows.  Each verify check is one function returning report rows;
``_jobs`` binds each check to its family row and q and names the
groups it needs, and ``_run_job`` builds those groups and passes them to
the check.  ``verify_suite`` runs the jobs in one process or shares
them, in units of the groups they build, among forked worker processes
that take the units from one queue.
"""

from __future__ import annotations

import json
import os
import threading
# pickle and signal are imported inside the functions of the forking
# path, so that a serial run, the default, does not load them
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import factorial
from typing import Optional

from .branching import (
    columns_of,
    count_via_matrix,
    cp_via_branching,
    cp_via_lescot,
)
from .catalog import build, order_formula, parse
from .errors import InputError, InternalError
from .gf import prime_power
from .groups import conjugacy_classes


# ---------------------------------------------------------------------------
# dense polynomials in one variable q
# ---------------------------------------------------------------------------

def _coefficient(c):
    """An integral coefficient as an int, any other as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Dense polynomial with exact rational coefficients, low degree
    first: integral ones are kept as ints, which keeps building the
    registry cheap, and the others as Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def _coerce(v):
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction)):
            return Poly.const(v)
        return NotImplemented

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(
            a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))
        ))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Poly._coerce(other) + (-self)

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("polynomial powers must be nonnegative")
        result = Poly.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, q) -> Fraction:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return Fraction(acc)

    def __eq__(self, other):
        other = Poly._coerce(other)
        return isinstance(other, Poly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


X = Poly.x()


def binom_poly(expr: Poly, k: int) -> Poly:
    """Binomial coefficient C(expr, k) as a polynomial."""
    result = Poly.const(Fraction(1, factorial(k)))
    for i in range(k):
        result = result * (expr - i)
    return result


# ---------------------------------------------------------------------------
# rational functions with validity predicates
# ---------------------------------------------------------------------------

VALID_PRIME_POWER = "prime powers"
VALID_ODD_PRIME_POWER = "odd prime powers"


def _is_valid(q: int, validity: str) -> bool:
    pp = prime_power(q)
    if pp is None:
        return False
    if validity == VALID_ODD_PRIME_POWER:
        return q % 2 == 1
    return True


@dataclass(frozen=True)
class RationalFunction:
    num: Poly
    den: Poly
    validity: str = VALID_PRIME_POWER

    def valid_at(self, q: int) -> bool:
        return _is_valid(q, self.validity)

    def evaluate(self, q: int) -> Fraction:
        if not self.valid_at(q):
            raise InputError(
                f"q = {q} is outside this entry's validity ({self.validity})"
            )
        den = self.den(q)
        if den == 0:
            raise InputError(f"denominator vanishes at q = {q}")
        return self.num(q) / den


def evaluate(entry: RationalFunction, q: int) -> Fraction:
    return entry.evaluate(q)


@dataclass(frozen=True)
class RegistryEntry:
    key: tuple
    formula: RationalFunction
    source: str


def _rf(num, den, validity=VALID_PRIME_POWER):
    return RationalFunction(Poly._coerce(num), Poly._coerce(den), validity)


@dataclass(frozen=True)
class MatrixFormula:
    family: str
    entries: tuple          # tuple of row tuples of Poly
    order: Poly
    validity: str

    @property
    def dimension(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# the published families, one row each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One published family over F_q, as printed.

    ``descriptor`` is the catalog descriptor with ``{q}`` for the field
    size, ``order`` the group order, ``qs`` the q that each verify grid
    checks, ``table`` maps n to the printed cp_n as (numerator,
    denominator), and ``matrix`` is the printed branching matrix (rows of
    polynomial entries, column 1 the whole group) when one is printed.
    An erratum is a patch of the printed data: ``table_fix`` maps n to
    the corrected denominator, ``matrix_fix`` maps a 0-based (row,
    column) to the corrected entry."""
    name: str
    descriptor: str
    order: Poly
    qs: dict
    table: dict
    validity: str = VALID_PRIME_POWER
    matrix: Optional[tuple] = None
    table_fix: Optional[dict] = None
    matrix_fix: Optional[dict] = None

    def corrected_table(self) -> dict:
        """n -> cp_n, with ``table_fix``'s denominators where it has one."""
        return {n: _rf(num, self.table_fix.get(n, den), self.validity)
                for n, (num, den) in self.table.items()}

    def corrected_matrix(self) -> MatrixFormula:
        """The printed matrix, with ``matrix_fix``'s entries in place."""
        entries = tuple(
            tuple(self.matrix_fix.get((i, j), poly) for j, poly in enumerate(row))
            for i, row in enumerate(self.matrix)
        )
        return MatrixFormula(self.name, entries, self.order, self.validity)


_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)

# GL2 and U2 have the same printed cp_n table
_GL2_U2_TABLE = {
    2: (1, X**2 - X),
    3: (X**2 + X + 2, X**6 - 2 * X**4 + X**2),
    4: (X**3 + X**2 + 4 * X + 1, X**9 - 3 * X**7 + 3 * X**5 - X**3),
    5: (X**4 + X**3 + 7 * X**2 + X + 2,
        X**12 - 4 * X**10 + 6 * X**8 - 4 * X**6 + X**4),
}

FAMILIES = {fam.name: fam for fam in (
    Family(
        "GL2", "GL(2,{q})", (X**2 - 1) * (X**2 - X),
        qs={"default": (2, 3, 4, 5), "full": (2, 3, 4, 5, 7)},
        table=_GL2_U2_TABLE,
    ),
    Family(
        "U2", "U(2,{q})", X * (X + 1) * (X**2 - 1),
        qs={"default": (2, 3, 4, 5), "full": (2, 3, 4, 5, 7)},
        table=_GL2_U2_TABLE,
        matrix=(
            (X + 1, Poly(), Poly(), Poly()),
            (X + 1, X * (X + 1), Poly(), Poly()),
            ((X + 1) * X * _HALF, Poly(), (X + 1)**2, Poly()),
            ((X**2 - X - 2) * _HALF, Poly(), Poly(), X**2 - 1),
        ),
    ),
    Family(
        "Sp2", "Sp(2,{q})", X**3 - X,
        qs={"default": (3, 5, 7), "full": (3, 5, 7, 9)},
        validity=VALID_ODD_PRIME_POWER,
        table={
            2: (X + 4, X**3 - X),
            3: (X**2 + 8 * X + 9, X**5 - 2 * X**3 + X),
            4: (X**3 + 16 * X**2 + 19 * X + 16, X**7 - 3 * X**5 + 3 * X**3 - X),
            5: (X**4 + 32 * X**3 + 38 * X**2 + 32 * X + 33,
                X**9 - 4 * X**7 + 6 * X**5 - 4 * X**3 + X),
        },
        matrix=(
            (Poly.const(2), Poly(), Poly(), Poly(), Poly()),
            (Poly.const(2), 2 * X, Poly(), Poly(), Poly()),
            (Poly.const(2), Poly(), 2 * X, Poly(), Poly()),
            ((X - 3) * _HALF, Poly(), Poly(), X - 1, Poly()),
            ((X - 1) * _HALF, Poly(), Poly(), Poly(), X + 1),
        ),
        # the printed numerators are the tuple-class counts c(n-1), so the
        # denominator must be |Sp2|^(n-1) = (q^3 - q)^(n-1)
        table_fix={n: (X**3 - X)**(n - 1) for n in (3, 4, 5)},
    ),
    Family(
        "GL3", "GL(3,{q})", (X**3 - 1) * (X**3 - X) * (X**3 - X**2),
        qs={"default": (2, 3), "full": (2, 3)},
        table={
            2: (1, (X - 1)**2 * X**2 * (X**2 + X + 1)),
            3: (X**4 + X**3 + X**2 + 4,
                (X + 1)**2 * (X - 1)**4 * X**6 * (X**2 + X + 1)**2),
            4: (X**6 + X**5 + 2 * X**4 + X**3 + 8 * X**2 + 4 * X + 1,
                (X + 1)**3 * (X - 1)**6 * X**9 * (X**2 + X + 1)**3),
            5: (X**8 + X**7 + 4 * X**6 + 23 * X**4 - 2 * X**3 + 13 * X**2 - X + 4,
                (X + 1)**4 * (X - 1)**8 * X**12 * (X**2 + X + 1)**4),
        },
        matrix=(
            (X - 1, Poly(), Poly(), Poly(), Poly(), Poly(), Poly(), Poly()),
            (X - 1, X * (X - 1), Poly(), Poly(), Poly(), Poly(), Poly(), Poly()),
            ((X - 1) * (X - 2), Poly(), (X - 1)**2, Poly(), Poly(), Poly(), Poly(), Poly()),
            (X - 1, X**2 - 1, Poly(), X**2 * (X - 1), Poly(), Poly(), Poly(), Poly()),
            ((X - 1) * (X - 2), (X - 1) * (X - 2) * X, (X - 1)**2, Poly(),
             X * (X - 1)**2, Poly(), Poly(), Poly()),
            (binom_poly(X - 1, 3), Poly(), (X - 1) * binom_poly(X - 1, 2), Poly(),
             Poly(), (X - 1)**3, Poly(), Poly()),
            ((X - 1) * binom_poly(X, 2), Poly(), (X - 1) * binom_poly(X, 2), Poly(),
             Poly(), Poly(), (X - 1)**2 * (X + 1), Poly()),
            ((X**3 - X) * _THIRD, Poly(), Poly(), Poly(), Poly(), Poly(), Poly(),
             X**3 - 1),
        ),
    ),
    Family(
        "U3", "U(3,{q})", X**3 * (X + 1) * (X**2 - 1) * (X**3 + 1),
        qs={"default": (2,), "full": (2, 3)},
        table={
            2: (X**2 + X + 2, (X - 1) * (X + 1)**2 * X**3 * (X**2 - X + 1)),
            3: (X**4 + X**3 + 5 * X**2 + 4 * X + 2,
                (X - 1)**2 * (X + 1)**4 * X**6 * (X**2 - X + 1)**2),
            4: (X**6 + X**5 + 8 * X**4 + 9 * X**3 + 14 * X**2 + 4 * X + 1,
                (X - 1)**3 * (X + 1)**6 * X**9 * (X**2 - X + 1)**3),
            5: (X**8 + X**7 + 12 * X**6 + 16 * X**5 + 37 * X**4 + 20 * X**3
                + 17 * X**2 + 5 * X + 2,
                (X - 1)**4 * (X + 1)**8 * X**12 * (X**2 - X + 1)**4),
        },
        matrix=(
            (X + 1, Poly(), Poly(), Poly(), Poly(), Poly(), Poly(), Poly()),
            (X + 1, X * (X + 1), Poly(), Poly(), Poly(), Poly(), Poly(), Poly()),
            (X * (X + 1), Poly(), (X + 1)**2, Poly(), Poly(), Poly(), Poly(), Poly()),
            (X + 1, X**2 - 1, Poly(), (X + 1) * X**2, Poly(), Poly(), Poly(), Poly()),
            (X * (X + 1), (X + 1) * X**2, (X + 1)**2, Poly(), X**2 * (X + 1),
             Poly(), Poly(), Poly()),
            (binom_poly(X + 1, 3), Poly(), (X + 1) * binom_poly(X + 1, 2), Poly(),
             Poly(), (X + 1)**3, Poly(), Poly()),
            ((X + 1) * (X**2 - X - 2) * _HALF, Poly(),
             (X + 1) * (X**2 - X - 2) * _HALF, Poly(), Poly(), Poly(),
             (X + 1) * (X**2 - 1), Poly()),
            ((X**3 - X) * _THIRD, Poly(), Poly(), Poly(), Poly(), Poly(), Poly(),
             X**3 + 1),
        ),
        # the fifth diagonal entry is printed q^2(q+1); the state's order
        # is q(q+1)^2, the mirror of the GL3 matrix's q(q-1)^2
        matrix_fix={(4, 4): X * (X + 1)**2},
    ),
)}

# cp_n tables exactly as printed
REGISTRY = {
    (fam.name, n): RegistryEntry(
        key=(fam.name, n), formula=_rf(num, den, fam.validity),
        source=f"published cp_{n} table for {fam.name} over F_q")
    for fam in FAMILIES.values() for n, (num, den) in fam.table.items()
}

# the four published branching matrices, polynomial entries as printed
MATRICES = {
    fam.name: MatrixFormula(fam.name, fam.matrix, fam.order, fam.validity)
    for fam in FAMILIES.values() if fam.matrix
}

SP2_CORRECTED = FAMILIES["Sp2"].corrected_table()
U3_MATRIX_CORRECTED = FAMILIES["U3"].corrected_matrix()

# class count and cp_2 of PSL2 over F_q, odd q
K_PSL2 = _rf(X + 5, 2, VALID_ODD_PRIME_POWER)
CP2_PSL2 = _rf(X + 5, (X + 1) * X * (X - 1), VALID_ODD_PRIME_POWER)


def _evaluate_matrix_formula(mf: MatrixFormula, q: int):
    if not _is_valid(q, mf.validity):
        raise InputError(
            f"q = {q} is outside the {mf.family} matrix validity ({mf.validity})"
        )
    out = []
    for row in mf.entries:
        vals = []
        for poly in row:
            v = poly(q)
            if v.denominator != 1 or v < 0:
                raise InternalError(
                    f"{mf.family} matrix entry {poly!r} evaluates to {v} at q={q}"
                )
            vals.append(v.numerator)
        out.append(vals)
    return out


def evaluate_matrix(family: str, q: int):
    """The published branching matrix at concrete q, as a nonnegative
    integer matrix (column 1 is the whole-group state)."""
    return _evaluate_matrix_formula(MATRICES[family], q)


def _matrix_at(mf: MatrixFormula, q: int):
    """The matrix ``mf`` at q, as its columns, and the group order."""
    columns = columns_of(_evaluate_matrix_formula(mf, q))
    order = mf.order(q)
    if order.denominator != 1:
        raise InternalError(f"{mf.family} group order is not an integer at q={q}")
    return columns, order.numerator


def _cp_from_matrix(columns, order: int, n: int) -> Fraction:
    return Fraction(count_via_matrix(columns, 0, n - 1), order ** (n - 1))


def _matrix_formula_cp(mf: MatrixFormula, q: int, n: int) -> Fraction:
    if n < 2:
        raise InputError("n must be at least 2")
    return _cp_from_matrix(*_matrix_at(mf, q), n)


def matrix_cp(family: str, q: int, n: int) -> Fraction:
    """cp_n derived from the published matrix via the power identity."""
    return _matrix_formula_cp(MATRICES[family], q, n)


def matrix_column1_sum(family: str, q: int) -> int:
    counts = evaluate_matrix(family, q)
    return sum(row[0] for row in counts)


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------

GRIDS = ("default", "full")

_CONSTANTS = (
    ("Q8", Fraction(5, 8)),
    ("D(4)", Fraction(5, 8)),
    ("A(5)", Fraction(1, 12)),
    ("PSL(2,3)", Fraction(1, 3)),
)

_PROP32_NS = (2, 3, 4, 5, 6)
_PSL_QS = (5, 7, 9)


def _frac_str(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _row(key, q, n, engine_branching, engine_lescot, registry, match):
    return {
        "key": key,
        "q": q,
        "n": n,
        "engine_branching": None if engine_branching is None else _frac_str(engine_branching),
        "engine_lescot": None if engine_lescot is None else _frac_str(engine_lescot),
        "registry": None if registry is None else _frac_str(registry),
        "match": bool(match),
    }


def _cp_row(key, G, q, n, expected, *, lescot=True, shown=True):
    """Compare cp_n(G) by branching, and by Lescot unless ``lescot`` is
    False, with ``expected``, which the registry column shows unless
    ``shown`` is False."""
    eb = cp_via_branching(G, n)
    el = cp_via_lescot(G, n) if lescot else None
    return _row(key, q, n, eb, el, expected if shown else None,
                eb == expected and (el is None or el == expected))


def _k_row(key, G, q, expected):
    """Compare the class count k(G) with ``expected``."""
    k = conjugacy_classes(G.full()).k
    return _row(key, q, 1, k, None, expected, k == expected)


def _matrix_rows(key, fam, mf, q):
    """Compare cp_n derived from the matrix ``mf``, evaluated once at q,
    with fam's printed table."""
    columns, order = _matrix_at(mf, q)
    rows = []
    for n in fam.table:
        derived = _cp_from_matrix(columns, order, n)
        reg = REGISTRY[(fam.name, n)].formula.evaluate(q)
        rows.append(_row(key, q, n, derived, None, reg, derived == reg))
    return rows


# one function per check; each takes the groups its job names last and
# returns its report rows

def _check_table(fam, q, G):
    return [_cp_row(f"cp:{fam.name}", G, q, n,
                    REGISTRY[(fam.name, n)].formula.evaluate(q))
            for n in fam.table]


def _check_consistency(fam, q):
    return _matrix_rows(f"consistency:{fam.name}", fam, MATRICES[fam.name], q)


def _check_colsum(fam, q, G):
    return [_k_row(f"colsum:{fam.name}", G, q, matrix_column1_sum(fam.name, q))]


def _check_table_erratum(fam, q, G):
    corrected = fam.corrected_table()
    return [_cp_row(f"erratum:{fam.name}-table", G, q, n,
                    corrected[n].evaluate(q), lescot=False)
            for n in sorted(fam.table_fix)]


def _check_matrix_erratum(fam, q):
    return _matrix_rows(f"erratum:{fam.name}-matrix", fam,
                        fam.corrected_matrix(), q)


def _check_prop32(q, GL, U):
    rows = []
    for n in _PROP32_NS:
        a = cp_via_branching(GL, n)
        b = cp_via_branching(U, n)
        rows.append(_row("prop32:GL2-U2", q, n, a, b, None, a == b))
    return rows


def _check_sp2_exclusion(G):
    # the Sp2 formulas hold for odd q only; Sp(2,2) is S(3)
    return [_cp_row("exclusion:Sp2", G, 2, 2, Fraction(1, 2), shown=False)]


def _check_k_psl2(q, G):
    return [_k_row("k:PSL2", G, q, K_PSL2.evaluate(q))]


def _check_cp2_psl2(q, G):
    return [_cp_row("cp2:PSL2", G, q, 2, CP2_PSL2.evaluate(q))]


def _check_const(name, value, G):
    return [_cp_row(f"const:{name}", G, None, 2, value)]


def _jobs(grid: str):
    """The grid's checks: (descriptors, check) pairs, where check is a
    call with its family and q bound, and descriptors are the catalog
    groups that ``_run_job`` builds and passes to it."""
    if grid not in GRIDS:
        raise InputError(f"unknown grid {grid!r} (use 'default' or 'full')")
    jobs = []

    def add(job, *descriptors):
        jobs.append((descriptors, job))

    for fam in FAMILIES.values():
        for q in fam.qs[grid]:
            G = fam.descriptor.format(q=q)
            add(partial(_check_table, fam, q), G)
            if fam.matrix:
                add(partial(_check_consistency, fam, q))
                add(partial(_check_colsum, fam, q), G)
            if fam.table_fix:
                add(partial(_check_table_erratum, fam, q), G)
            if fam.matrix_fix:
                add(partial(_check_matrix_erratum, fam, q))
    # cp_n(GL2) = cp_n(U2) is checked at the q of the GL2 table
    for q in FAMILIES["GL2"].qs[grid]:
        add(partial(_check_prop32, q), f"GL(2,{q})", f"U(2,{q})")
    add(_check_sp2_exclusion, "Sp(2,2)")
    for q in _PSL_QS:
        add(partial(_check_k_psl2, q), f"PSL(2,{q})")
        add(partial(_check_cp2_psl2, q), f"PSL(2,{q})")
    for name, value in _CONSTANTS:
        add(partial(_check_const, name, value), name)
    return jobs


def _run_job(job):
    """Run one grid job, a (descriptors, check) pair: build the groups
    and pass them to the check, in order; returns its report rows."""
    descriptors, check = job
    return check(*map(build, descriptors))


def _sort_key(row):
    return (row["key"], row["q"] if row["q"] is not None else -1,
            row["n"] if row["n"] is not None else -1)


def _units(jobs):
    """The positions of ``jobs`` in units, heaviest first, so that every
    group is built in one unit only.

    The jobs that build a common group form one unit, weighed by the
    orders of its groups, read from the catalog's order formulas without
    building them; a job that builds none is a unit of weight 0.  Ties
    keep the order of their first jobs, and each unit lists its
    positions in ascending order."""
    units = []   # (descriptors, job positions)
    for i, (descriptors, _) in enumerate(jobs):
        groups = {str(parse(d)) for d in descriptors}
        positions = [i]
        for unit in [u for u in units if u[0] & groups]:
            units.remove(unit)
            groups |= unit[0]
            positions = unit[1] + positions
        units.append((groups, positions))
    weighed = sorted(((sum(order_formula(d) for d in groups), positions)
                      for groups, positions in units),
                     key=lambda unit: (-unit[0], min(unit[1])))
    return [sorted(positions) for _, positions in weighed]


# the queue holds each unit index in this many bytes, big-endian; it is
# written in one piece of at most _QUEUE_BYTES, POSIX's least PIPE_BUF, so
# that the write is atomic and never waits for a reader
_INDEX_WIDTH = 2
_QUEUE_BYTES = 512


def _can_fork() -> bool:
    # a child forked while another thread runs would inherit any lock
    # that thread holds, such as the catalog's build lock, held forever
    return hasattr(os, "fork") and threading.active_count() == 1


def _allowed_cpus():
    """The CPUs this process may run on, in order, or None where a
    process cannot be pinned to one."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    return sorted(os.sched_getaffinity(0))


def _taken(queue):
    """The unit indices this process takes from the pipe ``queue``, one
    ``os.read`` each, until the pipe's end."""
    while index := os.read(queue, _INDEX_WIDTH):
        if len(index) != _INDEX_WIDTH:
            raise InternalError(
                f"the verify queue gave a partial index {index!r}")
        yield int.from_bytes(index, "big")


def _run_worker(jobs, units, first, queue):
    """Run the jobs of unit ``first``, then of every unit taken from the
    pipe ``queue``; returns {position: rows}."""
    rows = {}
    for u in chain((first,), _taken(queue)):
        for i in units[u]:
            rows[i] = _run_job(jobs[i])
    return rows


def _run_child(jobs, units, first, queue, fd, inherited, cpu):
    """In a forked child: close the ``inherited`` pipe ends, pin itself
    to ``cpu`` unless it is None, run unit ``first`` and then the units
    it takes from ``queue`` (:func:`_run_worker`), write the pickled
    ``(True, {position: rows})``, or ``(False, exception)`` when a job
    raised, to the pipe ``fd``, and leave by ``os._exit`` so that nothing
    of the parent's state is flushed or torn down twice."""
    try:
        import pickle

        try:
            for end in inherited:
                os.close(end)
            if cpu is not None:
                os.sched_setaffinity(0, [cpu])
            result = True, _run_worker(jobs, units, first, queue)
        except BaseException as exc:  # sent to the parent, raised there
            result = False, exc
        try:
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        except Exception:
            data = pickle.dumps((False, InternalError(
                f"a verify worker's result cannot be sent: {result[1]!r}")))
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _read_to_eof(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _received(data, status):
    """The rows a child sent, or the exception it sent, raised here."""
    import pickle

    if not data:
        code = os.waitstatus_to_exitcode(status)
        ended = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise InternalError(f"a verify worker ended by {ended} with no result")
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise InternalError(
            f"a verify worker's result cannot be read: {exc!r}") from None
    if not ok:
        raise value
    return value


def _run_units(jobs, units, k):
    """Run every unit's jobs in at most k worker processes; returns
    {position: rows}.

    Worker 0 is this process, and workers 1 to min(k, len(units)) - 1
    are children made by ``os.fork``.  Worker b starts with unit b, so
    the heaviest unit runs here.  The other units wait in one pipe, the
    queue: after forking, the parent writes their indices into it once
    and closes its write end, as each child does with the one it
    inherits.  Each worker, its first unit done, takes the next index
    with one ``os.read`` until the pipe's end; the kernel serialises the
    reads on a pipe, so each unit runs once, in the first worker free.
    A failed fork leaves its first unit to the queue.  Each child sends
    its rows through a pipe of its own.  The parent reads every child's
    pipe to its end before it reaps any child, so no child waits on a
    full pipe.  When the parent's own jobs raise, the children not yet
    read are killed; every child is reaped either way.

    Linux need not move a forked child off its parent's CPU during a
    short run: on a 2-vCPU VM both ran on one CPU in most runs.  So,
    where it can, worker b pins itself to allowed CPU b mod their count,
    and the parent to the first allowed CPU, which it restores at the
    end.  The parent pins itself only after forking: a child that
    inherited the parent's single CPU waited there, behind the parent,
    for several milliseconds before it could move."""
    if (len(units) - 1) * _INDEX_WIDTH > _QUEUE_BYTES:
        raise InternalError(f"{len(units)} units overflow the verify queue")
    workers = min(k, len(units))
    queue = list(range(workers, len(units)))
    children = []    # (pid, read end)
    received = []
    cpus = _allowed_cpus()
    take, put = os.pipe()
    try:
        for b in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                queue.append(b)
                continue
            if pid == 0:
                inherited = [r, put] + [end for _, end in children]
                _run_child(jobs, units, b, take, w, inherited,
                           cpus[b % len(cpus)] if cpus else None)
            os.close(w)
            children.append((pid, r))
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        os.write(put, b"".join(u.to_bytes(_INDEX_WIDTH, "big")
                               for u in sorted(queue)))
        os.close(put)
        put = None
        rows = _run_worker(jobs, units, 0, take)
        for _, r in children:
            received.append(_read_to_eof(r))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
        if put is not None:
            os.close(put)
        os.close(take)
        for n, (pid, r) in enumerate(children):
            os.close(r)
            if n >= len(received):
                # imported only here: at a millisecond, it would delay
                # every fork
                import signal

                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for data, status in zip(received, statuses):
        rows.update(_received(data, status))
    return rows


def verify_suite(grid: str = "default", workers: int = 1):
    """Run the verification grid; returns (rows, all_ok).

    Every row carries both engine values where applicable, the registry
    value, and a match flag; ``all_ok`` is True only when every row
    matches.  Note that ``cp:Sp2`` rows with n >= 3 mismatch on every
    grid because of the documented denominator erratum in the published
    Sp2 table (see :func:`is_known_erratum_row`); the ``erratum:Sp2``
    rows show the same engine values agreeing with the corrected form.

    With ``workers`` k > 1 the jobs that build a common group form one
    unit (:func:`_units`), and the units run in k worker processes:
    this one, which starts with the heaviest unit, and up to k - 1
    forked children, which start with the next ones.  Every worker then
    takes the remaining units, heaviest first, from one shared queue
    until it is empty (:func:`_run_units`), so no worker idles while
    units are left.  The rows are the same as with one worker.  The
    grid runs in this process alone when ``os.fork`` is missing or
    another thread is running.
    """
    if workers < 1:
        raise InputError(f"workers must be at least 1, not {workers}")
    jobs = _jobs(grid)
    if workers > 1 and _can_fork():
        by_position = _run_units(jobs, _units(jobs), workers)
    else:
        by_position = {i: _run_job(job) for i, job in enumerate(jobs)}
    rows = sorted((r for i in range(len(jobs)) for r in by_position[i]),
                  key=_sort_key)
    ok = all(r["match"] for r in rows)
    return rows, ok


def is_known_erratum_row(row) -> bool:
    """Rows that mismatch because of the two documented publication
    errata: the Sp2 table denominators for n >= 3 (affecting both the
    engine-vs-table and matrix-vs-table comparisons) and the U3 matrix
    (5,5) entry (affecting the matrix-vs-table comparison)."""
    n = row["n"]
    if n is None or n < 3:
        return False
    return row["key"] in ("cp:Sp2", "consistency:Sp2", "consistency:U3")


def report_json(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


def render_table(rows) -> str:
    headers = ("key", "q", "n", "branching", "lescot", "registry", "match")
    table = [headers]
    for r in rows:
        table.append((
            r["key"],
            "-" if r["q"] is None else str(r["q"]),
            "-" if r["n"] is None else str(r["n"]),
            "-" if r["engine_branching"] is None else r["engine_branching"],
            "-" if r["engine_lescot"] is None else r["engine_lescot"],
            "-" if r["registry"] is None else r["registry"],
            "ok" if r["match"] else "MISMATCH",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))).rstrip())
    return "\n".join(lines) + "\n"
