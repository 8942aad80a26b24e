"""Deterministic constructors for the supported group families.

Descriptors follow a small grammar:

    C(n)            cyclic
    CxC(n1,...,nr)  direct product of cyclics
    S(n) / A(n)     symmetric / alternating
    D(n)            dihedral of order 2n
    Q8              quaternion group
    UT(3,p)         upper unitriangular 3x3 over GF(p)
    GL(d,q) SL(d,q) general / special linear, d <= 3
    Sp(2,q)         symplectic (= SL(2,q) as a set)
    U(d,q)          full unitary group over GF(q^2), d in {2,3}
    PSL(2,q)        projective special linear, as permutations of the
                    q+1 projective-line points
    M(d,q)          d x d matrix algebra; parseable, but a monoid: it is
                    only a target for brute-force pair counts, not build()

Each family is one row of the table ``_FAMILIES``: its parameter rule,
its closed-form order and its builder.  Parsing, validation, the order
formula and construction all look the family up there, so a family is
added or changed in that one row.  Each build is checked against the
row's order and comes with metadata flags (abelian / simple / solvable
where known).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InputError, InternalError, SizeCapError
from .gf import field, is_prime, is_prime_power, prime_power
from .groups import GROUP_SIZE_CAP, Group, matrix_operations

_ENUMERATION_CAP = 300_000


@dataclass(frozen=True)
class GroupDescriptor:
    family: str
    params: tuple

    def __str__(self):
        if self.family == "Q8":
            return "Q8"
        return f"{self.family}({','.join(str(p) for p in self.params)})"

    def __repr__(self):
        return f"GroupDescriptor({self})"


@dataclass(frozen=True)
class GroupMeta:
    abelian: bool
    simple: bool
    solvable: Optional[bool]
    p_group: Optional[int]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse(text: str) -> GroupDescriptor:
    """Parse a descriptor; whitespace-insensitive, errors carry position."""
    if not isinstance(text, str):
        raise InputError("descriptor must be a string")
    chars = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    if not chars:
        raise InputError("empty descriptor")
    stripped = "".join(ch for _, ch in chars)

    def err(pos_idx, msg):
        pos = chars[pos_idx][0] if pos_idx < len(chars) else len(text)
        raise InputError(f"descriptor error at position {pos}: {msg}")

    name = None
    for cand in sorted(_FAMILIES, key=len, reverse=True):
        if stripped.startswith(cand):
            name = cand
            break
    if name is None:
        err(0, f"unknown family in {text!r}")
    i = len(name)
    if _FAMILIES[name].arity == 0:
        if i != len(stripped):
            err(i, f"{name} takes no parameters")
        return GroupDescriptor(name, ())
    if i >= len(stripped) or stripped[i] != "(":
        err(i, "expected '('")
    i += 1
    params = []
    while True:
        j = i
        while j < len(stripped) and stripped[j].isdigit():
            j += 1
        if j == i:
            err(i, "expected an integer parameter")
        params.append(int(stripped[i:j]))
        i = j
        if i >= len(stripped):
            err(i, "expected ',' or ')'")
        if stripped[i] == ",":
            i += 1
            continue
        if stripped[i] == ")":
            i += 1
            break
        err(i, f"unexpected character {stripped[i]!r}")
    if i != len(stripped):
        err(i, "trailing characters after ')'")
    desc = GroupDescriptor(name, tuple(params))
    _validate(desc)
    return desc


def _validate(desc: GroupDescriptor):
    """Raise InputError unless ``desc`` names a row of ``_FAMILIES`` and
    meets its parameter rule."""
    fam = _FAMILIES.get(desc.family)
    if fam is None:
        raise InputError(f"unknown family {desc.family!r}")
    ps = desc.params
    if not isinstance(ps, tuple) or any(type(p) is not int for p in ps):
        raise InputError(f"{desc.family}: parameters {ps!r} are not a tuple "
                         "of integers")
    arity_ok = len(ps) >= 1 if fam.arity is None else len(ps) == fam.arity
    if not arity_ok or any(n < 1 for n in ps):
        raise InputError(f"{desc}: expected {fam.form} with positive integers")
    if fam.degrees:
        d, q = ps
        if d not in fam.degrees:
            raise InputError(f"{desc}: unsupported degree {d} (need "
                             f"{' or '.join(str(k) for k in fam.degrees)})")
        if not (is_prime(q) if fam.field == "prime" else is_prime_power(q)):
            raise InputError(f"{desc}: q = {q} is not a {fam.field}")


def _as_descriptor(desc) -> GroupDescriptor:
    if isinstance(desc, GroupDescriptor):
        _validate(desc)
        return desc
    return parse(desc)


# ---------------------------------------------------------------------------
# order formulas and metadata
# ---------------------------------------------------------------------------

def order_formula(desc) -> int:
    desc = _as_descriptor(desc)
    return _FAMILIES[desc.family].order(*desc.params)


def metadata(desc) -> GroupMeta:
    desc = _as_descriptor(desc)
    fam, ps = desc.family, desc.params
    order = order_formula(desc)
    pp = prime_power(order)
    p_group = pp[0] if pp else None

    if fam in ("C", "CxC"):
        abelian = True
    elif fam == "S":
        abelian = ps[0] <= 2
    elif fam == "A":
        abelian = ps[0] <= 3
    elif fam == "D":
        abelian = ps[0] <= 2
    elif fam in ("GL", "SL"):
        abelian = ps[0] == 1
    else:
        abelian = order == 1

    simple = False
    if fam == "A" and ps[0] >= 5:
        simple = True
    if fam == "PSL" and ps[1] >= 4:
        simple = True
    # these matrix groups have a trivial centre, so they equal PSL(d,q):
    # SL(2,q) = Sp(2,q) for even q >= 4, SL(3,q) when gcd(3, q-1) = 1,
    # and GL(3,2) = SL(3,2)
    if fam in ("SL", "Sp") and ps[0] == 2 and ps[1] % 2 == 0 and ps[1] >= 4:
        simple = True
    if fam == "SL" and ps[0] == 3 and math.gcd(3, ps[1] - 1) == 1:
        simple = True
    if fam == "GL" and ps == (3, 2):
        simple = True

    solvable: Optional[bool]
    if abelian or fam in ("D", "Q8", "UT") or p_group is not None:
        solvable = True
    elif fam == "S":
        solvable = ps[0] <= 4
    elif fam == "A":
        solvable = ps[0] <= 4
    elif simple:
        solvable = order == 1
    elif fam in ("GL", "SL", "Sp") and ps[-1] in (2, 3) and ps[0] <= 2:
        # GL2(2)=S3, GL2(3), SL2(2)=S3, SL2(3), Sp2(2), Sp2(3)
        solvable = True
    elif fam == "PSL" and ps[1] in (2, 3):
        solvable = True
    else:
        solvable = None
    return GroupMeta(abelian=abelian, simple=simple, solvable=solvable,
                     p_group=p_group)


# ---------------------------------------------------------------------------
# builders: each takes the descriptor text and the family's parameters
# ---------------------------------------------------------------------------

def _rotation(n, offset=0, degree=None):
    degree = degree if degree is not None else n
    img = list(range(degree))
    for i in range(n):
        img[offset + i] = offset + (i + 1) % n
    return tuple(img)


def _build_product_cyclic(descriptor, *ns):
    """C(n) and CxC(n1,...,nr): one rotation per factor n > 1, each on
    its own block of points."""
    degree = sum(ns)
    gens = []
    offset = 0
    for n in ns:
        if n > 1:
            gens.append(_rotation(n, offset, degree))
        offset += n
    return Group.from_permutation_generators(degree, gens, descriptor)


def _build_symmetric(descriptor, n):
    if n == 1:
        gens = []
    elif n == 2:
        gens = [(1, 0)]
    else:
        transposition = (1, 0) + tuple(range(2, n))
        gens = [transposition, _rotation(n)]
    return Group.from_permutation_generators(n, gens, descriptor)


def _build_alternating(descriptor, n):
    if n <= 2:
        return Group.from_permutation_generators(n, [], descriptor)
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [three_cycle]
    elif n % 2 == 1:
        gens = [three_cycle, _rotation(n)]
    else:
        long_cycle = (0,) + tuple(1 + (i + 1) % (n - 1) for i in range(n - 1))
        gens = [three_cycle, long_cycle]
    return Group.from_permutation_generators(n, gens, descriptor)


def _build_dihedral(descriptor, n):
    if n == 1:
        return Group.from_permutation_generators(2, [(1, 0)], descriptor)
    if n == 2:
        return Group.from_permutation_generators(
            4, [(1, 0, 2, 3), (0, 1, 3, 2)], descriptor)
    reflection = tuple((n - i) % n for i in range(n))
    return Group.from_permutation_generators(
        n, [_rotation(n), reflection], descriptor)


def _build_q8(descriptor):
    F3 = field(3)
    return Group.from_matrix_generators(
        F3, 2, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]], descriptor)


def _build_ut3(descriptor, d, p):
    F = field(p)
    e12 = (1, 1, 0, 0, 1, 0, 0, 0, 1)
    e23 = (1, 0, 0, 0, 1, 1, 0, 0, 1)
    return Group.from_matrix_generators(F, 3, [e12, e23], descriptor)


def _linear_matrices(d, q, det_one):
    """The d x d matrices over GF(q) with nonzero determinant, or with
    determinant one when ``det_one``, in lexicographic order of their
    flattened entry indices; and the field's matrix operations.  The
    invertible ones are listed by ``_independent_rows``, with no
    determinant; those of determinant one are filtered from every
    matrix by it."""
    fld = field(*prime_power(q))
    if q ** (d * d) > _ENUMERATION_CAP:
        raise SizeCapError(
            f"matrix enumeration of size {q ** (d * d)} exceeds "
            f"the cap {_ENUMERATION_CAP}"
        )
    ops = matrix_operations(fld, d)
    if det_one:
        det = ops.det
        one = fld.one_index
        entries = itertools.product(range(q), repeat=d * d)
        mats = [m for m in entries if det(m) == one]
    else:
        mats = _independent_rows(fld, d)
    return mats, ops


def _independent_rows(fld, d):
    """The invertible d x d matrices over ``fld`` as flat entry tuples,
    in lexicographic order: row i runs, in lexicographic order, over the
    vectors outside the span of the rows above it.  Rows are compared
    first to last, so this is the order of the flattened entries, and a
    matrix is invertible exactly when each row is outside the span of
    the rows above it.

    Vectors are numbered by their lexicographic index, and the rows
    allowed below are read off a mask of the vectors outside the span.
    The span of one row r is its q multiples, numbered directly; the
    span of two rows is the q^2 sums of their multiples, read from a
    table of vector sums."""
    q = fld.q
    mul = fld.mul_table()
    vectors = list(itertools.product(range(q), repeat=d))
    if d == 1:
        return vectors[1:]
    mats = []
    outside = bytearray(b"\1") * len(vectors)
    if d == 2:
        for r in vectors[1:]:
            r0, r1 = r
            keep = outside[:]
            for m in mul:
                keep[m[r0] * q + m[r1]] = 0
            mats.extend(map(r.__add__, itertools.compress(vectors, keep)))
        return mats
    add = fld.add_table()
    index = {v: c for c, v in enumerate(vectors)}
    # scaled[a][c]: a times vector c; vsum[c][e]: vector c plus vector e
    scaled = [[index[tuple(map(m.__getitem__, v))] for v in vectors]
              for m in mul]
    vsum = [[index[(a0[w0], a1[w1], a2[w2])] for w0, w1, w2 in vectors]
            for a0, a1, a2 in ([add[u] for u in v] for v in vectors)]
    for c0 in range(1, len(vectors)):
        sums = [vsum[s[c0]] for s in scaled]
        keep0 = outside[:]
        for s in scaled:
            keep0[s[c0]] = 0
        for c1 in itertools.compress(range(len(vectors)), keep0):
            keep = outside[:]
            for row in sums:
                for s in scaled:
                    keep[row[s[c1]]] = 0
            rows = vectors[c0] + vectors[c1]
            mats.extend(map(rows.__add__, itertools.compress(vectors, keep)))
    return mats


def _build_linear(descriptor, d, q, det_one=False):
    """GL(d,q), or SL(d,q) when ``det_one``."""
    mats, ops = _linear_matrices(d, q, det_one)
    return Group.from_matrix_list(ops.field, d, mats, descriptor)


def _build_sp2(descriptor, d, q):
    """SL(2,q)'s matrices, each checked to preserve the symplectic form."""
    mats, ops = _linear_matrices(d, q, det_one=True)
    # A^T J A == J with J = [[0,1],[-1,0]]
    fld = ops.field
    one = fld.one_index
    J = (0, one, fld.neg_table()[one], 0)
    mm = ops.mul
    tr = ops.transpose
    for A in mats:
        if mm(mm(tr(A), J), A) != J:
            raise InternalError(f"{descriptor}: matrix does not preserve the form")
    return Group.from_matrix_list(fld, d, mats, descriptor)


def _build_unitary(descriptor, d, q):
    """Matrices over GF(q^2) with orthonormal columns for the Hermitian
    form <u, v> = sum conj(u_i) v_i (identity Gram matrix, conjugation
    x -> x^q).

    The unit vectors (<v, v> = 1) are listed once, in lexicographic order
    of their entry indices, and form the vertices of an orthogonality
    graph: ``orth[i]`` is the set of unit vectors orthogonal to unit i.
    Since <l u, v> = conj(l) <u, v>, unit vectors on one line have the
    same set, so it is computed once per line (for ``U(3,3)``, 63 sets
    of 252 form evaluations each, not 252 sets).  The first column
    ranges over all unit vectors in index order, the second over the
    sorted ``orth`` set of the first, and for d = 3 the third over the
    sorted intersection of the first two columns' sets.  Each matrix is
    its columns one after another, read in row-major order by one
    ``itemgetter``.  So the matrices come out in the order of a scan
    that tests every unit vector against every chosen column, without
    any form evaluation after the graph is built."""
    p, k = prime_power(q)
    ext = field(p, 2 * k)
    add = ext.add_table()
    mul = ext.mul_table()
    inv_t = ext.inv_table()
    conj = [ext.frobenius_index(i, k) for i in range(ext.q)]
    one = ext.one_index

    def herm(u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = add[acc][mul[conj[a]][b]]
        return acc

    vectors = list(itertools.product(range(ext.q), repeat=d))
    unit = [v for v in vectors if herm(v, v) == one]
    # <u, v> with u's rows mul[conj[u_i]] looked up once per coordinate,
    # then one straight-line sum per v; one set per line, keyed by the
    # multiple of u whose first nonzero entry is one
    by_line = {}
    orth = []
    for u in unit:
        scale = mul[inv_t[next(a for a in u if a)]]
        line = tuple(map(scale.__getitem__, u))
        oc = by_line.get(line)
        if oc is None:
            rows = [mul[conj[a]] for a in u]
            if d == 2:
                r0, r1 = rows
                oc = frozenset(j for j, (a, b) in enumerate(unit)
                               if add[r0[a]][r1[b]] == 0)
            else:
                r0, r1, r2 = rows
                oc = frozenset(j for j, (a, b, c) in enumerate(unit)
                               if add[add[r0[a]][r1[b]]][r2[c]] == 0)
            by_line[line] = oc
        orth.append(oc)

    mats = []
    # the columns one after another, entry (i, j) at j d + i, read by rows
    row_major = operator.itemgetter(*(j * d + i for i in range(d)
                                      for j in range(d)))
    for c, oc in enumerate(orth):
        # the second column's candidates: every unit vector orthogonal to
        # c; for d = 3, the third's: those orthogonal to both columns
        second = sorted(oc)
        if d == 2:
            frames = [(unit[c], second)]
        else:
            frames = [(unit[c] + unit[c2], sorted(oc & orth[c2]))
                      for c2 in second]
        for head, last in frames:
            mats.extend(map(row_major, map(head.__add__,
                                           map(unit.__getitem__, last))))
    return Group.from_matrix_list(ext, d, mats, descriptor)


def _build_psl2(descriptor, d, q):
    """SL(2,q) acting on the q+1 points of the projective line, one
    permutation per pair of matrices +-A, in order of first appearance."""
    mats, ops = _linear_matrices(d, q, det_one=True)
    fld = ops.field
    one = fld.one_index
    mul = fld.mul_table()
    add = fld.add_table()
    inv_t = fld.inv_table()
    points = [(one, x) for x in range(fld.q)] + [(0, one)]
    point_index = {pt: i for i, pt in enumerate(points)}

    def act(A, v):
        a, b, c, d = A
        w0 = add[mul[a][v[0]]][mul[b][v[1]]]
        w1 = add[mul[c][v[0]]][mul[d][v[1]]]
        if w0 != 0:
            return (one, mul[w1][inv_t[w0]])
        return (0, one)

    perms = []
    seen = set()
    for A in mats:
        perm = tuple(point_index[act(A, pt)] for pt in points)
        if perm not in seen:
            seen.add(perm)
            perms.append(perm)
    return Group.from_permutation_list(len(points), perms, descriptor)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

def _gl_order(d, q):
    return math.prod(q ** d - q ** i for i in range(d))


def _unitary_order(d, q):
    if d == 2:
        return q * (q + 1) * (q * q - 1)
    return q ** 3 * (q + 1) * (q * q - 1) * (q ** 3 + 1)


@dataclass(frozen=True)
class _Family:
    """One catalog family.

    Parameter rule: ``arity`` positive integers (``None``: one or more).
    A matrix family has ``degrees``, the allowed first parameter d, and
    its last parameter must be a ``field`` size: a "prime" or a "prime
    power".  ``order`` and ``build`` take the parameters (``build`` after
    the descriptor text); a family without ``build`` is parse-only."""
    form: str
    order: Callable[..., int]
    build: Optional[Callable[..., Group]]
    arity: Optional[int] = 2
    degrees: tuple = ()
    field: str = "prime power"


_FAMILIES = {
    "C": _Family("C(n)", lambda n: n, _build_product_cyclic, arity=1),
    "CxC": _Family("CxC(n1,...,nr)", lambda *ns: math.prod(ns),
                   _build_product_cyclic, arity=None),
    "S": _Family("S(n)", math.factorial, _build_symmetric, arity=1),
    "A": _Family("A(n)", lambda n: 1 if n < 3 else math.factorial(n) // 2,
                 _build_alternating, arity=1),
    "D": _Family("D(n)", lambda n: 2 * n, _build_dihedral, arity=1),
    "Q8": _Family("Q8", lambda: 8, _build_q8, arity=0),
    "UT": _Family("UT(3,p)", lambda d, p: p ** 3, _build_ut3,
                  degrees=(3,), field="prime"),
    "GL": _Family("GL(d,q)", _gl_order, _build_linear, degrees=(1, 2, 3)),
    "SL": _Family("SL(d,q)", lambda d, q: _gl_order(d, q) // (q - 1),
                  functools.partial(_build_linear, det_one=True),
                  degrees=(1, 2, 3)),
    "Sp": _Family("Sp(2,q)", lambda d, q: q * (q * q - 1), _build_sp2,
                  degrees=(2,)),
    "U": _Family("U(d,q)", _unitary_order, _build_unitary, degrees=(2, 3)),
    "PSL": _Family("PSL(2,q)", lambda d, q: q * (q * q - 1) // math.gcd(2, q - 1),
                   _build_psl2, degrees=(2,)),
    "M": _Family("M(d,q)", lambda d, q: q ** (d * d), None, degrees=(1, 2, 3)),
}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_BUILD_CACHE: dict = {}
_BUILD_LOCK = threading.Lock()


def build(desc) -> Group:
    """Construct (or fetch the cached) group for a descriptor."""
    desc = _as_descriptor(desc)
    text = str(desc)
    with _BUILD_LOCK:
        cached = _BUILD_CACHE.get(text)
        if cached is not None:
            return cached
        G = _build_uncached(desc)
        _BUILD_CACHE[text] = G
        return G


def _build_uncached(desc: GroupDescriptor) -> Group:
    fam = _FAMILIES[desc.family]
    text = str(desc)
    if fam.build is None:
        raise InputError(
            f"{text}: the matrix algebra is a monoid, not a group; it is "
            "only a target for brute-force commuting-pair counts"
        )
    expected = fam.order(*desc.params)
    if expected > GROUP_SIZE_CAP:
        raise SizeCapError(
            f"{text}: order {expected} exceeds the size cap {GROUP_SIZE_CAP}"
        )
    G = fam.build(text, *desc.params)
    if G.order != expected:
        raise InternalError(
            f"{text}: constructed order {G.order} != formula {expected}"
        )
    return G


# descriptors of every catalog family instance of order <= 200, used for
# cross-method and bound test grids
SMALL_GROUPS = (
    "C(1)", "C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "C(8)", "C(12)", "C(30)",
    "CxC(2,2)", "CxC(2,4)", "CxC(3,3)", "CxC(2,2,2)", "CxC(6,10)",
    "S(3)", "S(4)", "S(5)",
    "A(3)", "A(4)", "A(5)",
    "D(2)", "D(3)", "D(4)", "D(5)", "D(6)", "D(8)", "D(16)",
    "Q8",
    "UT(3,2)", "UT(3,3)", "UT(3,5)",
    "GL(1,7)", "GL(2,2)", "GL(2,3)",
    "SL(2,2)", "SL(2,3)", "Sp(2,2)", "Sp(2,3)",
    "U(2,2)", "U(2,3)",
    "PSL(2,2)", "PSL(2,3)", "PSL(2,5)",
)
