"""Finite group engine.

A :class:`Group` is a fully enumerated finite group whose elements carry
deterministic integer ids.  Groups built by generator closure assign ids
by breadth-first search from the identity (left multiplication, first
seen wins), so ids are reproducible across runs and platforms; groups
built from an explicit element list keep the given order with the
identity moved to id 0.  Construction computes one inverse per pair
{x, x^-1} and checks the set closed under products exactly, at any size,
with ``_right_walk``: from the identity it multiplies every element it
reaches on the right by every generator, fails as soon as a product
leaves the set, and by associativity proves the set closed when it
reaches every element.  Its generators are a seeded pair when one
reaches every element, at 2 products per element, and otherwise the
greedy set, at n |T| products.

Subgroups are id sets inside an ambient group, stored once, as the
sorted id tuple ``key``: order is its length and membership a bisection
of it.  Subgroups are interned: constructing one whose key its group
has seen before returns the same object, so subgroup identity is object
identity, and everything computed about a subgroup (its generating set,
abelian flag, conjugation action, classes and centralizers) is kept on
that object.  Matrix products, determinants and inverses are
straight-line code over the field's tables for d = 1, 2, 3.

Each subgroup has one generating set, ``generating_ids``, with the maps
y -> y s its walk recorded: the walk that checked the group closed for
the whole group, and for another subgroup the same walk on first use.
It is two elements that generate H when a bounded search over a few
seeded random pairs finds them, which also shows that H is not abelian,
and otherwise the greedy set, whose maps show whether it commutes.  A
non-abelian subgroup H gets, on first use, the conjugation action of
that set as integer permutations of the positions in ``H.key``, read
from the maps with no product and kept on the subgroup, which then
drops the maps: the walk's are the only products the action needs, and
after it every orbit walk is integer indexing.
The center is the set of points every permutation fixes, and every orbit
is grown by one kernel, ``_orbit_tree``: a breadth-first tree of a
seed's orbit with parent pointers, grown lazily, so that a caller can
stop it.  Conjugacy classes are its whole orbits.  Centralizers are the
point stabilizers: their order |H| / |x^H| is read from the classes,
and the tree of x is grown only until the Schreier generators of its
non-tree edges, formed from a lazily built transversal, close to that
order in an incremental Dimino closure.  Those generators also settle
whether Z(x) is abelian, so an abelian centralizer is never walked for
generators.  Z(y) = Z(x) exactly when y is in the center of Z(x) and
has x's class size, so one closure answers every such y: each distinct
centralizer of a subgroup is closed once.  The same lemma gives the
z-classes with no orbit walk.  The derived subgroup is generated by the
classes of the commutators.  The oracle reads the same action, of the
whole group for its classes and of each centralizer it walks.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional

from .errors import InputError, InternalError, SizeCapError
from .gf import FieldElement, FieldSpec

GROUP_SIZE_CAP = 250_000

_PAIR_SEED = 0x9A12
_PAIR_TRIALS = 5


# ---------------------------------------------------------------------------
# kind-specific raw-data operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixOps:
    """Flat-tuple matrix arithmetic over a finite field (entries are
    field element indices, row-major)."""

    field: FieldSpec
    dim: int
    mul: callable
    inv: callable
    det: callable
    identity: tuple
    transpose: callable


def matrix_operations(fld: FieldSpec, d: int) -> MatrixOps:
    if d < 1 or d > 3:
        raise InputError(f"matrix dimension {d} unsupported (need 1..3)")
    add = fld.add_table()
    mul = fld.mul_table()
    neg = fld.neg_table()
    inv_t = fld.inv_table()
    one = fld.one_index
    rng = range(d)
    # x - y as one lookup
    sub = [[add[x][neg[y]] for y in range(fld.q)] for x in range(fld.q)]

    # straight-line products, determinants and inverses, chosen once per
    # d: one row lookup mul[a] per entry, then plain indexing, with no
    # loop and no list building
    if d == 1:
        def mat_mul(A, B):
            return (mul[A[0]][B[0]],)

        def det(A):
            return A[0]

        def mat_inv(A):
            if A[0] == 0:
                raise InputError("matrix is not invertible")
            return (inv_t[A[0]],)
    elif d == 2:
        def mat_mul(A, B):
            a0, a1, a2, a3 = A
            b0, b1, b2, b3 = B
            m0 = mul[a0]
            m1 = mul[a1]
            m2 = mul[a2]
            m3 = mul[a3]
            return (
                add[m0[b0]][m1[b2]], add[m0[b1]][m1[b3]],
                add[m2[b0]][m3[b2]], add[m2[b1]][m3[b3]],
            )

        def det(A):
            a, b, c, e = A
            return sub[mul[a][e]][mul[b][c]]

        def mat_inv(A):
            a, b, c, e = A
            dt = sub[mul[a][e]][mul[b][c]]
            if dt == 0:
                raise InputError("matrix is not invertible")
            m = mul[inv_t[dt]]
            return (m[e], m[neg[b]], m[neg[c]], m[a])
    else:
        def mat_mul(A, B):
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
            b0, b1, b2, b3, b4, b5, b6, b7, b8 = B
            m0 = mul[a0]
            m1 = mul[a1]
            m2 = mul[a2]
            m3 = mul[a3]
            m4 = mul[a4]
            m5 = mul[a5]
            m6 = mul[a6]
            m7 = mul[a7]
            m8 = mul[a8]
            return (
                add[add[m0[b0]][m1[b3]]][m2[b6]],
                add[add[m0[b1]][m1[b4]]][m2[b7]],
                add[add[m0[b2]][m1[b5]]][m2[b8]],
                add[add[m3[b0]][m4[b3]]][m5[b6]],
                add[add[m3[b1]][m4[b4]]][m5[b7]],
                add[add[m3[b2]][m4[b5]]][m5[b8]],
                add[add[m6[b0]][m7[b3]]][m8[b6]],
                add[add[m6[b1]][m7[b4]]][m8[b7]],
                add[add[m6[b2]][m7[b5]]][m8[b8]],
            )

        def det(A):
            a, b, c, e, f, g, h, i, j = A
            me = mul[e]
            mf = mul[f]
            mg = mul[g]
            return add[add[mul[a][sub[mf[j]][mg[i]]]][
                mul[b][sub[mg[h]][me[j]]]]][mul[c][sub[me[i]][mf[h]]]]

        def mat_inv(A):
            # the adjugate over the determinant: the adjugate's first
            # column holds the cofactors the determinant expands by
            a, b, c, e, f, g, h, i, j = A
            ma = mul[a]
            mb = mul[b]
            mc = mul[c]
            me = mul[e]
            mf = mul[f]
            mg = mul[g]
            c0 = sub[mf[j]][mg[i]]
            c3 = sub[mg[h]][me[j]]
            c6 = sub[me[i]][mf[h]]
            dt = add[add[ma[c0]][mb[c3]]][mc[c6]]
            if dt == 0:
                raise InputError("matrix is not invertible")
            m = mul[inv_t[dt]]
            return (
                m[c0], m[sub[mc[i]][mb[j]]], m[sub[mb[g]][mc[f]]],
                m[c3], m[sub[ma[j]][mc[h]]], m[sub[mc[e]][ma[g]]],
                m[c6], m[sub[mb[h]][ma[i]]], m[sub[ma[f]][mb[e]]],
            )

    def transpose(A):
        return tuple(A[j * d + i] for i in rng for j in rng)

    identity = tuple(one if i == j else 0 for i in rng for j in rng)
    return MatrixOps(fld, d, mat_mul, mat_inv, det, identity, transpose)


def _perm_ops(n: int):
    idx = tuple(range(n))

    def mul_data(a, b):
        # composition: apply b first, then a
        return tuple(a[b[i]] for i in idx)

    def inv_data(a):
        out = [0] * n
        for i in idx:
            out[a[i]] = i
        return tuple(out)

    return mul_data, inv_data


def _table_ops(table):
    n = len(table)
    if any(len(row) != n for row in table):
        raise InputError(f"multiplication table is not {n} x {n}")
    if not all(isinstance(v, int) and 0 <= v < n for row in table for v in row):
        raise InputError(f"multiplication table entries must be ints in range({n})")

    def mul_data(a, b):
        return table[a][b]

    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise InputError("multiplication table has no identity")

    def inv_data(a):
        for b in range(n):
            if table[a][b] == identity:
                return b
        raise InputError(f"table element {a} has no inverse")

    return mul_data, inv_data, identity


def _light_test(table, gens):
    """Raise unless ``table`` (entries index its own rows) is associative.

    Light's test: when every element is a product of ``gens``, it is
    enough that (x s) y = x (s y) for each s in ``gens`` and all x, y,
    because the s that satisfy this are closed under products.  Costs
    len(gens) * n^2 lookups."""
    for s in gens:
        row_s = table[s]
        for row_x in table:
            if table[row_x[s]] != tuple(row_x[v] for v in row_s):
                raise InputError("multiplication table is not associative")


# ---------------------------------------------------------------------------
# Group
# ---------------------------------------------------------------------------

def _right_walk(points, where, mul, gens=()):
    """Right multiplication by generators over ``points``, walked from
    the identity ``points[0]``: ``(gens, maps)``, where ``maps[i][y]`` is
    the position of ``points[y] * points[gens[i]]`` (generators are
    positions too, and ``where`` maps a point to its position), or None
    as soon as a product falls outside the points.

    With ``gens`` given the walk is by them alone, and it is None also
    when they reach fewer than all the points.  Without, generators are
    picked greedily by ascending position, each one not reached by those
    before it; the points reached before a new generator are closed
    under the earlier ones already, so they are multiplied by it alone.
    Either way each point is multiplied by each generator once, n |T|
    products, and greedily |T| <= log2 n, since each generator at least
    doubles the subgroup reached.

    A walk that reaches every point proves the set S a group: S T is
    inside S and T generates S from the identity, so S S is inside S by
    associativity (Holt–Eick–O'Brien, *Handbook of Computational Group
    Theory*, §4.1)."""
    n = len(points)
    get = where.get
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    maps = [array("i", [0]) * n for _ in gens]
    steps = [(points[s], m) for s, m in zip(gens, maps)]

    def walk(ys, by):
        for y in ys:
            yd = points[y]
            for sd, m in by:
                z = get(mul(yd, sd))
                if z is None:
                    return False
                m[y] = z
                if not seen[z]:
                    seen[z] = 1
                    reached.append(z)
        return True

    if gens:
        if walk(reached, steps) and len(reached) == n:
            return gens, maps
        return None
    gens = []
    for g in range(1, n):
        if not seen[g]:
            gens.append(g)
            maps.append(array("i", [0]) * n)
            steps.append((points[g], maps[-1]))
            # the points reached so far need the new generator alone;
            # those it reaches, all of them
            start = len(reached)
            if not (walk(reached[:start], steps[-1:])
                    and walk(islice(reached, start, None), steps)):
                return None
    return gens, maps


def _bfs_closure(mul_data, identity, gens):
    data = [identity]
    ids = {identity: 0}
    i = 0
    while i < len(data):
        cur = data[i]
        i += 1
        for g in gens:
            nd = mul_data(g, cur)
            if nd not in ids:
                if len(data) >= GROUP_SIZE_CAP:
                    raise SizeCapError(
                        f"generated group exceeds the size cap {GROUP_SIZE_CAP}"
                    )
                ids[nd] = len(data)
                data.append(nd)
    return data, ids


class Group:
    """An enumerated finite group with deterministic integer ids."""

    __slots__ = (
        "kind", "descriptor", "field", "dim",
        "_data", "_ids", "_inv", "_mul_data", "_inv_data",
        "_subgroups", "_full", "_branching", "_lescot_memo",
    )

    def __init__(self, kind, mul_data, inv_data, identity_data, data,
                 descriptor="", fld=None, dim=None, walk=None):
        if len(data) > GROUP_SIZE_CAP:
            raise SizeCapError(
                f"group of order {len(data)} exceeds the size cap {GROUP_SIZE_CAP}"
            )
        if data[0] != identity_data:
            raise InputError("element list must start with the identity")
        self.kind = kind
        self.descriptor = descriptor
        self.field = fld
        self.dim = dim
        self._mul_data = mul_data
        self._inv_data = inv_data
        self._data = list(data)
        self._ids = {d: i for i, d in enumerate(self._data)}
        if len(self._ids) != len(self._data):
            raise InputError("element list contains duplicates")
        # one inverse per pair {x, x^-1}: an id whose inverse is known
        # already is skipped.  The ids come from the values of _ids, so
        # the table shares their int objects instead of holding its own.
        inv = [None] * len(self._data)
        for d, x in self._ids.items():
            if inv[x] is None:
                y = self._ids.get(inv_data(d))
                if y is None:
                    raise InputError("element set is not closed under inversion")
                inv[x] = y
                inv[y] = x
        self._inv = inv
        self._subgroups = {}
        self._branching = None
        self._lescot_memo = {}
        self._full = Subgroup(self, range(len(self._data)), _validate=False)
        self._spot_check(walk)

    def _spot_check(self, walk):
        # the walk that proves the set closed gives the whole group its
        # generating set and right multiplication maps; ``walk`` is the
        # greedy walk over ``data`` that a constructor ran already, if any
        if not _find_generators(self._full, walk):
            raise InputError("element set is not closed under multiplication")
        # the walk reached every y as e s1 ... sk from e = data[0] by its
        # generators, so e e = e and s e = s for each generator s give
        # e y = y e = y by associativity, at 1 + |T| products
        mul_data = self._mul_data
        data = self._data
        e = data[0]
        if mul_data(e, e) != e or any(mul_data(data[s], e) != data[s]
                                      for s in self._full._gens):
            raise InputError("identity element does not act as identity")

    # -- constructors --

    @classmethod
    def from_permutation_generators(cls, n, generators, descriptor=""):
        gens = [_as_perm(g, n) for g in generators]
        mul_data, inv_data = _perm_ops(n)
        identity = tuple(range(n))
        data, _ = _bfs_closure(mul_data, identity, gens)
        return cls("perm", mul_data, inv_data, identity, data,
                   descriptor=descriptor)

    @classmethod
    def from_permutation_list(cls, n, elements, descriptor=""):
        mul_data, inv_data = _perm_ops(n)
        identity = tuple(range(n))
        data = _identity_first(elements, identity)
        return cls("perm", mul_data, inv_data, identity, data,
                   descriptor=descriptor)

    @classmethod
    def from_matrix_generators(cls, fld, d, generators, descriptor=""):
        ops = matrix_operations(fld, d)
        gens = [_as_matrix(g, fld, d) for g in generators]
        for g in gens:
            if ops.det(g) == 0:
                raise InputError("generator matrix is not invertible")
        data, _ = _bfs_closure(ops.mul, ops.identity, gens)
        return cls("matrix", ops.mul, ops.inv, ops.identity, data,
                   descriptor=descriptor, fld=fld, dim=d)

    @classmethod
    def from_matrix_list(cls, fld, d, elements, descriptor=""):
        ops = matrix_operations(fld, d)
        data = _identity_first(elements, ops.identity)
        return cls("matrix", ops.mul, ops.inv, ops.identity, data,
                   descriptor=descriptor, fld=fld, dim=d)

    @classmethod
    def from_table(cls, table, descriptor="", generators=None):
        """Group over a full multiplication table; with ``generators``
        (table indices), the subgroup they generate.

        The table must be n x n with int entries in ``range(n)``.  The
        group (or the generated subset, which must be closed) is checked
        exactly: a two-sided identity, associativity by Light's test, and
        inverses; a table that fails raises :class:`InputError`."""
        try:
            table = tuple(tuple(row) for row in table)
        except TypeError:
            raise InputError("multiplication table rows must be sequences") from None
        mul_data, inv_data, identity = _table_ops(table)
        if generators is None:
            data = _identity_first(list(range(len(table))), identity)
            # a group needs at most log2(n) greedy generators, since each
            # one at least doubles the subgroup reached
            where = {d: i for i, d in enumerate(data)}
            walk = _right_walk(data, where, mul_data)
            found = walk[0]
            if len(found) > len(table).bit_length() - 1:
                raise InputError("multiplication table is not a group: it "
                                 "needs more than log2(n) generators")
            _light_test(table, [data[p] for p in found])
            return cls("table", mul_data, inv_data, identity, data,
                       descriptor=descriptor, walk=walk)
        gens = []
        for g in generators:
            g = g.id if isinstance(g, Element) else int(g)
            if not 0 <= g < len(table):
                raise InputError(f"generator index {g} out of table range")
            gens.append(g)
        data, ids = _bfs_closure(mul_data, identity, gens)
        # the generated subset as a table of its own positions
        sub = tuple(tuple(ids.get(mul_data(a, b)) for b in data) for a in data)
        if any(None in row for row in sub):
            raise InputError("generated subset is not closed under multiplication")
        _light_test(sub, [ids[g] for g in gens])
        return cls("table", mul_data, inv_data, identity, data,
                   descriptor=descriptor)

    # -- core accessors --

    @property
    def order(self) -> int:
        return len(self._data)

    def __len__(self):
        return len(self._data)

    def mul(self, a: int, b: int) -> int:
        return self._ids[self._mul_data(self._data[a], self._data[b])]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1 by id."""
        d = self._data
        return self._ids[self._mul_data(self._mul_data(d[g], d[x]), d[self._inv[g]])]

    def data_of(self, i: int):
        return self._data[i]

    def id_of(self, data) -> int:
        return self._ids[data]

    def element(self, i: int) -> "Element":
        if not 0 <= i < len(self._data):
            raise InputError(f"element id {i} out of range")
        return Element(self, i)

    @property
    def identity(self) -> "Element":
        return Element(self, 0)

    def elements(self):
        for i in range(len(self._data)):
            yield Element(self, i)

    def element_order(self, x: int) -> int:
        if isinstance(x, Element):
            x = x.id
        if not 0 <= x < len(self._data):
            raise InputError(f"element id {x} out of range")
        o = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            o += 1
        return o

    def full(self) -> "Subgroup":
        return self._full

    def subgroup(self, ids, validate=True) -> "Subgroup":
        return Subgroup(self, ids, _validate=validate)

    def __repr__(self):
        desc = self.descriptor or self.kind
        return f"Group({desc}, order={len(self._data)})"


def _identity_first(elements, identity):
    elements = [tuple(e) if isinstance(e, list) else e for e in elements]
    if identity not in elements:
        raise InputError("element list does not contain the identity")
    return [identity] + [e for e in elements if e != identity]


def _as_perm(g, n):
    if isinstance(g, Element):
        g = g.data
    img = tuple(int(v) for v in g)
    if len(img) != n:
        raise InputError(
            f"permutation degree mismatch: expected {n}, got {len(img)}"
        )
    if sorted(img) != list(range(n)):
        raise InputError(f"image vector {img} is not a bijection")
    return img


def _as_matrix(g, fld, d):
    if isinstance(g, Element):
        g = g.data
    flat = []
    rows = list(g)
    if len(rows) == d * d and not isinstance(rows[0], (list, tuple)):
        cells = rows
    else:
        if len(rows) != d:
            raise InputError(f"expected a {d}x{d} matrix")
        cells = [c for row in rows for c in row]
        if len(cells) != d * d:
            raise InputError(f"expected a {d}x{d} matrix")
    for c in cells:
        if isinstance(c, FieldElement):
            if c.spec is not fld:
                raise InputError("matrix entry from a different field")
            flat.append(c.index)
        else:
            c = int(c)
            if fld.k == 1:
                flat.append(c % fld.p)
            else:
                if not 0 <= c < fld.q:
                    raise InputError(
                        f"integer entry {c} is not a valid element index of GF({fld.q})"
                    )
                flat.append(c)
    return tuple(flat)


def closure(ambient, generators, descriptor="") -> Group:
    """Generate a group inside the described ambient structure.

    ``ambient`` is ``("perm", n)``, ``("matrix", field, d)`` or
    ``("table", table)``; an empty generator list yields the trivial group.
    """
    if not ambient:
        raise InputError("ambient kind required")
    kind = ambient[0]
    if kind == "perm":
        return Group.from_permutation_generators(ambient[1], generators, descriptor)
    if kind == "matrix":
        return Group.from_matrix_generators(ambient[1], ambient[2], generators, descriptor)
    if kind == "table":
        return Group.from_table(ambient[1], descriptor, generators=generators)
    raise InputError(f"unknown ambient kind {kind!r}")


@dataclass(frozen=True)
class Element:
    """An element of an enumerated group, addressed by id."""

    group: Group
    id: int

    @property
    def data(self):
        return self.group.data_of(self.id)

    @property
    def kind(self):
        return self.group.kind

    def __mul__(self, other: "Element") -> "Element":
        if other.group is not self.group:
            raise InputError("elements belong to different groups")
        return Element(self.group, self.group.mul(self.id, other.id))

    def inverse(self) -> "Element":
        return Element(self.group, self.group.inv(self.id))

    def order(self) -> int:
        return self.group.element_order(self.id)

    def __repr__(self):
        return f"Element(id={self.id}, {self.data})"


class Subgroup:
    """A subgroup of an ambient group, identified by its sorted id tuple.

    ``key``, the sorted tuple of member ids, is the only id set the
    subgroup stores: its order is ``len(key)``, membership is a bisection
    of it, and every position-indexed action is over its positions.
    Construction interns: the group keeps one object per key, so a second
    construction of the same id set returns the first object, and equal
    subgroups are identical.  Validation, when asked, runs on every
    construction, before a new object is entered, so a set that fails it
    is never interned.  The slots after ``key`` hold what the subgroup
    algorithms compute about it, each filled on first use."""

    __slots__ = ("group", "key", "_gens", "_right",
                 "_abelian", "_action", "_classes", "_centralizers")

    def __new__(cls, group: Group, ids, _validate=True):
        key = tuple(sorted({i.id if isinstance(i, Element) else int(i)
                            for i in ids}))
        H = group._subgroups.get(key)
        if H is None:
            H = object.__new__(cls)
            H.group = group
            H.key = key
            H._gens = H._right = H._abelian = H._action = H._classes = None
            H._centralizers = {}
        if _validate:
            H._validate()
        # callers may build subgroups from their own threads: two threads
        # building the same subgroup both get the first entry
        return group._subgroups.setdefault(key, H)

    def _validate(self):
        G = self.group
        mem = set(self.key)
        if 0 not in mem:
            raise InputError("subgroup must contain the identity")
        for i in self.key:
            if not 0 <= i < len(G):
                raise InputError(f"member id {i} out of range")
            if G.inv(i) not in mem:
                raise InputError("member set is not closed under inversion")
        # a set that has its generating set was proven closed by its walk
        if self._gens is None and not _find_generators(self):
            raise InputError("member set is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.key)

    def __len__(self):
        return len(self.key)

    def __contains__(self, x):
        if isinstance(x, Element):
            x = x.id
        key = self.key
        i = bisect_left(key, x)
        return i < len(key) and key[i] == x

    def elements(self):
        for i in self.key:
            yield Element(self.group, i)

    def __repr__(self):
        return f"Subgroup(order={len(self.key)} of {self.group!r})"


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int
    size: int
    members: tuple


class ClassData:
    """Conjugacy classes of a subgroup: deterministic minimal-id reps."""

    __slots__ = ("owner", "classes", "class_of")

    def __init__(self, owner, classes, class_of):
        self.owner = owner
        self.classes = classes
        self.class_of = class_of

    @property
    def k(self) -> int:
        return len(self.classes)

    def __repr__(self):
        return f"ClassData(k={len(self.classes)}, owner order {self.owner.order})"


# ---------------------------------------------------------------------------
# subgroup algorithms
# ---------------------------------------------------------------------------

def _dimino_add(G: Group, closure: dict, gens: list, g, target=None):
    """Extend ``closure`` (id -> data of the subgroup K generated by the
    data in ``gens``) to the subgroup generated by ``gens`` and ``g``, and
    append ``g`` to ``gens``.  The new subgroup is a union of right cosets
    K r; only the coset representatives r are multiplied by the
    generators (Dimino).  With a ``target`` order known to be the new
    subgroup's, stops as soon as the closure has that many elements."""
    ids = G._ids
    data = G._data
    mul_data = G._mul_data
    old = list(closure.values())
    gens.append(g)

    def add_coset(r):
        for k in old:
            i = ids[mul_data(k, r)]
            closure[i] = data[i]
            if len(closure) == target:
                return True
        return False

    if add_coset(g):
        return
    reps = [g]
    ri = 0
    while ri < len(reps):
        r = reps[ri]
        ri += 1
        for s in gens:
            t = mul_data(r, s)
            if ids[t] not in closure:
                reps.append(t)
                if add_coset(t):
                    return


def _points(H: Subgroup):
    """The members of H as group data in ``H.key`` order, and the map from
    each one to its position there; for the whole group, the group's own
    element list and id map."""
    G = H.group
    if len(H.key) == len(G._data):
        return G._data, G._ids
    points = [G._data[h] for h in H.key]
    return points, {y: i for i, y in enumerate(points)}


def generating_ids(H: Subgroup) -> tuple:
    """The generating set of H, kept on it and used by the abelian test,
    the conjugation action and the derived subgroup alike.

    It is the pair of ``_generating_pair`` when that finds one, which
    also settles that H is not abelian; otherwise it is the greedy set
    of ``_right_walk``, at most log2 |H| generators.  A pair exists only
    for a non-abelian H, where greedy needs at least two, so the set
    never has more generators than greedy.  It is found once: for the
    whole group by the walk that checks it closed at construction, for a
    validated subgroup by its validation, and otherwise on first use."""
    if H._gens is None and not _find_generators(H):
        raise InputError("member set is not closed under multiplication")
    return H._gens


def _find_generators(H: Subgroup, walk=None) -> bool:
    """Keep on H its generating set, the right multiplication maps by it
    that its ``_right_walk`` recorded (until ``_conjugation_action`` has
    read them), and its abelian flag; False, with nothing kept, when the
    walk finds H not closed under multiplication.  When no generating
    pair is found, the greedy set's walk is ``walk``, the ``_right_walk``
    over ``_points(H)`` that a caller ran already, or else a new one.
    The greedy set's maps settle the flag with no product: generators s
    and t commute exactly when s t and t s have the same position.  A
    flag that a centralizer's closure set earlier must agree with the
    walk's, or ``InternalError`` is raised."""
    found = _generating_pair(H)
    if found is None:
        if walk is None:
            points, where = _points(H)
            walk = _right_walk(points, where, H.group._mul_data)
        if walk is None:
            return False
        gens, maps = walk
        abelian = all(maps[j][s] == maps[i][t]
                      for i, s in enumerate(gens)
                      for j, t in enumerate(gens) if i < j)
        found = tuple(H.key[g] for g in gens), maps
    else:
        abelian = False
    if H._abelian is not None and H._abelian != abelian:
        raise InternalError(
            f"the generator walk finds a subgroup of order {len(H.key)} "
            f"{'' if abelian else 'not '}abelian, against its closure's flag"
        )
    H._abelian = abelian
    # the generating set last: a thread that sees it sees the rest
    H._right = found[1]
    H._gens = found[0]
    return True


def _generating_pair(H: Subgroup):
    """Two ids that generate H, with the right multiplication maps by
    them, or None: at most ``_PAIR_TRIALS`` pairs drawn from ``H.key`` by
    a generator seeded with the integer ``_PAIR_SEED``.  A commuting pair
    is rejected with 2 products, so an abelian H costs at most 10.  Any
    other pair is kept when its ``_right_walk`` reaches every member, at
    2 products per member it reaches; on a set not yet known to be a
    group, that also proves it closed.  Every group of order below 6 is
    abelian, so those are not searched."""
    key = H.key
    if len(key) < 6:
        return None
    points, where = _points(H)
    mul = H.group._mul_data
    rng = random.Random(_PAIR_SEED)
    for _ in range(_PAIR_TRIALS):
        a, b = sorted(rng.sample(range(len(key)), 2))
        if mul(points[a], points[b]) == mul(points[b], points[a]):
            continue
        walk = _right_walk(points, where, mul, (a, b))
        if walk is not None:
            return (key[a], key[b]), walk[1]
    return None


def _orbit_tree(perms, seed):
    """The orbit of ``seed`` under the integer permutations ``perms``,
    grown as a breadth-first tree ``(orbit, index, up, via)``: ``orbit``
    lists the points in the order they are reached, ``index`` maps each
    point to its position there, and for i > 0 point ``orbit[i]`` was
    first reached as ``perms[via[i]][orbit[up[i]]]``, with ``up[i] < i``.

    It is a generator.  Its first item is the tree; it then extends the
    tree's lists in place, point by point and permutation by permutation,
    and yields each non-tree edge ``(i, s, j)``, where
    ``perms[s][orbit[i]]`` is ``orbit[j]``, a point already in the tree,
    as it meets it.  Run to the end (``_whole_orbit_tree``) it holds the
    whole orbit; a caller that stops early holds the tree as far as it
    has grown.

    This is the one orbit walk here (orbit–stabilizer; Holt–Eick–O'Brien,
    *Handbook of Computational Group Theory*, §4.1): conjugacy classes
    read whole orbits from it, the oracle reads each class once for its
    centralizer table, and ``centralizer`` reads its Schreier generators
    from the non-tree edges and stops it once they have closed the
    stabilizer.  It makes no product."""
    orbit = [seed]
    index = {seed: 0}
    up = [-1]
    via = [-1]
    yield orbit, index, up, via
    edges = list(enumerate(perms))
    for i, y in enumerate(orbit):
        for s, perm in edges:
            z = perm[y]
            j = index.get(z)
            if j is None:
                index[z] = len(orbit)
                orbit.append(z)
                up.append(i)
                via.append(s)
            else:
                yield i, s, j


def _whole_orbit_tree(perms, seed) -> tuple:
    """The tree ``(orbit, index, up, via)`` of ``_orbit_tree`` run to the
    end: the whole orbit of ``seed``."""
    walk = _orbit_tree(perms, seed)
    tree = next(walk)
    deque(walk, maxlen=0)
    return tree


def _conjugation_action(H: Subgroup) -> list:
    """The conjugation action y -> s y s^-1 of each generator s in
    ``generating_ids(H)`` on H, as one integer permutation per generator,
    in the same order: an ``array('i')`` over the positions in ``H.key``
    (for the whole group, positions are ids).

    It makes no product: the walk that found the generating set recorded
    the right multiplication y -> y s, whose inverse permutation is
    R(y) = y s^-1, and since s z = (z^-1 s^-1)^-1 the conjugation is
    y -> inv(R(inv(R(y)))), with inv the points' inversion as positions.
    It is kept on the subgroup, so it is built once; every orbit walk
    after that is integer indexing.  Nothing reads the maps after it, so
    the subgroup drops them."""
    if H._action is not None:
        return H._action
    generating_ids(H)
    rights = H._right
    if rights is None:
        # another thread built the action, then dropped the maps
        return H._action
    G = H.group
    key = H.key
    if len(key) == len(G._data):
        pinv = G._inv
    else:
        pinv = array("i", [bisect_left(key, G._inv[h]) for h in key])
    action = []
    for right in rights:
        R = array("i", right)
        for y, z in enumerate(right):
            R[z] = y
        action.append(array("i", map(pinv.__getitem__, map(
            R.__getitem__, map(pinv.__getitem__, R)))))
    H._action = action
    H._right = None
    return action


def conjugacy_classes(H: Subgroup) -> ClassData:
    """Partition H into conjugation orbits under H itself.

    Each class is the whole ``_orbit_tree`` of a position in ``H.key``
    that no class holds yet, under the integer conjugation action, so no
    product is made once the action is built; an abelian H is split into
    singletons without building it.  Seeds ascend, so each class
    representative is its minimal id."""
    if H._classes is not None:
        return H._classes
    key = H.key
    classes = []
    class_of = {}
    if is_abelian(H):
        for ci, h in enumerate(key):
            classes.append(ConjugacyClass(h, 1, (h,)))
            class_of[h] = ci
    else:
        action = _conjugation_action(H)
        for seed, h in enumerate(key):
            if h in class_of:
                continue
            members = [key[y] for y in _whole_orbit_tree(action, seed)[0]]
            for m in members:
                class_of[m] = len(classes)
            classes.append(ConjugacyClass(h, len(members), tuple(sorted(members))))
    H._classes = ClassData(H, classes, class_of)
    return H._classes


def centralizer(H: Subgroup, x) -> Subgroup:
    """Elements of H commuting with x, as the stabilizer of x under
    conjugation (orbit–stabilizer; Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, §4.1).

    The class size |x^H| is read from ``conjugacy_classes(H)``, so the
    stabilizer's order |H| / |x^H| is known before any walk.  The class
    is then grown as the ``_orbit_tree`` of x's position under the
    integer conjugation action, with no product; generator i of
    ``generating_ids(H)`` is permutation i of the action.  Every non-tree
    edge y -> s y s^-1 = z gives a Schreier generator t_z^-1 s t_y, which
    commutes with x; the transversal element t_y (t_y x t_y^-1 = y) is
    formed from the tree's parent pointers only when a Schreier generator
    needs it, and kept.  The Schreier generators are added one at a time
    by an incremental Dimino closure, and the walk stops as soon as the
    closure reaches |H| / |x^H|, so most of the class is never grown and
    most Schreier generators and transversal elements are never formed.
    The closure's generators generate Z = Z(x), so Z is abelian exactly
    when they commute pairwise; that flag is kept on Z, which then needs
    no generator walk to be known abelian.

    Z(y) = Z for every y in the center of Z whose class has x's size (the
    lemma of ``z_classes``), x among them, so Z is kept for each of them,
    and their centralizers take no closure.  A class of size 1 gives H
    itself, and so does an abelian H, without building the action.
    """
    if isinstance(x, Element):
        x = x.id
    G = H.group
    if x not in H:
        raise InputError(f"element {x} is not a member of the subgroup")
    Z = H._centralizers.get(x)
    if Z is not None:
        return Z
    if is_abelian(H):
        return H
    cd = conjugacy_classes(H)
    size = cd.classes[cd.class_of[x]].size
    if size == 1:
        H._centralizers[x] = H
        return H
    target, rest = divmod(len(H.key), size)
    if rest:
        raise InternalError(
            f"class size {size} does not divide |H| = {len(H.key)}"
        )
    data = G._data
    ids = G._ids
    inv = G._inv
    mul_data = G._mul_data
    gdata = [data[g] for g in generating_ids(H)]
    walk = _orbit_tree(_conjugation_action(H), bisect_left(H.key, x))
    _, _, up, via = next(walk)
    trans = {0: data[0]}

    def transversal(i):
        path = []
        while i not in trans:
            path.append(i)
            i = up[i]
        t = trans[i]
        for j in reversed(path):
            t = mul_data(gdata[via[j]], t)
            trans[j] = t
        return t

    # Schreier generators of the non-tree edges in BFS order, formed only
    # until the closure reaches the target order
    closure = {0: data[0]}
    found = []
    for yi, si, zi in walk:
        tz = transversal(zi)
        g = mul_data(data[inv[ids[tz]]], mul_data(gdata[si], transversal(yi)))
        if ids[g] not in closure:
            _dimino_add(G, closure, found, g, target)
            if len(closure) == target:
                break
    if len(closure) != target:
        raise InternalError(
            f"Schreier closure reached order {len(closure)}, expected {target}"
        )
    Z = Subgroup(G, closure, _validate=False)
    if Z._abelian is None:
        Z._abelian = all(mul_data(a, b) == mul_data(b, a)
                         for a, b in combinations(found, 2))
    for y in center(Z).key:
        if cd.classes[cd.class_of[y]].size == size:
            H._centralizers[y] = Z
    return Z


def is_abelian(H: Subgroup) -> bool:
    """Whether H is abelian: the flag a centralizer's closure set, or
    else the one its generating set settles."""
    if H._abelian is None:
        generating_ids(H)
    return H._abelian


def center(H: Subgroup) -> Subgroup:
    """Z(H): H itself when H is abelian, otherwise the members at the
    positions that every permutation of the conjugation action fixes,
    found with no product."""
    if is_abelian(H):
        return H
    action = _conjugation_action(H)
    members = [h for i, h in enumerate(H.key)
               if all(perm[i] == i for perm in action)]
    return Subgroup(H.group, members, _validate=False)


def commutator_subgroup(H: Subgroup) -> Subgroup:
    """Derived subgroup: the trivial group when H is abelian, otherwise
    the normal closure in H of the generators' commutators, which is the
    subgroup generated by their conjugacy classes, read from
    ``conjugacy_classes`` (one ``_orbit_tree`` per class)."""
    G = H.group
    if is_abelian(H):
        return Subgroup(G, [0], _validate=False)
    gens = generating_ids(H)
    cd = conjugacy_classes(H)
    inv = G.inv
    mul = G.mul
    comms = {mul(mul(inv(a), inv(b)), mul(a, b)) for a in gens for b in gens}
    data = G._data
    genlist = []
    members = {0: data[0]}
    conjugates = {m for c in comms for m in cd.classes[cd.class_of[c]].members}
    for g in sorted(conjugates):
        if g not in members:
            _dimino_add(G, members, genlist, data[g])
    return Subgroup(G, members, _validate=False)


def derived_series(H: Subgroup) -> list:
    """Iterated derived subgroups until stabilization."""
    series = [H]
    while True:
        K = commutator_subgroup(series[-1])
        if K.order == series[-1].order:
            break
        series.append(K)
        if K.order == 1:
            break
    return series


def derived_length(H: Subgroup) -> Optional[int]:
    """Number of strict derived steps down to the trivial group, or None
    if the series stabilizes above it (H not solvable)."""
    series = derived_series(H)
    if series[-1].order == 1:
        return len(series) - 1
    return None


def is_solvable(H: Subgroup) -> bool:
    return derived_length(H) is not None


def element_order(H: Subgroup, x) -> int:
    if isinstance(x, Element):
        x = x.id
    if x not in H:
        raise InputError(f"element {x} is not a member of the subgroup")
    return H.group.element_order(x)


def z_classes(H: Subgroup) -> list:
    """Group class indices whose representatives' centralizers are
    conjugate subgroups of H.  Returns a partition as a list of sorted
    index lists, ordered by smallest class index.

    For x, y in H, Z(y) = Z(x) exactly when y is in the center of Z(x)
    and |y^H| = |x^H|: such a y has Z(x) <= Z(y), and the two orders are
    equal by orbit–stabilizer; conversely y lies in Z(y), which commutes
    with y.  The conjugates of Z(x) are the Z(y) for y in x's class, so
    the block of x's class is the set of classes of the elements of
    ``center(centralizer(H, x))`` whose class has x's size.  It is read
    once, from its smallest class index, with no product once both
    subgroups' actions are built."""
    cd = conjugacy_classes(H)
    done = set()
    blocks = []
    for i, c in enumerate(cd.classes):
        if i not in done:
            block = {cd.class_of[y] for y in center(centralizer(H, c.rep)).key}
            block = sorted(j for j in block if cd.classes[j].size == c.size)
            done.update(block)
            blocks.append(block)
    return blocks
