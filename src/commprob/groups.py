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
greedy set, at n |T| products.  Each product of that walk is a lookup
through the group's ``right`` multipliers y -> y s: one ``itemgetter``
for a permutation group, and for a matrix group of order at least
q^d + 64 one row lookup per row of y, in a table of v s over the q^d
row vectors v that is filled once per generator s and checked on s s.
Walks over proper subgroups, too short to pay for a table, and
Dimino's cosets multiply by ``mul_data``.

Subgroups are id sets inside an ambient group, stored once, as the
sorted id tuple ``key``: order is its length and membership a bisection
of it.  The whole group's key is every id, so there a member's position
is its id, and its entries are the int objects that the id map's values
and the inverse table hold too: one set of id objects per group.
Subgroups are interned: constructing one whose key its group
has seen before returns the same object, so subgroup identity is object
identity, and everything computed about a subgroup (its generating set,
abelian flag, conjugation action, classes and centralizers) is kept on
that object.  Matrix products, determinants and inverses are
straight-line code over the field's tables for d = 1, 2, 3.

Each subgroup has one generating set, ``generating_ids``, found by one
walk that records the maps y -> y s: the walk that checked the group
closed for the whole group, and for another subgroup the same walk on
first use.  It is two elements that generate H when a bounded search
over a few seeded random pairs finds them, which also shows that H is
not abelian, and otherwise the greedy set, whose maps show whether it
commutes.  The same step reads from the maps, with no product, the
conjugation action of that set as integer permutations of the positions
in ``H.key``, and keeps the flag, the action and then the set on the
subgroup, so a subgroup that has its generating set has its action.
The maps are not kept: the walk's are the only products the action
needs, and after it every orbit walk is integer indexing.  The
permutation of a generator s is y -> s^-1 y s, three gathers of the
recorded map y -> y s and the inversion.  The center is the set of
points every permutation fixes.  Conjugacy classes are the orbits, each
grown by a flat loop with a ``bytearray`` of the points seen, which
records for each point the permutation that first reached it, and so
keeps each class as a tree over its representative at no extra store.
Each member's class index is kept flat too, in one ``array('i')`` over
the positions in ``H.key``, written by one C-level scatter per class;
the id -> class map is a read-only view of it, and the engine reads the
table by position.
That class tree is the one orbit tree, and every non-abelian subgroup
grows one.  Centralizers are the point stabilizers: their order
|H| / |x^H| is read from the classes.  A centralizer is closed only at a
class representative, the root of its class tree.
The closure replays the tree from the root in the order it was grown,
where an edge to z by a permutation is a tree edge exactly when z is
not the root and its mark names that permutation, and stops as soon as
the Schreier generators of the other edges, formed from a lazily built
transversal, close to that order in an incremental Dimino closure.
Those generators also settle whether Z(x) is abelian, so an abelian
centralizer is never walked for generators.  Z(y) = Z(x) exactly when y
is in the center of Z(x) and has x's class size, so every centralizer
found, closed or carried, is kept for every such y by one rule, and
those y lie in other classes too.  Each class keeps one member whose
centralizer is known, and the centralizer of any other member x is
carried from it instead of closed: Z(g^-1 y g) = g^-1 Z(y) g
(orbit–stabilizer; Holt–Eick–O'Brien, *Handbook of Computational Group
Theory*, §4.1), and the class tree gives a g as a path of action
permutations, run back from y to the representative by their inverses,
made once per subgroup on first need, and forward to x.  Carrying moves
positions with no product and brings Z(y)'s abelian flag, generating set
and action along; it is checked exactly, at 2 products per carried
generator.  A centralizer carried so keeps the conjugate K it came from
and the map onto it, and differs from any other subgroup in one step
only: Z_{K^g}(x^g) = Z_K(x)^g, so a class of it with no centralizer kept
takes K's centralizer of K's representative of the preimage class,
carried through the map, where another subgroup closes one.  Its
classes are the orbits of the action carried with it, grown into a
class tree like any other's.  So each distinct centralizer of a
subgroup is closed or carried once, and a class pays for a closure, or
a carry from its conjugate, only when no centralizer found before it has
reached it.  The same lemma gives the z-classes with no orbit
walk.  The derived subgroup is generated by the classes of the
commutators.  The oracle reads the same action, of the whole group for
its classes and of each centralizer it walks.
"""

from __future__ import annotations

import math
import random
import threading
from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, compress, islice, repeat
from operator import eq, itemgetter, setitem
from typing import Optional

from .errors import InputError, InternalError, SizeCapError
from .gf import FieldElement, FieldSpec

GROUP_SIZE_CAP = 250_000

_PAIR_SEED = 0x9A12
_PAIR_TRIALS = 5

# held while a subgroup's generating set and action are kept
_KEEP_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# kind-specific raw-data operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixOps:
    """Flat-tuple matrix arithmetic over a finite field (entries are
    field element indices, row-major).  ``right(S)`` is the multiplier
    Y -> Y S that reads each row of Y S from a table of v S over every
    row vector v, made once per S."""

    field: FieldSpec
    dim: int
    mul: callable
    inv: callable
    det: callable
    identity: tuple
    transpose: callable
    right: callable


def _row_table(add, mul, S, d):
    """v S for every row vector v in GF(q)^d, as nested lists:
    ``table[v1]...[vd]`` is the row v S as a tuple.  ``add`` and ``mul``
    are the field's tables and S is a flat d x d matrix.  Row k of S
    times each field element is formed once, and each sum of a partial
    row and one of those takes one lookup per coordinate."""
    if d == 1:
        s0, = S
        return [(m[s0],) for m in mul]
    # lines[k][a]: a times row k of S, one itemgetter per row
    lines = [list(map(itemgetter(*S[k:k + d]), mul))
             for k in range(0, d * d, d)]
    if d == 2:
        first, last = lines
        return [[(a0[w0], a1[w1]) for w0, w1 in last]
                for a0, a1 in ([add[u] for u in us] for us in first)]
    first, middle, last = lines
    table = []
    for u0, u1, u2 in first:
        au0, au1, au2 = add[u0], add[u1], add[u2]
        sums = []
        for v0, v1, v2 in middle:
            a0, a1, a2 = add[au0[v0]], add[au1[v1]], add[au2[v2]]
            sums.append([(a0[w0], a1[w1], a2[w2]) for w0, w1, w2 in last])
        table.append(sums)
    return table


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

        def table_mul(t):
            def times(A):
                return t[A[0]]
            return times
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

        def table_mul(t):
            def times(A):
                a0, a1, a2, a3 = A
                return t[a0][a1] + t[a2][a3]
            return times
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

        def table_mul(t):
            def times(A):
                a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
                return t[a0][a1][a2] + t[a3][a4][a5] + t[a6][a7][a8]
            return times

    def transpose(A):
        return tuple(A[j * d + i] for i in rng for j in rng)

    def right(S):
        # the table is checked once, on S itself, against the product
        times = table_mul(_row_table(add, mul, S, d))
        if times(S) != mat_mul(S, S):
            raise InternalError(f"the row table of {S} over GF({fld.q}) "
                                f"gives a wrong square")
        return times

    identity = tuple(one if i == j else 0 for i in rng for j in rng)
    return MatrixOps(fld, d, mat_mul, mat_inv, det, identity, transpose,
                     right)


def _perm_ops(n: int):
    idx = tuple(range(n))

    if n > 1:
        def mul_data(a, b):
            # composition: apply b first, then a, (a[b[0]], ..., a[b[n-1]])
            return itemgetter(*b)(a)
    else:
        def mul_data(a, b):
            # itemgetter of one index returns a bare item, and of none
            # cannot be made
            return tuple(a[i] for i in b)

    def inv_data(a):
        out = [0] * n
        for i in idx:
            out[a[i]] = i
        return tuple(out)

    def right(s):
        # y s is (y[s[0]], ..., y[s[n-1]]); itemgetter of one index
        # returns a bare item, so degree 1 keeps the product
        if n > 1:
            return itemgetter(*s)
        return lambda y: mul_data(y, s)

    return mul_data, inv_data, right


def _right_by_mul(mul_data):
    """The multiplier factory s -> (y -> y s) of a kind without one of
    its own: each product is ``mul_data(y, s)``."""
    def right(s):
        return lambda y: mul_data(y, s)
    return right


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

def _right_walk(points, where, right, gens=(), seeds=()):
    """Right multiplication by generators over ``points``, walked from
    the identity ``points[0]``: ``(gens, maps)``, where ``maps[i][y]`` is
    the position of ``points[y] * points[gens[i]]`` (generators are
    positions too, and ``where`` maps a point to its position), or None
    as soon as a product falls outside the points.  ``right`` makes the
    multipliers: ``right(s)`` is y -> y s on point data, made once per
    generator.

    With ``gens`` given the walk is by them alone, and it is None also
    when they reach fewer than all the points.  Without, generators are
    picked greedily, first from the positions ``seeds`` in their order
    and then by ascending position, each one not reached by those before
    it; the points reached before a new generator are closed
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
    steps = [(right(points[s]), m) for s, m in zip(gens, maps)]

    def walk(ys, by):
        for y in ys:
            yd = points[y]
            for times, m in by:
                z = get(times(yd))
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
    for g in chain(seeds, range(1, n)):
        if not seen[g]:
            gens.append(g)
            maps.append(array("i", [0]) * n)
            steps.append((right(points[g]), maps[-1]))
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
        "kind", "descriptor", "field", "dim", "_det",
        "_data", "_ids", "_inv", "_mul_data", "_inv_data", "_right",
        "_subgroups", "_full", "_branching", "_lescot_memo",
    )

    def __init__(self, kind, mul_data, inv_data, identity_data, data,
                 descriptor="", fld=None, dim=None, walk=None, det=None,
                 right=None):
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
        # a matrix group's determinant, for the pair search
        self._det = det
        self._mul_data = mul_data
        self._inv_data = inv_data
        # the multiplier factory of walks over the whole element list
        self._right = right if right is not None else _right_by_mul(mul_data)
        # the list is the group's own: every constructor passes a new one
        self._data = data
        self._subgroups = {}
        # one set of id objects per group: the whole group's key, the
        # values of _ids and the entries of _inv are the same ints
        self._full = Subgroup(self, range(len(data)), _validate=False)
        self._ids = dict(zip(data, self._full.key))
        if len(self._ids) != len(data):
            raise InputError("element list contains duplicates")
        # one inverse per pair {x, x^-1}: an id whose inverse is known
        # already is skipped
        inv = [None] * len(data)
        for d, x in self._ids.items():
            if inv[x] is None:
                y = self._ids.get(inv_data(d))
                if y is None:
                    raise InputError("element set is not closed under inversion")
                inv[x] = y
                inv[y] = x
        self._inv = inv
        self._branching = None
        self._lescot_memo = {}
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
        mul_data, inv_data, right = _perm_ops(n)
        identity = tuple(range(n))
        data, _ = _bfs_closure(mul_data, identity, gens)
        return cls("perm", mul_data, inv_data, identity, data,
                   descriptor=descriptor, right=right)

    @classmethod
    def from_permutation_list(cls, n, elements, descriptor=""):
        """The group whose elements are the image tuples ``elements``;
        a list is taken over as the group's own (``_identity_first``)."""
        mul_data, inv_data, right = _perm_ops(n)
        identity = tuple(range(n))
        data = _identity_first(elements, identity)
        return cls("perm", mul_data, inv_data, identity, data,
                   descriptor=descriptor, right=right)

    @classmethod
    def from_matrix_generators(cls, fld, d, generators, descriptor=""):
        ops = matrix_operations(fld, d)
        gens = [_as_matrix(g, fld, d) for g in generators]
        for g in gens:
            if ops.det(g) == 0:
                raise InputError("generator matrix is not invertible")
        data, _ = _bfs_closure(ops.mul, ops.identity, gens)
        return cls._from_matrix_data(ops, data, descriptor)

    @classmethod
    def from_matrix_list(cls, fld, d, elements, descriptor=""):
        """The group whose elements are the flat matrices ``elements``;
        a list is taken over as the group's own (``_identity_first``)."""
        ops = matrix_operations(fld, d)
        data = _identity_first(elements, ops.identity)
        return cls._from_matrix_data(ops, data, descriptor)

    @classmethod
    def _from_matrix_data(cls, ops, data, descriptor):
        # a row table costs about as much as q^d / 2 + 32 of the products
        # it saves (d = 2, 3), and the walk makes n products by each
        # generator, so a group of order n below twice that multiplies
        # matrix by matrix
        q_d = ops.field.q ** ops.dim
        right = ops.right if len(data) >= q_d + 64 else None
        return cls("matrix", ops.mul, ops.inv, ops.identity, data,
                   descriptor=descriptor, fld=ops.field, dim=ops.dim,
                   det=ops.det, right=right)

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
            walk = _right_walk(data, where, _right_by_mul(mul_data))
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
    """``elements`` as a group's element list, with the identity moved
    to the front in place and the others in their order: a list is taken
    over as it is, so that a caller that hands its list over holds no
    second list of |G| pointers, and anything else is listed.  Elements
    given as lists are made tuples, in place."""
    data = elements if type(elements) is list else list(elements)
    for i in compress(range(len(data)), map(isinstance, data, repeat(list))):
        data[i] = tuple(data[i])
    try:
        data.insert(0, data.pop(data.index(identity)))
    except ValueError:
        raise InputError("element list does not contain the identity") from None
    return data


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


class Element:
    """An element of an enumerated group, addressed by id.  Elements
    with the same id in the same group compare equal."""

    __slots__ = ("group", "id")

    def __init__(self, group: Group, id: int):
        self.group = group
        self.id = id

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.id) == (other.group, other.id)

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
    algorithms compute about it, each filled on first use; the generating
    set, abelian flag and conjugation action are filled together, by
    ``_find_generators``, or by ``_carry`` for a subgroup carried from a
    conjugate, which also fills ``_carried``: the conjugate and the map
    onto the subgroup that its centralizers are carried through.  Such a
    subgroup grows its classes from the carried action like any
    other."""

    __slots__ = ("group", "key", "_gens", "_abelian", "_action",
                 "_inverse", "_classes", "_centralizers", "_centralized",
                 "_carried")

    def __new__(cls, group: Group, ids, _validate=True):
        if isinstance(ids, range) and ids.step > 0:
            key = tuple(ids)  # a rising range is sorted and distinct
        else:
            key = tuple(sorted({i.id if isinstance(i, Element) else int(i)
                                for i in ids}))
        H = group._subgroups.get(key)
        if H is None:
            H = object.__new__(cls)
            H.group = group
            H.key = key
            H._gens = H._abelian = H._action = H._inverse = None
            H._classes = H._carried = None
            H._centralizers = {}
            H._centralized = {}
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


class ConjugacyClass:
    """One conjugacy class: its representative (its least member), its
    size and its members' ids, ascending."""

    __slots__ = ("rep", "size", "members")

    def __init__(self, rep: int, size: int, members: tuple):
        self.rep = rep
        self.size = size
        self.members = members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rep, self.size, self.members)
                == (other.rep, other.size, other.members))


class ClassData:
    """Conjugacy classes of a subgroup: deterministic minimal-id reps.

    ``table[p]`` is the index in ``classes`` of the class of the member
    at position p of ``H.key`` (for the whole group, positions are ids):
    an ``array('i')``, or for an abelian owner, whose classes are its
    members in order, the positions themselves (a ``range``).
    ``class_of`` is the same map keyed by id, a read-only view of the
    table.

    For a non-abelian owner H, ``reached`` records the tree each class
    was grown as, over the same positions: for a position p that is not
    its class representative's, ``reached[p] - 1`` is the index of the
    conjugation action's permutation that first reached p, from the
    point that permutation's inverse sends p to.  A representative's
    position is marked 1 too, so the root is known by its class, not by
    its mark.  This is H's only orbit tree: ``_transport`` follows its
    paths, and ``_close`` replays it from the root to close a
    representative's centralizer.  Every non-abelian owner has one,
    carried from a conjugate or not; an abelian owner has none
    (None)."""

    __slots__ = ("owner", "classes", "table", "reached")

    def __init__(self, owner, classes, table, reached=None):
        self.owner = owner
        self.classes = classes
        self.table = table
        self.reached = reached

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def class_of(self) -> "ClassOf":
        return ClassOf(self.owner.key, self.table)

    def __repr__(self):
        return f"ClassData(k={len(self.classes)}, owner order {self.owner.order})"


class ClassOf(Mapping):
    """The id -> class index map of a ``ClassData``, read from its
    position-indexed table: keys are the owner's member ids in ``key``
    order, and any other key raises ``KeyError``.  It compares equal to
    a dict with the same items."""

    __slots__ = ("_key", "_table")

    def __init__(self, key, table):
        self._key = key
        self._table = table

    def __getitem__(self, x):
        key = self._key
        try:
            p = bisect_left(key, x)
        except TypeError:
            raise KeyError(x) from None
        if p == len(key) or key[p] != x:
            raise KeyError(x)
        return self._table[p]

    def __iter__(self):
        return iter(self._key)

    def __len__(self):
        return len(self._key)


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


def _right_of(H: Subgroup):
    """The multiplier factory of walks over ``_points(H)``: the group's
    own for the whole group, which reads a matrix group's products from
    row tables, and otherwise products by ``mul_data``, since a
    subgroup's walk is too short to pay for the tables."""
    G = H.group
    if len(H.key) == len(G._data):
        return G._right
    return _right_by_mul(G._mul_data)


def generating_ids(H: Subgroup) -> tuple:
    """The generating set of H, kept on it and used by the abelian test,
    the conjugation action and the derived subgroup alike.

    It is the pair of ``_generating_pair`` when that finds one, which
    also settles that H is not abelian; otherwise it is the greedy set
    of ``_right_walk``, at most log2 |H| generators.  It is kept once:
    for the whole group by the walk that checks it closed at
    construction, for a validated subgroup by its validation, for a
    centralizer carried from a conjugate's by ``_carry``, and
    otherwise on first use.  A carried set is the image of the
    conjugate's set, so it may be larger than the pair or greedy set
    that H's own search would find."""
    if H._gens is None and not _find_generators(H):
        raise InputError("member set is not closed under multiplication")
    return H._gens


def _find_generators(H: Subgroup, walk=None) -> bool:
    """Keep on H its abelian flag, the conjugation action of its
    generating set and that set; False, with nothing kept, when the walk
    finds H not closed under multiplication.  When no generating pair is
    found, the greedy set's walk is ``walk``, the ``_right_walk`` over
    ``_points(H)`` that a caller ran already, or else a new one seeded
    with the members that the pair search drew.  The
    greedy set's maps settle the flag with no product: generators s and
    t commute exactly when s t and t s have the same position.  A flag
    that a centralizer's closure set earlier must agree with the walk's,
    or ``InternalError`` is raised.  ``_points(H)`` is formed once, for
    the pair search and the greedy walk alike.

    The walk's right multiplication maps R(y) = y s give the action with
    no product: s^-1 y s is (s^-1 y^-1 s)^-1 = inv(R(inv(R(y)))), with
    inv the points' inversion as positions, so each permutation is three
    gathers of R and inv.  An abelian H gets identity permutations.  The
    maps are not kept.  The generating set is stored last, so a thread
    that sees it sees the flag and the action too."""
    points, where = _points(H)
    found, seeds = _generating_pair(H, points, where)
    if found is None:
        if walk is None:
            walk = _right_walk(points, where, _right_of(H), seeds=seeds)
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
    gens, rights = found
    G = H.group
    key = H.key
    if len(key) == len(G._data):
        pinv = G._inv
    else:
        where = dict(zip(key, range(len(key))))
        pinv = array("i", map(where.__getitem__, map(G._inv.__getitem__, key)))
    _keep_generators(H, abelian, [array("i", map(pinv.__getitem__, map(
        right.__getitem__, map(pinv.__getitem__, right)))) for right in rights],
        gens)
    return True


def _keep_generators(H: Subgroup, abelian: bool, action: list, gens: tuple,
                     carried=None):
    """Keep on H its abelian flag, the conjugation action of ``gens``,
    the conjugate and map ``carried`` that ``gens`` were carried by, if
    any, and then ``gens``, unless H has a generating set already.  A
    generator walk and a centralizer carried from a conjugate may give H
    different sets, so the first set kept stays, with its own action, and
    threads that race never pair one set with the other's action.

    A subgroup is carried from a conjugate only here, before it has a
    generating set, and a conjugate carried from has one, so no subgroup
    is carried, step by step, from itself."""
    with _KEEP_LOCK:
        if H._gens is None:
            H._abelian = abelian
            H._action = action
            H._carried = carried
            H._gens = gens


def _unit_order(fld: FieldSpec, units) -> int:
    """The order of the subgroup of GF(q)* that the nonzero field
    indices ``units`` generate: the lcm of their orders, since GF(q)* is
    cyclic."""
    mul = fld.mul_table()
    one = fld.one_index
    order = 1
    for u in set(units):
        k, x = 1, u
        while x != one:
            x = mul[x][u]
            k += 1
        order = math.lcm(order, k)
    return order


def _generating_pair(H: Subgroup, points, where):
    """Two ids that generate H, with the right multiplication maps by
    them, or None, and the seeds of the greedy walk, given ``points,
    where = _points(H)``: at most
    ``_PAIR_TRIALS`` pairs drawn from ``H.key`` by a generator seeded
    with the integer ``_PAIR_SEED``.  A commuting pair is rejected with
    2 products, so an abelian H costs at most 10.  Any other pair is kept
    when its ``_right_walk`` reaches every member, at 2 products per
    member it reaches; on a set not yet known to be a group, that also
    proves it closed.  Every group of order below 6 is abelian, so those
    are not searched.

    In a matrix group, a pair that generates H has determinants that
    generate det(H), which holds those of every drawn member; so a pair
    whose two determinants generate a smaller subgroup of the field's
    units than all the drawn ones do is rejected with no walk.  It could
    not have generated H, so the pair chosen is the one that walking
    every pair would choose.

    The seeds are the first positions of the non-commuting pairs drawn,
    in draw order: random members reach large subgroups quickly, so a
    failed search hands them to the greedy walk to start from, where the
    smallest positions would reach small ones."""
    key = H.key
    seeds = []
    if len(key) < 6:
        return None, seeds
    G = H.group
    mul = G._mul_data
    det = G._det
    rng = random.Random(_PAIR_SEED)
    draws = [sorted(rng.sample(range(len(key)), 2))
             for _ in range(_PAIR_TRIALS)]
    units = None  # the order of the units all drawn determinants generate
    for a, b in draws:
        if mul(points[a], points[b]) == mul(points[b], points[a]):
            continue
        seeds.append(a)
        if det is not None:
            if units is None:
                units = _unit_order(G.field, [det(points[p])
                                              for pair in draws for p in pair])
            if _unit_order(G.field, (det(points[a]), det(points[b]))) < units:
                continue
        walk = _right_walk(points, where, _right_of(H), (a, b))
        if walk is not None:
            return ((key[a], key[b]), walk[1]), seeds
    return None, seeds


def _conjugation_action(H: Subgroup) -> list:
    """The conjugation action y -> s^-1 y s of each generator s in
    ``generating_ids(H)`` on H, as one integer permutation per generator,
    in the same order: an ``array('i')`` over the positions in ``H.key``
    (for the whole group, positions are ids).  The permutations generate
    the group of all conjugations of H, so its orbits are the classes.
    ``_find_generators`` builds it, with no product, in the walk that
    finds the generating set, and keeps it on the subgroup; every orbit
    walk after that is integer indexing."""
    generating_ids(H)
    return H._action


def _grow_orbit(orbit, perms, seen):
    """Extend ``orbit``, a list of points marked in the ``bytearray``
    ``seen``, to their whole orbit under the integer permutations
    ``perms``, breadth first: each new point z is appended and marked
    1 + the index of the permutation that first reached it, so the loop
    records the orbit's tree at no extra store.  It is the one orbit
    loop: ``conjugacy_classes`` grows each class with it and keeps the
    marks as ``ClassData.reached``, and the oracle grows its classes with
    it over its checked maps and carries each centralizer down the tree
    edges that the marks name."""
    edges = [(s + 1, perm) for s, perm in enumerate(perms)]
    for y in orbit:
        for mark, perm in edges:
            z = perm[y]
            if not seen[z]:
                seen[z] = mark
                orbit.append(z)


def conjugacy_classes(H: Subgroup) -> ClassData:
    """Partition H into conjugation orbits under H itself.

    Each class is the orbit of a position in ``H.key`` that no class
    holds yet, under the integer conjugation action, grown by a flat
    loop over the positions met so far with a ``bytearray`` of those
    seen, so no product is made once the action is built.  The bytearray
    is kept as ``ClassData.reached``: each class's tree, which
    ``_transport`` follows and ``_close`` replays.  Each class's
    index is written over its positions in ``ClassData.table`` by one
    C-level scatter.  An abelian H
    is split into singletons without reading it, and its table is its
    positions.  Seeds ascend, so each class representative is its
    minimal id.

    An H carried from a conjugate (``_carried_from``) is no exception:
    its action is the one ``_carry`` relabelled, and its orbits are its
    classes like any other's, grown into a tree of their own."""
    if H._classes is not None:
        return H._classes
    key = H.key
    if is_abelian(H):
        classes = [ConjugacyClass(h, 1, (h,)) for h in key]
        table = range(len(key))
        seen = None
    else:
        classes = []
        action = _conjugation_action(H)
        table = array("i", [0]) * len(key)
        seen = bytearray(len(key))
        for seed in range(len(key)):
            if seen[seed]:
                continue
            seen[seed] = 1
            orbit = [seed]
            _grow_orbit(orbit, action, seen)
            orbit.sort()
            # table[p] = the new class's index for every p of the orbit,
            # stored in C
            deque(map(setitem, repeat(table), orbit, repeat(len(classes))),
                  maxlen=0)
            members = tuple(map(key.__getitem__, orbit))
            classes.append(ConjugacyClass(key[seed], len(members), members))
    H._classes = ClassData(H, classes, table, seen)
    return H._classes


def _carried_from(H: Subgroup):
    """The conjugate K that H was carried from and the map onto H, the
    images of ``K.key`` in order, or None: the seam through which a class
    of H with no centralizer kept takes one from K's instead of closing
    one."""
    return H._carried


def centralizer(H: Subgroup, x) -> Subgroup:
    """Elements of H commuting with x, as the stabilizer of x under
    conjugation (orbit–stabilizer; Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, §4.1).

    The class size |x^H| is read from ``conjugacy_classes(H)``, so the
    stabilizer's order |H| / |x^H| is known before any walk.  A class of
    size 1 gives H itself, and so does an abelian H, without reading the
    action.  Otherwise Z(x) takes one path:

    - when a member y of x's class has its centralizer kept, Z(x) is
      carried from Z(y) by ``_transport``;
    - otherwise one centralizer of the class is found first, for a
      member y: ``_close`` closes it at the class representative y, or,
      when H was carried from a conjugate K, ``_carry_from_conjugate``
      carries K's centralizer of K's own representative of the preimage
      class through the map onto H, to the image y of that
      representative.  Then Z(x) is that centralizer, when it is kept
      for x too, or is carried from it by ``_transport``.

    Every centralizer found, closed or carried, is kept by the one rule
    of ``_keep``: Z(y) = Z for every y in the center of Z whose class
    has x's size (the lemma of ``z_classes``), and those y lie in other
    classes too.  So each distinct centralizer of H is closed or carried
    once, and a class takes a closure, or a carry from K, only when no
    centralizer found before has reached it."""
    if isinstance(x, Element):
        x = x.id
    px = bisect_left(H.key, x)
    if px == len(H.key) or H.key[px] != x:
        raise InputError(f"element {x} is not a member of the subgroup")
    Z = H._centralizers.get(x)
    if Z is not None:
        return Z
    if is_abelian(H):
        return H
    cd = conjugacy_classes(H)
    ci = cd.table[px]
    size = cd.classes[ci].size
    if size == 1:
        H._centralizers[x] = H
        return H
    target, rest = divmod(len(H.key), size)
    if rest:
        raise InternalError(
            f"class size {size} does not divide |H| = {len(H.key)}"
        )
    y = _centralized_member(H, ci)
    if y is None:
        carried = _carried_from(H)
        if carried is None:
            y = cd.classes[ci].rep
            Z = _close(H, cd, y, target)
        else:
            y, Z = _carry_from_conjugate(H, *carried, x, target)
        _keep(H, cd, Z, size)
    return H._centralizers.get(x) or _keep(
        H, cd, _transport(H, cd, y, x, target), size)


def _close(H: Subgroup, cd: ClassData, r: int, target: int) -> Subgroup:
    """Z_H(r) of a class representative r, of order ``target``, closed
    at the root of the class tree that ``conjugacy_classes`` kept.

    The closure replays the tree from the root in the order it was
    grown, with no product: an edge p -> z of permutation i is a tree
    edge exactly when z is not the root and ``reached[z]`` names i, since
    a permutation sends one point alone to z.  Permutation i of the
    action is y -> u y u^-1 for u = s^-1, s generator i of
    ``generating_ids(H)``, the data ``data[inv[s]]``.  Every other edge
    p -> u p u^-1 = z gives a Schreier generator t_z^-1 u t_p, which
    commutes with r; the transversal element t_p (t_p r t_p^-1 = p) is
    formed along p's ``_class_path`` from the root only when a Schreier
    generator needs it, and kept for each position on the path.  The
    Schreier generators are added one at a time by an incremental Dimino
    closure, and the replay stops as soon as the closure reaches
    ``target``, so most of the class is never replayed and most Schreier
    generators and transversal elements are never formed.  The closure's
    generators generate Z, so Z is abelian exactly when they commute
    pairwise; that flag is kept on Z, which then needs no generator walk
    to be known abelian.  ``InternalError`` unless the closure reaches
    ``target``."""
    G = H.group
    data = G._data
    ids = G._ids
    inv = G._inv
    mul_data = G._mul_data
    action = _conjugation_action(H)
    gdata = [data[inv[g]] for g in generating_ids(H)]
    root = bisect_left(H.key, r)
    trans = {root: data[0]}

    def transversal(p):
        # t_p, with t_p r t_p^-1 = p, formed along p's class path from
        # the root, one product per position not formed before
        if p not in trans:
            q = root
            for s in _class_path(H, p, root):
                q, t = action[s][q], trans[q]
                if q not in trans:
                    trans[q] = mul_data(gdata[s], t)
            if q != p:
                raise InternalError(f"the class path of {p} leads to {q}")
        return trans[p]

    # the class tree replayed from the root edge by edge, in the order
    # it was grown: z = perm[p] is a tree edge exactly when z is not the
    # root and was reached by perm, since perm sends one point alone to
    # z, and the orbit list grows by it.  Every other edge gives a
    # Schreier generator, formed only until the closure reaches the
    # target order
    closure = {0: data[0]}
    found = []
    orbit = [root]
    edges = [(s + 1, perm, u) for s, (perm, u) in enumerate(zip(action, gdata))]
    for p, (mark, perm, u) in ((p, e) for p in orbit for e in edges):
        z = perm[p]
        if z != root and cd.reached[z] == mark:
            orbit.append(z)
            continue
        g = mul_data(data[inv[ids[transversal(z)]]],
                     mul_data(u, transversal(p)))
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
    return Z


def _keep(H: Subgroup, cd: ClassData, Z: Subgroup, size: int) -> Subgroup:
    """Keep Z on H as the centralizer of every y in the center of Z whose
    class has ``size`` members, and the first such y of each class as
    the member its class carries from (``_centralized_member``); returns
    Z.  For a centralizer Z = Z(x) with |x^H| = ``size`` these y are
    exactly those with Z(y) = Z (the lemma of ``z_classes``), x among
    them, so a closed or carried centralizer is kept for every member
    whose centralizer it is, and for no other."""
    cz = center(Z).key
    for y, ci in zip(cz, map(cd.table.__getitem__, _positions(H, cz))):
        if cd.classes[ci].size == size:
            H._centralizers[y] = Z
            H._centralized.setdefault(ci, y)
    return Z


def _carry_from_conjugate(H: Subgroup, K: Subgroup, moved: list, x: int,
                          target: int):
    """One centralizer of x's class in H, for H carried from its
    conjugate K by the map pi given as ``moved`` (the images of
    ``K.key`` in order): Z_H(pi(r)) = pi(Z_K(r)) for K's representative r
    of the class of the preimage of x, found in K (closed, carried or
    kept there) and carried onto H by ``_carry`` through the same map.
    Returns pi(r), a member of x's class, and its centralizer.
    ``InternalError`` when x has no preimage."""
    try:
        i = moved.index(x)
    except ValueError:
        raise InternalError(
            f"{x} has no preimage under the map of its carried subgroup"
        ) from None
    ck = conjugacy_classes(K)
    r = ck.classes[ck.table[i]].rep
    y = moved[bisect_left(K.key, r)]
    W = centralizer(K, r)
    return y, _carry(W, list(map(moved.__getitem__, _positions(K, W.key))),
                     r, y, target)


def _positions(H: Subgroup, ids):
    """The positions in ``H.key`` of the member ids ``ids``, in order:
    the ids themselves for the whole group, whose key is every id, and
    otherwise one bisection of the key each."""
    key = H.key
    if len(key) == len(H.group._data):
        return ids
    return map(partial(bisect_left, key), ids)


def _centralized_member(H: Subgroup, ci: int):
    """A member of class ``ci`` of H whose centralizer H keeps, or None,
    looked up by class."""
    return H._centralized.get(ci)


def _inverse_action(H: Subgroup) -> list:
    """The inverses of the conjugation action's permutations, in the
    same order, made on first use and kept next to the action."""
    if H._inverse is None:
        inverse = []
        for perm in _conjugation_action(H):
            back = array("i", perm)
            # back[perm[i]] = i for every i, stored in C
            deque(map(setitem, repeat(back), perm, range(len(perm))),
                  maxlen=0)
            inverse.append(back)
        H._inverse = inverse
    return H._inverse


def _class_path(H: Subgroup, p: int, root: int) -> list:
    """The permutation indices on the class tree's path from the root,
    the position of the class representative, to position p of H, in
    the order they apply.  Each step up the tree is one lookup: the
    parent of p is the inverse of the permutation that reached p, at p.
    ``InternalError`` unless every mark on the path names a permutation,
    1 to their number, and the path reaches the root."""
    reached = H._classes.reached
    inverse = _inverse_action(H)
    path = []
    start = p
    while p != root:
        if len(path) == len(reached):
            raise InternalError(
                f"the class tree has no path from position {start} up to "
                f"its representative's, {root}")
        s = reached[p] - 1
        if not 0 <= s < len(inverse):
            raise InternalError(
                f"the class tree marks position {p} with {s + 1}, not one "
                f"of its {len(inverse)} permutations")
        path.append(s)
        p = inverse[s][p]
    path.reverse()
    return path


def _transport(H: Subgroup, cd: ClassData, y: int, x: int,
               target: int) -> Subgroup:
    """Z_H(x) carried from the kept Z(y), for y in x's class, with no
    closure: Z(pi(y)) = pi(Z(y)) for every conjugation pi of H.  The
    class tree gives the path of action permutations from the class
    representative to each of y and x, so y's path run back by the
    inverse permutations and then x's path forward map the positions of
    Z(y) onto those of Z(x), with no product; ``_carry`` makes the image
    and checks it."""
    G = H.group
    key = H.key
    Zy = H._centralizers[y]
    px = bisect_left(key, x)
    root = bisect_left(key, cd.classes[cd.table[px]].rep)
    moved = _positions(H, Zy.key)
    inverse = _inverse_action(H)
    for s in reversed(_class_path(H, bisect_left(key, y), root)):
        moved = map(inverse[s].__getitem__, moved)
    action = H._action
    for s in _class_path(H, px, root):
        moved = map(action[s].__getitem__, moved)
    # the ids at the positions, which for the whole group are the ids
    moved = (list(moved) if len(key) == len(G._data)
             else list(map(key.__getitem__, moved)))
    return _carry(Zy, moved, y, x, target)


def _carry(Zy: Subgroup, moved: list, y: int, x: int,
           target: int) -> Subgroup:
    """The image Z of Zy = Z(y) under a conjugation pi with pi(y) = x,
    given as ``moved``, the ids pi(z) of the members z of ``Zy.key`` in
    order: Z_H(x) for the subgroup H that pi carries Zy's ambient
    subgroup onto, H itself for ``_transport``.  Zy's abelian flag, and
    when it is not abelian its generating set and action (found first by
    its own walk if Zy has none yet), are carried by relabelling
    positions, and kept in the order ``_find_generators`` keeps them,
    with Zy and ``moved`` as the conjugate and map that Z's centralizers
    are carried through (``_carried_from``).  Z grows its classes from
    the carried action like any other subgroup.

    ``InternalError`` unless pi sends y to x, the image has order
    ``target`` = |H| / |x^H|, so that no two members share an image,
    and x commutes with every carried generator, at 2 products each."""
    G = Zy.group
    image = moved[bisect_left(Zy.key, y)]
    if image != x:
        raise InternalError(
            f"the class path sends {y} to {image}, expected {x}")
    Z = Subgroup(G, moved, _validate=False)
    if len(Z.key) != target:
        raise InternalError(
            f"the carried centralizer of {x} has order {len(Z.key)}, "
            f"expected {target}")
    abelian = is_abelian(Zy)
    if Z._abelian is not None and Z._abelian != abelian:
        raise InternalError(
            f"the carried centralizer of {x} is "
            f"{'' if abelian else 'not '}abelian, against its own flag")
    if abelian:
        Z._abelian = True
    else:
        gens = tuple(moved[bisect_left(Zy.key, g)]
                     for g in generating_ids(Zy))
        data = G._data
        mul_data = G._mul_data
        xd = data[x]
        for g in gens:
            if mul_data(data[g], xd) != mul_data(xd, data[g]):
                raise InternalError(
                    f"the carried generator {g} does not commute with {x}")
        if Z._gens is None:
            # sigma[i]: the position in Z.key of the image of member i of Zy
            sigma = array("i", map(partial(bisect_left, Z.key), moved))
            carried = []
            for perm in Zy._action:
                # out[sigma[i]] = sigma[perm[i]] for every i
                out = array("i", sigma)
                deque(map(setitem, repeat(out), sigma,
                          map(sigma.__getitem__, perm)), maxlen=0)
                carried.append(out)
            _keep_generators(Z, False, carried, gens, (Zy, moved))
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
    found with no product: each permutation filters, in C, the positions
    that the ones before it fix."""
    if is_abelian(H):
        return H
    fixed = range(len(H.key))
    for perm in _conjugation_action(H):
        fixed = list(compress(fixed, map(eq, map(perm.__getitem__, fixed),
                                         fixed)))
    return Subgroup(H.group, map(H.key.__getitem__, fixed), _validate=False)


def commutator_subgroup(H: Subgroup) -> Subgroup:
    """Derived subgroup: the trivial group when H is abelian, otherwise
    the normal closure in H of the generators' commutators, which is the
    subgroup generated by their conjugacy classes, read from
    ``conjugacy_classes``."""
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
    conjugates = {m for ci in map(cd.table.__getitem__, _positions(H, comms))
                  for m in cd.classes[ci].members}
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
            block = set(map(cd.table.__getitem__, _positions(
                H, center(centralizer(H, c.rep)).key)))
            block = sorted(j for j in block if cd.classes[j].size == c.size)
            done.update(block)
            blocks.append(block)
    return blocks
