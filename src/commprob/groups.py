"""Finite group engine.

A :class:`Group` is a fully enumerated finite group whose elements carry
deterministic integer ids.  Groups built by generator closure assign ids
by breadth-first search from the identity (left multiplication, first
seen wins), so ids are reproducible across runs and platforms; groups
built from an explicit element list keep the given order with the
identity moved to id 0.

Subgroups are id sets inside an ambient group; their canonical key is
the sorted id tuple.  Subgroups are interned: constructing one whose key
its group has seen before returns the same object, so subgroup identity
is object identity, and everything computed about a subgroup (its
generating set, abelian flag, conjugation action, classes and
centralizers) is kept on that object.  Matrix products are straight-line
code over the field's add and mul tables for d = 1, 2, 3.

Each subgroup has one generating set, ``generating_ids``: two elements
that generate H when a bounded search over a few seeded random pairs
finds them, which also shows that H is not abelian, and otherwise the
greedy set.  A non-abelian subgroup H gets, on first use, the
conjugation action of that set as integer permutations of the positions
in ``H.key``, built once at 2 products per element per generator and
kept on the subgroup.  It is the only place here that multiplies
elements to conjugate them: conjugacy classes, centralizer orbits,
z-classes, the center (the points every permutation fixes) and the
normal closure behind the derived subgroup are then integer indexing.
Centralizers are point stabilizers of that action: Schreier generators,
formed from a lazily built transversal, closed by an incremental Dimino
closure that stops at the orbit–stabilizer order |H| / |x^H|.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import InputError, InternalError, SizeCapError
from .gf import FieldElement, FieldSpec

GROUP_SIZE_CAP = 250_000

_EXHAUSTIVE_CHECK_LIMIT = 200
_SAMPLE_CHECKS = 512
_CHECK_SEED = 0x5EED
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

    # straight-line products: one row lookup mul[a] per entry of A, then
    # plain indexing, with no loop and no list building
    if d == 1:
        def mat_mul(A, B):
            return (mul[A[0]][B[0]],)
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

    def sub(x, y):
        return add[x][neg[y]]

    def det(A):
        if d == 1:
            return A[0]
        if d == 2:
            return sub(mul[A[0]][A[3]], mul[A[1]][A[2]])
        a, b, c, e, f, g, h, i, j = A
        m1 = mul[a][sub(mul[f][j], mul[g][i])]
        m2 = mul[b][sub(mul[e][j], mul[g][h])]
        m3 = mul[c][sub(mul[e][i], mul[f][h])]
        return add[sub(m1, m2)][m3]

    def mat_inv(A):
        dt = det(A)
        if dt == 0:
            raise InputError("matrix is not invertible")
        di = inv_t[dt]
        if d == 1:
            return (di,)
        if d == 2:
            a, b, c, e = A
            return (mul[di][e], mul[di][neg[b]], mul[di][neg[c]], mul[di][a])
        a, b, c, e, f, g, h, i, j = A
        adj = (
            sub(mul[f][j], mul[g][i]), sub(mul[c][i], mul[b][j]), sub(mul[b][g], mul[c][f]),
            sub(mul[g][h], mul[e][j]), sub(mul[a][j], mul[c][h]), sub(mul[c][e], mul[a][g]),
            sub(mul[e][i], mul[f][h]), sub(mul[b][h], mul[a][i]), sub(mul[a][f], mul[b][e]),
        )
        return tuple(mul[di][x] for x in adj)

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


def _table_generators(mul_data, identity, n):
    """Table indices in ascending order, each outside the left-multiplication
    closure of those before it.  Each one at least doubles the subgroup
    generated so far, so a group of order n never needs more than
    floor(log2 n) of them; a table that does is rejected."""
    gens = []
    reached = {identity}
    for g in range(n):
        if g in reached:
            continue
        if len(gens) == n.bit_length() - 1:
            raise InputError("multiplication table is not a group: it needs "
                             "more than log2(n) generators")
        gens.append(g)
        reached = _bfs_closure(mul_data, identity, gens)[1]
    return gens


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

def _closure_pairs(elements):
    """The pairs a closure check multiplies: all of them for a small
    element list, otherwise a fixed seeded sample."""
    n = len(elements)
    if n <= _EXHAUSTIVE_CHECK_LIMIT:
        return ((a, b) for a in elements for b in elements)
    rng = random.Random(_CHECK_SEED)
    return (
        (elements[rng.randrange(n)], elements[rng.randrange(n)])
        for _ in range(_SAMPLE_CHECKS)
    )


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
                 descriptor="", fld=None, dim=None):
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
        try:
            self._inv = [self._ids[inv_data(d)] for d in self._data]
        except KeyError:
            raise InputError("element set is not closed under inversion") from None
        self._subgroups = {}
        self._full = None
        self._branching = None
        self._lescot_memo = {}
        self._spot_check()

    def _spot_check(self):
        n = len(self._data)
        mul_data = self._mul_data
        ids = self._ids
        data = self._data
        for a, b in _closure_pairs(data):
            if mul_data(a, b) not in ids:
                raise InputError("element set is not closed under multiplication")
        e = data[0]
        for i in range(min(n, 64)):
            if mul_data(e, data[i]) != data[i] or mul_data(data[i], e) != data[i]:
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
            _light_test(table, _table_generators(mul_data, identity, len(table)))
            data = _identity_first(list(range(len(table))), identity)
            return cls("table", mul_data, inv_data, identity, data,
                       descriptor=descriptor)
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
        o = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            o += 1
        return o

    def full(self) -> "Subgroup":
        if self._full is None:
            self._full = Subgroup(self, range(len(self._data)), _validate=False)
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

    Construction interns: the group keeps one object per key, so a second
    construction of the same id set returns the first object, and equal
    subgroups are identical.  Validation, when asked, runs on every
    construction, before a new object is entered, so a set that fails it
    is never interned.  The
    slots after ``key`` hold what the subgroup algorithms compute about
    it, each filled on first use."""

    __slots__ = ("group", "member_ids", "key",
                 "_gens", "_abelian", "_action", "_classes", "_centralizers")

    def __new__(cls, group: Group, ids, _validate=True):
        member_ids = frozenset(
            i.id if isinstance(i, Element) else int(i) for i in ids
        )
        key = tuple(sorted(member_ids))
        H = group._subgroups.get(key)
        if H is None:
            H = object.__new__(cls)
            H.group = group
            H.member_ids = member_ids
            H.key = key
            H._gens = H._abelian = H._action = H._classes = None
            H._centralizers = {}
        if _validate:
            H._validate()
        # callers may build subgroups from their own threads: two threads
        # building the same subgroup both get the first entry
        return group._subgroups.setdefault(key, H)

    def _validate(self):
        G = self.group
        mem = self.member_ids
        if 0 not in mem:
            raise InputError("subgroup must contain the identity")
        for i in mem:
            if not 0 <= i < len(G):
                raise InputError(f"member id {i} out of range")
            if G.inv(i) not in mem:
                raise InputError("member set is not closed under inversion")
        for a, b in _closure_pairs(self.key):
            if G.mul(a, b) not in mem:
                raise InputError("member set is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.member_ids)

    def __len__(self):
        return len(self.member_ids)

    def __contains__(self, x):
        if isinstance(x, Element):
            x = x.id
        return x in self.member_ids

    def elements(self):
        for i in self.key:
            yield Element(self.group, i)

    def __repr__(self):
        return f"Subgroup(order={len(self.member_ids)} of {self.group!r})"


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


def generating_ids(H: Subgroup) -> tuple:
    """The generating set of H, kept on it and used by the abelian test,
    the conjugation action and the derived subgroup alike.

    It is the pair of ``_generating_pair`` when that finds one, which
    also settles that H is not abelian; otherwise it is greedy over
    ascending ids, so at most log2 |H| generators.  A pair exists only
    for a non-abelian H, where greedy needs at least two, so the set
    never has more generators than greedy."""
    if H._gens is not None:
        return H._gens
    pair = _generating_pair(H)
    if pair is not None:
        H._abelian = False
        H._gens = pair
        return pair
    G = H.group
    data = G._data
    gens = []
    gens_data = []
    closure = {0: data[0]}
    target = len(H.member_ids)
    for x in H.key:
        if len(closure) == target:
            break
        if x not in closure:
            gens.append(x)
            _dimino_add(G, closure, gens_data, data[x], target)
    H._gens = tuple(gens)
    return H._gens


def _generating_pair(H: Subgroup):
    """Two ids that generate H, or None: at most ``_PAIR_TRIALS`` pairs
    drawn from ``H.key`` by a generator seeded with the integer
    ``_PAIR_SEED``.  A commuting pair is rejected with 2 products, so an
    abelian H costs at most 10.  Otherwise the pair's Dimino closure
    stops as soon as it holds more than |H|/2 elements, which by
    Lagrange is all of H.  Every group of order below 6 is abelian, so
    those are not searched."""
    key = H.key
    if len(key) < 6:
        return None
    G = H.group
    data = G._data
    mul_data = G._mul_data
    half = len(key) // 2 + 1
    rng = random.Random(_PAIR_SEED)
    for _ in range(_PAIR_TRIALS):
        a, b = sorted(rng.sample(key, 2))
        ad = data[a]
        bd = data[b]
        if mul_data(ad, bd) == mul_data(bd, ad):
            continue
        # b is not in <a>, since it does not commute with a
        closure = {0: data[0]}
        gens = []
        _dimino_add(G, closure, gens, ad)
        _dimino_add(G, closure, gens, bd, half)
        if len(closure) == half:
            return (a, b)
    return None


def _conjugation_action(H: Subgroup) -> list:
    """The conjugation action y -> s y s^-1 of each generator s in
    ``generating_ids(H)`` on H, as one integer permutation per generator,
    in the same order: an ``array('i')`` over the positions in ``H.key``
    (for the whole group, positions are ids).

    This is the only place here that multiplies elements to conjugate
    them.  It costs 2 products per element per generator and is kept on
    the subgroup, so it is built once; every orbit walk after that is
    integer indexing."""
    if H._action is not None:
        return H._action
    G = H.group
    data = G._data
    inv = G._inv
    mul_data = G._mul_data
    key = H.key
    if len(key) == len(data):
        points = data
        where = G._ids
    else:
        points = [data[h] for h in key]
        where = {y: i for i, y in enumerate(points)}
    action = []
    for g in generating_ids(H):
        gd = data[g]
        gdi = data[inv[g]]
        action.append(array("i", [where[mul_data(mul_data(gd, y), gdi)]
                                  for y in points]))
    H._action = action
    return action


def conjugacy_classes(H: Subgroup) -> ClassData:
    """Partition H into conjugation orbits under H itself.

    The orbits are walked on positions in ``H.key`` through the integer
    conjugation action, so no product is made once the action is built;
    an abelian H is split into singletons without building it.  Seeds
    ascend, so each class representative is its minimal id."""
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
        label = [-1] * len(key)
        for seed, seen in enumerate(label):
            if seen >= 0:
                continue
            ci = len(classes)
            label[seed] = ci
            orbit = [seed]
            for y in orbit:
                for perm in action:
                    z = perm[y]
                    if label[z] < 0:
                        label[z] = ci
                        orbit.append(z)
            members = [key[y] for y in orbit]
            for m in members:
                class_of[m] = ci
            classes.append(ConjugacyClass(key[seed], len(orbit), tuple(sorted(members))))
    H._classes = ClassData(H, classes, class_of)
    return H._classes


def centralizer(H: Subgroup, x) -> Subgroup:
    """Elements of H commuting with x, as the stabilizer of x under
    conjugation (orbit–stabilizer; Holt–Eick–O'Brien, *Handbook of
    Computational Group Theory*, §4.1).

    A breadth-first search through the integer conjugation action finds
    the class x^H with parent pointers (orbit index, generator index),
    making no product.  Generator i of ``generating_ids(H)`` is
    permutation i of the action.  Every non-tree edge y -> s y s^-1 = z
    gives a Schreier generator t_z^-1 s t_y, which commutes with x; the
    transversal element t_y (t_y x t_y^-1 = y) is formed from the parent
    pointers only when a Schreier generator needs it, and kept.  The
    Schreier generators are added one at a time by an
    incremental Dimino closure, which stops as soon as the closure
    reaches the known order |H| / |x^H|, so most of them and most
    transversal elements are never formed.  A class of size 1 gives H
    itself, and so does an H already known to be abelian, without
    building the action.
    """
    if isinstance(x, Element):
        x = x.id
    G = H.group
    if x not in H.member_ids:
        raise InputError(f"element {x} is not a member of the subgroup")
    Z = H._centralizers.get(x)
    if Z is not None:
        return Z
    if H._abelian:
        return H
    gens = generating_ids(H)
    action = _conjugation_action(H)

    # orbit of x's position; point i was first reached from point up[i]
    # by generator via[i]
    orbit = [bisect_left(H.key, x)]
    index = {orbit[0]: 0}
    up = [-1]
    via = [-1]
    for yi, y in enumerate(orbit):
        for si, perm in enumerate(action):
            z = perm[y]
            if z not in index:
                index[z] = len(orbit)
                orbit.append(z)
                up.append(yi)
                via.append(si)

    if len(orbit) == 1:
        Z = H
    else:
        target, rest = divmod(len(H.member_ids), len(orbit))
        if rest:
            raise InternalError(
                f"class size {len(orbit)} does not divide |H| = {len(H.member_ids)}"
            )
        data = G._data
        ids = G._ids
        inv = G._inv
        mul_data = G._mul_data
        gdata = [data[g] for g in gens]
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

        # Schreier generators of the non-tree edges in BFS order, formed
        # only until the closure reaches the target order
        closure = {0: data[0]}
        found = []
        for yi, si in product(range(len(orbit)), range(len(action))):
            if len(closure) == target:
                break
            zi = index[action[si][orbit[yi]]]
            if up[zi] == yi and via[zi] == si:
                continue
            tz = transversal(zi)
            g = mul_data(data[inv[ids[tz]]], mul_data(gdata[si], transversal(yi)))
            if ids[g] not in closure:
                _dimino_add(G, closure, found, g, target)
        if len(closure) != target:
            raise InternalError(
                f"Schreier closure reached order {len(closure)}, expected {target}"
            )
        Z = Subgroup(G, closure, _validate=False)
    H._centralizers[x] = Z
    return Z


def is_abelian(H: Subgroup) -> bool:
    if H._abelian is None:
        G = H.group
        gens = generating_ids(H)
        # a generating pair has settled it already
        if H._abelian is None:
            H._abelian = all(
                G.mul(a, b) == G.mul(b, a) for a in gens for b in gens
            )
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
    the normal closure in H of the generators' commutators, whose members
    are conjugated through the integer action."""
    G = H.group
    if is_abelian(H):
        return Subgroup(G, [0], _validate=False)
    gens = generating_ids(H)
    action = _conjugation_action(H)
    key = H.key
    inv = G.inv
    mul = G.mul
    # non-empty: two of the generators do not commute
    comms = {mul(mul(inv(a), inv(b)), mul(a, b)) for a in gens for b in gens}
    data = G._data
    genlist = []
    members = {0: data[0]}
    pending = sorted(comms - {0}, reverse=True)
    while pending:
        c = pending.pop()
        if c in members:
            continue
        _dimino_add(G, members, genlist, data[c])
        points = [bisect_left(key, m) for m in members]
        new_conj = {key[perm[y]] for y in points for perm in action}
        pending.extend(sorted(new_conj - members.keys(), reverse=True))
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
    if x not in H.member_ids:
        raise InputError(f"element {x} is not a member of the subgroup")
    return H.group.element_order(x)


def z_classes(H: Subgroup) -> list:
    """Group class indices whose representatives' centralizers are
    conjugate subgroups of H.  Returns a partition as a list of sorted
    index lists, ordered by smallest class index.

    Centralizers are conjugated as sorted tuples of positions in
    ``H.key`` (positions ascend with ids, so a subgroup key maps to a
    sorted position tuple) through the integer conjugation action; an
    abelian H is a single block."""
    cd = conjugacy_classes(H)
    if is_abelian(H):
        return [list(range(cd.k))]
    key = H.key
    action = _conjugation_action(H)
    orbit_of = {}
    blocks = []
    for i, c in enumerate(cd.classes):
        Z = centralizer(H, c.rep)
        start = tuple(bisect_left(key, z) for z in Z.key)
        found = orbit_of.get(start)
        if found is not None:
            blocks[found].append(i)
            continue
        oi = len(blocks)
        blocks.append([i])
        orbit_of[start] = oi
        queue = [start]
        while queue:
            k = queue.pop()
            for perm in action:
                ck = tuple(sorted([perm[z] for z in k]))
                if ck not in orbit_of:
                    orbit_of[ck] = oi
                    queue.append(ck)
    return blocks
