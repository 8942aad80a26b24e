"""Independent brute-force ground truth.

Everything here counts at the element level: commuting tuples by
backtracking over nested centralizer intersections, simultaneous
conjugacy classes by explicit orbit partition, and the same orbit count
a second time through Burnside's lemma.  Every permutation the oracle
uses is the engine's integer conjugation action of a subgroup H, read
through ``_checked_maps``, which first recomputes s^-1 y s for every
generator s and member y with this module's own products, and raises on
any difference.  The centralizer table rests on the whole group's maps:
Z(x) is found by products only for one representative x of each
conjugacy class and carried to the rest of the class along the maps,
since Z(s^-1 y s) = s^-1 Z(y) s.  The tuple counts and Burnside's sum
read only that table, so a wrong action fails a check instead of
agreeing with the engine.  An id that the maps never reach is scanned
as its own representative, so a generating set that is too small still
gives an exact table, and then Burnside's count and the walk disagree.
Since h is in Z(x) exactly when x is in Z(h), an id whose class came
earlier is looked up instead of multiplied, so the table costs at most
2 products per element per class, and k(G) |G| must stay within the
budget.  Equal centralizers share one set, so the table holds one set
per distinct Z(x).

Conjugation moves each entry of a tuple only inside its conjugacy class,
so no orbit leaves the block of tuples whose first entries share a class
K, and every orbit in that block meets the tuples that start with K's
smallest id x.  The orbits of the whole group on the block therefore
correspond one to one to the orbits of the stabilizer of x on the tuples
(x, t2, ..., tn), whose entries all lie in Z(x); that stabilizer is Z(x)
itself, acting on Z(x) by conjugation.  The classes are the orbits of
single ids under the whole group's maps, each grown once by the engine's
orbit loop ``groups._grow_orbit`` for the table, and each block
is walked under the checked conjugation action of the subgroup Z(x), one
map per generator of Z(x), kept as a tuple of positions in sorted Z(x)
and made an id map only while it is walked.  The check proves each map
a conjugation by an element of Z(x), so it fixes x and keeps Z(x).
Only the tuples that start with x are enumerated and walked, one class
at a time.  One backtracking enumerator serves both: it stops one level
short, at each commuting (n-1)-tuple prefix (x, t2, ..., t(n-1)) with
the set C of ids that complete it.  Z(x) is abelian exactly when it
holds |Z(x)|^2 commuting pairs, a count that Burnside's sum makes
anyway; then each tuple is its own orbit, and the block is only
counted, as the sum of the |C|, with no tuple formed and no visited set.
A walked block forms prefix + (y,) for y in sorted C.  The
memory guard is checked against the largest block that a walk holds,
one whose Z(x) is neither abelian nor the whole group.  The tails of
the tuples (x, t2, ..., tn) depend only on Z(x), and the maps fix x, so
classes with the same Z(x) share one walk, and each distinct Z(x) is
checked once for all the levels.  The tuple counts check that every
member of a class heads as many tuples as x does.

A central z heads (z, t2, ..., tn) for every commuting (n-1)-tuple
(t2, ..., tn), and dropping z commutes with conjugation, so the central
classes contribute |Z(G)| c_G(n-1) orbits and are never walked.  The
levels 1, ..., n are therefore counted bottom-up from c_G(0) = 1, in one
loop that runs the same checks on every class at every level m: every
member heads as many m-tuples as x, a central class adds c_G(m-1), each
distinct Z(x) is walked once and its walk enumerates and reaches as many
tuples as counted, and the classes together list every commuting
m-tuple.  Each level then has its own Burnside count.  The classes, each
kept as x and its orbit list, and the walked maps do not depend on the
level and are built once, before the loop.

The pair scan over the full matrix algebra forms products through row
tables: for every matrix M, the product v.M of every row vector v, with
row vectors coded as integers, so row i of AB is one lookup in B's table.
It takes one step per matrix A, which compares AB with BA for every B
at once in C code: a lane string holds one row code per B, a byte wide
when the q^d codes fit in one (every (d, q) within the budget but d = 1
with q > 256) and two bytes otherwise.  Row i of AB over all B is the
column of the tables at row i of A; row i of BA is the lane string of
every B's row i translated through A's table.  The B that commute with A
are the zero lanes of the rows' XORs, ORed as integers.  At (3, 2) the
262,144 ordered pairs take about 8 ms on a shared 2-vCPU machine, the
square checks included.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from fractions import Fraction
from operator import itemgetter

from . import groups
from .errors import BudgetError, InputError, InternalError
from .gf import field, prime_power
from .groups import (Group, Subgroup, _conjugation_action, generating_ids,
                     matrix_operations)

DEFAULT_BUDGET = 50_000_000
DEFAULT_MEMORY_BYTES = 2 << 30
DEFAULT_PAIR_SCAN_BUDGET = 300_000


def _checked_maps(H: Subgroup) -> list:
    """The conjugation maps of ``generating_ids(H)`` on H, one tuple of
    positions in ``H.key`` per generator s (for the whole group,
    positions are ids), after recomputing s^-1 y s for every member y
    with the group's products (2 per member per generator):
    ``InternalError`` unless every map is the conjugation by its
    generator.  This is the one check of every map the oracle uses."""
    G = H.group
    key = H.key
    gens = generating_ids(H)
    maps = [tuple(perm) for perm in _conjugation_action(H)]
    if len(maps) != len(gens):
        raise InternalError(
            f"{len(maps)} conjugation maps for {len(gens)} generators")
    data = G._data
    ids = G._ids
    mul_data = G._mul_data
    for g, perm in zip(gens, maps):
        gd = data[g]
        gdi = data[G._inv[g]]
        for p, y in enumerate(key):
            z = ids[mul_data(mul_data(gdi, data[y]), gd)]
            if key[perm[p]] != z:
                raise InternalError(
                    f"the conjugation map of {g} sends {y} to "
                    f"{key[perm[p]]}, products give {z}")
    return maps


def _centralizer_table(G: Group, n: int, budget: int):
    """(Z(x) as a frozenset of ids for every id x, each class as
    (x, members)), after checking the budget for the table and for the
    n-tuple backtracking.

    Each class is grown once, by ``groups._grow_orbit`` from its
    smallest id x under the checked conjugation maps of the whole group,
    with ``seen`` as the marks of the maps that first reached each id, so
    k(G) is known before any centralizer is scanned; k(G) |G| must be
    within the budget.  Z(x) is then scanned, with 2 products for each id
    of x's class or a later one, and carried down the class's tree edges
    in the orbit's order, Z(s(y)) = s(Z(y)), with no product: y -> s(y)
    is a tree edge exactly when s(y) is not x and its mark names s, since
    s sends one id alone to s(y).  Equal sets share one frozenset.  The
    members are the orbit list, x first."""
    order = G.order
    maps = _checked_maps(G.full())
    classes = []
    seen = bytearray(order)
    for x in range(order):
        if not seen[x]:
            seen[x] = 1
            orbit = [x]
            groups._grow_orbit(orbit, maps, seen)
            classes.append((x, orbit))
    k = len(classes)
    if k * order > budget:
        raise BudgetError(
            f"centralizer table for |G|={order} with {k} classes exceeds "
            f"budget {budget}"
        )
    work = order * k ** max(n - 1, 0)
    if work > budget:
        raise BudgetError(
            f"estimated work {work} for |G|={order}, n={n} exceeds "
            f"budget {budget}"
        )
    data = G._data
    mul_data = G._mul_data
    cents = [None] * order
    distinct = {}
    edges = [(s + 1, perm) for s, perm in enumerate(maps)]
    for x, orbit in classes:
        xd = data[x]
        # h is in Z(x) exactly when x is in Z(h), known for earlier classes
        c = frozenset(h for h, hd, zh in zip(range(order), data, cents)
                      if (x in zh if zh is not None
                          else mul_data(hd, xd) == mul_data(xd, hd)))
        cents[x] = distinct.setdefault(c, c)
        # Z(y) down the class's tree edges in the orbit's order: y -> z
        # is one exactly when z is not x and its mark names the map
        for y in orbit:
            for mark, perm in edges:
                z = perm[y]
                if z != x and seen[z] == mark:
                    c = frozenset(map(perm.__getitem__, cents[y]))
                    cents[z] = distinct.setdefault(c, c)
    return cents, classes


def _count(cents, memo: dict, C: frozenset, m: int) -> int:
    """The number of commuting m-tuples with every entry in C, where C
    is an intersection of centralizers (the whole group included);
    ``memo`` caches it by (C, m) for one centralizer table."""
    if m <= 1:
        return len(C) if m else 1
    val = memo.get((C, m))
    if val is None:
        val = sum(_count(cents, memo, C & cents[x], m - 1) for x in C)
        memo[(C, m)] = val
    return val


def _completions(cents, n: int, x: int):
    """Yield (prefix, C) for every commuting (n-1)-tuple prefix (n >= 2)
    that starts with x, in lexicographic order, where C, the intersection
    of the centralizers of the prefix's entries, holds the ids y that
    complete it to the commuting n-tuple prefix + (y,): pick t2 in Z(x),
    then t3 in Z(x) & Z(t2), and so on, one level short of n."""
    stack = [((x,), cents[x])]
    while stack:
        prefix, C = stack.pop()
        if len(prefix) == n - 1:
            yield prefix, C
        else:
            for y in sorted(C, reverse=True):
                stack.append((prefix + (y,), C & cents[y]))


def commuting_tuples_count(G: Group, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """|G^(n)| by backtracking over nested centralizer intersections; the
    last level is counted, not expanded."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n <= 1:
        return G.order if n else 1
    cents = _centralizer_table(G, n, budget)[0]
    return _count(cents, {}, frozenset(range(G.order)), n)


def _head_count(cents, memo: dict, x: int, members, m: int) -> int:
    """The number of commuting m-tuples that start with x, after checking
    with the ``_count`` sums that every member of x's class heads as
    many."""
    count = _count(cents, memo, cents[x], m - 1)
    heads = sum(_count(cents, memo, cents[y], m - 1) for y in members)
    if heads != len(members) * count:
        raise InternalError(
            f"block of {x}: {heads} tuples != {len(members)} x {count}"
        )
    return count


def _block_orbits(cents, n: int, x: int, maps):
    """(tuples enumerated, orbits, tuples reached) among the commuting
    n-tuples that start with x, under x's stabilizer, Z(x) acting on
    Z(x) by conjugation: ``maps`` are the action of its generators from
    ``_checked_maps``, as tuples of positions in sorted Z(x), and empty
    when Z(x) is abelian.  Both read the (prefix, C) pairs of
    ``_completions``.  An abelian block is counted: each tuple is its own
    orbit, so all three numbers are the sum of the |C|, and no tuple is
    formed or held.  Otherwise it is a walk over the tuples prefix + (y,)
    for y in sorted C, in lexicographic order, that starts an orbit at
    each tuple not reached yet, with a visited set freed on return; (x,)
    is fixed by every map.  The numbers depend only on Z(x), so the
    caller walks each distinct Z(x) once and reuses the result.  The
    position maps become id maps for this walk only."""
    if n == 1:
        return 1, 1, 1
    completions = _completions(cents, n, x)
    if not maps:
        counted = sum(len(C) for _, C in completions)
        return counted, counted, counted
    zx = sorted(cents[x])
    fixed = list(range(len(cents)))  # copied, so the maps share its ints
    id_maps = []
    for local in maps:
        perm = fixed.copy()
        for w, p in zip(zx, local):
            perm[w] = zx[p]
        id_maps.append(perm)
    visited = set()
    enumerated = orbit_count = 0
    for prefix, C in completions:
        enumerated += len(C)
        for y in sorted(C):
            t = prefix + (y,)
            if t in visited:
                continue
            orbit_count += 1
            visited.add(t)
            stack = [t]
            while stack:
                for img in map(itemgetter(*stack.pop()), id_maps):
                    if img not in visited:
                        visited.add(img)
                        stack.append(img)
    return enumerated, orbit_count, len(visited)


class TupleOrbitReport:
    """What ``simultaneous_classes_count`` found for one group and n."""

    __slots__ = ("descriptor", "n", "tuple_count", "orbit_count",
                 "burnside_count", "method")

    def __init__(self, descriptor: str, n: int, tuple_count: int,
                 orbit_count: int, burnside_count: int,
                 method: str = "backtracking+orbit-bfs+burnside"):
        self.descriptor = descriptor
        self.n = n
        self.tuple_count = tuple_count
        self.orbit_count = orbit_count
        self.burnside_count = burnside_count
        self.method = method


def simultaneous_classes_count(G: Group, n: int) -> TupleOrbitReport:
    """c_G(n) by explicit orbit partition of the commuting n-tuples under
    coordinatewise conjugation, cross-checked by Burnside's lemma.

    The central classes contribute |Z(G)| c_G(n-1), so every level from
    1 up to n is counted, each with its own checks; the Burnside checks
    run last, from level n down."""
    if n < 0:
        raise InputError("n must be nonnegative")
    cents, classes = _centralizer_table(G, n, DEFAULT_BUDGET)
    memo = {}
    everything = frozenset(range(G.order))
    walked = {}  # each walked Z(x) -> its checked maps
    if n > 1:
        # a central block is never walked, and Z(x) is abelian exactly
        # when all |Z(x)|^2 of its pairs commute, a count Burnside's
        # level-2 sum makes anyway; then each tuple (x, ...) is its own
        # orbit and its walk holds no visited set
        moved = dict.fromkeys(
            zx for zx in (cents[x] for x, _ in classes) if len(zx) < G.order
            and _count(cents, memo, zx, 2) != len(zx) ** 2)
        held = max((_count(cents, memo, zx, n - 1) for zx in moved),
                   default=0)
        # rough per-tuple estimate for a walk's visited set: an n-tuple
        # of small ints plus its set slot
        if held * (n * 28 + 80) > DEFAULT_MEMORY_BYTES:
            raise BudgetError(
                f"a walk over {held} tuples would exceed the "
                f"{DEFAULT_MEMORY_BYTES}-byte memory cap"
            )
        walked = {zx: _checked_maps(G.subgroup(zx, validate=False))
                  for zx in moved}
    orbit_counts = [1]  # c_G(0): the empty tuple
    for m in range(1, n + 1):
        listed = orbit_count = 0
        walks = {}  # Z(x) -> that walk's three numbers
        for x, members in classes:
            count = _head_count(cents, memo, x, members, m)
            listed += len(members) * count
            zx = cents[x]
            if len(zx) == G.order:
                # (z, t2, ..., tm) -> (t2, ..., tm) for central z
                orbit_count += orbit_counts[m - 1]
                continue
            walk = walks.get(zx)
            if walk is None:
                walk = walks[zx] = _block_orbits(cents, m, x,
                                                 walked.get(zx, ()))
            enumerated, orbits, reached = walk
            if enumerated != count:
                raise InternalError(
                    f"enumerated {enumerated} commuting tuples starting "
                    f"with {x}, counted {count}"
                )
            if reached != count:
                raise InternalError(
                    f"orbit walk from {x} reached {reached} tuples, "
                    f"counted {count}"
                )
            orbit_count += orbits
        total = _count(cents, memo, everything, m)
        if listed != total:
            raise InternalError(
                f"first-entry blocks hold {listed} commuting tuples, "
                f"counted {total}"
            )
        orbit_counts.append(orbit_count)

    # Burnside: orbits = average number of fixed tuples, and the tuples
    # fixed by conjugation by g are the commuting m-tuples inside Z(g)
    burnside = [Fraction(sum(_count(cents, memo, c, m) for c in cents),
                         G.order) for m in range(n + 1)]
    for m in range(n, -1, -1):
        if burnside[m] != orbit_counts[m]:
            raise InternalError(
                f"Burnside count {burnside[m]} != orbit partition count "
                f"{orbit_counts[m]}"
            )
    return TupleOrbitReport(
        descriptor=G.descriptor,
        n=n,
        tuple_count=_count(cents, memo, everything, n),
        orbit_count=orbit_counts[n],
        burnside_count=int(burnside[n]),
    )


def _row_tables(fld, d: int):
    """The rows of every d x d matrix over ``fld`` and its row table.

    A row vector (v1, ..., vd) is coded as the integer with base-q digits
    v1 ... vd.  Returns (vectors, rows, tables): ``vectors[v]`` is the
    row vector coded v, ``rows[m]`` the row codes of the m-th matrix M in
    ``itertools.product(range(q), repeat=d * d)`` order, and
    ``tables[m][v]`` the code of v.M, the sum of v_k times row k of M.
    Row i of AB is then ``tables[B][rows[A][i]]``."""
    q = fld.q
    add = fld.add_table()
    mul = fld.mul_table()
    # u + w and a.v on codes, built one coordinate at a time from the
    # zero space: the code of (a, rest) is a * size + the code of rest
    vadd, multiples = [[0]], [[0] * q]
    for _ in range(d):
        size = len(vadd)
        vadd = [[s * size + x for s in add[a] for x in sub]
                for a in range(q) for sub in vadd]
        multiples = [[row[a] * size + m for row, m in zip(mul, sub)]
                     for a in range(q) for sub in multiples]
    rows = list(itertools.product(range(len(vadd)), repeat=d))
    tables = []
    for mrows in rows:
        table = [0]
        for r in mrows:
            table = [vadd[c][m] for c in table for m in multiples[r]]
        tables.append(table)
    return list(itertools.product(range(q), repeat=d)), rows, tables


def _gather(table, codes):
    """``table[c]`` for every code c of the lane string ``codes``, as a
    lane string of the same width: one ``bytes.translate`` for byte
    lanes, a 2-byte ``array`` otherwise."""
    if isinstance(codes, bytes):
        return codes.translate(bytes(table).ljust(256, b"\0"))
    return array("H", map(table.__getitem__, codes))


def commuting_pairs_matrix_algebra(d: int, q: int) -> int:
    """Ordered commuting pairs (A, B) with AB = BA over all d x d
    matrices (the full matrix algebra, not just invertible ones).

    Products go through the row tables of ``_row_tables``, one step per
    A for every B at once, in the lanes of the module docstring:
    ``columns[v]`` holds the code of v.B for every B, so row i of AB
    over all B is ``columns`` at row i of A, and ``_gather`` reads row i
    of BA for every B through A's table.  A lane of the rows' XORs, ORed
    as integers, is zero exactly when its B commutes with A.  The tables
    hold q^(d^2) * q^d <= q^(2 d^2) entries, within the pair budget.
    Each table is first checked on its own matrix: the tabled A.A must
    equal the product that ``matrix_operations`` forms, or
    ``InternalError`` is raised."""
    if d < 1 or d > 3:
        raise InputError("d must be in 1..3")
    pp = prime_power(q)
    if pp is None:
        raise InputError(f"q = {q} is not a prime power")
    pairs = q ** (2 * d * d)
    if pairs > DEFAULT_PAIR_SCAN_BUDGET:
        raise BudgetError(
            f"{pairs} candidate pairs exceed the scan budget "
            f"{DEFAULT_PAIR_SCAN_BUDGET}"
        )
    fld = field(*pp)
    vectors, rows, tables = _row_tables(fld, d)

    def entries(codes):
        return tuple(itertools.chain.from_iterable(vectors[c] for c in codes))

    mul = matrix_operations(fld, d).mul
    for ra, ta in zip(rows, tables):
        A = entries(ra)
        if entries(ta[r] for r in ra) != mul(A, A):
            raise InternalError(f"the row table of {A} over GF({q}) "
                                f"gives a wrong square")
    if len(vectors) <= 256:
        lanes, width = bytes, 1
    else:
        lanes, width = functools.partial(array, "H"), 2
    size = width * len(rows)
    from_bytes = int.from_bytes
    columns = [from_bytes(lanes(column), "little")
               for column in zip(*tables)]
    row_lanes = [lanes(codes) for codes in zip(*rows)]
    total = 0
    for ra, ta in zip(rows, tables):
        diff = 0
        for r, codes in zip(ra, row_lanes):
            diff |= columns[r] ^ from_bytes(_gather(ta, codes), "little")
        same = diff.to_bytes(size, "little")
        total += (same.count(0) if width == 1
                  else array("H", same).count(0))
    return total
