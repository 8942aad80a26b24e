"""Independent brute-force ground truth.

Everything here counts at the element level: commuting tuples by
backtracking over nested centralizer intersections, simultaneous
conjugacy classes by explicit orbit partition, and the same orbit count
a second time through Burnside's lemma.  The orbit walk moves tuples with
the engine's integer conjugation action of the whole group; Burnside's
sum and the tuple counts use only this module's own centralizer table,
so a wrong action fails a check instead of agreeing with the engine.

Conjugation moves each entry of a tuple only inside its conjugacy class,
so no orbit leaves the block of tuples whose first entries share a class.
The walk takes one block at a time, with a visited set that is freed
before the next block, so only the largest block is ever held in memory,
and the memory guard is checked against that block's size.  The classes
are the orbits of single ids under the same conjugation maps, and the
block sizes are sums of the centralizer-table counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetError, InputError, InternalError
from .gf import field, prime_power
from .groups import Group, _conjugation_action, matrix_operations

DEFAULT_BUDGET = 50_000_000
DEFAULT_MEMORY_BYTES = 2 << 30
DEFAULT_PAIR_SCAN_BUDGET = 300_000


def _centralizer_sets(G: Group, n: int, budget: int):
    """Z(x) as a set of ids for every id x, after checking the budget for
    the |G|^2 pairs that build them and for the n-tuple backtracking.
    Since h is in Z(x) exactly when x is in Z(h), each pair x < h is
    tested once (2 products) and the diagonal not at all: |G|(|G|-1)
    products."""
    order = G.order
    if order * order > budget:
        raise BudgetError(
            f"centralizer preparation for |G|={order} exceeds budget {budget}"
        )
    data = G._data
    mul_data = G._mul_data
    sets = [{x} for x in range(order)]
    for x in range(order):
        xd = data[x]
        zx = sets[x]
        for h in range(x + 1, order):
            hd = data[h]
            if mul_data(hd, xd) == mul_data(xd, hd):
                zx.add(h)
                sets[h].add(x)
    cents = [frozenset(s) for s in sets]
    # k(G) by the n=1 Burnside count: sum of centralizer sizes over |G|
    total = sum(len(s) for s in cents)
    if total % order:
        raise InternalError("centralizer sizes do not sum to a multiple of |G|")
    work = order * ((total // order) ** max(n - 1, 0))
    if work > budget:
        raise BudgetError(
            f"estimated work {work} for |G|={order}, n={n} exceeds "
            f"budget {budget}"
        )
    return cents


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


def _commuting_tuples(cents, n: int, firsts=None):
    """Yield every commuting n-tuple of ids in lexicographic order: pick
    g1, then g2 in Z(g1), then g3 in Z(g1) & Z(g2), and so on.  With
    ``firsts``, a set of ids, only the tuples whose first entry is in it."""
    if n == 0:
        yield ()
        return
    if firsts is None:
        firsts = range(len(cents))
    if n == 1:
        for x in sorted(firsts):
            yield (x,)
        return
    stack = [((x,), cents[x]) for x in sorted(firsts, reverse=True)]
    while stack:
        prefix, C = stack.pop()
        if len(prefix) == n - 1:
            for x in sorted(C):
                yield prefix + (x,)
        else:
            for x in sorted(C, reverse=True):
                stack.append((prefix + (x,), C & cents[x]))


def commuting_tuples_count(G: Group, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """|G^(n)| by backtracking over nested centralizer intersections; the
    last level is counted, not expanded."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n <= 1:
        return G.order if n else 1
    cents = _centralizer_sets(G, n, budget)
    return _count(cents, {}, frozenset(range(G.order)), n)


def _first_entry_blocks(cents, memo: dict, maps, n: int) -> list:
    """The commuting n-tuples split by the class of their first entry, as
    (set of first entries, number of tuples) pairs, in the order of each
    class's smallest id.  The classes are the orbits of single ids under
    the conjugation ``maps``, so no orbit of tuples under them crosses
    from one block to another; the counts are ``_count`` sums."""
    if n == 0:
        return [(None, 1)]  # the empty tuple has no first entry
    order = len(cents)
    seen = bytearray(order)
    blocks = []
    for seed in range(order):
        if seen[seed]:
            continue
        seen[seed] = 1
        orbit = [seed]
        for y in orbit:
            for perm in maps:
                z = perm[y]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        size = sum(_count(cents, memo, cents[x], n - 1) for x in orbit)
        blocks.append((frozenset(orbit), size))
    return blocks


def _walk_orbits(tuples, maps, getter):
    """(tuples enumerated, orbits, tuples reached) of a walk that starts
    an orbit at each tuple of ``tuples`` not reached yet and follows it
    under the ``maps``; the visited set is freed on return."""
    visited = set()
    enumerated = orbit_count = 0
    for t in tuples:
        enumerated += 1
        if t in visited:
            continue
        orbit_count += 1
        visited.add(t)
        stack = [t]
        while stack:
            for img in map(getter(*stack.pop()), maps):
                if img not in visited:
                    visited.add(img)
                    stack.append(img)
    return enumerated, orbit_count, len(visited)


@dataclass(frozen=True)
class TupleOrbitReport:
    descriptor: str
    n: int
    tuple_count: int
    orbit_count: int
    burnside_count: int
    method: str = "backtracking+orbit-bfs+burnside"


def simultaneous_classes_count(G: Group, n: int) -> TupleOrbitReport:
    """c_G(n) by explicit orbit partition of the commuting n-tuples under
    coordinatewise conjugation, cross-checked by Burnside's lemma."""
    if n < 0:
        raise InputError("n must be nonnegative")
    cents = _centralizer_sets(G, n, DEFAULT_BUDGET)
    memo = {}
    total = _count(cents, memo, frozenset(range(G.order)), n)

    # the orbits are walked under the conjugation maps of the whole
    # group's generators, one block of first-entry classes at a time
    maps = [tuple(perm) for perm in _conjugation_action(G.full())]
    blocks = _first_entry_blocks(cents, memo, maps, n)
    largest = max(size for _, size in blocks)
    # rough per-tuple estimate for a block's visited set: an n-tuple of
    # small ints plus its set slot
    if largest * (n * 28 + 80) > DEFAULT_MEMORY_BYTES:
        raise BudgetError(
            f"a block of {largest} tuples would exceed the "
            f"{DEFAULT_MEMORY_BYTES}-byte memory cap"
        )

    if n > 1:
        getter = itemgetter
    else:
        # itemgetter of one index returns a scalar, and of none raises
        def getter(*cur):
            return lambda cm: tuple([cm[x] for x in cur])
    enumerated = orbit_count = 0
    reached = []
    for firsts, _ in blocks:
        listed, orbits, got = _walk_orbits(
            _commuting_tuples(cents, n, firsts), maps, getter)
        enumerated += listed
        orbit_count += orbits
        reached.append(got)
    if enumerated != total:
        raise InternalError(
            f"enumerated {enumerated} commuting tuples, counted {total}"
        )
    if sum(reached) != total:
        raise InternalError(
            f"orbit walk reached {sum(reached)} tuples, counted {total}"
        )
    for i, ((_, size), got) in enumerate(zip(blocks, reached)):
        if got != size:
            raise InternalError(
                f"orbit walk reached {got} tuples in first-entry block {i}, "
                f"counted {size}"
            )

    # Burnside: orbits = average number of fixed tuples, and the tuples
    # fixed by conjugation by g are the commuting n-tuples inside Z(g)
    fixed_total = sum(_count(cents, memo, cents[g], n) for g in range(G.order))
    if fixed_total % G.order != 0:
        raise InternalError("Burnside sum is not divisible by |G|")
    burnside = fixed_total // G.order
    if burnside != orbit_count:
        raise InternalError(
            f"Burnside count {burnside} != orbit partition count {orbit_count}"
        )
    return TupleOrbitReport(
        descriptor=G.descriptor,
        n=n,
        tuple_count=total,
        orbit_count=orbit_count,
        burnside_count=burnside,
    )


def commuting_pairs_matrix_algebra(d: int, q: int) -> int:
    """Ordered commuting pairs (A, B) with AB = BA over all d x d
    matrices (the full matrix algebra, not just invertible ones)."""
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
    ops = matrix_operations(fld, d)
    mul = ops.mul
    mats = list(itertools.product(range(q), repeat=d * d))
    total = len(mats)  # (A, A) always commutes
    for i in range(len(mats)):
        A = mats[i]
        for j in range(i + 1, len(mats)):
            B = mats[j]
            if mul(A, B) == mul(B, A):
                total += 2
    return total
