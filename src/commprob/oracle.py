"""Independent brute-force ground truth.

Everything here counts at the element level: commuting tuples by
backtracking over nested centralizer intersections, simultaneous
conjugacy classes by explicit orbit partition, and the same orbit count
a second time through Burnside's lemma.  The orbit walk moves tuples with
the engine's integer conjugation action of the whole group; Burnside's
sum and the tuple counts use only this module's own centralizer table,
so a wrong action fails a check instead of agreeing with the engine.
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
    the |G|^2 products that build them and for the n-tuple backtracking."""
    order = G.order
    if order * order > budget:
        raise BudgetError(
            f"centralizer preparation for |G|={order} exceeds budget {budget}"
        )
    data = G._data
    mul_data = G._mul_data
    cents = []
    for x in range(order):
        xd = data[x]
        cents.append(frozenset(
            h for h in range(order)
            if mul_data(data[h], xd) == mul_data(xd, data[h])
        ))
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


def _commuting_tuples(cents, n: int):
    """Yield every commuting n-tuple of ids in lexicographic order: pick
    g1, then g2 in Z(g1), then g3 in Z(g1) & Z(g2), and so on."""
    if n == 0:
        yield ()
        return
    stack = [((), frozenset(range(len(cents))))]
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
    # rough per-tuple estimate for the visited set: an n-tuple of small
    # ints plus its set slot
    if total * (n * 28 + 80) > DEFAULT_MEMORY_BYTES:
        raise BudgetError(
            f"{total} tuples would exceed the {DEFAULT_MEMORY_BYTES}-byte "
            f"memory cap"
        )

    # each tuple not reached yet starts an orbit, walked under the
    # conjugation maps of the whole group's generators
    maps = [tuple(perm) for perm in _conjugation_action(G.full())]
    if n > 1:
        getter = itemgetter
    else:
        # itemgetter of one index returns a scalar, and of none raises
        def getter(*cur):
            return lambda cm: tuple([cm[x] for x in cur])
    visited = set()
    enumerated = orbit_count = 0
    for t in _commuting_tuples(cents, n):
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
    if enumerated != total:
        raise InternalError(
            f"enumerated {enumerated} commuting tuples, counted {total}"
        )
    if len(visited) != total:
        raise InternalError(
            f"orbit walk reached {len(visited)} tuples, counted {total}"
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
