"""Independent brute-force ground truth.

Everything here counts at the element level: commuting tuples by
backtracking over nested centralizer intersections, simultaneous
conjugacy classes by explicit orbit partition, and the same orbit count
a second time through Burnside's lemma.  None of it touches the
conjugacy-class or branching machinery it is used to check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetError, InputError, InternalError
from .gf import field, prime_power
from .groups import Group, matrix_operations

DEFAULT_BUDGET = 50_000_000
DEFAULT_MEMORY_BYTES = 2 << 30
DEFAULT_PAIR_SCAN_BUDGET = 300_000


def _centralizer_sets(G: Group):
    n = G.order
    data = G._data
    mul_data = G._mul_data
    sets = []
    for x in range(n):
        xd = data[x]
        sets.append(frozenset(
            h for h in range(n)
            if mul_data(data[h], xd) == mul_data(xd, data[h])
        ))
    return sets


def _class_count(cent_sets) -> int:
    # k(G) by the n=1 Burnside count: sum of centralizer sizes over |G|
    total = sum(len(s) for s in cent_sets)
    n = len(cent_sets)
    if total % n:
        raise InternalError("centralizer sizes do not sum to a multiple of |G|")
    return total // n


def _check_budget(G: Group, n: int, k: int, budget: int):
    work = G.order * (k ** max(n - 1, 0))
    if work > budget:
        raise BudgetError(
            f"estimated work {work} for |G|={G.order}, n={n} exceeds "
            f"budget {budget}"
        )


def _check_preparation_budget(G: Group, budget: int):
    # the centralizer tables themselves cost |G|^2 products
    if G.order * G.order > budget:
        raise BudgetError(
            f"centralizer preparation for |G|={G.order} exceeds "
            f"budget {budget}"
        )


def commuting_tuples_count(G: Group, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """|G^(n)| by backtracking: pick g1, then g2 in Z(g1), then g3 in
    Z(g1) & Z(g2), and so on; the last level is counted, not expanded."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n == 0:
        return 1
    if n == 1:
        return G.order
    _check_preparation_budget(G, budget)
    cents = _centralizer_sets(G)
    _check_budget(G, n, _class_count(cents), budget)
    return _count_tuples(cents, n)


def _count_tuples(cents, n: int) -> int:
    """|G^(n)| for n >= 0 from the centralizer table of G."""

    def count(C, m):
        if m == 1:
            return len(C)
        if m == 0:
            return 1
        return sum(count(C & cents[x], m - 1) for x in C)

    return count(frozenset(range(len(cents))), n)


@dataclass(frozen=True)
class TupleOrbitReport:
    descriptor: str
    n: int
    tuple_count: int
    orbit_count: int
    burnside_count: int
    method: str = "backtracking+orbit-bfs+burnside"


def simultaneous_classes_count(
    G: Group, n: int,
    budget: int = DEFAULT_BUDGET,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> TupleOrbitReport:
    """c_G(n) by explicit orbit partition of the commuting n-tuples under
    coordinatewise conjugation, cross-checked by Burnside's lemma."""
    if n < 0:
        raise InputError("n must be nonnegative")
    _check_preparation_budget(G, budget)
    cents = _centralizer_sets(G)
    k = _class_count(cents)
    _check_budget(G, n, k, budget)

    total = _count_tuples(cents, n)
    # rough per-tuple estimate: an n-tuple of small ints plus set slot
    if total * (n * 28 + 80) > memory_bytes:
        raise BudgetError(
            f"{total} tuples would exceed the {memory_bytes}-byte memory cap"
        )

    tuples = []

    def emit(prefix, C, m):
        if m == 0:
            tuples.append(prefix)
            return
        for x in sorted(C):
            emit(prefix + (x,), C & cents[x], m - 1)

    emit((), frozenset(range(G.order)), n)
    if len(tuples) != total:
        raise InternalError(
            f"enumerated {len(tuples)} commuting tuples, counted {total}"
        )

    # orbit partition under conjugation by a whole-group generating sweep:
    # conjugating by every group element is wasteful, so use the ascending
    # greedy generators of the full group
    from .groups import generating_ids

    gens = generating_ids(G.full())
    conj_maps = []
    for g in gens:
        conj_maps.append(tuple(G.conj(g, x) for x in range(G.order)))

    visited = set()
    orbit_count = 0
    orbit_sizes = []
    for t in tuples:
        if t in visited:
            continue
        orbit_count += 1
        size = 0
        stack = [t]
        visited.add(t)
        while stack:
            cur = stack.pop()
            size += 1
            for cm in conj_maps:
                img = tuple(cm[x] for x in cur)
                if img not in visited:
                    visited.add(img)
                    stack.append(img)
        orbit_sizes.append(size)
    if sum(orbit_sizes) != total:
        raise InternalError(
            f"orbit sizes sum to {sum(orbit_sizes)}, expected {total} tuples"
        )

    # Burnside: orbits = average number of fixed tuples, and the tuples
    # fixed by conjugation by g are the commuting n-tuples inside Z(g)
    within_cache = {}

    def count_within(C, m):
        if m == 1:
            return len(C)
        if m == 0:
            return 1
        key = (C, m)
        val = within_cache.get(key)
        if val is None:
            val = sum(count_within(C & cents[x], m - 1) for x in C)
            within_cache[key] = val
        return val

    fixed_total = sum(count_within(cents[g], n) for g in range(G.order))
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


def commuting_pairs_matrix_algebra(
    d: int, q: int, budget: int = DEFAULT_PAIR_SCAN_BUDGET
) -> int:
    """Ordered commuting pairs (A, B) with AB = BA over all d x d
    matrices (the full matrix algebra, not just invertible ones)."""
    if d < 1 or d > 3:
        raise InputError("d must be in 1..3")
    pp = prime_power(q)
    if pp is None:
        raise InputError(f"q = {q} is not a prime power")
    pairs = q ** (2 * d * d)
    if pairs > budget:
        raise BudgetError(
            f"{pairs} candidate pairs exceed the scan budget {budget}"
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
