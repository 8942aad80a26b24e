"""Iterated-centralizer branching matrices and exact commuting
probabilities.

The branching matrix of a group G has one state per distinct subgroup
reached by iterating "conjugacy classes, then centralizers of their
representatives" starting from G itself.  Entry counts[j][i] is the
number of conjugacy classes of state i whose representative's
centralizer (inside state i) is state j.  Abelian states are absorbing:
every one of their |H| singleton classes centralizes to H itself.

The matrix is stored by columns, sparsely: column i is the ascending
(j, counts[j][i]) pairs of its nonzero entries, which is how the
expansion finds them, how the matrix power and the lumping read them,
and how the disk cache stores them.  Most entries are zero: a state
branches to a few of the others (``U(3,3)``: 213 nonzero entries of
102 x 102).  ``BranchingMatrix.counts`` is a dense copy, made on each
read.

With e_root the indicator of the G state, 1^T B^n e_root counts the
simultaneous conjugacy classes of commuting n-tuples, which turns the
n-fold commuting probability into an exact matrix power:

    cp_n(G) = c_G(n-1) / |G|^(n-1),    c_G(n) = 1^T B^n e_root.

The same value is computed independently by Lescot's recurrence over
centralizer subgroups, so the two paths cross-check each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Optional

from .errors import InputError, InternalError, SizeCapError
from .groups import (
    Group,
    centralizer,
    conjugacy_classes,
    is_abelian,
)

STATE_COUNT_CAP = 20_000


@dataclass(frozen=True)
class StateInfo:
    label: str
    order: int
    class_count: int
    abelian: bool
    key: Optional[tuple] = dc_field(default=None, compare=False, repr=False)


@dataclass
class BranchingMatrix:
    states: list
    # columns[i]: the (j, counts[j][i]) pairs of the nonzero entries of
    # column i, as tuples, ascending in j
    columns: list
    root: int

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def class_count(self) -> int:
        """k(G) for the root group."""
        return self.states[self.root].class_count

    @property
    def counts(self) -> list:
        """The dense matrix, counts[j][i] row-major, as a new list of
        lists on each read: changing it leaves the matrix as it is."""
        size = len(self.columns)
        counts = [[0] * size for _ in range(size)]
        for i, column in enumerate(self.columns):
            for j, c in column:
                counts[j][i] = c
        return counts

    def column_sums(self) -> list:
        return [sum(map(itemgetter(1), column)) for column in self.columns]


def columns_of(counts) -> list:
    """The sparse columns of a square matrix given row-major, as
    ``BranchingMatrix.columns`` holds them: for each column i, the
    tuple of the pairs (j, counts[j][i]) with a nonzero entry, ascending
    in j."""
    size = len(counts)
    return [tuple((j, row[i]) for j, row in enumerate(counts) if row[i])
            for i in range(size)]


def count_via_matrix(columns, root: int, n: int) -> int:
    """1^T M^n e_root for a square nonnegative integer matrix M given by
    its sparse columns (``columns_of``), by iterated matrix-vector
    products in exact integers.  Each product multiplies only the
    nonzero entries of the vector by the nonzero entries of their
    columns, read as they are stored."""
    if n < 0:
        raise InputError("power must be nonnegative")
    vec = [0] * len(columns)
    vec[root] = 1
    for _ in range(n):
        nxt = [0] * len(columns)
        for i in compress(range(len(vec)), vec):
            v = vec[i]
            for j, c in columns[i]:
                nxt[j] += c * v
        vec = nxt
    return sum(vec)


def build_branching(G: Group) -> BranchingMatrix:
    """Worklist construction of the branching matrix of G.

    States are exact subgroups (never merged); indices are assigned in
    ascending subgroup-key order at finalization, so the result is
    independent of processing order.
    """
    if G._branching is not None:
        return G._branching
    full = G.full()
    # subgroups are interned, so states are keyed by object; each state
    # is described from the subgroup itself at finalization
    reached = {full}
    edges = {}
    work = deque([full])
    while work:
        H = work.popleft()
        if is_abelian(H):
            edges[(H, H)] = H.order
            continue
        for c in conjugacy_classes(H).classes:
            Z = centralizer(H, c.rep)
            if Z not in reached:
                if len(reached) >= STATE_COUNT_CAP:
                    raise SizeCapError(
                        f"branching expansion exceeds {STATE_COUNT_CAP} states "
                        f"(offending state order {Z.order})"
                    )
                reached.add(Z)
                work.append(Z)
            pair = (Z, H)
            edges[pair] = edges.get(pair, 0) + 1
    ordered = sorted(reached, key=lambda H: H.key)
    index = {H: i for i, H in enumerate(ordered)}
    columns = [[] for _ in ordered]
    for (child, parent), c in edges.items():
        columns[index[parent]].append((index[child], c))
    states = [
        StateInfo(
            label=f"s{i}",
            order=H.order,
            class_count=H.order if is_abelian(H) else conjugacy_classes(H).k,
            abelian=is_abelian(H),
            key=H.key,
        )
        for i, H in enumerate(ordered)
    ]
    bm = BranchingMatrix(states=states,
                         columns=[tuple(sorted(column)) for column in columns],
                         root=index[full])
    _validate_matrix(bm)
    G._branching = bm
    return bm


def _validate_matrix(bm: BranchingMatrix):
    """Raise InternalError unless the columns are well formed and the
    matrix is a branching matrix, in one pass over the columns: each
    column lists its children by index in range, strictly ascending, with
    positive integer counts, and column i sums to k of state i; every
    abelian state is absorbing; and the root, the whole group, is the
    one state of the largest order.  With every count positive, an
    abelian column has a foreign branch exactly when it sums to more
    than its diagonal entry."""
    size = len(bm.states)
    if len(bm.columns) != size:
        raise InternalError(f"the matrix is not square: {len(bm.columns)} "
                            f"columns for {size} states")
    if not 0 <= bm.root < size:
        raise InternalError(f"root index {bm.root} is out of range")
    top = bm.states[bm.root].order
    for i, (st, column) in enumerate(zip(bm.states, bm.columns)):
        if i != bm.root and st.order >= top:
            raise InternalError(
                f"state {i} has order {st.order}, not below the root's {top}")
        last = -1
        total = 0
        for j, c in column:
            if type(j) is not int or type(c) is not int:
                raise InternalError(
                    f"column {i} has a non-integer entry ({j!r}, {c!r})")
            if not 0 <= j < size:
                raise InternalError(f"column {i} has the child index {j}, "
                                    f"out of range for {size} states")
            if j <= last:
                raise InternalError(f"column {i} lists child {j} after child "
                                    f"{last}: not strictly ascending")
            if c <= 0:
                raise InternalError(
                    f"column {i} has a zero or negative count {c} at child {j}")
            last = j
            total += c
        if total != st.class_count:
            raise InternalError(
                f"column {i} sums to {total}, expected k = {st.class_count}"
            )
        if st.abelian:
            if dict(column).get(i) != st.order:
                raise InternalError(f"abelian state {i} is not absorbing")
            if total != st.order:
                raise InternalError(f"abelian state {i} has a foreign branch")


def c_tuples(B: BranchingMatrix, n: int) -> int:
    """Number of simultaneous conjugacy classes of commuting n-tuples."""
    if n < 0:
        raise InputError("n must be nonnegative")
    return count_via_matrix(B.columns, B.root, n)


def cp_via_branching(G: Group, n: int) -> Fraction:
    """cp_n(G) through the branching matrix power."""
    if n < 2:
        raise InputError("commuting probability needs n >= 2")
    B = build_branching(G)
    return Fraction(c_tuples(B, n - 1), G.order ** (n - 1))


def cp_via_lescot(G: Group, n: int) -> Fraction:
    """cp_n(G) through Lescot's recurrence over centralizer subgroups,
    run on integer counts: N_m(H) = |Hom(Z^m, H)|, the number of
    commuting m-tuples of H, is

        N_m(H) = sum over classes c of H of |c| N_{m-1}(C_H(c)),

    with N_1(H) = |H| and N_m(H) = |H|^m for abelian H, memoized by
    (subgroup, m), and cp_n(G) = N_n(G) / |G|^n is one ``Fraction``.

    A central class centralizes to H itself, so a recursion would be as
    deep as n.  Instead the states that level m needs are collected from
    m = n down, then counted from m = 2 up."""
    if n < 2:
        raise InputError("commuting probability needs n >= 2")
    memo = G._lescot_memo
    branches = {}

    def branch(H):
        """(centralizer, size) of each class of H; empty if H is abelian."""
        if H not in branches:
            branches[H] = () if is_abelian(H) else [
                (centralizer(H, c.rep), c.size)
                for c in conjugacy_classes(H).classes
            ]
        return branches[H]

    needed = {n: {G.full()}}
    for m in range(n, 2, -1):
        needed[m - 1] = {Z for H in needed[m] if (H, m) not in memo
                         for Z, _ in branch(H)}
    for m in range(2, n + 1):
        for H in needed[m]:
            if (H, m) in memo:
                continue
            if not branch(H):
                memo[(H, m)] = H.order ** m
            elif m > 2:
                memo[(H, m)] = sum(size * memo[(Z, m - 1)]
                                   for Z, size in branch(H))
            else:
                memo[(H, m)] = sum(size * Z.order for Z, size in branch(H))
    return Fraction(memo[(G.full(), n)], G.order ** n)


def cp2_classcount(G: Group) -> Fraction:
    """cp_2(G) = k(G) / |G| directly from the class count."""
    return Fraction(conjugacy_classes(G.full()).k, G.order)


# ---------------------------------------------------------------------------
# lumping
# ---------------------------------------------------------------------------

@dataclass
class TypePartition:
    blocks: list       # partition of state indices, each sorted
    quotient: list     # lumped matrix over blocks, quotient[j][i]
    block_of: list
    root_block: int

    @property
    def dimension(self) -> int:
        return len(self.blocks)


def lump(B: BranchingMatrix) -> TypePartition:
    """Coarsest lumpable partition refining the (order, class count)
    state fingerprint, by iterated signature splitting.

    Each pass numbers the distinct signatures in sorted order.  The
    first signature is (-order, class count), and each later one is a
    state's block with its count vector, the sums of its column over
    the blocks of the pass before.  The root is the one state of the
    largest order, so it is block 0, and the blocks follow by descending
    order, then ascending class count, then count vector.  A pass that
    splits no block keeps the numbering, so each state's count vector is
    then its block's column of the quotient."""
    columns = B.columns
    signatures = [(-st.order, st.class_count) for st in B.states]
    nblocks = 0
    while True:
        number = {sig: b for b, sig in enumerate(sorted(set(signatures)))}
        block_of = [number[sig] for sig in signatures]
        if len(number) == nblocks:
            break
        nblocks = len(number)
        vectors = []
        for column in columns:
            agg = [0] * nblocks
            for u, c in column:
                agg[block_of[u]] += c
            vectors.append(tuple(agg))
        signatures = list(zip(block_of, vectors))
    blocks = [[] for _ in range(nblocks)]
    for s, b in enumerate(block_of):
        blocks[b].append(s)
    return TypePartition(
        blocks=blocks,
        quotient=[[vectors[block[0]][bj] for block in blocks]
                  for bj in range(nblocks)],
        block_of=block_of,
        root_block=block_of[B.root],
    )
