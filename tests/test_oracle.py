import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import ORACLE_GRID, count_products, fresh_build

from commprob.branching import build_branching, c_tuples, cp_via_branching
from commprob.catalog import build
from commprob import oracle
from commprob.errors import BudgetError, InputError, InternalError
from commprob.feitfine import feit_fine_pairs
from commprob.gf import field, prime_power
from commprob.groups import conjugacy_classes, matrix_operations
from commprob.oracle import (
    commuting_pairs_matrix_algebra,
    commuting_tuples_count,
    simultaneous_classes_count,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def whole_block_orbits(cents, maps, n, members):
    """(orbits, tuples reached) of the whole group on the commuting
    n-tuples whose first entry is in ``members``: every tuple of the
    class block walked under the whole group's conjugation maps (the
    oracle's walk before it took one representative per class)."""
    visited = set()
    orbits = 0
    for t in oracle._commuting_tuples(cents, n, members):
        if t in visited:
            continue
        orbits += 1
        visited.add(t)
        stack = [t]
        while stack:
            cur = stack.pop()
            for perm in maps:
                img = tuple(perm[v] for v in cur)
                if img not in visited:
                    visited.add(img)
                    stack.append(img)
    return orbits, len(visited)


def walk_every_block(G, n):
    """The orbit count of the commuting n-tuples (n >= 1) with every
    first-entry class walked on its own, none reused."""
    cents = oracle._centralizer_sets(G, n, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    blocks = oracle._first_entry_blocks(cents, {}, maps, n)
    return sum(oracle._block_orbits(cents, n, b)[1] for b in blocks)


def straight_line_pairs(d, q):
    """Ordered commuting pairs of d x d matrices over GF(q), with both
    products of every unordered pair formed by ``matrix_operations`` (the
    pair scan before it took row tables)."""
    mul = matrix_operations(field(*prime_power(q)), d).mul
    mats = list(itertools.product(range(q), repeat=d * d))
    total = len(mats)
    for i, A in enumerate(mats):
        for B in mats[i + 1:]:
            if mul(A, B) == mul(B, A):
                total += 2
    return total


def test_abelian_counts_are_powers():
    G = build("CxC(2,4)")
    for n in (1, 2, 3):
        assert commuting_tuples_count(G, n) == 8 ** n


def test_s3_pair_count():
    assert commuting_tuples_count(build("S(3)"), 2) == 18


def test_q8_pair_count():
    assert commuting_tuples_count(build("Q8"), 2) == 40


def test_trivial_cases():
    G = build("S(3)")
    assert commuting_tuples_count(G, 0) == 1
    assert commuting_tuples_count(G, 1) == 6


def test_orbit_count_n0_is_one():
    report = simultaneous_classes_count(build("Q8"), 0)
    assert (report.tuple_count, report.orbit_count, report.burnside_count) == (1, 1, 1)


def test_negative_n_rejected():
    with pytest.raises(InputError):
        simultaneous_classes_count(build("Q8"), -1)


def test_budget_guard():
    with pytest.raises(BudgetError):
        commuting_tuples_count(build("S(5)"), 6, budget=1000)


def test_orbit_count_n1_is_class_count():
    for desc in ("S(3)", "Q8", "A(4)"):
        G = build(desc)
        report = simultaneous_classes_count(G, 1)
        from commprob.groups import conjugacy_classes

        assert report.orbit_count == conjugacy_classes(G.full()).k


def test_q8_pair_orbit_count():
    report = simultaneous_classes_count(build("Q8"), 2)
    assert report.tuple_count == 40
    assert report.orbit_count == 22
    assert report.burnside_count == 22


def test_gl2_f2_pair_orbit_count():
    report = simultaneous_classes_count(build("GL(2,2)"), 2)
    assert report.orbit_count == 8


def test_burnside_equals_orbits_everywhere():
    for desc in ORACLE_GRID:
        report = simultaneous_classes_count(build(desc), 2)
        assert report.orbit_count == report.burnside_count, desc


def test_tuple_identity_links_counts_and_orbits():
    # |G^(n+1)| = |G| * c_G(n)
    for desc in ORACLE_GRID:
        G = build(desc)
        for n in (1, 2):
            tuples = commuting_tuples_count(G, n + 1)
            orbits = simultaneous_classes_count(G, n).orbit_count
            assert tuples == G.order * orbits, (desc, n)


def test_oracle_agrees_with_branching():
    for desc in ORACLE_GRID:
        G = build(desc)
        B = build_branching(G)
        for n in (2, 3):
            assert Fraction(commuting_tuples_count(G, n), G.order ** n) == \
                cp_via_branching(G, n), (desc, n)
        assert simultaneous_classes_count(G, 2).orbit_count == c_tuples(B, 2), desc


def test_matrix_algebra_pairs_d1():
    assert commuting_pairs_matrix_algebra(1, 2) == 4
    assert commuting_pairs_matrix_algebra(1, 3) == 9


def test_matrix_algebra_pairs_d2():
    assert commuting_pairs_matrix_algebra(2, 2) == 88
    assert commuting_pairs_matrix_algebra(2, 3) == 945


def test_matrix_algebra_budget():
    with pytest.raises(BudgetError):
        commuting_pairs_matrix_algebra(2, 5)


def test_pair_orbits_build_one_centralizer_table(monkeypatch):
    # one centralizer table over unordered pairs (|G|(|G|-1) = 2,256
    # products for GL(2,3)) plus the generators' conjugation maps; the
    # tuple count reuses the table
    G = fresh_build("GL(2,3)")
    products = count_products(monkeypatch, G)
    report = simultaneous_classes_count(G, 2)
    assert products[0] <= 2530, products[0]
    assert report.tuple_count == commuting_tuples_count(G, 2)


def test_oracle_leaves_no_reference_cycles():
    # nothing the oracle builds (counter memo, enumeration, visited set)
    # may wait for the cyclic collector to be freed
    G = build("GL(2,3)")
    gc.collect()
    gc.disable()
    try:
        simultaneous_classes_count(G, 3)
        assert gc.collect() == 0
        commuting_tuples_count(G, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("perm, message", [
    # every map the identity: each of the 18 commuting pairs of S(3) is
    # its own orbit, but Burnside counts 8 classes
    ([0, 1, 2, 3, 4, 5], "Burnside count 8 != orbit partition count 18"),
    # swapping ids 1 and 2 alone is no automorphism of S(3): it puts a
    # transposition (2 pairs) and a 3-cycle (3 pairs) in one class
    ([0, 2, 1, 3, 4, 5], "block of 1: 5 tuples != 2 x 2"),
    # id 4 sent to id 3 as well: the transposition 3 falls into two
    # classes, so the blocks hold its 2 pairs twice
    ([0, 1, 2, 3, 3, 5],
     "first-entry blocks hold 20 commuting tuples, counted 18"),
])
def test_wrong_conjugation_action_fails_a_check(monkeypatch, perm, message):
    monkeypatch.setattr(oracle, "_conjugation_action", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        simultaneous_classes_count(fresh_build("S(3)"), 2)


@pytest.mark.parametrize("n, perm, message", [
    # the rotation 1 swapped with the reflection 2: the rotation 6 is
    # fixed, but its centralizer is not
    (2, [0, 2, 1, 3, 4, 5, 6, 7],
     "a stabilizer map of 6 moves it or leaves Z\\(6\\)"),
    # a map that keeps every centralizer but not commutation: the walk
    # from the identity leaves the commuting triples
    (3, [0, 2, 1, 3, 7, 6, 5, 4],
     "orbit walk from 0 reached 46 tuples, counted 40"),
], ids=["centralizer-moved", "commutation-broken"])
def test_wrong_action_on_d4_fails_a_check(monkeypatch, n, perm, message):
    monkeypatch.setattr(oracle, "_conjugation_action", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        simultaneous_classes_count(fresh_build("D(4)"), n)


def test_a_missed_tuple_fails_the_enumeration_check(monkeypatch):
    # an enumeration that skips the first tuple of every representative
    listed = oracle._commuting_tuples
    monkeypatch.setattr(
        oracle, "_commuting_tuples",
        lambda cents, n, firsts=None: itertools.islice(
            listed(cents, n, firsts), 1, None))
    with pytest.raises(InternalError, match="enumerated 5 commuting tuples "
                       "starting with 0, counted 6"):
        simultaneous_classes_count(build("S(3)"), 2)


def test_wrong_action_fails_under_optimize():
    # the swapped-ids action above in a python -O interpreter, where an
    # assert would be stripped
    script = (
        "from commprob import catalog, oracle\n"
        "from commprob.errors import InternalError\n"
        "print('debug', __debug__)\n"
        "oracle._conjugation_action = lambda H: [[0, 2, 1, 3, 4, 5]]\n"
        "try:\n"
        "    oracle.simultaneous_classes_count(catalog.build('S(3)'), 2)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "InternalError block of 1: 5 tuples != 2 x 2"
    ], proc.stdout


def test_centralizer_table_matches_a_full_scan():
    for desc in ("S(4)", "GL(2,3)", "D(8)", "Q8"):
        G = build(desc)
        cents = oracle._centralizer_sets(G, 1, oracle.DEFAULT_BUDGET)
        for x in range(G.order):
            assert cents[x] == frozenset(
                h for h in range(G.order) if G.mul(h, x) == G.mul(x, h)
            ), (desc, x)


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)", "D(16)"])
def test_first_entry_blocks_split_the_commuting_tuples(desc):
    G = build(desc)
    cents = oracle._centralizer_sets(G, 3, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    memo = {}
    for n in (1, 2, 3):
        blocks = oracle._first_entry_blocks(cents, memo, maps, n)
        for block in blocks:
            x = block.rep
            assert x == min(block.members), (desc, n)
            tuples = list(oracle._commuting_tuples(cents, n, (x,)))
            assert tuples == sorted(tuples), (desc, n)
            assert {t[0] for t in tuples} == {x}, (desc, n)
            assert len(tuples) == block.count == \
                oracle._count(cents, memo, cents[x], n - 1), (desc, n, x)
        assert sum(len(b.members) * b.count for b in blocks) == \
            sum(1 for _ in oracle._commuting_tuples(cents, n)), (desc, n)
    # the first-entry classes are the conjugacy classes
    assert sorted(sorted(b.members) for b in blocks) == sorted(
        list(c.members) for c in conjugacy_classes(G.full()).classes
    )


@pytest.mark.parametrize("desc", ["S(4)", "Q8", "D(16)", "GL(2,3)", "PSL(2,7)"])
def test_representative_walk_matches_the_whole_block_walk(desc):
    # the orbits of x's stabilizer on the tuples that start with x are
    # the orbits of the whole group on x's class block
    G = build(desc)
    cents = oracle._centralizer_sets(G, 3, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    memo = {}
    for n in (1, 2, 3):
        for block in oracle._first_entry_blocks(cents, memo, maps, n):
            orbits, reached = whole_block_orbits(cents, maps, n, block.members)
            assert reached == len(block.members) * block.count, (desc, n)
            assert oracle._block_orbits(cents, n, block) == \
                (block.count, orbits, block.count), (desc, n, block.rep)


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)", "D(16)", "PSL(2,7)"])
def test_stabilizer_maps_generate_the_centralizer_action(desc):
    # on Z(x), the maps close to conjugation by every g in Z(x), computed
    # here with G.mul
    G = build(desc)
    cents = oracle._centralizer_sets(G, 1, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    for cls in conjugacy_classes(G.full()).classes:
        x = min(cls.members)
        orbit, stab = oracle._stabilizer_maps(cents, maps, x)
        assert sorted(orbit) == list(cls.members), (desc, x)
        zx = tuple(sorted(cents[x]))
        on_zx = [tuple(m[z] for z in zx) for m in stab]
        assert zx not in on_zx, (desc, x)
        assert len(set(on_zx)) == len(on_zx), (desc, x)
        for m, images in zip(stab, on_zx):
            assert m[x] == x, (desc, x)
            assert sorted(images) == list(zx), (desc, x)
        closure = {zx}
        frontier = [zx]
        while frontier:
            images = frontier.pop()
            for m in stab:
                img = tuple(m[y] for y in images)
                if img not in closure:
                    closure.add(img)
                    frontier.append(img)
        assert closure == {
            tuple(G.mul(G.mul(g, z), G.inv(g)) for z in zx) for g in zx
        }, (desc, x)


def test_memory_guard_counts_the_largest_block(monkeypatch):
    # D(16) at n = 5: the largest class block has 131,072 tuples, but
    # only the central classes have stabilizer maps, and a walk from one
    # of them holds 67,456
    G = build("D(16)")
    n = 5
    cents = oracle._centralizer_sets(G, n, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    blocks = oracle._first_entry_blocks(cents, {}, maps, n)
    held = max(b.count for b in blocks if b.maps)
    assert held == 67456
    assert max(len(b.members) * b.count for b in blocks) == 131072
    per_tuple = n * 28 + 80
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", held * per_tuple)
    assert simultaneous_classes_count(G, n).tuple_count == 1056512
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", held * per_tuple - 1)
    with pytest.raises(BudgetError):
        simultaneous_classes_count(G, n)


def test_oracle_holds_one_block_at_a_time():
    # 18,816 commuting 4-tuples of GL(2,3): held in one visited set they
    # peak near 1.8 MB; walked one first-entry class at a time from its
    # representative, near 0.3 MB
    G = build("GL(2,3)")
    simultaneous_classes_count(G, 4)  # the conjugation action, built once
    tracemalloc.start()
    try:
        report = simultaneous_classes_count(G, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tuple_count == 18816
    assert peak <= 1_000_000, peak


WALK_REUSE_CASES = [(desc, n) for desc in ORACLE_GRID for n in (1, 2, 3)] + [
    ("D(16)", 4), ("D(16)", 5), ("GL(2,5)", 3)]


@pytest.mark.parametrize("desc, n", WALK_REUSE_CASES)
def test_walk_reuse_matches_walking_every_block(desc, n):
    G = build(desc)
    assert simultaneous_classes_count(G, n).orbit_count == \
        walk_every_block(G, n), (desc, n)


@pytest.mark.parametrize("desc, n, central", [
    ("D(16)", 5, 2), ("GL(2,5)", 3, 4)])
def test_central_classes_share_one_walk(monkeypatch, desc, n, central):
    # every class with stabilizer maps is central here, and all of them
    # have the identity's walk
    G = build(desc)
    cents = oracle._centralizer_sets(G, n, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    blocks = oracle._first_entry_blocks(cents, {}, maps, n)
    assert [len(b.members) for b in blocks if b.maps] == [1] * central
    walked = []
    block_orbits = oracle._block_orbits

    def counted(cents, n, block):
        if block.maps:
            walked.append(block.rep)
        return block_orbits(cents, n, block)

    monkeypatch.setattr(oracle, "_block_orbits", counted)
    simultaneous_classes_count(G, n)
    assert walked == [0]


@pytest.mark.parametrize("d, q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [
    (2, 2), (2, 3), (2, 4), (3, 2)])
def test_row_table_scan_matches_the_straight_line_scan(d, q):
    pairs = commuting_pairs_matrix_algebra(d, q)
    assert pairs == straight_line_pairs(d, q) == feit_fine_pairs(d, q)


def corrupt_one_square(row_tables):
    """``_row_tables`` with one entry of the last matrix's table off by
    one: the entry that forms row 0 of that matrix's square."""
    def corrupted(fld, d):
        vectors, rows, tables = row_tables(fld, d)
        last = rows[-1][0]
        tables[-1][last] = (tables[-1][last] + 1) % len(vectors)
        return vectors, rows, tables
    return corrupted


def test_a_corrupted_row_table_fails_the_square_check(monkeypatch):
    monkeypatch.setattr(oracle, "_row_tables",
                        corrupt_one_square(oracle._row_tables))
    with pytest.raises(InternalError, match=r"the row table of \(2, 2, 2, 2\) "
                       r"over GF\(3\) gives a wrong square"):
        commuting_pairs_matrix_algebra(2, 3)


def test_a_corrupted_row_table_fails_under_optimize():
    # the same corruption at d = 3, q = 2 in a python -O interpreter
    script = (
        "from commprob import oracle\n"
        "from commprob.errors import InternalError\n"
        "print('debug', __debug__)\n"
        "row_tables = oracle._row_tables\n"
        "def corrupted(fld, d):\n"
        "    vectors, rows, tables = row_tables(fld, d)\n"
        "    last = rows[-1][0]\n"
        "    tables[-1][last] = (tables[-1][last] + 1) % len(vectors)\n"
        "    return vectors, rows, tables\n"
        "oracle._row_tables = corrupted\n"
        "try:\n"
        "    oracle.commuting_pairs_matrix_algebra(3, 2)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "InternalError the row table of (1, 1, 1, 1, 1, 1, "
        "1, 1, 1) over GF(2) gives a wrong square"], proc.stdout
