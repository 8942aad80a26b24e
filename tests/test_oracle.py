import dataclasses
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
from commprob import groups, oracle
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


def tuples_from(cents, n, firsts):
    """The commuting n-tuples (n >= 1) whose first entry is in
    ``firsts``, in lexicographic order."""
    for x in sorted(firsts):
        if n == 1:
            yield (x,)
        else:
            for prefix, C in oracle._completions(cents, n, x):
                for y in sorted(C):
                    yield prefix + (y,)


def whole_block_orbits(cents, maps, n, members):
    """(orbits, tuples reached) of the whole group on the commuting
    n-tuples whose first entry is in ``members``: every tuple of the
    class block walked under the whole group's conjugation maps (the
    oracle's walk before it took one representative per class)."""
    visited = set()
    orbits = 0
    for t in tuples_from(cents, n, members):
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


def pair_scan_centralizers(G):
    """Reference centralizer table: Z(x) as a frozenset of ids for every
    id x, by testing each unordered pair x < h once with two products
    (the oracle's table before it scanned class representatives only)."""
    data = G._data
    mul_data = G._mul_data
    sets = [{x} for x in range(G.order)]
    for x in range(G.order):
        xd = data[x]
        for h in range(x + 1, G.order):
            hd = data[h]
            if mul_data(hd, xd) == mul_data(xd, hd):
                sets[x].add(h)
                sets[h].add(x)
    return [frozenset(c) for c in sets]


def walk_maps(G, cents, x):
    """The maps the tuples (x, ...) are walked under: none when Z(x) is
    abelian, and otherwise the checked conjugation action of Z(x) on
    itself, for a central x too, whose block the oracle never walks."""
    Z = G.subgroup(cents[x], validate=False)
    return () if groups.is_abelian(Z) else oracle._checked_maps(Z)


def walk_every_block(G, n):
    """The orbit count of the commuting n-tuples (n >= 1) with every
    first-entry class walked on its own, none reused."""
    cents, classes = oracle._centralizer_table(G, n, oracle.DEFAULT_BUDGET)
    return sum(oracle._block_orbits(cents, n, x, walk_maps(G, cents, x))[1]
               for x, _ in classes)


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


def test_table_estimate_is_checked_before_any_scan(monkeypatch):
    # S(5) has 7 classes, so its table is estimated at 7 x 120 = 840;
    # one below that raises after the generators' maps are checked (2
    # products per element each) and before any centralizer is scanned
    G = fresh_build("S(5)")
    gens = oracle.generating_ids(G.full())
    oracle._conjugation_action(G.full())
    products = count_products(monkeypatch, G)
    with pytest.raises(BudgetError, match="centralizer table for "
                       r"\|G\|=120 with 7 classes exceeds budget 839"):
        oracle._centralizer_table(G, 1, 839)
    assert products[0] == 2 * G.order * len(gens)
    assert len(oracle._centralizer_table(G, 1, 840)[0]) == G.order


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
    # 547^2 = 299,209 pairs are within the budget, 557^2 are not
    with pytest.raises(BudgetError, match="310249 candidate pairs"):
        commuting_pairs_matrix_algebra(1, 557)


def test_pair_orbits_build_one_centralizer_table(monkeypatch):
    # one centralizer table from the class representatives (at most
    # 2 x 8 x 48 = 768 products for GL(2,3), where the pair scan took
    # 2,256), the pair search and the conjugation maps of the two
    # generators, and the same maps again by products to check them;
    # the tuple count reuses the table
    G = fresh_build("GL(2,3)")
    products = count_products(monkeypatch, G)
    report = simultaneous_classes_count(G, 2)
    assert products[0] <= 839, products[0]
    assert report.tuple_count == commuting_tuples_count(G, 2)


def test_gl25_table_from_class_representatives(monkeypatch):
    # at most 2 x 24 x 480 = 23,040 products for the table of GL(2,5),
    # where the pair scan took 229,920
    G = fresh_build("GL(2,5)")
    products = count_products(monkeypatch, G)
    assert simultaneous_classes_count(G, 3).orbit_count == 10944
    assert products[0] <= 15559, products[0]


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
    # (0,) is a true but too small generating set: its map, the
    # identity, passes the check, and the table is still exact (every id
    # is scanned as its own class); each of the 18 commuting pairs of
    # S(3) is then its own orbit, but Burnside counts 8 classes
    ([0, 1, 2, 3, 4, 5], "Burnside count 8 != orbit partition count 18"),
    # swapping ids 1 and 2 alone is no automorphism of S(3), let alone
    # conjugation by the identity
    pytest.param([0, 2, 1, 3, 4, 5], "the conjugation map of 0 sends 1 "
                 "to 2, products give 1", id="swap-1-2"),
    # id 4 sent to id 3 as well: no permutation at all
    pytest.param([0, 1, 2, 3, 3, 5], "the conjugation map of 0 sends 4 "
                 "to 3, products give 4", id="duplicate-3"),
])
def test_wrong_conjugation_action_fails_a_check(monkeypatch, perm, message):
    monkeypatch.setattr(oracle, "generating_ids", lambda H: (0,))
    monkeypatch.setattr(oracle, "_conjugation_action", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        simultaneous_classes_count(fresh_build("S(3)"), 2)


@pytest.mark.parametrize("n, perm, message", [
    # the rotation 1 swapped with the reflection 2, given as the map of
    # the generator 1, which fixes 1
    (2, [0, 2, 1, 3, 4, 5, 6, 7],
     "the conjugation map of 1 sends 1 to 2, products give 1"),
    # a map that keeps every centralizer but not commutation
    (3, [0, 2, 1, 3, 7, 6, 5, 4],
     "the conjugation map of 1 sends 1 to 2, products give 1"),
], ids=["centralizer-moved", "commutation-broken"])
def test_wrong_action_on_d4_fails_a_check(monkeypatch, n, perm, message):
    monkeypatch.setattr(oracle, "generating_ids", lambda H: (1,))
    monkeypatch.setattr(oracle, "_conjugation_action", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        simultaneous_classes_count(fresh_build("D(4)"), n)


def test_one_map_per_generator(monkeypatch):
    # S(3) has two generators; a single map, even a true one, leaves the
    # other unchecked
    monkeypatch.setattr(oracle, "_conjugation_action",
                        lambda H: [[0, 1, 2, 3, 4, 5]])
    with pytest.raises(InternalError,
                       match="1 conjugation maps for 2 generators"):
        simultaneous_classes_count(fresh_build("S(3)"), 2)


@pytest.mark.parametrize("desc, perm, message", [
    # swapping ids 1 and 2 alone puts a transposition (2 pairs) and a
    # 3-cycle (3 pairs) in one class
    ("S(3)", [0, 2, 1, 3, 4, 5], "block of 1: 5 tuples != 2 x 2"),
], ids=["heads"])
def test_blocks_under_wrong_maps_fail_a_check(monkeypatch, desc, perm,
                                              message):
    # the classes grown under maps that are no automorphism, with the
    # blocks counted on an exact table
    G = build(desc)
    cents = oracle._centralizer_table(G, 2, oracle.DEFAULT_BUDGET)[0]
    monkeypatch.setattr(oracle, "_checked_maps", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        classes = oracle._centralizer_table(G, 2, oracle.DEFAULT_BUDGET)[1]
        for x, members in classes:
            oracle._head_count(cents, {}, x, members, 2)


def test_a_block_listed_twice_fails_the_listing_check(monkeypatch):
    # the class of the transposition 1 (3 members) listed twice
    table = oracle._centralizer_table

    def twice(G, n, budget):
        cents, classes = table(G, n, budget)
        return cents, classes + classes[1:2]

    monkeypatch.setattr(oracle, "_centralizer_table", twice)
    with pytest.raises(InternalError, match="first-entry blocks hold 9 "
                       "commuting tuples, counted 6"):
        simultaneous_classes_count(build("S(3)"), 2)


def test_a_walk_that_leaves_its_block_fails_the_reach_check(monkeypatch):
    # in S(4), the double transposition 5 has the walked centralizer
    # Z(5) = {0, 2, 5, 10, 12, 17, 18, 23}, a dihedral group of order 8.
    # Walked under the swap of the positions of 0 and 5, which moves 5,
    # each of its 8 pairs (5, t) reaches (0, t'), outside its block
    G = build("S(4)")
    checked = oracle._checked_maps

    def unfixed(H):
        return checked(H) if len(H) == G.order else [(2, 1, 0, 3, 4, 5, 6, 7)]

    monkeypatch.setattr(oracle, "_checked_maps", unfixed)
    with pytest.raises(InternalError, match="orbit walk from 5 reached 16 "
                       "tuples, counted 8"):
        simultaneous_classes_count(G, 2)


def test_a_missed_tuple_fails_the_enumeration_check(monkeypatch):
    # an enumeration whose first candidate set of every representative
    # lacks its smallest id, so each block loses its first tuple; the
    # first block counted is that of the transposition 1, whose
    # Z(1) = {0, 1} is abelian
    completions = oracle._completions

    def first_short(cents, n, x):
        pairs = completions(cents, n, x)
        prefix, C = next(pairs)
        yield prefix, C - {min(C)}
        yield from pairs

    monkeypatch.setattr(oracle, "_completions", first_short)
    with pytest.raises(InternalError, match="enumerated 1 commuting tuples "
                       "starting with 1, counted 2"):
        simultaneous_classes_count(build("S(3)"), 2)


def test_a_missed_tuple_in_a_walked_block_fails_the_enumeration_check(
        monkeypatch):
    # in S(4), the double transposition 5 has Z(5) a dihedral group of
    # order 8, neither abelian nor central, so its block is walked; its
    # last candidate set, without its largest id, loses one of 8 pairs
    G = build("S(4)")
    cents = oracle._centralizer_table(G, 2, oracle.DEFAULT_BUDGET)[0]
    assert len(cents[5]) == 8 and walk_maps(G, cents, 5)
    completions = oracle._completions

    def last_short(cents, n, x):
        pairs = list(completions(cents, n, x))
        if x == 5:
            prefix, C = pairs[-1]
            pairs[-1] = prefix, C - {max(C)}
        return iter(pairs)

    monkeypatch.setattr(oracle, "_completions", last_short)
    with pytest.raises(InternalError, match="enumerated 7 commuting tuples "
                       "starting with 5, counted 8"):
        simultaneous_classes_count(G, 2)


def formed_tuples(monkeypatch):
    """Wrap ``oracle._completions`` so that every prefix it yields records
    the tuples formed from it: returns (pairs yielded per level, lengths
    of the tuples formed)."""
    completions = oracle._completions
    pairs = {}
    formed = []

    class Prefix(tuple):
        def __add__(self, other):
            formed.append(len(self) + len(other))
            return tuple(self) + other

    def recorded(cents, n, x):
        for prefix, C in completions(cents, n, x):
            pairs[n] = pairs.get(n, 0) + 1
            yield Prefix(prefix), C

    monkeypatch.setattr(oracle, "_completions", recorded)
    return pairs, formed


def test_abelian_blocks_are_counted_without_forming_tuples(monkeypatch):
    # D(16) at n = 5: every block that is not central has an abelian
    # Z(x), so the levels 2..5 yield only (prefix, C) pairs, and no
    # tuple of the 70,584 they count is formed
    pairs, formed = formed_tuples(monkeypatch)
    report = simultaneous_classes_count(build("D(16)"), 5)
    assert (report.tuple_count, report.orbit_count) == (1056512, 525296)
    assert formed == []
    # one count per distinct Z(x) (3 of them) and level: each yields one
    # pair per commuting (m-1)-prefix of its block
    assert pairs == {2: 3, 3: 24, 4: 288, 5: 4224}
    # a walked block forms every tuple it walks: S(4) at n = 2 walks
    # the 8 pairs (5, t) of the double transposition's dihedral Z(5)
    pairs, formed = formed_tuples(monkeypatch)
    simultaneous_classes_count(build("S(4)"), 2)
    assert formed == [2] * 8


def test_each_level_has_its_own_burnside_check(monkeypatch):
    # one orbit too many at level 1 and one too few at level 2: the
    # central identity carries level 1's extra orbit up, so c_G(2) comes
    # out right, and only level 1's own Burnside count sees the fault
    block_orbits = oracle._block_orbits

    def skewed(cents, m, x, maps):
        enumerated, orbits, reached = block_orbits(cents, m, x, maps)
        if x == 1:
            orbits += 1 if m == 1 else -1
        return enumerated, orbits, reached

    monkeypatch.setattr(oracle, "_block_orbits", skewed)
    with pytest.raises(InternalError, match="Burnside count 3 != orbit "
                       "partition count 4"):
        simultaneous_classes_count(build("S(3)"), 2)


def test_wrong_action_fails_under_optimize():
    # the swapped-ids action above in a python -O interpreter, where an
    # assert would be stripped
    script = (
        "from commprob import catalog, oracle\n"
        "from commprob.errors import InternalError\n"
        "print('debug', __debug__)\n"
        "oracle.generating_ids = lambda H: (0,)\n"
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
        "debug False", "InternalError the conjugation map of 0 sends 1 to 2, "
        "products give 1"
    ], proc.stdout


def wrong_centralizer_action(action):
    """``_conjugation_action`` with the first map of every proper
    subgroup's action sending the positions 1 and 3 where the true map
    sends 3 and 1."""
    def wrong(H):
        maps = action(H)
        if len(H) == len(H.group):
            return maps
        first = list(maps[0])
        first[1], first[3] = first[3], first[1]
        return [first] + list(maps[1:])
    return wrong


def test_wrong_centralizer_map_fails_the_product_check(monkeypatch):
    # Z(5) = {0, 2, 5, 10, 12, 17, 18, 23} in S(4) is walked under
    # conjugation by its generators 2 and 18.  The first map with the
    # images of the positions 1 and 3 swapped still fixes 5 and keeps
    # Z(5), but it sends 2 to 10, where conjugation by 2 fixes 2
    monkeypatch.setattr(oracle, "_conjugation_action",
                        wrong_centralizer_action(oracle._conjugation_action))
    with pytest.raises(InternalError, match="the conjugation map of 2 "
                       "sends 2 to 10, products give 2"):
        simultaneous_classes_count(build("S(4)"), 2)


def test_wrong_stabilizer_map_fails_under_optimize():
    # the wrong map of Z(5) in S(4) above, in a python -O interpreter
    script = (
        "from commprob import catalog, oracle\n"
        "from commprob.errors import InternalError\n"
        "action = oracle._conjugation_action\n"
        "def wrong(H):\n"
        "    maps = action(H)\n"
        "    if len(H) == len(H.group):\n"
        "        return maps\n"
        "    first = list(maps[0])\n"
        "    first[1], first[3] = first[3], first[1]\n"
        "    return [first] + list(maps[1:])\n"
        "print('debug', __debug__)\n"
        "oracle._conjugation_action = wrong\n"
        "try:\n"
        "    oracle.simultaneous_classes_count(catalog.build('S(4)'), 2)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "InternalError the conjugation map of 2 sends 2 to "
        "10, products give 2"], proc.stdout


def test_each_class_is_grown_once(monkeypatch):
    # one orbit walk per class serves the centralizer table, for the
    # orbit count and the tuple count alike
    grown = []
    grow_orbit = groups._grow_orbit

    def counted(orbit, perms, seen):
        grown.append(orbit[0])
        return grow_orbit(orbit, perms, seen)

    monkeypatch.setattr(groups, "_grow_orbit", counted)
    for desc, n in (("S(4)", 3), ("GL(2,3)", 2), ("D(16)", 4)):
        G = build(desc)
        k = conjugacy_classes(G.full()).k
        for count in (simultaneous_classes_count, commuting_tuples_count):
            grown.clear()
            count(G, n)
            assert len(grown) == k, (desc, count.__name__, grown)


def test_equal_centralizers_share_one_set():
    # GL(2,5): 480 ids, 24 classes and 32 distinct centralizers
    G = build("GL(2,5)")
    cents = oracle._centralizer_table(G, 1, oracle.DEFAULT_BUDGET)[0]
    assert len(cents) == 480
    assert len(set(cents)) == len({id(c) for c in cents}) == 32


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)", "D(16)", "PSL(2,7)",
                                  "GL(2,5)", "U(3,2)"])
def test_stabilizer_maps_are_positions_in_the_centralizer(desc):
    # each map is a tuple of positions in sorted Z(x), never an id map
    G = build(desc)
    cents, classes = oracle._centralizer_table(G, 1, oracle.DEFAULT_BUDGET)
    maps = {x: walk_maps(G, cents, x) for x, _ in classes}
    assert any(maps.values()), desc
    for x, _ in classes:
        size = len(cents[x])
        for m in maps[x]:
            assert len(m) == size, (desc, x)
            assert sorted(m) == list(range(size)), (desc, x)


def test_oracle_memory_on_gl25():
    # the table holds one set per distinct centralizer and each stabilizer
    # map |Z(x)| positions, so GL(2,5) at n = 3 peaks near 0.4 MB, where
    # a set per id and |G|-long maps held 1.2 MB
    G = build("GL(2,5)")
    simultaneous_classes_count(G, 3)  # the conjugation action, built once
    tracemalloc.start()
    try:
        report = simultaneous_classes_count(G, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.orbit_count == 10944
    assert peak <= 600_000, peak


def test_centralizer_table_matches_a_full_scan():
    # the table carried along the classes by the conjugation maps equals
    # the scan of every pair
    for desc in ORACLE_GRID + ("GL(2,5)", "SL(2,5)", "PSL(2,7)", "D(16)"):
        G = build(desc)
        cents = oracle._centralizer_table(G, 1, oracle.DEFAULT_BUDGET)[0]
        assert cents == pair_scan_centralizers(G), desc


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)", "D(16)"])
def test_first_entry_blocks_split_the_commuting_tuples(desc):
    G = build(desc)
    cents, classes = oracle._centralizer_table(G, 3, oracle.DEFAULT_BUDGET)
    memo = {}
    for n in (1, 2, 3):
        counts = [oracle._head_count(cents, memo, x, members, n)
                  for x, members in classes]
        for (x, members), count in zip(classes, counts):
            assert x == min(members), (desc, n)
            tuples = list(tuples_from(cents, n, (x,)))
            assert tuples == sorted(tuples), (desc, n)
            assert {t[0] for t in tuples} == {x}, (desc, n)
            assert len(tuples) == count == \
                oracle._count(cents, memo, cents[x], n - 1), (desc, n, x)
        assert sum(len(members) * count
                   for (_, members), count in zip(classes, counts)) == \
            sum(1 for _ in tuples_from(cents, n, range(G.order))), (desc, n)
    # the first-entry classes are the conjugacy classes
    assert sorted(sorted(members) for _, members in classes) == sorted(
        list(c.members) for c in conjugacy_classes(G.full()).classes
    )


@pytest.mark.parametrize("desc", ["S(4)", "Q8", "D(16)", "GL(2,3)", "PSL(2,7)"])
def test_representative_walk_matches_the_whole_block_walk(desc):
    # the orbits of x's stabilizer on the tuples that start with x are
    # the orbits of the whole group on x's class block
    G = build(desc)
    cents, classes = oracle._centralizer_table(G, 3, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    memo = {}
    for n in (1, 2, 3):
        for x, members in classes:
            count = oracle._head_count(cents, memo, x, members, n)
            orbits, reached = whole_block_orbits(cents, maps, n, members)
            assert reached == len(members) * count, (desc, n)
            stab = walk_maps(G, cents, x)
            assert oracle._block_orbits(cents, n, x, stab) == \
                (count, orbits, count), (desc, n, x)


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)", "D(16)", "PSL(2,7)"])
def test_stabilizer_maps_generate_the_centralizer_action(desc):
    # on Z(x), the maps close to conjugation by every g in Z(x), computed
    # here with G.mul
    G = build(desc)
    cents, classes = oracle._centralizer_table(G, 1, oracle.DEFAULT_BUDGET)
    assert [sorted(members) for _, members in classes] == [
        list(cls.members) for cls in conjugacy_classes(G.full()).classes]
    for x, members in classes:
        assert x == min(members), (desc, x)
        zx = tuple(sorted(cents[x]))
        stab = [dict(zip(zx, map(zx.__getitem__, m)))
                for m in walk_maps(G, cents, x)]
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


def test_each_walk_applies_one_map_per_generator(monkeypatch):
    # U(3,2) at n = 2 walks 5 distinct centralizers, each under one map
    # per generator of its own generating set: 11 maps in all on a fresh
    # build.  After a branching expansion, one 54-element centralizer has
    # the 3-generator set carried from a conjugate instead of its own 2,
    # so the same walks apply 12
    walks = []
    block_orbits = oracle._block_orbits

    def counted(cents, m, x, maps):
        if m > 1 and maps:
            walks.append((cents[x], len(maps)))
        return block_orbits(cents, m, x, maps)

    monkeypatch.setattr(oracle, "_block_orbits", counted)
    for expand, total in ((False, 11), (True, 12)):
        G = fresh_build("U(3,2)")
        if expand:
            build_branching(G)
        walks.clear()
        simultaneous_classes_count(G, 2)
        for zx, count in walks:
            assert count == len(groups.generating_ids(G.subgroup(zx))), \
                len(zx)
        assert len({zx for zx, _ in walks}) == len(walks) == 5
        assert sum(count for _, count in walks) == total, expand


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_centralizer_is_checked_once(monkeypatch, n):
    # the maps of the whole group, then those of each distinct walked
    # centralizer once, for all the levels alike
    G = build("U(3,2)")
    checked = []
    checked_maps = oracle._checked_maps

    def counted(H):
        checked.append(H)
        return checked_maps(H)

    monkeypatch.setattr(oracle, "_checked_maps", counted)
    simultaneous_classes_count(G, n)
    assert checked[0] is G.full()
    walked = checked[1:]
    assert len({id(H) for H in walked}) == len(walked) == 5
    assert not any(groups.is_abelian(H) for H in walked)


def test_memory_guard_counts_the_largest_block(monkeypatch):
    # PSL(2,7) at n = 4: the identity's block holds 5,376 tuples but is
    # central, so it is never walked; of the rest, only the Z(x) of the
    # involutions (dihedral of order 8) is not abelian, and a walk from
    # one of them would hold 176
    G = build("PSL(2,7)")
    n = 4
    cents, classes = oracle._centralizer_table(G, n, oracle.DEFAULT_BUDGET)
    memo = {}
    counts = {x: oracle._head_count(cents, memo, x, members, n)
              for x, members in classes}
    held = max(counts[x] for x, _ in classes
               if len(cents[x]) < G.order and walk_maps(G, cents, x))
    assert held == 176
    assert max(counts.values()) == 5376
    per_tuple = n * 28 + 80
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", held * per_tuple)
    assert simultaneous_classes_count(G, n).orbit_count == \
        walk_every_block(G, n)
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", held * per_tuple - 1)
    with pytest.raises(BudgetError):
        simultaneous_classes_count(G, n)


def test_memory_guard_ignores_blocks_no_walk_holds(monkeypatch):
    # D(16) at n = 5: every walked Z(x) is abelian and the central block
    # (67,456 tuples) is never walked, so no walk holds a visited set
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", 1)
    assert simultaneous_classes_count(build("D(16)"), 5).tuple_count == \
        1056512


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
def test_central_classes_are_never_walked(monkeypatch, desc, n, central):
    # every class with a centralizer that is not abelian is central
    # here, and a central class counts c_G(m-1) orbits at each level m
    # instead of a walk
    G = build(desc)
    cents, classes = oracle._centralizer_table(G, n, oracle.DEFAULT_BUDGET)
    moved = [(x, members) for x, members in classes
             if walk_maps(G, cents, x)]
    assert [len(members) for _, members in moved] == [1] * central
    assert [x for x, _ in classes if len(cents[x]) == G.order] == \
        [x for x, _ in moved]
    expected = walk_every_block(G, n)
    levels = []
    walked = []
    block_orbits = oracle._block_orbits

    def counted(cents, m, x, maps):
        levels.append(m)
        if len(cents[x]) == G.order:
            walked.append((m, x))
        return block_orbits(cents, m, x, maps)

    monkeypatch.setattr(oracle, "_block_orbits", counted)
    assert simultaneous_classes_count(G, n).orbit_count == expected
    assert walked == []
    assert sorted(set(levels)) == list(range(1, n + 1))


# q = 257 and 547 have row codes wider than a byte, 547 at the budget edge
@pytest.mark.parametrize("d, q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9,
                                                   257, 547)] + [
    (2, 2), (2, 3), (2, 4), (3, 2)])
def test_row_table_scan_matches_the_straight_line_scan(d, q):
    pairs = commuting_pairs_matrix_algebra(d, q)
    assert pairs == straight_line_pairs(d, q) == feit_fine_pairs(d, q)


@pytest.mark.parametrize("d, q", [(1, 257), (2, 3), (3, 2)])
def test_pair_scan_multiplies_only_for_the_square_check(monkeypatch, d, q):
    # one straight-line product per matrix, A.A against its row table;
    # AB and BA come from the tables alone
    calls = [0]
    operations = matrix_operations

    def counted_operations(fld, dim):
        ops = operations(fld, dim)

        def mul(A, B):
            calls[0] += 1
            return ops.mul(A, B)
        return dataclasses.replace(ops, mul=mul)

    monkeypatch.setattr(oracle, "matrix_operations", counted_operations)
    assert commuting_pairs_matrix_algebra(d, q) == feit_fine_pairs(d, q)
    assert calls[0] == q ** (d * d)


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


def test_a_corrupted_wide_row_table_fails_the_square_check(monkeypatch):
    # codes wider than a byte take the 2-byte lanes after the same check
    monkeypatch.setattr(oracle, "_row_tables",
                        corrupt_one_square(oracle._row_tables))
    with pytest.raises(InternalError, match=r"the row table of \(256,\) "
                       r"over GF\(257\) gives a wrong square"):
        commuting_pairs_matrix_algebra(1, 257)


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
