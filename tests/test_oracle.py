import gc
import tracemalloc
from fractions import Fraction

import pytest

from conftest import ORACLE_GRID, count_products, fresh_build

from commprob.branching import build_branching, c_tuples, cp_via_branching
from commprob.catalog import build
from commprob import oracle
from commprob.errors import BudgetError, InputError, InternalError
from commprob.oracle import (
    commuting_pairs_matrix_algebra,
    commuting_tuples_count,
    simultaneous_classes_count,
)


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
    # swapping ids 1 and 2 alone is no automorphism of S(3): the walk
    # leaves the commuting pairs
    ([0, 2, 1, 3, 4, 5], "reached 20 tuples, counted 18"),
])
def test_wrong_conjugation_action_fails_a_check(monkeypatch, perm, message):
    monkeypatch.setattr(oracle, "_conjugation_action", lambda H: [perm])
    with pytest.raises(InternalError, match=message):
        simultaneous_classes_count(fresh_build("S(3)"), 2)


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
        listed = []
        for firsts, size in blocks:
            block = list(oracle._commuting_tuples(cents, n, firsts))
            assert block == sorted(block), (desc, n)
            assert {t[0] for t in block} <= firsts, (desc, n)
            assert len(block) == size, (desc, n)
            listed += block
        assert len(set(listed)) == len(listed), (desc, n)
        assert sorted(listed) == list(oracle._commuting_tuples(cents, n)), (desc, n)
    # the first-entry classes are the conjugacy classes
    from commprob.groups import conjugacy_classes

    assert sorted(sorted(firsts) for firsts, _ in blocks) == sorted(
        list(c.members) for c in conjugacy_classes(G.full()).classes
    )


def test_memory_guard_counts_the_largest_block(monkeypatch):
    G = build("GL(2,3)")
    n = 3
    cents = oracle._centralizer_sets(G, n, oracle.DEFAULT_BUDGET)
    maps = oracle._conjugation_action(G.full())
    sizes = [size for _, size in oracle._first_entry_blocks(cents, {}, maps, n)]
    per_tuple = n * 28 + 80
    assert max(sizes) < sum(sizes)
    # room for the largest block but not for every tuple at once
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES", max(sizes) * per_tuple)
    assert simultaneous_classes_count(G, n).tuple_count == sum(sizes)
    monkeypatch.setattr(oracle, "DEFAULT_MEMORY_BYTES",
                        max(sizes) * per_tuple - 1)
    with pytest.raises(BudgetError):
        simultaneous_classes_count(G, n)


def test_oracle_holds_one_block_at_a_time():
    # 18,816 commuting 4-tuples of GL(2,3): held in one visited set they
    # peak near 1.8 MB; held one first-entry block at a time, under 0.4 MB
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
