"""Property tests over random permutation groups.

The centralizer kernel is checked against the full scan, and the three
counting methods against each other.  Branching and Lescot share the
classes and centralizers kept on each subgroup, so a kernel defect would
hit both; the oracle's element-level counts and Burnside's lemma do not
use them.  States carried from a conjugate state must give what the same
expansion gives with carrying patched off.  The same group rebuilt from its multiplication table must give
the same results through the kernel as the permutation group, and a
table with one entry overwritten must be accepted exactly when it is
still a group.  An inversion-closed subset of S(5) must be accepted as a
subgroup and as a group exactly when all its pairs multiply inside it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    bfs_generated,
    expansion_record,
    pair_closed,
    scan_centralizer,
    slow_expansion_record,
)

from commprob.branching import build_branching, c_tuples, cp_via_branching, cp_via_lescot
from commprob.errors import InputError
from commprob.groups import Group, centralizer, conjugacy_classes
from commprob.oracle import simultaneous_classes_count

# largest group handed to the oracle: its centralizer tables cost |G|^2
ORACLE_ORDER_CAP = 200

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def permutation_groups(draw, max_points=7):
    n = draw(st.integers(2, max_points))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return Group.from_permutation_generators(n, gens)


@PROPERTY_SETTINGS
@given(G=permutation_groups(), data=st.data())
def test_centralizer_matches_scan(G, data):
    full = G.full()
    y = data.draw(st.integers(0, G.order - 1), label="y")
    # the whole group, and a centralizer subgroup built by the scan alone
    for H in (full, G.subgroup(scan_centralizer(full, y), validate=False)):
        x = data.draw(st.sampled_from(H.key), label="x")
        Z = centralizer(H, x)
        assert Z.key == scan_centralizer(H, x)
        cd = conjugacy_classes(H)
        assert Z.order * cd.classes[cd.class_of[x]].size == H.order


@PROPERTY_SETTINGS
@given(G=permutation_groups())
def test_branching_lescot_oracle_burnside_agree(G):
    assume(G.order <= ORACLE_ORDER_CAP)
    B = build_branching(G)
    for n in (2, 3):
        report = simultaneous_classes_count(G, n - 1)
        assert report.orbit_count == report.burnside_count
        assert c_tuples(B, n - 1) == report.orbit_count
        expected = Fraction(report.orbit_count, G.order ** (n - 1))
        assert cp_via_branching(G, n) == cp_via_lescot(G, n) == expected


@PROPERTY_SETTINGS
@given(G=permutation_groups())
def test_table_group_matches_permutation_group(G):
    assume(G.order <= ORACLE_ORDER_CAP)
    ids = range(G.order)
    T = Group.from_table([[G.mul(a, b) for b in ids] for a in ids])
    assert [T.data_of(i) for i in ids] == list(ids)
    BG = build_branching(G)
    BT = build_branching(T)
    assert [st.key for st in BT.states] == [st.key for st in BG.states]
    assert BT == BG
    for st in BT.states:
        HG = G.subgroup(st.key, validate=False)
        HT = T.subgroup(st.key, validate=False)
        classes = conjugacy_classes(HT).classes
        assert [(c.rep, c.size, c.members) for c in classes] == \
            [(c.rep, c.size, c.members) for c in conjugacy_classes(HG).classes]
        for c in classes:
            Z = centralizer(HT, c.rep)
            assert Z.key == scan_centralizer(HT, c.rep)
            assert Z.key == centralizer(HG, c.rep).key
    for n in (2, 3):
        expected = cp_via_branching(G, n)
        assert cp_via_branching(T, n) == cp_via_lescot(T, n) == expected


@PROPERTY_SETTINGS
@given(G=permutation_groups())
def test_carried_states_match_the_slow_path(G):
    # the same element list built again and expanded with no state
    # carried from a conjugate gives the same matrix, classes,
    # centralizers and Lescot values
    degree = len(G.data_of(0))
    slow = slow_expansion_record(
        lambda: Group.from_permutation_list(degree, list(G._data)), (2, 3))
    assert expansion_record(G, (2, 3)) == slow


def brute_force_is_group(table):
    """A two-sided identity, two-sided inverses and all n^3 triples
    associative, checked directly."""
    n = len(table)
    idents = [e for e in range(n)
              if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if not all(any(table[a][b] == e == table[b][a] for b in range(n))
               for a in range(n)):
        return False
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


@PROPERTY_SETTINGS
@given(G=permutation_groups(max_points=4), data=st.data())
def test_from_table_accepts_exactly_groups(G, data):
    n = G.order
    table = [[G.mul(a, b) for b in range(n)] for a in range(n)]
    if data.draw(st.booleans(), label="overwrite"):
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(0, n - 1), label="b")
        table[a][b] = data.draw(st.integers(0, n - 1), label="value")
    try:
        Group.from_table(table)
        accepted = True
    except InputError:
        accepted = False
    assert accepted == brute_force_is_group(table)


S5_GENERATORS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]


@st.composite
def s5_inversion_closed_subsets(draw):
    """(S(5), sorted ids): the subgroup generated by up to two drawn ids,
    with up to three drawn pairs {x, x^-1} toggled in or out."""
    G = Group.from_permutation_generators(5, S5_GENERATORS)
    gens = draw(st.lists(st.integers(0, G.order - 1), max_size=2), label="gens")
    members = set(bfs_generated(G, gens))
    toggles = draw(st.lists(st.integers(1, G.order - 1), max_size=3),
                   label="toggles")
    for x in toggles:
        members ^= {x, G.inv(x)}
    return G, sorted(members)


@PROPERTY_SETTINGS
@given(subset=s5_inversion_closed_subsets(), rnd=st.randoms())
def test_closure_check_matches_pair_test(subset, rnd):
    G, members = subset
    expected = pair_closed(members, G.mul, set(members).__contains__)
    # as a subgroup its generators are picked by ascending id; as an
    # element list, in a shuffled order
    try:
        G.subgroup(members)
        accepted = True
    except InputError as e:
        assert str(e) == "member set is not closed under multiplication"
        accepted = False
    assert accepted == expected
    perms = [G.data_of(i) for i in members]
    rnd.shuffle(perms)
    try:
        Group.from_permutation_list(5, perms)
        accepted = True
    except InputError as e:
        assert str(e) == "element set is not closed under multiplication"
        accepted = False
    assert accepted == expected
