import hashlib
import os
import random
import subprocess
import sys
import threading

import pytest

from conftest import (
    bfs_classes,
    bfs_generated,
    cofactor_det,
    cofactor_inverse,
    commutator_closure,
    count_closures,
    count_construction_products,
    count_products,
    fresh_build,
    greedy_action_generators,
    mul_z_classes,
    pair_commutator_closure,
    scan_center,
    scan_centralizer,
    schoolbook_mat_mul,
)

from commprob import groups
from commprob.branching import build_branching, lump
from commprob.catalog import SMALL_GROUPS, build
from commprob.errors import InputError, InternalError, SizeCapError
from commprob.gf import field
from commprob.groups import (
    Element,
    Group,
    center,
    centralizer,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    derived_length,
    derived_series,
    element_order,
    generating_ids,
    is_abelian,
    is_solvable,
    matrix_operations,
    z_classes,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


# -- matrix kernels --

@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrix_kernel_matches_schoolbook(p, k, d):
    fld = field(p, k)
    ops = matrix_operations(fld, d)
    rng = random.Random(1000 * d + fld.q)

    def rand():
        return tuple(rng.randrange(fld.q) for _ in range(d * d))

    zero = (0,) * (d * d)
    one = ops.identity
    singular = tuple(rng.randrange(fld.q) for _ in range(d)) * d  # equal rows
    special = [zero, one, singular, rand()]
    pairs = [(a, b) for a in special for b in special]
    pairs += [(rand(), rand()) for _ in range(300)]
    for A, B in pairs:
        assert ops.mul(A, B) == schoolbook_mat_mul(fld, d, A, B), (A, B)
    if d > 1:
        assert ops.det(singular) == 0
    invertible = 0
    while invertible < 50:
        A = rand()
        if ops.det(A) == 0:
            continue
        invertible += 1
        assert ops.mul(ops.inv(A), A) == one, A
        assert ops.mul(A, ops.inv(A)) == one, A


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_det_and_inverse_match_cofactors(p, k, d):
    fld = field(p, k)
    ops = matrix_operations(fld, d)
    rng = random.Random(2000 * d + fld.q)
    zero = (0,) * (d * d)
    singular = tuple(rng.randrange(fld.q) for _ in range(d)) * d  # equal rows
    mats = [zero, singular, ops.identity]
    mats += [tuple(rng.randrange(fld.q) for _ in range(d * d))
             for _ in range(300)]
    singular_seen = 0
    for A in mats:
        assert ops.det(A) == cofactor_det(fld, d, A), A
        inv = cofactor_inverse(fld, d, A)
        if inv is None:
            singular_seen += 1
            with pytest.raises(InputError, match="not invertible"):
                ops.inv(A)
        else:
            assert ops.inv(A) == inv, A
    assert singular_seen >= (1 if d == 1 else 2)


def s3():
    return Group.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)], "S(3)")


def test_closure_s3():
    G = closure(("perm", 3), [(1, 0, 2), (1, 2, 0)])
    assert G.order == 6


def test_closure_sl2_f3():
    G = closure(("matrix", field(3), 2), [[[1, 1], [0, 1]], [[0, -1], [1, 0]]])
    assert G.order == 24


def test_closure_empty_generators():
    G = closure(("perm", 4), [])
    assert G.order == 1


def test_closure_rejects_singular_matrix():
    with pytest.raises(InputError):
        closure(("matrix", field(3), 2), [[[1, 1], [1, 1]]])


def test_closure_rejects_degree_mismatch():
    with pytest.raises(InputError):
        closure(("perm", 3), [(1, 0, 2), (1, 0, 3, 2)])


def test_closure_rejects_non_bijection():
    with pytest.raises(InputError):
        closure(("perm", 3), [(0, 0, 1)])


def test_ids_identity_first():
    G = s3()
    assert G.data_of(0) == (0, 1, 2)
    assert G.inv(0) == 0


def test_deterministic_ids_across_builds():
    a = s3()
    b = s3()
    assert a._data == b._data
    ca = conjugacy_classes(a.full())
    cb = conjugacy_classes(b.full())
    assert [c.rep for c in ca.classes] == [c.rep for c in cb.classes]


def test_element_arithmetic():
    G = s3()
    t = G.element(G.id_of((1, 0, 2)))
    assert (t * t).id == 0
    assert t.inverse() == t
    assert t.order() == 2


def test_element_order():
    G = build("C(12)")
    orders = sorted(element_order(G.full(), x) for x in range(12))
    assert orders == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]


@pytest.mark.parametrize("x", [-1, 6, 99])
def test_element_order_rejects_an_id_out_of_range(x):
    # -1 would index id 5 (order 3), and 6 = |S(3)| an IndexError
    G = build("S(3)")
    for order in (G.element_order, lambda x: Element(G, x).order()):
        with pytest.raises(InputError, match=f"element id {x} out of range"):
            order(x)


def test_group_from_table_klein():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    G = Group.from_table(table, "klein")
    assert G.order == 4
    assert is_abelian(G.full())


# order-5 loop: a two-sided identity, every row and column a permutation,
# but 36 non-associative triples
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def test_group_from_table_rejects_loop():
    with pytest.raises(InputError, match="not associative"):
        Group.from_table(LOOP5)
    # 1 and 2 each generate an associative order-2 subset; together the loop
    with pytest.raises(InputError, match="not associative"):
        Group.from_table(LOOP5, generators=[1, 2])
    assert Group.from_table(LOOP5, generators=[1]).order == 2


def test_group_from_table_rejects_ragged_table():
    with pytest.raises(InputError, match="not 2 x 2"):
        Group.from_table([[0, 1], [1]])
    with pytest.raises(InputError):
        Group.from_table([0, 1])


@pytest.mark.parametrize("value, match", [
    (256, "range"), (7, "not associative"), ("5", "range"),
])
def test_group_from_table_rejects_one_bad_entry(value, match):
    # one bad entry among 256 x 256 must be caught at every size: out of
    # range by the table's entry check, a wrong product by Light's test
    table = _cyclic_table(256)
    table[3][5] = value
    with pytest.raises(InputError, match=match):
        Group.from_table(table)
    assert Group.from_table(_cyclic_table(256)).order == 256


def test_group_from_table_walks_an_abelian_table_once(monkeypatch):
    # an abelian table has no generating pair, so the constructor takes
    # the greedy walk that Light's test ran instead of walking again
    from commprob import groups

    walks = []
    walk = groups._right_walk

    def counted(points, where, mul, gens=()):
        walks.append((len(points), tuple(gens)))
        return walk(points, where, mul, gens)

    monkeypatch.setattr(groups, "_right_walk", counted)
    G = Group.from_table(_cyclic_table(256))
    assert walks == [(256, ())]
    assert G.full()._gens == (1,)
    assert is_abelian(G.full())
    assert G.mul(255, 1) == 0


def test_group_from_table_rejects_unclosed_generated_subset():
    # 1 generates {0, 1, 2} by left multiplication, but 2 * 2 = 3
    table = [
        [0, 1, 2, 3],
        [1, 2, 0, 3],
        [2, 0, 3, 1],
        [3, 3, 1, 0],
    ]
    with pytest.raises(InputError, match="not closed"):
        Group.from_table(table, generators=[1])


def test_group_from_table_rejects_monoids():
    # {0, 1} under max is associative with identity 0, but 1 has no inverse;
    # C(2)^3 with its 3 generators is a group
    with pytest.raises(InputError, match="no inverse"):
        Group.from_table([[0, 1], [1, 1]])
    elementary = [[a ^ b for b in range(8)] for a in range(8)]
    assert Group.from_table(elementary).order == 8
    # a left-zero row for every non-identity element: each one generates
    # only itself, so the table needs n - 1 > log2(n) generators
    left_zero = [list(range(4))] + [[a] * 4 for a in range(1, 4)]
    for a in range(1, 4):
        left_zero[a][0] = a
    with pytest.raises(InputError, match="generators"):
        Group.from_table(left_zero)


def test_closure_inside_table_group():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    H = closure(("table", table), [1])
    assert H.order == 2
    assert H.kind == "table"


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        build("C(300000)")


def test_subgroup_validation():
    G = s3()
    bad = [0, G.id_of((1, 0, 2)), G.id_of((2, 1, 0))]  # not closed
    with pytest.raises(InputError):
        G.subgroup(bad)
    # a set that failed validation was not interned, so it fails again
    with pytest.raises(InputError):
        G.subgroup(bad)
    H = G.subgroup([0, G.id_of((1, 0, 2))])
    assert H.order == 2


# -- construction checks --

NOT_CLOSED = "^element set is not closed under multiplication$"
NO_INVERSE = "^element set is not closed under inversion$"


def _a5_with_a_transposition():
    """A(5) with the 3-cycle (0 1 2) and its inverse replaced by the
    transposition (0 1): 59 permutations, closed under inversion."""
    A = build("A(5)")
    dropped = {(1, 2, 0, 3, 4), (2, 0, 1, 3, 4)}
    perms = [A.data_of(i) for i in range(A.order)
             if A.data_of(i) not in dropped]
    assert len(perms) == 58
    return perms + [(1, 0, 2, 3, 4)]


def test_permutation_list_not_closed_under_multiplication():
    # S(3)'s e, (0 1) and (1 2): (0 1)(1 2) is a 3-cycle
    with pytest.raises(InputError, match=NOT_CLOSED):
        Group.from_permutation_list(3, [(0, 1, 2), (1, 0, 2), (0, 2, 1)])
    with pytest.raises(InputError, match=NOT_CLOSED):
        Group.from_permutation_list(5, _a5_with_a_transposition())


def test_matrix_list_not_closed_under_multiplication():
    # SL(2,3) and one involution of determinant -1
    S = build("SL(2,3)")
    mats = [S.data_of(i) for i in range(S.order)]
    assert Group.from_matrix_list(S.field, 2, mats).order == 24
    flip = (S.field.one_index, 0, 0, S.field.neg_table()[S.field.one_index])
    with pytest.raises(InputError, match=NOT_CLOSED):
        Group.from_matrix_list(S.field, 2, mats + [flip])


def test_list_missing_an_inverse_is_rejected():
    # GL(2,3) without one element of order 3, whose inverse stays
    G = build("GL(2,3)")
    x = next(i for i in range(G.order) if G.element_order(i) == 3)
    mats = [G.data_of(i) for i in range(G.order) if i != x]
    with pytest.raises(InputError, match=NO_INVERSE):
        Group.from_matrix_list(G.field, 2, mats)
    # C(3) without the square of its generator
    with pytest.raises(InputError, match=NO_INVERSE):
        Group.from_permutation_list(3, [(0, 1, 2), (1, 2, 0)])


def test_matrix_list_of_order_above_200_not_closed():
    # SL(3,3) and one involution of determinant -1: 5,617 matrices closed
    # under inversion but not under products, in both list constructors
    S = build("SL(3,3)")
    mats = [S.data_of(i) for i in range(S.order)]
    one = S.field.one_index
    flip = (S.field.neg_table()[one], 0, 0, 0, one, 0, 0, 0, one)
    with pytest.raises(InputError, match=NOT_CLOSED):
        Group.from_matrix_list(S.field, 3, mats + [flip])
    G = build("GL(3,3)")
    with pytest.raises(InputError,
                       match="^member set is not closed under multiplication$"):
        G.subgroup([G.id_of(m) for m in mats + [flip]])


def test_construction_rejects_an_element_that_is_not_the_identity():
    # the identity check is exact, from the walk's generators: e e = e
    # fails for 1 in Z/3, and s e = s fails for each s in the right-zero
    # band y z = z, whose e e = e holds and whose set the walk finds closed
    with pytest.raises(InputError, match="^identity element does not act"):
        Group("table", lambda a, b: (a + b) % 3, lambda a: -a % 3, 1, [1, 0, 2])
    with pytest.raises(InputError, match="^identity element does not act"):
        Group("table", lambda a, b: b, lambda a: a, 0, [0, 1, 2])


# 2 products per element of each proper subgroup that a drawn pair
# generates before the pair that generates the whole group
FAILED_PAIR_PRODUCTS = {"GL(2,5)": 2 * (48 + 120 + 32), "PSL(2,9)": 2 * (60 + 6)}


@pytest.mark.parametrize("desc", ["GL(3,2)", "PSL(2,7)", "GL(2,4)",
                                  "GL(2,5)", "U(3,2)", "PSL(2,9)"])
def test_construction_work_count(monkeypatch, desc):
    # element products of building a group from its element list: the
    # closure walk by a generating pair costs 2 per element, not n^2, plus
    # 2 per commuting pair drawn and 1 + |T| for the identity check, e e
    # and s e for each generator s of the walk
    products = count_construction_products(monkeypatch)
    G = fresh_build(desc)
    bound = (2 * G.order + 2 * groups._PAIR_TRIALS
             + 1 + len(generating_ids(G.full()))
             + FAILED_PAIR_PRODUCTS.get(desc, 0))
    assert products[0] <= bound, (products[0], bound)


@pytest.mark.parametrize("desc", ["GL(3,3)", "U(3,3)"])
def test_construction_hands_its_walk_to_the_action(monkeypatch, desc):
    # the walk that checks the element list closed finds the generating
    # pair and records right multiplication by it, so the generating set
    # and the action take no product; the oracle's check still recomputes
    # every map with products of its own
    from commprob import oracle

    G = fresh_build(desc)
    products = count_products(monkeypatch, G)
    gens = generating_ids(G.full())
    action = groups._conjugation_action(G.full())
    assert products[0] == 0
    assert len(gens) == len(action) == 2
    oracle._checked_maps(G.full())
    assert products[0] == 2 * len(gens) * G.order


@pytest.mark.parametrize("desc", SMALL_GROUPS + ("GL(3,2)", "U(3,2)"))
def test_right_maps_are_right_multiplication(desc):
    # on every branching state, map i sends each position in H.key to the
    # position of its product with generator i.  The expansion releases
    # the maps of every subgroup whose action it built, so they are read
    # on a second build of the group, before any action is built
    states = build_branching(fresh_build(desc)).states
    G = fresh_build(desc)
    for st in states:
        H = G.subgroup(st.key, validate=False)
        gens = generating_ids(H)
        assert len(H._right) == len(gens)
        for g, right in zip(gens, H._right):
            assert [H.key[z] for z in right] == [G.mul(h, g) for h in H.key]


def test_subgroup_key_equality():
    G = s3()
    a = G.subgroup([0, 1], validate=False)
    b = G.subgroup([1, 0], validate=False)
    assert a == b and a.key == b.key
    assert a is b


def test_subgroup_interning_across_threads():
    # Subgroup is public and may be built from several threads: every racing
    # construction of one id set must get the object that was entered first
    rounds = [fresh_build("S(4)") for _ in range(40)]
    sets = [scan_centralizer(rounds[0].full(), x) for x in range(24)]
    results = [[] for _ in range(4)]
    barrier = threading.Barrier(len(results), timeout=10)

    def construct(out):
        for G in rounds:
            barrier.wait()
            out.append([G.subgroup(ids, validate=False) for ids in sets])

    threads = [threading.Thread(target=construct, args=(out,))
               for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(len(out) == len(rounds) for out in results)
    for per_round in zip(*results):
        for objs in zip(*per_round):
            assert all(o is objs[0] for o in objs)


# -- orbit kernel --

def brute_orbit(perms, seed):
    """Reference orbit: the set of points reached from ``seed`` by the
    integer permutations ``perms``, closed by repeated passes."""
    orbit = {seed}
    while True:
        grown = orbit | {perm[y] for y in orbit for perm in perms}
        if grown == orbit:
            return orbit
        orbit = grown


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)"])
def test_orbit_tree_on_every_state(monkeypatch, desc):
    # on every branching state the points are positions in H.key, not ids
    G = fresh_build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        perms = groups._conjugation_action(H)
        for seed in range(len(H.key)):
            walk = groups._orbit_tree(perms, seed)
            orbit, index, up, via = next(walk)
            # the non-tree edges, met point by point and permutation by
            # permutation; with the tree edges they are every edge once
            edges = []
            for i, s, j in walk:
                assert perms[s][orbit[i]] == orbit[j], (desc, st.key, seed)
                edges.append((i, s))
            tree = set(zip(up[1:], via[1:]))
            assert len(tree) == len(orbit) - 1
            assert edges == [(i, s) for i in range(len(orbit))
                             for s in range(len(perms)) if (i, s) not in tree]
            assert groups._whole_orbit_tree(perms, seed) == (orbit, index, up, via)
            # a walk stopped at its first non-tree edge holds a prefix of
            # the whole tree
            stopped = groups._orbit_tree(perms, seed)
            part = next(stopped)
            next(stopped, None)
            n = len(part[0])
            assert (part[0], part[2], part[3]) == (orbit[:n], up[:n], via[:n])
            assert part[1] == {y: i for i, y in enumerate(orbit[:n])}
            assert orbit[0] == seed
            assert len(set(orbit)) == len(orbit)
            assert set(orbit) == brute_orbit(perms, seed), (desc, st.key, seed)
            assert index == {y: i for i, y in enumerate(orbit)}
            for i in range(1, len(orbit)):
                assert up[i] < i
                assert perms[via[i]][orbit[up[i]]] == orbit[i]
    # with the action and the centralizers in place, classes and
    # z-classes are integer indexing alone
    states = [G.subgroup(st.key, validate=False)
              for st in build_branching(G).states]
    for H in states:
        z_classes(H)
        H._classes = None
    products = count_products(monkeypatch, G)
    for H in states:
        z_classes(H)
    assert products[0] == 0, desc


# -- conjugacy classes --

def test_classes_q8():
    assert conjugacy_classes(build("Q8").full()).k == 5


def test_classes_a5():
    cd = conjugacy_classes(build("A(5)").full())
    assert cd.k == 5
    assert sorted(c.size for c in cd.classes) == [1, 12, 12, 15, 20]


def test_classes_cyclic_all_singletons():
    cd = conjugacy_classes(build("C(5)").full())
    assert cd.k == 5
    assert all(c.size == 1 for c in cd.classes)


def test_class_equation_and_orbit_stabilizer():
    for desc in ("S(4)", "Q8", "GL(2,3)", "U(2,2)", "PSL(2,3)"):
        G = build(desc)
        full = G.full()
        cd = conjugacy_classes(full)
        assert sum(c.size for c in cd.classes) == G.order
        for c in cd.classes:
            assert G.order % c.size == 0
            assert c.size * centralizer(full, c.rep).order == G.order


def test_classes_match_bfs_reference_on_catalog_states():
    # every state of every small branching matrix, plus two larger groups
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        G = build(desc)
        for st in build_branching(G).states:
            H = G.subgroup(st.key, validate=False)
            cd = conjugacy_classes(H)
            classes, class_of = bfs_classes(H)
            assert [(c.rep, c.size, c.members) for c in cd.classes] == classes, \
                (desc, st.key)
            assert cd.class_of == class_of, (desc, st.key)


def test_conjugation_action_matches_conj_on_catalog_states():
    # each permutation is y -> s y s^-1 for its generator s, as G.conj
    # computes it with 2 products; the engine builds no action on an
    # abelian state
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        G = build(desc)
        for st in build_branching(G).states:
            if st.abelian:
                continue
            H = G.subgroup(st.key, validate=False)
            key = H.key
            action = groups._conjugation_action(H)
            for s, perm in zip(generating_ids(H), action):
                assert [key[y] for y in perm] == [G.conj(s, h) for h in key], \
                    (desc, st.key, s)


def test_inverse_table_matches_inv_data():
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        G = build(desc)
        inv = G._inv
        assert inv == [G.id_of(G._inv_data(d)) for d in G._data], desc
        assert all(inv[inv[x]] == x for x in range(G.order)), desc


def proper_states(descs):
    """Every branching state of each group in ``descs`` other than the
    group itself: subgroups whose positions in ``H.key`` are not ids."""
    for desc in descs:
        G = build(desc)
        for st in build_branching(G).states:
            if st.order < G.order:
                yield G.subgroup(st.key, validate=False)


PROPER_STATE_GROUPS = ("S(5)", "GL(3,2)", "U(3,2)")


def test_z_classes_match_mul_reference():
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)", "GL(3,3)"):
        H = build(desc).full()
        assert z_classes(H) == mul_z_classes(H), desc
    for H in proper_states(PROPER_STATE_GROUPS):
        assert z_classes(H) == mul_z_classes(H), (H.group, H.key)
    assert len(z_classes(build("GL(3,3)").full())) == 7


def lemma_states():
    """Every branching state of S(4) and GL(2,3), then every proper
    state of the ``PROPER_STATE_GROUPS``."""
    for desc in ("S(4)", "GL(2,3)"):
        G = build(desc)
        for st in build_branching(G).states:
            yield G.subgroup(st.key, validate=False)
    yield from proper_states(PROPER_STATE_GROUPS)


def test_equal_centralizers_are_the_center_elements_of_equal_class_size():
    # the lemma behind z_classes: Z(y) = Z(x) exactly when y is in the
    # center of Z(x) and |y^H| = |x^H|
    for H in lemma_states():
        cd = conjugacy_classes(H)
        for c in cd.classes:
            Zx = centralizer(H, c.rep)
            ZZx = center(Zx)
            for y in H.key:
                same_size = cd.classes[cd.class_of[y]].size == c.size
                assert (centralizer(H, y) is Zx) == (y in ZZx and same_size), \
                    (H.group, H.key, c.rep, y)


# element products of a cold branching expansion, as measured; the
# test ids name the group alone, so a tighter bound keeps them
BRANCHING_PRODUCTS = {
    "GL(3,2)": 165, "U(3,2)": 2679, "GL(3,3)": 5373, "U(3,3)": 26_465,
}


@pytest.mark.parametrize("desc", BRANCHING_PRODUCTS)
def test_branching_work_count(monkeypatch, desc):
    # each conjugation orbit is paid for once, by the integer action, and
    # each distinct centralizer is closed once, from the part of the class
    # its closure needs
    G = fresh_build(desc)
    products = count_products(monkeypatch, G)
    build_branching(G)
    assert products[0] <= BRANCHING_PRODUCTS[desc], products[0]


@pytest.mark.parametrize("desc, closures", [("GL(3,3)", 54), ("U(3,3)", 111)])
def test_each_distinct_centralizer_is_closed_once(monkeypatch, desc, closures):
    # a cold expansion closes one Schreier closure per distinct non-central
    # centralizer of a state: the classes whose centralizers are equal are
    # answered from the first one's closure
    G = fresh_build(desc)
    count = count_closures(monkeypatch)
    bm = build_branching(G)
    closed = count[0]
    distinct = set()
    for st in bm.states:
        H = G.subgroup(st.key, validate=False)
        if not st.abelian:
            distinct.update((H, centralizer(H, c.rep))
                            for c in conjugacy_classes(H).classes)
    assert closed == closures
    assert closed == sum(1 for H, Z in distinct if Z is not H)


FAST_PATH_GROUPS = SMALL_GROUPS + (
    "GL(3,2)", "U(3,2)", "GL(2,5)", "PSL(2,7)", "GL(2,4)", "PSL(2,9)",
    "U(2,4)", "U(2,5)", "Sp(2,7)",
)


@pytest.mark.parametrize("desc", FAST_PATH_GROUPS)
def test_centralizer_fast_path_matches_scan(desc):
    # after a cold expansion, on every state: each class representative's
    # centralizer, closed or stored for an element of a closed one's
    # center, against a scan of the state; and each proper state's abelian
    # flag, which its closure set, against all pairs.  An abelian proper
    # state was never walked for generators
    G = fresh_build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        for c in conjugacy_classes(H).classes:
            assert centralizer(H, c.rep).key == scan_centralizer(H, c.rep), \
                (desc, st.key, c.rep)
        if H is not G.full():
            assert is_abelian(H) == (scan_center(H) == H.key), (desc, st.key)
            assert (H._gens is None) == st.abelian, (desc, st.key)


def _walk_with_wrong_flag(G):
    """The generator walks of two subgroups of S(4) whose abelian flag was
    set wrong before their first walk: C(x) of a double transposition, a
    dihedral group of order 8, flagged abelian, and C(x) of a
    transposition, of order 4, flagged not abelian."""
    for perm, wrong in (((1, 0, 3, 2), True), ((1, 0, 2, 3), False)):
        x = G.id_of(perm)
        H = G.subgroup([h for h in range(G.order)
                        if G.mul(h, x) == G.mul(x, h)], validate=False)
        H._abelian = wrong
        yield H


def test_generator_walk_rejects_a_contradicting_flag():
    # a flag set before the walk, as a centralizer's closure sets it, must
    # agree with the walk's, in either direction
    for H in _walk_with_wrong_flag(fresh_build("S(4)")):
        with pytest.raises(InternalError, match="abelian"):
            generating_ids(H)


def test_generator_walk_rejects_a_contradicting_flag_under_optimize():
    # the same failures in a python -O interpreter, where an assert would
    # be stripped
    script = (
        "from commprob import catalog, groups\n"
        "from commprob.errors import InternalError\n"
        "G = catalog.build('S(4)')\n"
        "for perm, wrong in (((1, 0, 3, 2), True), ((1, 0, 2, 3), False)):\n"
        "    x = G.id_of(perm)\n"
        "    H = G.subgroup([h for h in range(G.order)\n"
        "                    if G.mul(h, x) == G.mul(x, h)], validate=False)\n"
        "    H._abelian = wrong\n"
        "    try:\n"
        "        groups.generating_ids(H)\n"
        "    except InternalError as exc:\n"
        "        print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert all(line.startswith("InternalError") for line in lines), proc.stdout


def test_abelian_subgroup_builds_no_action():
    G = fresh_build("S(4)")
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        cd = conjugacy_classes(H)
        z_classes(H)
        for c in cd.classes:
            assert centralizer(H, c.rep).key == scan_centralizer(H, c.rep)
        built = H._action is not None
        assert built == (not st.abelian), st.key


def test_class_reps_are_minimal_ids():
    G = build("S(4)")
    for c in conjugacy_classes(G.full()).classes:
        assert c.rep == min(c.members)


# -- centralizers, center, derived series --

def test_centralizer_identity_is_whole_group():
    G = s3()
    assert centralizer(G.full(), 0).order == 6


def test_centralizer_abelian():
    G = build("C(6)")
    for x in range(6):
        assert centralizer(G.full(), x).order == 6


def test_centralizer_transposition_s3():
    G = s3()
    t = G.id_of((1, 0, 2))
    assert centralizer(G.full(), t).order == 2


def test_centralizer_rejects_non_member():
    G = s3()
    H = G.subgroup([0], validate=False)
    with pytest.raises(InputError):
        centralizer(H, 1)


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)"])
def test_membership_on_every_state(desc):
    # on every branching state, against the key as a set, for every id of
    # G as an int and as an Element, and just outside the key's range
    G = build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        members = set(H.key)
        for x in range(G.order):
            assert (x in H) == (x in members) == (G.element(x) in H), \
                (desc, st.key, x)
            if x not in members:
                with pytest.raises(InputError):
                    centralizer(H, x)
                with pytest.raises(InputError):
                    element_order(H, G.element(x))
        for x in (H.key[0] - 1, H.key[-1] + 1, G.order):
            assert x not in H, (desc, st.key, x)


def test_centralizer_matches_scan_on_catalog_states():
    # every state of every small branching matrix, at each class
    # representative and one other member of each class
    for desc in SMALL_GROUPS:
        G = build(desc)
        for st in build_branching(G).states:
            H = G.subgroup(st.key, validate=False)
            for c in conjugacy_classes(H).classes:
                for x in {c.rep, c.members[-1]}:
                    Z = centralizer(H, x)
                    assert Z.key == scan_centralizer(H, x), (desc, st.key, x)
                    assert Z is G.subgroup(Z.key, validate=False)
                    assert Z.order * c.size == H.order, (desc, st.key, x)


def test_centralizer_of_central_element_is_the_subgroup_itself():
    H = build("Q8").full()
    for c in conjugacy_classes(H).classes:
        if c.size == 1:
            assert centralizer(H, c.rep) is H


def test_centralizer_order_check_raises():
    # generators of a proper subgroup make the Schreier closure fall short
    # of |H| / |x^H|, which must raise even under python -O
    G = fresh_build("S(4)")
    H = G.full()
    gens = generating_ids(H)
    x = next(y for y in H.key if G.conj(gens[0], y) != y)
    # the first generator alone, with its right multiplication map
    H._gens, H._right = gens[:1], H._right[:1]
    with pytest.raises(InternalError):
        centralizer(H, x)


def test_centralizer_order_check_raises_under_optimize():
    # the same failure as above in a python -O interpreter, where an
    # assert would be stripped
    script = (
        "from commprob import catalog, groups\n"
        "from commprob.errors import InternalError\n"
        "G = catalog.build('S(4)')\n"
        "H = G.full()\n"
        "gens = groups.generating_ids(H)\n"
        "x = next(y for y in H.key if G.conj(gens[0], y) != y)\n"
        "H._gens, H._right = gens[:1], H._right[:1]\n"
        "try:\n"
        "    groups.centralizer(H, x)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InternalError"), proc.stdout


def test_center_q8():
    assert center(build("Q8").full()).order == 2


def test_center_and_derived_subgroup_match_references():
    # the fixed points of the action and the normal closure through it,
    # against a scan of all pairs and the closure of the commutators of
    # members with a generating set
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        H = build(desc).full()
        assert center(H).key == scan_center(H), desc
        assert commutator_subgroup(H).key == commutator_closure(H), desc
    for H in proper_states(PROPER_STATE_GROUPS):
        assert center(H).key == scan_center(H), (H.group, H.key)
        assert commutator_subgroup(H).key == commutator_closure(H), \
            (H.group, H.key)


def test_commutator_reference_matches_all_pairs():
    # the commutators of members with a generating set close to the
    # same subgroup as the commutators of all pairs
    for desc in SMALL_GROUPS:
        G = build(desc)
        for st in build_branching(G).states:
            H = G.subgroup(st.key, validate=False)
            assert commutator_closure(H) == pair_commutator_closure(H), \
                (desc, st.key)


def test_derived_series_s3():
    G = s3()
    series = derived_series(G.full())
    assert [H.order for H in series] == [6, 3, 1]
    assert derived_length(G.full()) == 2


def test_a5_is_perfect():
    G = build("A(5)")
    assert commutator_subgroup(G.full()).order == 60
    assert derived_length(G.full()) is None
    assert not is_solvable(G.full())


def test_derived_length_abelian():
    assert derived_length(build("C(6)").full()) == 1
    assert derived_length(build("C(1)").full()) == 0


def test_derived_length_q8_d4():
    assert derived_length(build("Q8").full()) == 2
    assert derived_length(build("D(4)").full()) == 2


def test_generating_ids_small():
    G = build("CxC(2,2,2)")
    gens = generating_ids(G.full())
    assert len(gens) == 3  # at most log2 |G|, and exactly 3 here


# -- generating sets of the conjugation action --

GENSET_GROUPS = SMALL_GROUPS + ("GL(3,2)", "U(3,2)", "GL(3,3)", "U(3,3)")


def action_generators(G):
    """(state key, generating set) for every non-abelian state of G's
    branching matrix: the set its conjugation action is built from."""
    out = []
    for st in build_branching(G).states:
        if not st.abelian:
            H = G.subgroup(st.key, validate=False)
            out.append((st.key, generating_ids(H)))
    return out


@pytest.fixture(scope="module")
def greedy():
    """Per group of GENSET_GROUPS, a fresh build whose generating sets
    are all greedy: its branching matrix, its ``state_data`` and its
    generating sets by state key."""
    out = {}
    with pytest.MonkeyPatch.context() as m:
        greedy_action_generators(m)
        for desc in GENSET_GROUPS:
            R = fresh_build(desc)
            out[desc] = (build_branching(R), state_data(R),
                         dict(action_generators(R)))
    return out


def test_action_generators_generate_each_state(greedy):
    kept_greedy = 0
    for desc in GENSET_GROUPS:
        G = build(desc)
        greedy_gens = greedy[desc][2]
        for key, gens in action_generators(G):
            H = G.subgroup(key, validate=False)
            assert bfs_generated(G, gens) == key, (desc, len(key))
            assert len(gens) <= len(greedy_gens[key]), (desc, len(key))
            assert len(groups._conjugation_action(H)) == len(gens)
            kept_greedy += len(gens) > 2
    # the search gives up on some state and keeps its greedy set
    assert kept_greedy > 0


@pytest.mark.parametrize("desc", ["GL(3,3)", "U(3,3)"])
def test_root_action_has_two_generators(desc, greedy):
    root = build(desc).full()
    assert len(greedy[desc][2][root.key]) > 2
    assert len(generating_ids(root)) == 2
    assert len(groups._conjugation_action(root)) == 2


def test_generating_pair_falls_back_to_greedy():
    # D(4) x C(2) is not generated by two elements
    G = Group.from_permutation_generators(
        6, [(1, 2, 3, 0, 4, 5), (2, 1, 0, 3, 4, 5), (0, 1, 2, 3, 5, 4)])
    H = G.full()
    assert G.order == 16 and not is_abelian(H)
    assert groups._generating_pair(H) is None
    assert len(generating_ids(H)) == 3
    assert len(groups._conjugation_action(H)) == 3


def test_dimino_closure_keeps_the_group_data():
    # the closure holds the group's own element tuples, not fresh products
    G = build("GL(3,2)")
    data = G._data
    closure = {0: data[0]}
    gens = []
    for g in generating_ids(G.full()):
        groups._dimino_add(G, closure, gens, data[g])
    assert len(closure) == G.order
    assert all(v is data[i] for i, v in closure.items())


def test_action_generators_ignore_the_hash_seed():
    script = (
        "import hashlib, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from test_groups import GENSET_GROUPS, action_generators\n"
        "from commprob.catalog import build\n"
        "out = [(d, action_generators(build(d))) for d in GENSET_GROUPS]\n"
        "print(hashlib.sha256(repr(out).encode()).hexdigest())\n"
    )
    here = [(d, action_generators(build(d))) for d in GENSET_GROUPS]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == hashlib.sha256(repr(here).encode()).hexdigest()


def state_data(G):
    """Per state of G's branching matrix: its key, class data, class_of,
    the class representatives' centralizer keys, z-classes, and the keys
    of its center and derived subgroup."""
    out = []
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        cd = conjugacy_classes(H)
        out.append((st.key, cd.classes, cd.class_of,
                    [centralizer(H, c.rep).key for c in cd.classes],
                    z_classes(H), center(H).key, commutator_subgroup(H).key))
    return out


def test_two_generator_action_matches_greedy_action(greedy):
    # everything the action feeds equals a run on a fresh copy whose
    # generating sets, and so actions, are the greedy ones
    for desc in GENSET_GROUPS:
        G = build(desc)
        bm = build_branching(G)
        ref, want, _ = greedy[desc]
        assert bm == ref, desc
        assert lump(bm) == lump(ref), desc
        assert state_data(G) == want, desc


# -- z-classes --

def test_z_classes_abelian_single_block():
    blocks = z_classes(build("C(6)").full())
    assert len(blocks) == 1


def test_z_classes_s3():
    assert len(z_classes(s3().full())) == 3


def test_z_classes_gl23():
    # central pair of classes, Jordan pair, one split and one non-split
    # torus type merge into 4 z-classes, strictly fewer than k = 8
    blocks = z_classes(build("GL(2,3)").full())
    k = conjugacy_classes(build("GL(2,3)").full()).k
    assert k == 8
    assert len(blocks) < k
    assert len(blocks) == 4
