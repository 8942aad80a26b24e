import array
import bisect
import hashlib
import operator
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
    count_carried_states,
    count_products,
    count_transports,
    expansion_record,
    fresh_build,
    greedy_action_generators,
    mul_z_classes,
    pair_commutator_closure,
    scan_center,
    scan_centralizer,
    schoolbook_mat_mul,
    slow_expansion_record,
    traced_peak,
)

from commprob import formulas, groups
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

def test_permutation_products_match_composition():
    # mul_data reads a b as itemgetter(*b)(a); against the composition
    # (a[b[0]], ..., a[b[n-1]]) it replaced, on every pair of elements of
    # every permutation group of SMALL_GROUPS and of the default grid
    descs = set(SMALL_GROUPS).union(*(d for d, _ in formulas._jobs("default")))
    degrees = set()
    for desc in sorted(descs):
        G = build(desc)
        if G.kind != "perm":
            continue
        data = G._data
        idx = range(len(data[0]))
        degrees.add(len(idx))
        for a in data:
            for b in data:
                assert G._mul_data(a, b) == tuple(a[b[i]] for i in idx), \
                    (desc, a, b)
    assert 1 in degrees and max(degrees) == 30
    # degrees 0 and 1, where itemgetter is not used
    for n in (0, 1):
        mul_data, _, right = groups._perm_ops(n)
        e = tuple(range(n))
        assert mul_data(e, e) == e == right(e)(e)


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


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_table_multiplier_matches_schoolbook(p, k, d):
    # right(S) reads Y S row by row from S's table, singular S and Y too
    fld = field(p, k)
    ops = matrix_operations(fld, d)
    rng = random.Random(3000 * d + fld.q)

    def rand():
        return tuple(rng.randrange(fld.q) for _ in range(d * d))

    for S in [ops.identity, (0,) * (d * d)] + [rand() for _ in range(20)]:
        times = ops.right(S)
        for Y in [S, ops.identity] + [rand() for _ in range(20)]:
            assert times(Y) == schoolbook_mat_mul(fld, d, Y, S), (Y, S)


@pytest.mark.parametrize("desc", SMALL_GROUPS)
def test_right_multipliers_match_products_on_small_groups(desc):
    # every y s, through the group's own multipliers and, for a matrix
    # group, through row tables, which a group of order below q^d skips
    G = build(desc)
    factories = [G._right]
    if G.kind == "matrix":
        factories.append(matrix_operations(G.field, G.dim).right)
    data = G._data
    for right in factories:
        for s in data:
            times = right(s)
            assert [times(y) for y in data] == [G._mul_data(y, s)
                                                for y in data], (desc, s)


@pytest.mark.parametrize("desc", ["GL(3,2)", "U(3,2)", "GL(2,7)", "U(2,7)",
                                  "Sp(2,9)", "PSL(2,9)", "SL(3,3)",
                                  "GL(3,3)", "U(3,3)"])
def test_right_multipliers_match_products_on_walk_generators(desc):
    # every y s for each generator s of the walk that built the group
    G = build(desc)
    data = G._data
    for g in generating_ids(G.full()):
        s = data[g]
        times = G._right(s)
        assert [times(y) for y in data] == [G._mul_data(y, s) for y in data]


def test_only_groups_of_order_q_to_the_d_plus_64_fill_row_tables(monkeypatch):
    # a table has q^d rows: Q8 (8 < 3^2 + 64), GL(1,7), GL(2,3) (48 < 73)
    # and U(2,3) (96 < 9^2 + 64) multiply matrix by matrix; GL(2,4)
    # (180 >= 80) fills one table per walked generator
    tables = []
    row_table = groups._row_table

    def counted(add, mul, S, d):
        tables.append(S)
        return row_table(add, mul, S, d)

    monkeypatch.setattr(groups, "_row_table", counted)
    for desc in ("Q8", "GL(1,7)", "GL(2,3)", "U(2,3)"):
        fresh_build(desc)
        assert tables == [], desc
    G = fresh_build("GL(2,4)")
    assert tables == [G.data_of(g) for g in generating_ids(G.full())]


def corrupt_square(row_table):
    """``groups._row_table`` with one entry off by one: the row v S for v
    the last row of S, which forms the last row of S S."""
    def corrupted(add, mul, S, d):
        table = row_table(add, mul, S, d)
        *path, last = S[-d:]
        rows = table
        for a in path:
            rows = rows[a]
        row = rows[last]
        rows[last] = ((row[0] + 1) % len(mul),) + row[1:]
        return table
    return corrupted


def test_a_corrupted_row_table_fails_the_square_check(monkeypatch):
    monkeypatch.setattr(groups, "_row_table", corrupt_square(groups._row_table))
    ops = matrix_operations(field(3), 2)
    with pytest.raises(InternalError, match=r"the row table of \(1, 1, 0, 1\) "
                       r"over GF\(3\) gives a wrong square"):
        ops.right((1, 1, 0, 1))
    with pytest.raises(InternalError, match="gives a wrong square"):
        fresh_build("GL(3,3)")


def test_a_corrupted_row_table_fails_under_optimize():
    # the same corruption while GL(3,2) is built, in a python -O interpreter
    script = (
        "from commprob import catalog, groups\n"
        "from commprob.errors import InternalError\n"
        "print('debug', __debug__)\n"
        "row_table = groups._row_table\n"
        "def corrupted(add, mul, S, d):\n"
        "    table = row_table(add, mul, S, d)\n"
        "    a, b, c = S[-3:]\n"
        "    row = table[a][b][c]\n"
        "    table[a][b][c] = ((row[0] + 1) % len(mul),) + row[1:]\n"
        "    return table\n"
        "groups._row_table = corrupted\n"
        "try:\n"
        "    catalog.build('GL(3,2)')\n"
        "except InternalError as exc:\n"
        "    print('InternalError', str(exc).endswith("
        "'over GF(2) gives a wrong square'))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "InternalError True"], \
        proc.stdout


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

    def counted(points, where, right, gens=()):
        walks.append((len(points), tuple(gens)))
        return walk(points, where, right, gens)

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
# generates before the pair that generates the whole group; GL(2,5)'s
# pairs that generate subgroups of order 48 and 120 (SL(2,5)) are
# rejected by their determinants with no walk
FAILED_PAIR_PRODUCTS = {"GL(2,5)": 2 * 32, "PSL(2,9)": 2 * (60 + 6)}


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
    # on every branching state, the walk by the generating set's positions
    # maps each position in H.key to the position of its product with
    # generator i
    G = fresh_build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        gens = generating_ids(H)
        points, where = groups._points(H)
        positions = tuple(H.key.index(g) for g in gens)
        _, maps = groups._right_walk(points, where, groups._right_of(H),
                                     positions)
        assert len(maps) == len(gens)
        for g, right in zip(gens, maps):
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


def replayed_class(perms, reached, root):
    """The class tree kept in ``reached`` replayed from ``root`` as the
    centralizer closure replays it: point by point in the orbit list and
    permutation by permutation, an edge to z extends the list exactly
    when z is not the root and its mark names that permutation."""
    orbit = [root]
    for p in orbit:
        for s, perm in enumerate(perms):
            z = perm[p]
            if z != root and reached[z] == s + 1:
                orbit.append(z)
    return orbit


@pytest.mark.parametrize("desc", ["S(4)", "GL(2,3)"])
def test_orbit_tree_on_every_state(monkeypatch, desc):
    # the class tree that conjugacy_classes keeps, on every state of a
    # second fresh group, where no state is carried from a conjugate and
    # the points are positions in H.key, not ids: each non-root point's
    # parent comes before it in growth order, and the replay from the
    # root lists the whole orbit in that order
    G = fresh_build(desc)
    T = fresh_build(desc)
    for st in build_branching(G).states:
        H = T.subgroup(st.key, validate=False)
        cd = conjugacy_classes(H)
        if st.abelian:
            assert cd.reached is None, (desc, st.key)
            continue
        perms = groups._conjugation_action(H)
        inverse = groups._inverse_action(H)
        reached = cd.reached
        for c in cd.classes:
            root = bisect.bisect_left(H.key, c.rep)
            seen = bytearray(len(H.key))
            seen[root] = 1
            grown = [root]
            groups._grow_orbit(grown, perms, seen)
            assert all(seen[p] == reached[p] for p in grown[1:])
            order = {p: i for i, p in enumerate(grown)}
            for p in grown[1:]:
                s = reached[p] - 1
                parent = inverse[s][p]
                assert perms[s][parent] == p, (desc, st.key, p)
                assert order[parent] < order[p], (desc, st.key, p)
            orbit = replayed_class(perms, reached, root)
            assert orbit == grown, (desc, st.key, c.rep)
            assert set(orbit) == brute_orbit(perms, root), (desc, st.key)
            assert sorted(map(H.key.__getitem__, orbit)) == list(c.members)
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


@pytest.mark.parametrize("desc", SMALL_GROUPS + ("GL(3,2)", "U(3,2)",
                                                 "GL(3,3)", "U(3,3)"))
def test_flat_class_orbits_match_bfs_reference(desc):
    # on a fresh group every non-abelian state's classes are grown by the
    # flat loop over the integer action and equal the classes of the
    # product BFS
    keys = [st.key for st in build_branching(build(desc)).states
            if not st.abelian]
    G = fresh_build(desc)
    for key in keys:
        H = G.subgroup(key, validate=False)
        cd = conjugacy_classes(H)
        classes, class_of = bfs_classes(H)
        assert [(c.rep, c.size, c.members) for c in cd.classes] == classes, \
            (desc, key)
        assert cd.class_of == class_of, (desc, key)


def test_class_tables_are_flat_and_indexed_by_position():
    # every state's class table is indexed by position in its key: an
    # array('i') for a non-abelian state, its positions for an abelian
    # one.  The id -> class view iterates in key order, raises KeyError
    # off the state, and equals the dict read from the classes
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        G = build(desc)
        for st in build_branching(G).states:
            H = G.subgroup(st.key, validate=False)
            cd = conjugacy_classes(H)
            if st.abelian:
                assert cd.table == range(len(H.key)), (desc, st.key)
            else:
                assert isinstance(cd.table, array.array), (desc, st.key)
                assert cd.table.typecode == "i"
                assert len(cd.table) == len(H.key), (desc, st.key)
            view = cd.class_of
            assert list(view) == list(H.key), (desc, st.key)
            assert view == {m: i for i, c in enumerate(cd.classes)
                            for m in c.members}, (desc, st.key)
            outside = [g for g in range(G.order) if g not in H][:3]
            for g in outside + [-1, G.order, "x"]:
                assert g not in view
                with pytest.raises(KeyError):
                    view[g]


def test_one_set_of_id_objects_per_group():
    # the whole group's key, the values of the id map and the inverse
    # table hold the same int objects, not copies of equal value
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)", "GL(2,5)"):
        G = fresh_build(desc)
        key = G.full().key
        assert all(map(operator.is_, key, G._ids.values())), desc
        assert all(map(operator.is_, map(key.__getitem__, G._inv), G._inv)), \
            desc


def test_cold_branching_traced_peak():
    # a cold GL(3,3) build and branching expansion peaks at 2,980,826
    # traced bytes on CPython 3.11 with flat class tables and one set of
    # id objects (3,939,441 with an id -> class dict per state and a
    # second set of ints for the whole group's key); bound: that + 10 %
    peak = traced_peak(lambda: build_branching(fresh_build("GL(3,3)")))
    assert peak <= 3_279_000, peak


def test_a_matrix_build_holds_one_element_list():
    # the builder's list of matrices becomes the group's element list,
    # the identity moved to the front in place, so a cold U(3,3) build
    # peaks at 6,137,868 traced bytes on CPython 3.11, where a second
    # list of its 24,192 matrices made it 6,332,548; bound: halfway
    peak = traced_peak(lambda: fresh_build("U(3,3)"))
    assert peak <= 6_235_000, peak
    S = build("SL(2,3)")
    mats = [S.data_of(i) for i in reversed(range(S.order))]
    G = Group.from_matrix_list(S.field, 2, mats)
    assert G._data is mats
    assert mats == [S.data_of(i) for i in [0] + list(range(S.order - 1, 0, -1))]


def test_conjugation_action_matches_conj_on_catalog_states():
    # each permutation is y -> s^-1 y s for its generator s, as G.conj
    # computes it with 2 products.  Abelian states are skipped: a proper
    # one is never walked for generators, so it has no action
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        G = build(desc)
        for st in build_branching(G).states:
            if st.abelian:
                continue
            H = G.subgroup(st.key, validate=False)
            key = H.key
            action = groups._conjugation_action(H)
            for s, perm in zip(generating_ids(H), action):
                assert [key[y] for y in perm] == \
                    [G.conj(G.inv(s), h) for h in key], (desc, st.key, s)


def test_generating_set_is_stored_after_the_flag_and_the_action(monkeypatch):
    # a thread that sees a subgroup's generating set must also see its
    # abelian flag and conjugation action: the slot's stores are recorded
    # through a descriptor that wraps it
    slot = groups.Subgroup._gens
    stores = []

    class Recorded:
        def __get__(self, obj, owner=None):
            return self if obj is None else slot.__get__(obj, owner)

        def __set__(self, obj, value):
            if value is not None:
                stores.append((obj._abelian is not None,
                               obj._action is not None))
            slot.__set__(obj, value)

    monkeypatch.setattr(groups.Subgroup, "_gens", Recorded())
    build_branching(fresh_build("S(4)"))
    assert stores and all(s == (True, True) for s in stores), stores


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
    "GL(3,2)": 145, "U(3,2)": 903, "GL(3,3)": 1810, "U(3,3)": 3501,
}


@pytest.mark.parametrize("desc", BRANCHING_PRODUCTS)
def test_branching_work_count(monkeypatch, desc):
    # each conjugation orbit is paid for once, by the integer action, and
    # each distinct centralizer is closed once, from the part of the class
    # its closure needs, or carried from a conjugate with no product but
    # the check of its generators; a state carried from a conjugate state
    # grows no orbit and closes nothing
    G = fresh_build(desc)
    products = count_products(monkeypatch, G)
    build_branching(G)
    assert products[0] <= BRANCHING_PRODUCTS[desc], products[0]


# (closures, transports, carried states) of a cold expansion, as measured
CENTRALIZER_WORK = {"GL(3,3)": (14, 28, 16), "U(3,3)": (13, 41, 61)}


@pytest.mark.parametrize("desc, distinct", [("GL(3,3)", 54), ("U(3,3)", 111)])
def test_each_distinct_centralizer_is_closed_once(monkeypatch, desc, distinct):
    # a cold expansion pays once per distinct non-central centralizer it
    # finds in a subgroup: it closes one Schreier closure per z-class
    # block, whose equal centralizers answer the other classes of the
    # block, carries each other centralizer from a conjugate kept for its
    # class, and carries every centralizer of a state carried from a
    # conjugate state from that state's.  ``distinct`` counts those of
    # the class representatives of the states; a carried state's
    # representative may have a preimage that is not a representative,
    # whose centralizer its state finds too
    G = fresh_build(desc)
    closures = count_closures(monkeypatch)
    transports = count_transports(monkeypatch)
    carried = count_carried_states(monkeypatch)
    bm = build_branching(G)
    work = (closures[0], transports[0], carried[0])
    pairs = set()
    for st in bm.states:
        H = G.subgroup(st.key, validate=False)
        if not st.abelian:
            pairs.update((H, centralizer(H, c.rep))
                         for c in conjugacy_classes(H).classes)
    found = {(H, Z) for H in G._subgroups.values()
             for Z in H._centralizers.values() if Z is not H}
    assert work == CENTRALIZER_WORK[desc]
    assert sum(work) == len(found)
    assert distinct == sum(1 for H, Z in pairs if Z is not H)
    assert {(H, Z) for H, Z in pairs if Z is not H} <= found


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


@pytest.mark.parametrize("desc", FAST_PATH_GROUPS + ("GL(3,3)", "U(3,3)"))
def test_transported_centralizers_match_closed_ones(monkeypatch, desc):
    # the expansion that carries centralizers along their classes against
    # the same expansion with the per-class lookup off, so that every
    # centralizer is closed: the same matrix, and on every state the same
    # centralizer of each class representative.  Each carried generating
    # set generates its subgroup, and each carried permutation is the
    # conjugation by its generator, recomputed with products
    with monkeypatch.context() as m:
        m.setattr(groups, "_centralized_member", lambda H, ci: None)
        R = fresh_build(desc)
        closed = build_branching(R)
        closed_reps = {
            st.key: [centralizer(H, c.rep).key
                     for c in conjugacy_classes(H).classes]
            for st in closed.states
            for H in [R.subgroup(st.key, validate=False)]}
    carried = []
    transport = groups._transport

    def recorded(*args):
        carried.append(transport(*args))
        return carried[-1]

    monkeypatch.setattr(groups, "_transport", recorded)
    G = fresh_build(desc)
    bm = build_branching(G)
    assert bm == closed
    assert [st.key for st in bm.states] == [st.key for st in closed.states]
    for st in bm.states:
        H = G.subgroup(st.key, validate=False)
        assert [centralizer(H, c.rep).key
                for c in conjugacy_classes(H).classes] == closed_reps[st.key]
    for Z in carried:
        assert Z._abelian is not None, (desc, Z.key)
        if Z._gens is None:
            assert Z._abelian, (desc, Z.key)
            continue
        points, where = groups._points(Z)
        positions = tuple(bisect.bisect_left(Z.key, g) for g in Z._gens)
        assert groups._right_walk(points, where, groups._right_of(Z),
                                  positions) is not None, (desc, Z.key)
        assert len(Z._action) == len(Z._gens)
        for g, perm in zip(Z._gens, Z._action):
            gi = G.inv(g)
            assert [Z.key[p] for p in perm] == [
                G.mul(G.mul(gi, y), g) for y in Z.key], (desc, Z.key, g)


# every group of SMALL_GROUPS, of both verify grids and of
# FAST_PATH_GROUPS, and the two largest the tests branch
CARRY_GROUPS = tuple(sorted(set(FAST_PATH_GROUPS).union(
    ("GL(3,3)", "U(3,3)"),
    *(descs for grid in formulas.GRIDS for descs, _ in formulas._jobs(grid)))))

# the non-abelian states carried from a conjugate state, as measured
CARRIED_STATES = {"U(3,2)": 3, "GL(3,3)": 2, "U(3,3)": 6}


@pytest.mark.parametrize("desc", CARRY_GROUPS)
def test_carried_states_match_the_slow_path(desc):
    # the expansion that carries states from their conjugates against
    # the same expansion with the seam patched off, so that every state
    # grows its own classes and finds its own centralizers: the same
    # matrix and state keys, the same classes and class tables on every
    # state, the same centralizer of every class representative, and the
    # same Lescot values.  A carried state's map is a bijection from its
    # conjugate onto it, its classes keep no tree, its carried generating
    # set generates it, and each carried permutation is the conjugation
    # by its generator, recomputed with products
    slow = slow_expansion_record(lambda: fresh_build(desc))
    G = fresh_build(desc)
    assert expansion_record(G) == slow
    states = {st.key for st in build_branching(G).states}
    carried = [H for H in G._subgroups.values() if H._carried is not None]
    assert sum(H.key in states for H in carried) == CARRIED_STATES.get(desc, 0)
    for H in carried:
        K, moved = H._carried
        assert K is not H and not is_abelian(H)
        assert len(moved) == len(K.key) and sorted(moved) == list(H.key)
        if H._classes is not None:
            assert H._classes.reached is None
        points, where = groups._points(H)
        positions = tuple(bisect.bisect_left(H.key, g) for g in H._gens)
        assert groups._right_walk(points, where, groups._right_of(H),
                                  positions) is not None, (desc, H.key)
        for g, perm in zip(H._gens, H._action):
            gi = G.inv(g)
            assert [H.key[p] for p in perm] == [
                G.mul(G.mul(gi, y), g) for y in H.key], (desc, H.key, g)


def _carried_state(desc):
    """A fresh build's first branching state carried from a conjugate,
    after the expansion, with its conjugate and its map."""
    G = fresh_build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        if H._carried is not None:
            return (H,) + H._carried
    raise AssertionError(f"{desc} has no carried state")


def test_a_corrupted_carry_map_raises():
    # a map with one image twice and another never: the carried classes
    # do not partition the state
    H, K, moved = _carried_state("U(3,2)")
    H._classes = None
    H._carried = (K, moved[:-1] + moved[:1])
    with pytest.raises(InternalError, match="do not partition"):
        conjugacy_classes(H)
    # a member of a representative's carried centralizer sent onto the
    # representative itself: the image of that centralizer is short of
    # its order
    H, K, moved = _carried_state("U(3,2)")
    cd = conjugacy_classes(H)
    failed = 0
    for c in cd.classes:
        i = moved.index(c.rep)
        W = centralizer(K, K.key[i])
        later = [p for p in map(K.key.index, W.key) if p > i]
        if c.size == 1 or not later:
            continue
        H._centralizers = {}
        H._carried = (K, list(moved))
        H._carried[1][later[0]] = c.rep
        with pytest.raises(InternalError, match="has order"):
            centralizer(H, c.rep)
        failed += 1
    assert failed


def test_a_corrupted_carry_map_raises_under_optimize():
    # the same failure in a python -O interpreter, where an assert would
    # be stripped
    script = (
        "from commprob import catalog, groups, branching\n"
        "from commprob.errors import InternalError\n"
        "G = catalog.build('U(3,2)')\n"
        "H = next(H for H in (G.subgroup(st.key, validate=False)\n"
        "                     for st in branching.build_branching(G).states)\n"
        "         if H._carried is not None)\n"
        "K, moved = H._carried\n"
        "H._classes = None\n"
        "H._carried = (K, moved[:-1] + moved[:1])\n"
        "try:\n"
        "    groups.conjugacy_classes(H)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("InternalError"), proc.stdout


def test_racing_threads_keep_each_set_with_its_own_action():
    # threads that walk a subgroup for generators and carry it from a
    # conjugate at once may find it different sets; the first set kept
    # stays with its own action.  Every kept action is checked against
    # the conjugations by its set, recomputed with products
    rounds = [fresh_build("S(5)") for _ in range(6)]
    barrier = threading.Barrier(4, timeout=10)
    errors = []

    def expand(G):
        H = G.full()
        for c in conjugacy_classes(H).classes:
            for x in c.members:
                Z = centralizer(H, x)
                generating_ids(Z)
                conjugacy_classes(Z)

    def run():
        try:
            for G in rounds:
                barrier.wait()
                expand(G)
        except Exception as exc:  # reported below, with its type
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors
    for G in rounds:
        kept = [H for H in G._subgroups.values() if H._gens is not None]
        assert len(kept) > 1
        for H in kept:
            assert len(H._action) == len(H._gens)
            for g, perm in zip(H._gens, H._action):
                gi = G.inv(g)
                assert [H.key[p] for p in perm] == [
                    G.mul(G.mul(gi, y), g) for y in H.key], (H.key, g)


def _class_with_a_kept_conjugate(desc, size):
    """A fresh build's whole group H, after one closure, and the members
    of its first class of ``size`` elements whose centralizers are not
    kept yet, although another member's is: each of them is carried
    from that one."""
    G = fresh_build(desc)
    H = G.full()
    c = next(c for c in conjugacy_classes(H).classes if c.size == size)
    centralizer(H, c.rep)
    others = [y for y in c.members if y not in H._centralizers]
    assert others and groups._centralized_member(H, H._classes.class_of[c.rep])
    return H, others


@pytest.mark.parametrize("desc", ["S(5)", "GL(2,3)"])
def test_a_member_off_the_root_is_carried_from_its_representative(
        monkeypatch, desc):
    # with no kept member to carry from, the centralizer of a member x
    # other than its class representative closes Z(rep) at the class
    # tree's root and keeps it; Z(x) is then Z(rep) itself, kept in
    # passing, or carried from it by one transport
    monkeypatch.setattr(groups, "_centralized_member", lambda H, ci: None)
    full = build(desc).full()
    cases = set()
    for c in conjugacy_classes(full).classes:
        rep_set = scan_centralizer(full, c.rep)
        for same in (False, True):
            x = next((x for x in c.members[1:]
                      if (scan_centralizer(full, x) == rep_set) == same), None)
            if x is None:
                continue
            cases.add(same)
            H = fresh_build(desc).full()
            with monkeypatch.context() as m:
                closures = count_closures(m)
                transports = count_transports(m)
                Z = centralizer(H, x)
            assert (closures[0], transports[0]) == (1, int(not same)), \
                (desc, c.rep, x)
            assert Z.key == scan_centralizer(H, x), (desc, c.rep, x)
            assert H._centralizers[c.rep].key == rep_set, (desc, c.rep)
            assert (H._centralizers[c.rep] is Z) == same, (desc, c.rep, x)
    assert cases == {False, True}, desc


def test_a_corrupted_class_path_raises():
    # the inverse permutations swapped: each step up the class tree leads
    # astray, and no path reaches the representative
    H, others = _class_with_a_kept_conjugate("S(4)", 6)
    H._inverse = groups._inverse_action(H)[::-1]
    for x in others:
        with pytest.raises(InternalError, match="no path"):
            centralizer(H, x)
    # the forward permutations in their place: a path that still reaches
    # the representative is a product of conjugations, so it either sends
    # the kept member to x, and carries its exact centralizer, or fails
    # the image check
    H, others = _class_with_a_kept_conjugate("S(5)", 10)
    H._inverse = list(H._action)
    failed = 0
    for x in others:
        try:
            Z = centralizer(H, x)
        except InternalError as exc:
            assert "class path sends" in str(exc) or "no path" in str(exc)
            failed += 1
        else:
            assert Z.key == scan_centralizer(H, x)
    assert failed
    # a closure forms its transversals along the same paths, so each of
    # the other classes either fails a check or closes exactly
    led = 0
    for c in conjugacy_classes(H).classes:
        if c.rep in H._centralizers:
            continue
        try:
            Z = centralizer(H, c.rep)
        except InternalError as exc:
            assert "leads to" in str(exc) or "no path" in str(exc)
            led += "leads to" in str(exc)
        else:
            assert Z.key == scan_centralizer(H, c.rep)
    assert led
    # the class marks wiped to 0: no edge is a tree edge, so each closure
    # replays its root alone, and its few Schreier generators, formed
    # along the paths that mark 0 gives, either fail a check or close
    # the exact centralizer, never a smaller subgroup
    H = fresh_build("GL(2,3)").full()
    cd = conjugacy_classes(H)
    for c in cd.classes:
        for m in c.members[1:]:
            cd.reached[m] = 0
    messages = []
    for c in cd.classes:
        try:
            Z = centralizer(H, c.rep)
        except InternalError as exc:
            messages.append(str(exc))
        else:
            assert Z.key == scan_centralizer(H, c.rep), c.rep
    assert any(m.startswith("Schreier closure reached order")
               for m in messages), messages


def test_a_corrupted_class_path_raises_under_optimize():
    # the same failure in a python -O interpreter, where an assert would
    # be stripped
    script = (
        "from commprob import catalog, groups\n"
        "from commprob.errors import InternalError\n"
        "H = catalog.build('S(4)').full()\n"
        "c = next(c for c in groups.conjugacy_classes(H).classes\n"
        "         if c.size == 6)\n"
        "groups.centralizer(H, c.rep)\n"
        "x = next(y for y in c.members if y not in H._centralizers)\n"
        "H._inverse = groups._inverse_action(H)[::-1]\n"
        "try:\n"
        "    groups.centralizer(H, x)\n"
        "except InternalError as exc:\n"
        "    print('InternalError', exc)\n"
        "H = catalog.build('GL(2,3)').full()\n"
        "G = H.group\n"
        "cd = groups.conjugacy_classes(H)\n"
        "for c in cd.classes:\n"
        "    for m in c.members[1:]:\n"
        "        cd.reached[m] = 0\n"
        "for c in cd.classes:\n"
        "    x = c.rep\n"
        "    scan = tuple(h for h in H.key if G.mul(h, x) == G.mul(x, h))\n"
        "    try:\n"
        "        Z = groups.centralizer(H, x)\n"
        "    except InternalError as exc:\n"
        "        print('InternalError', exc)\n"
        "    else:\n"
        "        print('exact' if Z.key == scan else 'wrong')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, *wiped = proc.stdout.splitlines()
    assert first.startswith("InternalError"), proc.stdout
    assert wiped and all(line == "exact" or line.startswith("InternalError")
                         for line in wiped), proc.stdout
    assert any(line.startswith("InternalError Schreier closure reached order")
               for line in wiped), proc.stdout


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
    # the first generator alone, with its conjugation permutation
    H._gens, H._action = gens[:1], H._action[:1]
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
        "H._gens, H._action = gens[:1], H._action[:1]\n"
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
    assert groups._generating_pair(H, *groups._points(H))[0] is None
    assert len(generating_ids(H)) == 3
    assert len(groups._conjugation_action(H)) == 3


@pytest.mark.parametrize("perms, order", [
    # D(4) x C(2), which no pair generates
    ([(1, 2, 3, 0, 4, 5), (2, 1, 0, 3, 4, 5), (0, 1, 2, 3, 5, 4)], 16),
    # C(6), abelian, so every drawn pair commutes
    ([(1, 2, 0, 4, 3, 5)], 6),
])
def test_a_failed_pair_search_forms_the_points_once(monkeypatch, perms, order):
    # a proper subgroup whose pair search fails walks greedily over the
    # same member list and position map that the search used
    G = build("S(6)")
    H = G.subgroup(bfs_generated(G, [G.id_of(p) for p in perms]),
                   validate=False)
    assert H.order == order and H._gens is None
    calls = []
    points = groups._points

    def counted(K):
        calls.append(K)
        return points(K)

    monkeypatch.setattr(groups, "_points", counted)
    assert groups._generating_pair(H, *points(H))[0] is None
    generating_ids(H)
    assert calls == [H]


def reference_pair(H):
    """The ids of the first non-commuting pair drawn for H whose
    ``_right_walk`` reaches every member, or None: the pair search
    without the determinant test, every such pair walked."""
    key = H.key
    if len(key) < 6:
        return None
    points = [H.group.data_of(h) for h in key]
    where = {y: i for i, y in enumerate(points)}
    mul = H.group._mul_data
    rng = random.Random(groups._PAIR_SEED)
    for _ in range(groups._PAIR_TRIALS):
        a, b = sorted(rng.sample(range(len(key)), 2))
        if mul(points[a], points[b]) == mul(points[b], points[a]):
            continue
        if groups._right_walk(points, where, groups._right_by_mul(mul),
                              (a, b)) is not None:
            return key[a], key[b]
    return None


def found_pair(H):
    found = groups._generating_pair(H, *groups._points(H))[0]
    return found and found[0]


@pytest.mark.parametrize("desc", SMALL_GROUPS + (
    "GL(3,2)", "PSL(2,7)", "GL(2,4)", "GL(2,5)", "U(3,2)", "PSL(2,9)",
    "SL(2,5)", "U(2,4)", "U(2,5)", "Sp(2,7)", "GL(2,7)", "GL(2,9)",
    "GL(3,3)", "U(3,3)"))
def test_determinant_test_keeps_the_generating_pair(desc):
    # a pair rejected by its determinants could not have generated the
    # group, so the pair found is the one the plain search walks to
    assert found_pair(build(desc).full()) == reference_pair(build(desc).full())


@pytest.mark.parametrize("desc", ["GL(2,5)", "U(3,2)"])
def test_determinant_test_keeps_every_state_pair(desc):
    # the same on every subgroup that branching draws pairs for
    G = build(desc)
    for st in build_branching(G).states:
        H = G.subgroup(st.key, validate=False)
        assert found_pair(H) == reference_pair(H), (desc, st.key)


def test_unitary_construction_walks_one_pair(monkeypatch):
    # U(3,3)'s first two non-commuting pairs have determinants of order 1
    # and 2 in the units of order 4 that the drawn determinants generate,
    # so only the third pair is walked
    walks = []
    walk = groups._right_walk

    def counted(points, where, right, gens=()):
        walks.append(tuple(gens))
        return walk(points, where, right, gens)

    monkeypatch.setattr(groups, "_right_walk", counted)
    G = fresh_build("U(3,3)")
    assert len(walks) == 1
    assert generating_ids(G.full()) == tuple(G.full().key[p] for p in walks[0])


def test_unit_order_is_the_lcm_of_the_orders():
    # GF(9)* is cyclic of order 8: against the subgroup grown by products
    fld = field(3, 2)
    mul = fld.mul_table()
    units = range(1, fld.q)
    for u in units:
        for v in units:
            generated = {fld.one_index}
            while True:
                grown = generated | {mul[x][w] for x in generated
                                     for w in (u, v)}
                if grown == generated:
                    break
                generated = grown
            assert groups._unit_order(fld, (u, v)) == len(generated)
    assert groups._unit_order(fld, ()) == 1


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
