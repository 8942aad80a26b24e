import pytest

from conftest import scan_centralizer

from commprob import groups
from commprob.branching import build_branching
from commprob.catalog import SMALL_GROUPS, build
from commprob.errors import InputError, InternalError, SizeCapError
from commprob.gf import field
from commprob.groups import (
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
    z_classes,
)


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
    with pytest.raises(InputError):
        G.subgroup([0, G.id_of((1, 0, 2)), G.id_of((2, 1, 0))])  # not closed
    H = G.subgroup([0, G.id_of((1, 0, 2))])
    assert H.order == 2


def test_subgroup_key_equality():
    G = s3()
    a = G.subgroup([0, 1], validate=False)
    b = G.subgroup([1, 0], validate=False)
    assert a == b and a.key == b.key


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
                    assert Z.order * c.size == H.order, (desc, st.key, x)


def test_centralizer_of_central_element_is_the_subgroup_itself():
    H = build("Q8").full()
    for c in conjugacy_classes(H).classes:
        if c.size == 1:
            assert centralizer(H, c.rep) is H


def test_centralizer_order_check_raises(monkeypatch):
    # generators of a proper subgroup make the Schreier closure fall short
    # of |H| / |x^H|, which must raise even under python -O
    G = build("S(4)")
    H = G.full()
    gens = generating_ids(H)
    x = next(y for y in H.key if G.conj(gens[0], y) != y)
    monkeypatch.setattr(groups, "generating_ids", lambda _H: gens[:1])
    G._cent_cache.clear()
    try:
        with pytest.raises(InternalError):
            centralizer(H, x)
    finally:
        G._cent_cache.clear()


def test_center_q8():
    assert center(build("Q8").full()).order == 2


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
