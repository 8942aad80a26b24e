import hashlib
import threading
import time

import pytest

from commprob import catalog
from commprob.branching import cp2_classcount
from commprob.catalog import (
    SMALL_GROUPS,
    GroupDescriptor,
    build,
    metadata,
    order_formula,
    parse,
)
from commprob.errors import InputError, SizeCapError
from commprob.groups import conjugacy_classes, is_abelian, is_solvable
from conftest import nested_unitary_frames


def test_parse_roundtrip():
    for text in ("GL(2,3)", "CxC(2,4)", "Q8", "PSL(2,7)", "UT(3,5)", "M(3,2)"):
        d = parse(text)
        assert str(d) == text
        assert parse(str(d)) == d


def test_parse_whitespace_insensitive():
    assert parse(" GL ( 2 , 3 ) ") == GroupDescriptor("GL", (2, 3))


def test_parse_errors_carry_position():
    with pytest.raises(InputError, match="position"):
        parse("GL(2,)")
    with pytest.raises(InputError, match="position"):
        parse("GL(2,3")
    with pytest.raises(InputError, match="position"):
        parse("X(5)")


def test_parse_rejects_bad_parameters():
    with pytest.raises(InputError):
        parse("U(4,2)")  # unsupported degree
    with pytest.raises(InputError):
        parse("GL(2,6)")  # not a prime power
    with pytest.raises(InputError):
        parse("UT(3,4)")  # p not prime
    with pytest.raises(InputError):
        parse("C(0)")
    with pytest.raises(InputError):
        parse("Sp(4,3)")
    # one descriptor per rule of the family table
    for text in ("C(0)", "CxC(2,0)", "S(0)", "A(0)", "D(0)", "UT(2,3)",
                 "UT(3,4)", "GL(4,2)", "SL(2,6)", "M(4,2)", "Sp(4,3)",
                 "U(1,2)", "U(4,2)", "PSL(3,2)", "PSL(2,6)"):
        with pytest.raises(InputError):
            parse(text)
    with pytest.raises(InputError):
        order_formula(GroupDescriptor("X", (5,)))


@pytest.mark.parametrize("desc", [
    GroupDescriptor("C", ("a",)),
    GroupDescriptor("GL", (2.0, 3)),
    GroupDescriptor("C", 5),
])
def test_hand_built_descriptor_needs_a_tuple_of_ints(desc):
    with pytest.raises(InputError, match="not a tuple of integers"):
        order_formula(desc)


def test_orders_match_formulas():
    expected = {
        "C(6)": 6,
        "CxC(2,4)": 8,
        "S(4)": 24,
        "A(5)": 60,
        "D(4)": 8,
        "Q8": 8,
        "UT(3,2)": 8,
        "UT(3,3)": 27,
        "GL(2,2)": 6,
        "GL(2,3)": 48,
        "GL(3,2)": 168,
        "SL(2,3)": 24,
        "Sp(2,3)": 24,
        "U(2,2)": 18,
        "U(3,2)": 648,
        "PSL(2,5)": 60,
    }
    for text, order in expected.items():
        assert order_formula(text) == order
        assert build(text).order == order
    # orders of groups that are too large to build, or not built here
    formula_only = {
        "GL(3,5)": 1488000,
        "U(3,4)": 312000,
        "SL(3,4)": 60480,
        "PSL(2,9)": 360,
        "Sp(2,9)": 720,
        "U(2,16)": 69360,
        "UT(3,7)": 343,
        "M(2,3)": 81,
        "S(9)": 362880,
        "A(2)": 1,
    }
    for text, order in formula_only.items():
        assert order_formula(text) == order


def test_u22_order_18():
    assert build("U(2,2)").order == 2 * 3 * 3


def test_gl32_order_168():
    assert build("GL(3,2)").order == 7 * 6 * 4


def test_u32_order_648():
    assert build("U(3,2)").order == 8 * 3 * 3 * 9


def test_psl25_matches_a5_class_sizes():
    psl = sorted(c.size for c in conjugacy_classes(build("PSL(2,5)").full()).classes)
    a5 = sorted(c.size for c in conjugacy_classes(build("A(5)").full()).classes)
    assert psl == a5 == [1, 12, 12, 15, 20]


def test_sp2_equals_sl2_element_sets():
    for q in (2, 3, 5):
        sp = build(f"Sp(2,{q})")
        sl = build(f"SL(2,{q})")
        assert sp._data == sl._data


def test_ut3_2_is_dihedral():
    # UT(3,2) and D(4) are isomorphic: same order, class sizes, cp_2
    a, b = build("UT(3,2)"), build("D(4)")
    assert a.order == b.order == 8
    assert sorted(c.size for c in conjugacy_classes(a.full()).classes) == \
        sorted(c.size for c in conjugacy_classes(b.full()).classes)
    assert cp2_classcount(a) == cp2_classcount(b)


def test_monoid_descriptor_not_buildable():
    with pytest.raises(InputError, match="monoid"):
        build("M(2,2)")


def test_size_cap_rejects_before_construction():
    with pytest.raises(SizeCapError):
        build("GL(3,5)")
    with pytest.raises(SizeCapError):
        build("S(9)")


def test_metadata_flags_truthful():
    for text in SMALL_GROUPS:
        G = build(text)
        meta = metadata(text)
        assert meta.abelian == is_abelian(G.full()), text
        if meta.solvable is not None:
            assert meta.solvable == is_solvable(G.full()), text


def test_metadata_p_groups():
    assert metadata("Q8").p_group == 2
    assert metadata("UT(3,3)").p_group == 3
    assert metadata("S(3)").p_group is None


def test_simple_flag_no_class_closed_normal_subgroup():
    # a class generates a normal subgroup (the generating set is closed
    # under conjugation); in a simple group every non-identity class
    # must generate everything
    for text in ("A(5)", "PSL(2,5)", "PSL(2,7)", "PSL(2,9)",
                 "GL(3,2)", "SL(3,2)", "SL(2,4)", "Sp(2,4)", "SL(2,8)"):
        meta = metadata(text)
        assert meta.simple
        G = build(text)
        if G.order > 1000:
            continue
        for c in conjugacy_classes(G.full()).classes:
            if c.rep == 0:
                continue
            generated = _subgroup_generated_by(G, c.members)
            assert len(generated) == G.order, (text, c.rep)


def test_simple_flag_matrix_families():
    # SL(2,q) for even q >= 4, SL(3,q) with gcd(3, q-1) = 1 and GL(3,2)
    # have a trivial centre, so they are PSL(d,q) and simple
    for text in ("GL(3,2)", "SL(3,2)", "SL(3,3)", "SL(3,5)",
                 "SL(2,4)", "Sp(2,4)", "SL(2,8)", "Sp(2,16)"):
        meta = metadata(text)
        assert meta.simple and meta.solvable is False, text
    # a non-trivial centre, or a small solvable case
    for text in ("GL(2,2)", "GL(2,3)", "GL(2,4)", "GL(3,3)", "SL(2,2)",
                 "SL(2,3)", "SL(2,5)", "Sp(2,2)", "SL(3,4)", "SL(3,7)"):
        assert not metadata(text).simple, text


def test_non_simple_group_has_class_generating_proper_subgroup():
    # the negative of the check above: a class generates a proper
    # normal subgroup
    for text in ("GL(2,3)", "S(4)", "SL(2,5)"):
        assert not metadata(text).simple
        G = build(text)
        assert any(
            len(_subgroup_generated_by(G, c.members)) < G.order
            for c in conjugacy_classes(G.full()).classes if c.rep != 0
        ), text


def _subgroup_generated_by(G, gen_ids):
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gen_ids:
                p = G.mul(g, cur)
                if p not in members:
                    members.add(p)
                    nxt.append(p)
        frontier = nxt
    return members


def test_builds_are_cached():
    assert build("S(4)") is build("S(4)")


# sha256 of repr(build("U(3,3)")._data), the ordered element list, as
# built by the nested scan (conftest.nested_unitary_frames) before the
# orthogonality-graph builder replaced it; the scan itself takes seconds
U33_ELEMENTS_SHA256 = (
    "14d041fc496888a5cfb7874db8ae9b8386c24c21a4fc68c63f00957715d994cb"
)


@pytest.mark.parametrize("text", ["U(2,2)", "U(2,3)", "U(2,4)", "U(2,5)", "U(3,2)"])
def test_unitary_builder_matches_nested_scan(text):
    # same matrices in the same order, so the same ids
    d, q = parse(text).params
    ref = nested_unitary_frames(d, q)
    data = build(text)._data
    e = data[0]
    assert data == [e] + [m for m in ref if m != e]


def test_unitary_u33_element_list_unchanged():
    data = build("U(3,3)")._data
    assert hashlib.sha256(repr(data).encode()).hexdigest() == U33_ELEMENTS_SHA256


@pytest.mark.parametrize(
    "text", ["U(2,2)", "U(2,3)", "U(2,4)", "U(2,5)", "U(3,2)", "U(3,3)"])
def test_unitary_elements_preserve_the_form(text):
    # A^H A = I over the GF(q^2) tables, with conjugation x -> x^q taken
    # by repeated multiplication; the elements are distinct and as many
    # as the order formula says
    G = build(text)
    d, q = parse(text).params
    fld = G.field
    assert fld.q == q * q and G.dim == d
    add = fld.add_table()
    mul = fld.mul_table()
    one = fld.one_index
    conj = []
    for x in range(fld.q):
        y = one
        for _ in range(q):
            y = mul[y][x]
        conj.append(y)
    ident = [one if i == j else 0 for i in range(d) for j in range(d)]
    for A in G._data:
        gram = []
        for i in range(d):
            for j in range(d):
                acc = 0
                for l in range(d):
                    acc = add[acc][mul[conj[A[l * d + i]]][A[l * d + j]]]
                gram.append(acc)
        assert gram == ident, A
    assert len(set(G._data)) == len(G._data) == order_formula(text)


def test_a_build_in_progress_holds_back_a_second_one(monkeypatch):
    # thread B asks for the group thread A is building: B waits on the
    # build lock, then gets A's group from the cache, with no second build
    lock = catalog._BUILD_LOCK
    entered = []

    class CountingLock:
        def __enter__(self):
            entered.append(threading.current_thread().name)
            return lock.__enter__()

        def __exit__(self, *exc):
            return lock.__exit__(*exc)

    plain = catalog._build_uncached
    inside = threading.Event()
    release = threading.Event()
    calls = []

    def blocking(desc):
        calls.append(str(desc))
        inside.set()
        release.wait(30)
        return plain(desc)

    monkeypatch.setattr(catalog, "_BUILD_CACHE", {})
    monkeypatch.setattr(catalog, "_BUILD_LOCK", CountingLock())
    monkeypatch.setattr(catalog, "_build_uncached", blocking)
    got = {}

    def run():
        got[threading.current_thread().name] = catalog.build("S(4)")

    a = threading.Thread(target=run, name="A")
    b = threading.Thread(target=run, name="B")
    try:
        a.start()
        assert inside.wait(30)
        b.start()
        deadline = time.monotonic() + 30
        while len(entered) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert entered == ["A", "B"]
    finally:
        release.set()
        for th in (a, b):
            if th.is_alive():
                th.join(30)
    assert not a.is_alive() and not b.is_alive()
    assert calls == ["S(4)"]
    assert got["A"] is got["B"]
