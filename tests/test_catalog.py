import hashlib
import itertools
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
from commprob.gf import field, is_prime_power, prime_power
from commprob.groups import (
    conjugacy_classes,
    is_abelian,
    is_solvable,
    matrix_operations,
)
from conftest import fresh_build, nested_unitary_frames


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


# sha256 of repr(G._data), the ordered element list, of every catalog
# group of SMALL_GROUPS and of both verify grids, and of a few larger
# ones, as built when GL was filtered by determinant and every unit
# vector had its own orthogonality set
ELEMENTS_SHA256 = {
    "C(1)":
        "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    "C(2)":
        "6df3ef58aaac2aff5d071b5f4bcbd92f0014181fe5e884295db42b5a3abfbf47",
    "C(3)":
        "276126cb1df8f2b8436fbdfc9a9ec6c63cb0f98fb893ea0d7c13312480731e28",
    "C(4)":
        "6fcb67ca35502e18700db1cc95a917b74f3f7fe66f44f98da0ef6bf25f88a234",
    "C(5)":
        "ce50ee4a07ae9219f3b0433bf2e18aac906894c5f60cec9837c8b36f5d7b8d9f",
    "C(6)":
        "3c9401c1366fe0d2a5db40b4c5ab57294bb9fccc8ddea7b6bbb4e860958f484f",
    "C(8)":
        "9b38e422f8588c9bf4e42176556727eee091a8f777864294e4aaf3ee8a42cfdb",
    "C(12)":
        "39c05284685af7fef424fecd0d5662ed0bc7d6758bea0617c3b7373ea729f914",
    "C(30)":
        "e4e8213d299e7439f65920a4fa73a20ce779e8272f36be719047a287763ba697",
    "CxC(2,2)":
        "f4a1820d94436372b086ed9e909f1b6f63f0272507722f7815c3af83d1bdbf5b",
    "CxC(2,4)":
        "e447f31e7437e7962dadee521d785bc3dcb866d5cc0360e0bdfdca7fb4aab703",
    "CxC(3,3)":
        "37752ef928dd6913a450bc7839b174401387cb674f946cc9224d6aada0fef5e7",
    "CxC(2,2,2)":
        "4a6ca2ec2e01b9ffea6d31025ee2d17fa7b7c311ec3890a46a516c49371af728",
    "CxC(6,10)":
        "f810e82ff818afc47d84a60a31ea440f4fcbd00aa3752485a3797e6393a0b6df",
    "S(3)":
        "1d4f7a1cffcf0bb6985ea36662fd955879e8b975798caeb8bb2c26f985c97c03",
    "S(4)":
        "3efa488d32d374a4b75b6a5047df65db875069ed19d87c202f955571f915ca8e",
    "S(5)":
        "5d7ea49a40d717711cc7fceca967877c0fbfb66e7c107d9effe83481388f57ed",
    "A(3)":
        "276126cb1df8f2b8436fbdfc9a9ec6c63cb0f98fb893ea0d7c13312480731e28",
    "A(4)":
        "c3892128cecb99090c779ca31ac44e6821917b2bb56c19daf39242165fe79da2",
    "A(5)":
        "fde4e649563403c48b2fa38498379adcd8508ca26c3a72b05f4a61e71e0b8270",
    "D(2)":
        "f4a1820d94436372b086ed9e909f1b6f63f0272507722f7815c3af83d1bdbf5b",
    "D(3)":
        "d020554ceaf3de02305518e9a6fa0bab58f9266df00c15d8ae5c22684c028a8b",
    "D(4)":
        "21965894cd128f79877fcde13dc90dbff48a4a7713f73ec54166e4f0cee18b47",
    "D(5)":
        "c588c85c361a740e70ac922d19513bdeb7bb7bbfec004f99c8f3e90a7dca1355",
    "D(6)":
        "133a4211c325da51dd647acb8d1540b99799b9e9a764765a3058178aebe5e831",
    "D(8)":
        "625c3c404722f37b71521fbbbc7feb3e42037f497c41e59af637de2d077397f3",
    "D(16)":
        "71d979cb1f04ba0117eafea2b1333243525d37f539f532749de7638b4acebb56",
    "Q8":
        "88e40deb9dca540fb27b9c72e49596ccb39f0143f285df29bd1e2a9c87a7a966",
    "UT(3,2)":
        "153c318d9cade08f3f3c9b4b4acceaafabe1dbd0fbc5193e8342867de2f5b939",
    "UT(3,3)":
        "af6afca4520e7dde75e1e4ee86b89ae0720239fe750072efb36eea9b19a8558c",
    "UT(3,5)":
        "5cd6637484478cba0a00ba2642809f6ad82c4dbf84b456613cb27cc01f1342d4",
    "GL(1,7)":
        "8564c061ae2457674d528c045ddfa86612c0d1064e353772eb28d0e05bea54ad",
    "GL(2,2)":
        "bf08a831733db3534aacaa7f9c0d2aa54edaf4aaa94afae7b822c9c0d548ef67",
    "GL(2,3)":
        "bd531a19fd15a093fb30d52c4458fe152e6c3d8aeda40031d92687f979e234d3",
    "SL(2,2)":
        "bf08a831733db3534aacaa7f9c0d2aa54edaf4aaa94afae7b822c9c0d548ef67",
    "SL(2,3)":
        "06311f8e62a0b46c30b1443a59eabf8a1b627dc8b82e1dd420d63cb879216e7c",
    "Sp(2,2)":
        "bf08a831733db3534aacaa7f9c0d2aa54edaf4aaa94afae7b822c9c0d548ef67",
    "Sp(2,3)":
        "06311f8e62a0b46c30b1443a59eabf8a1b627dc8b82e1dd420d63cb879216e7c",
    "U(2,2)":
        "9b9546567a4ad82e998363a691f8abb0e547cd017808b83b65b9c7d619e49ce6",
    "U(2,3)":
        "06f60e3afa5a5f5f6b642852247d630a1810c67d882275e46300974ed9cdf9a1",
    "PSL(2,2)":
        "72430cd42946aa100ebca12789f3deadcc027992bba65977641df08edc86135c",
    "PSL(2,3)":
        "5d0d1df44a2532db1f210230ec951f5f59b0b1d20c650a1c3a8e7c1c3bde0309",
    "PSL(2,5)":
        "b4f070a229529db8dbe02338bfe0bee655755c6d500498feff0dc0a804411773",
    "GL(2,4)":
        "cfbca2dfbc4b22730c5fc47eec352d677cb1c8a8e3b3b62341a2e6f7763cee13",
    "GL(2,5)":
        "7ef7f249b0f6a76dfd20462889e0fcf27638fe735762c445f458a843bac21916",
    "U(2,4)":
        "c1302c0ae7413bab690226db7e28565f632dd000cf35e9f0774babe334280e1b",
    "U(2,5)":
        "5d16ba18b1dff3e01953b63260998406b5566534aec8d0e723ca6ef1ea07c158",
    "Sp(2,5)":
        "7f694c13076729736a2050e252a798304e1f1160785f07a10d8f6579bc7ba6eb",
    "Sp(2,7)":
        "e739dc9782236a4c87d5b0de9585eb8a4b8f24d2e5f977545e9638f154c520ef",
    "GL(3,2)":
        "d65b143704970dd1c436e987591f4a2cdfbe7eacab21c1c8bbce2251c591bc2b",
    "GL(3,3)":
        "03ff7aee2bf2fbad9e785c37e9dd72e7fcddd3fa01f7d276508a34838d7db1e4",
    "U(3,2)":
        "8dd803fea1d783f9dbb0d25694d38a5b284961e069cc7cf9892200d59ef00ea7",
    "PSL(2,7)":
        "8ea0ead3263f2fb787fb812e57bc0c7a081591242bd3654b43b8e48498cc8c9f",
    "PSL(2,9)":
        "6d2379adb205766bb4422a441abe5725a1ba723d3f0d8966db9839cd7bb7c1a1",
    "GL(2,7)":
        "8c961ebd49b19c4969a621ea4e7ca471ef33be93560e4784afd04ed5bed46ef0",
    "U(2,7)":
        "9ac9012a41344b8c22d3722cefe773375e8d084148613aed8cc4cbd73e9f564e",
    "Sp(2,9)":
        "9361d331fc2596352f7d0fcc20cda09bb64622fd62df832ebb3a660ed7f4c400",
    "U(3,3)":
        "14d041fc496888a5cfb7874db8ae9b8386c24c21a4fc68c63f00957715d994cb",
    "GL(3,4)":
        "5e067e94d22ed8ce548581c81ab12a6cb9e49433901c461c8d76cda0c7bdc471",
    "SL(3,4)":
        "6441bd2211635dc8ca93cc7fc753b3865b006fa3eb0ddf6f5923c730761b2810",
    "GL(2,16)":
        "999629e0c51b2a992def881677a93e8e2e20cb04c5128a8ee58231340105bf33",
    "SL(3,3)":
        "4f04033616ae573fdd80efe1a288ebf155a043e0a83c03cd24711ecd9ab02e0a",
}


@pytest.mark.parametrize("text", ELEMENTS_SHA256)
def test_element_lists_unchanged(text):
    # groups over 50,000 elements are built outside the build cache, so
    # that it does not keep them
    G = build(text) if order_formula(text) <= 50_000 else fresh_build(text)
    digest = hashlib.sha256(repr(G._data).encode()).hexdigest()
    assert digest == ELEMENTS_SHA256[text]


def _enumerable_gl():
    """Every (d, q) whose d x d matrices are under the enumeration cap:
    all q for d = 2 and 3 (29^4 and 5^9 are over it), and q <= 64 for
    d = 1."""
    cap = catalog._ENUMERATION_CAP
    return [(d, q) for d in (1, 2, 3) for q in range(2, 65 if d == 1 else 30)
            if is_prime_power(q) and q ** (d * d) <= cap]


@pytest.mark.parametrize("d, q", _enumerable_gl())
def test_independent_rows_are_the_determinant_filter(d, q):
    # the same matrices in the same order as filtering every matrix by
    # its determinant
    fld = field(*prime_power(q))
    det = matrix_operations(fld, d).det
    every = itertools.product(range(q), repeat=d * d)
    assert catalog._independent_rows(fld, d) == [m for m in every
                                                 if det(m) != 0]


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
