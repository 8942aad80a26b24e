import random
from fractions import Fraction

import pytest
from conftest import dense_count, fraction_lescot, fresh_build, sorted_signature_lump

from commprob.branching import (
    BranchingMatrix,
    StateInfo,
    _validate_matrix,
    build_branching,
    c_tuples,
    columns_of,
    count_via_matrix,
    cp2_classcount,
    cp_via_branching,
    cp_via_lescot,
    lump,
)
from commprob.catalog import SMALL_GROUPS, build
from commprob.errors import InputError, InternalError
from commprob.formulas import (
    U3_MATRIX_CORRECTED,
    _evaluate_matrix_formula,
    evaluate_matrix,
)


def test_cyclic_is_single_absorbing_state():
    B = build_branching(build("C(6)"))
    assert B.dimension == 1
    assert B.counts == [[6]]
    assert c_tuples(B, 0) == 1
    assert c_tuples(B, 3) == 216


def test_abelian_c_tuples_power():
    B = build_branching(build("CxC(2,4)"))
    for n in range(5):
        assert c_tuples(B, n) == 8 ** n


def test_column_sums_equal_class_counts():
    for desc in ("Q8", "S(4)", "GL(2,3)", "U(2,2)", "Sp(2,3)"):
        B = build_branching(build(desc))
        sums = B.column_sums()
        for i, st in enumerate(B.states):
            assert sums[i] == st.class_count


def test_abelian_states_absorbing():
    B = build_branching(build("GL(2,3)"))
    for i, st in enumerate(B.states):
        if st.abelian:
            assert B.counts[i][i] == st.order
            assert all(B.counts[j][i] == 0 for j in range(B.dimension) if j != i)


def test_root_column_sum_is_class_count():
    B = build_branching(build("Q8"))
    assert sum(row[B.root] for row in B.counts) == 5


def test_sp2_f3_column_sum():
    # k(Sp2(F3)) = q + 4 = 7
    assert build_branching(build("Sp(2,3)")).class_count == 7


def test_u2_f2_column_sum():
    # k(U2(F2)) = (q+1)^2 = 9
    assert build_branching(build("U(2,2)")).class_count == 9


def test_c1_is_class_count():
    for desc in ("S(4)", "Q8", "PSL(2,3)", "GL(2,2)"):
        B = build_branching(build(desc))
        assert c_tuples(B, 1) == B.class_count


def test_gl2_f2_c2():
    assert c_tuples(build_branching(build("GL(2,2)")), 2) == 8


def test_cp_via_branching_values():
    assert cp_via_branching(build("GL(2,2)"), 2) == Fraction(1, 2)
    assert cp_via_branching(build("Q8"), 2) == Fraction(5, 8)
    assert cp_via_branching(build("U(2,3)"), 3) == Fraction(7, 288)


def test_cp_via_lescot_values():
    assert cp_via_lescot(build("A(5)"), 2) == Fraction(1, 12)
    assert cp_via_lescot(build("C(30)"), 4) == Fraction(1)
    # corrected denominator |G|^3; the published table misprints it
    assert cp_via_lescot(build("Sp(2,3)"), 4) == Fraction(244, 24 ** 3)


def test_cp_via_lescot_large_n_without_deep_recursion():
    # Q8's centre centralizes to Q8 itself at every level, so a recursive
    # evaluation would be 1500 calls deep
    G = build("Q8")
    assert cp_via_lescot(G, 1500) == cp_via_branching(G, 1500)


def test_validate_matrix_rejects_a_negative_entry():
    B = build_branching(build("Q8"))
    counts = [row[:] for row in B.counts]
    # set one entry of the root column to -1 and add the difference to
    # the diagonal: the column still sums to k(Q8)
    other = 1 if B.root == 0 else 0
    counts[B.root][B.root] += counts[other][B.root] + 1
    counts[other][B.root] = -1
    with pytest.raises(InternalError, match="negative"):
        _validate_matrix(BranchingMatrix(B.states, columns_of(counts), B.root))


def test_validate_matrix_messages_on_an_abelian_column():
    # Q8's abelian states are its cyclic subgroups of order 4; one entry
    # moved off the diagonal of such a column keeps its sum but not the
    # absorbing entry, and one added off it breaks the sum; a state whose
    # class count is raised to match the added entry keeps the sum and
    # the diagonal, and still has a foreign branch
    B = build_branching(build("Q8"))
    i = next(s for s, st in enumerate(B.states) if st.abelian)
    other = B.root
    moved = [row[:] for row in B.counts]
    moved[i][i] -= 1
    moved[other][i] += 1
    with pytest.raises(InternalError, match=f"abelian state {i} is not "
                       "absorbing"):
        _validate_matrix(BranchingMatrix(B.states, columns_of(moved), B.root))
    added = [row[:] for row in B.counts]
    added[other][i] += 1
    with pytest.raises(InternalError, match=f"column {i} sums to 5, "
                       "expected k = 4"):
        _validate_matrix(BranchingMatrix(B.states, columns_of(added), B.root))
    states = list(B.states)
    states[i] = StateInfo(states[i].label, 4, 5, True)
    with pytest.raises(InternalError, match=f"abelian state {i} has a "
                       "foreign branch"):
        _validate_matrix(BranchingMatrix(states, columns_of(added), B.root))


@pytest.mark.parametrize("column, reason", [
    (((0, 2), (1, 1), (2, 1), (4, 1)), "child index 4, out of range"),
    (((0, 2), (1, 1), (1, 1), (3, 1)), "lists child 1 after child 1"),
    (((0, 2), (2, 1), (1, 1), (3, 1)), "lists child 1 after child 2"),
    (((0, 3), (1, 0), (2, 1), (3, 1)), "zero or negative count 0"),
    (((0, 3), (1, 1), (2, 1), (3, 1)), "sums to 6, expected k = 5"),
    (((0, 2.0), (1, 1), (2, 1), (3, 1)), "non-integer entry"),
    ((("0", 2), (1, 1), (2, 1), (3, 1)), "non-integer entry"),
])
def test_validate_matrix_checks_the_columns(column, reason):
    # Q8's root column is ((0, 2), (1, 1), (2, 1), (3, 1)); a built
    # matrix with a malformed column is an internal error
    B = build_branching(build("Q8"))
    assert B.root == 0 and B.columns[0] == ((0, 2), (1, 1), (2, 1), (3, 1))
    with pytest.raises(InternalError, match=reason):
        _validate_matrix(BranchingMatrix(B.states, [column] + B.columns[1:],
                                         B.root))


def test_validate_matrix_checks_the_shape_and_the_root():
    B = build_branching(build("Q8"))
    with pytest.raises(InternalError, match="not square: 3 columns for 4"):
        _validate_matrix(BranchingMatrix(B.states, B.columns[:3], B.root))
    with pytest.raises(InternalError, match="root index 4 is out of range"):
        _validate_matrix(BranchingMatrix(B.states, B.columns, 4))
    with pytest.raises(InternalError, match="state 0 has order 8, not below"):
        _validate_matrix(BranchingMatrix(B.states, B.columns, 1))


def test_dense_counts_are_a_copy_of_the_columns():
    B = build_branching(build("GL(3,2)"))
    counts = B.counts
    assert columns_of(counts) == B.columns
    counts[0][0] += 1
    assert B.counts != counts and columns_of(B.counts) == B.columns


def test_cp_rejects_small_n():
    with pytest.raises(InputError):
        cp_via_branching(build("Q8"), 1)
    with pytest.raises(InputError):
        cp_via_lescot(build("Q8"), 0)


def test_cp2_classcount_values():
    assert cp2_classcount(build("PSL(2,3)")) == Fraction(1, 3)
    assert cp2_classcount(build("PSL(2,5)")) == Fraction(1, 12)
    assert cp2_classcount(build("GL(3,2)")) == Fraction(1, 28)


def test_cross_method_equality_small_groups():
    for desc in SMALL_GROUPS:
        G = build(desc)
        for n in (2, 3, 4, 5):
            assert cp_via_branching(G, n) == cp_via_lescot(G, n), (desc, n)
        assert cp_via_branching(G, 2) == cp2_classcount(G), desc


def test_matrix_power_helper():
    columns = columns_of([[2, 1], [0, 3]])
    assert columns == [((0, 2),), ((0, 1), (1, 3))]
    # e_root at index 0: powers of the column action
    assert count_via_matrix(columns, 0, 0) == 1
    assert count_via_matrix(columns, 0, 1) == 2
    assert count_via_matrix(columns, 0, 2) == 4


@pytest.mark.parametrize("desc", SMALL_GROUPS + ("GL(3,2)", "U(3,2)",
                                                 "GL(3,3)", "U(3,3)"))
def test_integer_lescot_matches_the_fraction_recurrence(desc):
    # the count recurrence N_m(H) = sum |c| N_{m-1}(C_H(c)) over |G|^n
    # against the recurrence on fractions, which keeps its own memo
    G = build(desc)
    for n in range(2, 7):
        assert cp_via_lescot(G, n) == fraction_lescot(G, n), (desc, n)


def test_lescot_memo_holds_tuple_counts():
    # N_m(H) = |Hom(Z^m, H)|, the commuting m-tuples of H.  S(3) has the
    # classes {e} (Z = S(3)), 3 transpositions (Z = C2) and 2 3-cycles
    # (Z = C3), so N_2 = 6 + 3 * 2 + 2 * 3 = 18 and
    # N_3 = 18 + 3 * 2^2 + 2 * 3^2 = 48
    G = fresh_build("S(3)")
    assert cp_via_lescot(G, 3) == Fraction(48, 6 ** 3)
    memo = G._lescot_memo
    assert (memo[(G.full(), 2)], memo[(G.full(), 3)]) == (18, 48)
    assert all(type(v) is int for v in memo.values())


def matrices_with_zeros():
    """Branching matrices and lumped quotients of small catalog groups,
    with many zero entries, and seeded random square matrices with about
    half their entries zero, each with every root."""
    out = []
    for desc in SMALL_GROUPS + ("GL(3,2)", "U(3,2)"):
        B = build_branching(build(desc))
        tp = lump(B)
        out += [(B.counts, B.root), (tp.quotient, tp.root_block)]
    rng = random.Random(0x32)
    for size in (1, 2, 3, 5, 8):
        for _ in range(4):
            counts = [[rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(size)]
                      for _ in range(size)]
            out += [(counts, root) for root in range(size)]
    return out


def test_sparse_matrix_power_matches_dense_reference():
    for counts, root in matrices_with_zeros():
        for n in range(7):
            assert count_via_matrix(columns_of(counts), root, n) == \
                dense_count(counts, root, n), (counts, root, n)


# -- lumping --

def test_lump_single_state():
    tp = lump(build_branching(build("C(8)")))
    assert tp.dimension == 1


def test_lump_gl2_f5_dimension_4():
    tp = lump(build_branching(build("GL(2,5)")))
    assert tp.dimension == 4


def test_lump_partition_is_lumpable():
    B = build_branching(build("GL(2,3)"))
    tp = lump(B)
    size = B.dimension
    for block in tp.blocks:
        for target_block in range(tp.dimension):
            sums = set()
            for s in block:
                sums.add(sum(B.counts[u][s] for u in tp.blocks[target_block]))
            assert len(sums) == 1


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def is_lumpable(counts, blocks):
    return all(
        len({sum(counts[u][s] for u in target) for s in block}) == 1
        for block in blocks for target in blocks)


def test_lump_splits_states_that_branch_apart():
    # states 1 and 2 share (order 8, k 5) but send their three
    # non-central classes to abelian states of different orders
    states = [StateInfo("s0", 48, 3, False), StateInfo("s1", 8, 5, False),
              StateInfo("s2", 8, 5, False), StateInfo("s3", 4, 4, True),
              StateInfo("s4", 2, 2, True)]
    counts = [[1, 0, 0, 0, 0],
              [1, 2, 0, 0, 0],
              [1, 0, 2, 0, 0],
              [0, 3, 0, 4, 0],
              [0, 0, 3, 0, 2]]
    B = BranchingMatrix(states, columns_of(counts), 0)
    _validate_matrix(B)
    tp = lump(B)
    assert tp.block_of[1] != tp.block_of[2]
    for bi, block in enumerate(tp.blocks):
        for s in block:
            for bj, target in enumerate(tp.blocks):
                assert sum(counts[u][s] for u in target) == tp.quotient[bj][bi]
    # coarsest: no two blocks share a signature, and every lumpable
    # partition that keeps (order, class count) apart refines this one
    signatures = {((states[b[0]].order, states[b[0]].class_count),
                   tuple(row[bi] for row in tp.quotient))
                  for bi, b in enumerate(tp.blocks)}
    assert len(signatures) == tp.dimension
    for partition in set_partitions(list(range(len(states)))):
        if is_lumpable(counts, partition) and all(
                len({(states[s].order, states[s].class_count) for s in b}) == 1
                for b in partition):
            assert all(len({tp.block_of[s] for s in b}) == 1
                       for b in partition), partition


def test_lump_preserves_counting_functional():
    for desc in ("Q8", "S(4)", "GL(2,3)", "U(2,2)", "GL(2,5)", "Sp(2,5)"):
        B = build_branching(build(desc))
        tp = lump(B)
        for n in range(7):
            assert count_via_matrix(columns_of(tp.quotient), tp.root_block,
                                    n) == \
                count_via_matrix(B.columns, B.root, n), (desc, n)


def test_lump_dimensions_observed():
    # observed lumped dimensions on the engine's exact-subgroup states;
    # published type tables can be larger when polynomial entries vanish
    # at small q (no class realizes the type) or when class types share
    # one centralizer subgroup, so these are recorded, not derived
    observed = {
        "GL(2,5)": 4,   # equals the published 4x4 shape
        "U(2,2)": 3,    # published shape 4x4; one type unrealized at q=2
        "U(2,3)": 4,
        "Sp(2,3)": 3,   # published shape 5x5; split torus vanishes at q=3
        "Sp(2,5)": 4,   # +- unipotent class types share one centralizer
        "GL(3,2)": 5,   # published shape 8x8
        "GL(3,3)": 8,
        "U(3,2)": 7,
        "U(3,3)": 8,    # matches the published 8x8 shape
    }
    for desc, dim in observed.items():
        assert lump(build_branching(build(desc))).dimension == dim, desc


LUMP_GROUPS = SMALL_GROUPS + ("GL(3,2)", "U(3,2)", "GL(3,3)", "U(3,3)",
                              "GL(2,5)")


@pytest.mark.parametrize("desc", LUMP_GROUPS)
def test_lump_matches_the_reference_with_the_root_first(desc):
    # the same blocks as sets, and the same quotient once the reference's
    # blocks are renumbered as the canonical ones: the root first, then
    # by descending order and ascending class count
    B = build_branching(build(desc))
    tp = lump(B)
    blocks, quotient, block_of, root_block = sorted_signature_lump(B)
    assert sorted(tp.blocks) == sorted(blocks)
    assert all(s in tp.blocks[b] for s, b in enumerate(tp.block_of))
    relabel = [block_of[block[0]] for block in tp.blocks]
    assert [[quotient[a][b] for b in relabel] for a in relabel] == tp.quotient
    assert relabel[tp.root_block] == root_block
    assert tp.root_block == 0
    types = [(-B.states[block[0]].order, B.states[block[0]].class_count)
             for block in tp.blocks]
    assert types == sorted(types)


@pytest.mark.parametrize("desc", ("S(4)", "GL(2,3)", "U(2,3)", "GL(3,2)",
                                  "U(3,2)"))
def test_lump_ignores_the_state_labels(desc):
    # the numbering reads only orders, class counts and count vectors,
    # so relabeling the states leaves the quotient and the root block
    B = build_branching(build(desc))
    perm = list(range(B.dimension))
    random.Random(2002).shuffle(perm)  # state s becomes state perm[s]
    moved = [None] * B.dimension
    for s, t in enumerate(perm):
        moved[t] = s
    shuffled = BranchingMatrix(
        states=[B.states[s] for s in moved],
        columns=columns_of([[B.counts[a][b] for b in moved] for a in moved]),
        root=perm[B.root],
    )
    _validate_matrix(shuffled)
    tp, ts = lump(B), lump(shuffled)
    assert ts.quotient == tp.quotient
    assert ts.root_block == tp.root_block == 0
    assert sorted(ts.blocks) == sorted(sorted(perm[s] for s in block)
                                       for block in tp.blocks)


# printed type i of each family is lumped block PRINTED_ORDER[family][i]
PRINTED_ORDER = {
    "U2": (0, 2, 1, 3),
    "GL3": (0, 1, 2, 4, 6, 7, 5, 3),
    "U3": (0, 1, 2, 5, 4, 3, 6, 7),
}


@pytest.mark.parametrize("family,desc,q", [
    ("U2", "U(2,3)", 3), ("U2", "U(2,4)", 4), ("U2", "U(2,5)", 5),
    ("GL3", "GL(3,3)", 3), ("U3", "U(3,3)", 3)])
def test_lumped_quotient_is_the_printed_matrix_up_to_one_order(family,
                                                                desc, q):
    # one permutation per family maps the quotient onto the paper's
    # matrix at every q; U3's is the matrix with its erratum corrected
    printed = (_evaluate_matrix_formula(U3_MATRIX_CORRECTED, q)
               if family == "U3" else evaluate_matrix(family, q))
    quotient = lump(build_branching(build(desc))).quotient
    order = PRINTED_ORDER[family]
    assert [[quotient[a][b] for b in order] for a in order] == printed


def test_branching_deterministic_across_thread_counts():
    # the matrix is finalized in ascending subgroup-key order, so the
    # worklist processing order cannot influence the result; rebuilding
    # from scratch yields an equal matrix
    import commprob.catalog as catalog

    a = build_branching(build("GL(2,3)"))
    fresh = catalog._build_uncached(catalog.parse("GL(2,3)"))
    b = build_branching(fresh)
    assert a == b
    assert [st.key for st in a.states] == [st.key for st in b.states]
