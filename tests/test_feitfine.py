from fractions import Fraction

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from commprob.errors import BudgetError, InputError
from commprob.feitfine import PARTITIONS_MAX_D, f, feit_fine_pairs, partitions
from commprob.oracle import commuting_pairs_matrix_algebra


def test_partition_counts():
    assert [len(partitions(d)) for d in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_partitions_d0():
    assert [p.b for p in partitions(0)] == [()]


def test_partitions_d2():
    assert sorted(p.b for p in partitions(2)) == [(0, 1), (2, 0)]


def test_partitions_lexicographic_order():
    for d in (3, 5, 7):
        bs = [p.b for p in partitions(d)]
        assert bs == sorted(bs)


@given(st.integers(1, 12))
def test_partition_multiplicities_sum_to_d(d):
    for p in partitions(d):
        assert p.total() == d
        assert p.k_pi == sum(p.b)


def test_f_values():
    assert f(0, 2) == 1
    assert f(0, 97) == 1
    assert f(1, 2) == Fraction(1, 2)
    assert f(2, 2) == Fraction(3, 8)
    assert f(3, 2) == Fraction(21, 64)


def test_f_rejects_bad_input():
    with pytest.raises(InputError):
        f(-1, 2)
    with pytest.raises(InputError):
        f(2, 1)


def test_p1_is_q_squared():
    for q in (2, 3, 4, 5, 7, 9):
        assert feit_fine_pairs(1, q) == q * q


def test_p22_pinned():
    assert feit_fine_pairs(2, 2) == 88


def test_p2_symbolic_grid():
    # P(2, q) = q^6 + q^5 - q^3, checked on the evaluation grid
    for q in (2, 3, 4, 5):
        assert feit_fine_pairs(2, q) == q**6 + q**5 - q**3


def test_matches_brute_force():
    for d, q in ((1, 2), (1, 3), (2, 2), (2, 3)):
        assert feit_fine_pairs(d, q) == commuting_pairs_matrix_algebra(d, q)


def test_matches_brute_force_d3():
    assert feit_fine_pairs(3, 2) == commuting_pairs_matrix_algebra(3, 2)


def test_rejects_non_prime_power():
    with pytest.raises(InputError):
        feit_fine_pairs(2, 6)


def test_partitions_up_to_the_bound():
    assert len(partitions(PARTITIONS_MAX_D)) == 5604
    with pytest.raises(BudgetError):
        partitions(PARTITIONS_MAX_D + 1)


def test_feitfine_large_d_exits_3_at_once():
    # d = 200 has about 4e12 partitions; the bound refuses it before
    # enumerating any
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "commprob", "feitfine", "--d", "200", "--q", "2"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert "bound" in proc.stderr
