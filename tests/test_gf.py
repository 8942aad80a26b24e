import itertools

import pytest
from hypothesis import given, strategies as st

from commprob.errors import InputError, SizeCapError
from commprob.gf import (
    add,
    field,
    frobenius,
    inv,
    is_prime,
    mul,
    neg,
    power,
    prime_power,
)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97]
    composites = [0, 1, 4, 6, 9, 15, 91]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def _prime_power_by_trial_division(q):
    if q < 2:
        return None
    p = next((f for f in range(2, q + 1) if q % f == 0))
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(10 ** 4):
        assert prime_power(q) == _prime_power_by_trial_division(q), q
        assert is_prime(q) == (_prime_power_by_trial_division(q) == (q, 1)), q


def test_prime_power_of_large_numbers():
    m61 = 2 ** 61 - 1  # a Mersenne prime
    assert prime_power(m61) == (m61, 1) and is_prime(m61)
    assert prime_power(m61 ** 2) == (m61, 2)
    assert prime_power(2 ** 89) == (2, 89)
    assert prime_power(43 ** 40) == (43, 40)
    assert prime_power(43 * 47) is None
    # Carmichael numbers, then strong pseudoprimes to the bases 2..23 and
    # 2..37: each is composite
    for n in (561, 1105, 1729, 41041, 825265, 321197185,
              3825123056546413051, 318665857834031151167461):
        assert prime_power(n) is None and not is_prime(n), n


def test_prime_power_refuses_beyond_the_exact_range():
    # the smallest strong pseudoprime to all of the bases 2..41: deciding
    # it would need another base, so the test refuses instead of guessing
    with pytest.raises(InputError):
        prime_power(3317044064679887385961981)
    with pytest.raises(InputError):
        is_prime((2 ** 61 - 1) * (2 ** 31 - 1))


def test_field_rejects_bad_parameters():
    with pytest.raises(InputError):
        field(4, 1)
    with pytest.raises(InputError):
        field(2, 0)
    with pytest.raises(InputError):
        field(2, 17)  # over the 2^16 cap


def test_dense_tables_stop_at_the_table_cap():
    # GF(2^11) is a valid field, and its elements multiply without
    # tables, but its q^2 tables are past the 2^10 cap
    F = field(2, 11)
    x = F.element(5)
    assert x * x.inverse() == F.one
    with pytest.raises(SizeCapError):
        F.mul_table()
    with pytest.raises(SizeCapError):
        F.add_table()
    assert len(field(2, 10).neg_table()) == 1024


def test_gf2_elements():
    F = field(2, 1)
    assert F.q == 2
    assert [e.coeffs for e in F.elements()] == [(0,), (1,)]


def test_gf4_modulus_is_forced():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert field(2, 2).modulus == (1, 1, 1)


def test_gf4_multiplication():
    F = field(2, 2)
    x = F.from_coeffs((0, 1))
    assert (x * x).coeffs == (1, 1)  # x^2 = x + 1


def test_gf5_inverse():
    F = field(5)
    two = F.from_coeffs((2,))
    assert inv(two).coeffs == (3,)
    with pytest.raises(InputError):
        inv(F.zero)


def test_gf9_multiplicative_group_cyclic():
    F = field(3, 2)
    orders = []
    for a in F.elements():
        if a.is_zero():
            continue
        o, b = 1, a
        while b != F.one:
            b = b * a
            o += 1
        orders.append(o)
    assert max(orders) == 8
    assert all(8 % o == 0 for o in orders)


def test_gf9_every_unit_has_order_dividing_8():
    F = field(3, 2)
    for a in F.elements():
        if not a.is_zero():
            assert power(a, 8) == F.one


def test_unit_group_cyclic_up_to_81():
    grids = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (2, 5),
             (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
    for p, k in grids:
        F = field(p, k)
        assert F.q <= 81 or F.q in (64, 32)
        found = False
        for a in F.elements():
            if a.is_zero():
                continue
            o, b = 1, a
            while b != F.one:
                b = b * a
                o += 1
            if o == F.q - 1:
                found = True
                break
        assert found, (p, k)


def test_field_axioms_exhaustive_small():
    for (p, k) in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        F = field(p, k)
        els = list(F.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        for a, b in itertools.product(els, repeat=2):
            assert a + b == b + a
            assert a * b == b * a


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_random_gf25(i, j, k):
    F = field(5, 2)
    a, b, c = F.element(i), F.element(j), F.element(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(st.integers(1, 15))
def test_inverse_roundtrip_gf16(i):
    F = field(2, 4)
    a = F.element(i)
    assert a * a.inverse() == F.one


def test_mixed_field_operands_rejected():
    a = field(2, 2).one
    b = field(3, 1).one
    with pytest.raises(InputError):
        _ = a + b
    with pytest.raises(InputError):
        _ = a * b


def test_frobenius_gf4():
    F = field(2, 2)
    x = F.from_coeffs((0, 1))
    assert frobenius(x, 1).coeffs == (1, 1)


def test_frobenius_is_identity_after_k_steps():
    F = field(3, 2)
    for a in F.elements():
        assert frobenius(a, 2) == a


def test_frobenius_is_automorphism():
    F = field(3, 2)
    els = list(F.elements())
    for a, b in itertools.product(els, repeat=2):
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_fixed_points_are_prime_field():
    for (p, k) in [(2, 2), (3, 2), (2, 3)]:
        F = field(p, k)
        fixed = [a for a in F.elements() if frobenius(a, 1) == a]
        assert len(fixed) == p


def test_hermitian_norm_lands_in_prime_field():
    # a * a^q is fixed by x -> x^q, so it lies in the prime subfield
    F = field(3, 2)
    prime_field = {F.from_coeffs((r, 0)) for r in range(3)}
    for a in F.elements():
        if not a.is_zero():
            norm = a * frobenius(a, 1)
            assert norm in prime_field
            assert not norm.is_zero()


def test_enumeration_is_lexicographic():
    F = field(3, 2)
    seen = [e.coeffs for e in F.elements()]
    assert seen == sorted(seen)
    assert len(seen) == 9


def test_index_roundtrip():
    F = field(2, 3)
    for i in range(8):
        assert F.element(i).index == i


def test_functional_aliases():
    F = field(5)
    a, b = F.element(2), F.element(4)
    assert add(a, b) == F.element(1)
    assert mul(a, b) == F.element(3)
    assert neg(a) == F.element(3)
    assert power(a, 0) == F.one
