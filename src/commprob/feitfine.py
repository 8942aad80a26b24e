"""Closed-form Feit-Fine count of commuting matrix pairs.

P(d) counts ordered pairs of commuting d x d matrices over F_q via a sum
over partitions of d in power notation:

    P(d) = q^(d^2) f(d) * sum over partitions pi of d of
           q^k(pi) / (f(b_1) f(b_2) ... f(b_d))

where pi = 1^b1 2^b2 ... d^bd, k(pi) = b_1 + ... + b_d, and
f(t) = prod_{i=1..t} (1 - 1/q^i) with f(0) = 1.  Everything is exact
rational arithmetic; the result is asserted to be a nonnegative integer.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError, InputError, InternalError
from .gf import is_prime_power

# partitions are enumerated for d up to this bound: p(30) = 5604, and
# P(30, q) takes about 1 s at q = 2 and 2.2 s at q = 2^61 - 1 (one 2-vCPU
# machine, Python 3.11), while d = 45 takes 21 s at q = 2
PARTITIONS_MAX_D = 30


class PartitionPowerNotation:
    """A partition of d recorded by part multiplicities b[i] of part
    size i+1 (so sum (i+1)*b[i] = d)."""

    __slots__ = ("b",)

    def __init__(self, b: tuple):
        self.b = b

    @property
    def k_pi(self) -> int:
        return sum(self.b)

    def total(self) -> int:
        return sum((i + 1) * m for i, m in enumerate(self.b))


def partitions(d: int) -> list:
    """All partitions of d in power notation, lexicographic on the
    multiplicity vectors."""
    if d < 0:
        raise InputError("d must be nonnegative")
    if d > PARTITIONS_MAX_D:
        raise BudgetError(
            f"d = {d} exceeds the partition enumeration bound {PARTITIONS_MAX_D}"
        )
    if d == 0:
        return [PartitionPowerNotation(())]
    results = []

    def descend(max_part, remaining, counts):
        if remaining == 0:
            results.append(tuple(counts))
            return
        for part_size in range(min(max_part, remaining), 0, -1):
            counts[part_size - 1] += 1
            descend(part_size, remaining - part_size, counts)
            counts[part_size - 1] -= 1

    descend(d, d, [0] * d)
    uniq = sorted(set(results))
    return [PartitionPowerNotation(b) for b in uniq]


def f(t: int, q: int) -> Fraction:
    """f(t) = prod_{i=1..t} (1 - q^-i), with f(0) = 1."""
    if t < 0:
        raise InputError("t must be nonnegative")
    if q < 2:
        raise InputError("q must be at least 2")
    result = Fraction(1)
    for i in range(1, t + 1):
        result *= 1 - Fraction(1, q ** i)
    return result


def feit_fine_pairs(d: int, q: int) -> int:
    """P(d, q): ordered commuting pairs in the d x d matrix algebra."""
    if d < 1:
        raise InputError("d must be positive")
    if not is_prime_power(q):
        raise InputError(f"q = {q} is not a prime power")
    total = Fraction(0)
    for pi in partitions(d):
        denom = Fraction(1)
        for m in pi.b:
            denom *= f(m, q)
        total += Fraction(q ** pi.k_pi) / denom
    value = Fraction(q ** (d * d)) * f(d, q) * total
    if value.denominator != 1 or value < 0:
        raise InternalError(f"P({d},{q}) evaluated to non-integer {value}")
    return value.numerator
