"""Exact arithmetic in finite fields GF(p^k).

Elements are polynomial residues modulo a fixed monic irreducible
polynomial over GF(p), stored as coefficient tuples with the constant
term first.  The modulus for GF(p^k) is the lexicographically smallest
monic irreducible polynomial of degree k under coefficient-list order,
so a field is fully determined by (p, k) and element enumeration is
reproducible across runs and platforms.

Element enumeration is lexicographic on coefficient vectors; the index
of an element is its rank in that order.  Matrix-group code works on
indices through the dense add/mul tables exposed here; everything else
can use :class:`FieldElement` values and ordinary operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalError, SizeCapError

FIELD_SIZE_CAP = 1 << 16

# dense op tables hold q^2 entries each and are built entry by entry, so
# they stop at q = 1024, past which a field is a size cap: that covers
# GF(19^2) = 361, the largest field of a group other than GL(1,q) or
# SL(1,q) under the group size cap, and every q <= 547 that a d = 1 pair
# scan allows; GF(2^10) is the slowest field still tabled
_TABLE_SIZE_CAP = 1 << 10


# the first thirteen primes; as Miller-Rabin bases they decide primality
# exactly below the smallest strong pseudoprime to all of them,
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _miller_rabin(n: int) -> bool:
    """Primality of an odd n > 41, exact below _MILLER_RABIN_LIMIT."""
    if n >= _MILLER_RABIN_LIMIT:
        raise InputError(
            f"{n} is too large to test for primality exactly "
            f"(limit {_MILLER_RABIN_LIMIT})"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int):
    """Return (p, k) with q = p**k and p prime, or None.

    A prime factor up to 41 is divided out.  Otherwise every prime factor
    exceeds 2**5, so q = p**k needs k <= log2(q) / 5; the largest k with
    an exact k-th root gives the only candidate p, which deterministic
    Miller-Rabin then decides.  Raises InputError when that p is beyond
    the test's exact range."""
    if q < 2:
        return None
    for p in _SMALL_PRIMES:
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    for k in range(q.bit_length() // 5, 1, -1):
        p = _iroot(q, k)
        if p ** k == q:
            break
    else:
        p, k = q, 1
    return (p, k) if _miller_rabin(p) else None


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def is_prime_power(q: int) -> bool:
    return prime_power(q) is not None


# -- polynomial helpers over GF(p), coefficient lists constant-first --

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a)


def _poly_eval(c, x, p):
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % p
    return acc


def _is_irreducible(m, p):
    """Check a monic polynomial: no roots, no monic factor of degree <= deg/2."""
    k = len(m) - 1
    for r in range(p):
        if _poly_eval(m, r, p) == 0:
            return False
    for deg in range(2, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            if not _poly_mod(m, divisor, p):
                return False
    return True


def _smallest_irreducible(p, k):
    for tail in itertools.product(range(p), repeat=k):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise InternalError(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldSpec:
    """The field GF(p^k) with its fixed modulus; immutable once built.

    Instances should be obtained through :func:`field`, which caches them,
    so equal parameters always yield the same object.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "zero_index", "one_index",
        "_add_table", "_mul_table", "_neg_table", "_inv_table",
        "_pows",
    )

    def __init__(self, p: int, k: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"p = {p!r} is not prime")
        if not isinstance(k, int) or k < 1:
            raise InputError(f"k = {k!r} must be a positive integer")
        q = p ** k
        if q > FIELD_SIZE_CAP:
            raise InputError(f"field size {q} exceeds cap {FIELD_SIZE_CAP}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = (0, 1) if k == 1 else _smallest_irreducible(p, k)
        self._pows = tuple(p ** (k - 1 - i) for i in range(k))
        self.zero_index = 0
        self.one_index = self.index_of((1,) + (0,) * (k - 1))
        self._add_table = None
        self._mul_table = None
        self._neg_table = None
        self._inv_table = None

    # -- index <-> coefficient-vector conversions (lexicographic rank) --

    def index_of(self, coeffs) -> int:
        return sum(c * w for c, w in zip(coeffs, self._pows))

    def coeffs_of(self, index: int) -> tuple:
        p, k = self.p, self.k
        out = [0] * k
        for i in range(k - 1, -1, -1):
            index, out[i] = divmod(index, p)
        return tuple(out)

    # -- coefficient-level arithmetic --

    def _add_coeffs(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _neg_coeffs(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul_coeffs(self, a, b):
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * m[j]) % p
        return tuple(prod[:k])

    def _pow_coeffs(self, a, e: int):
        if e < 0:
            a = self._inv_coeffs(a)
            e = -e
        result = self.coeffs_of(self.one_index)
        base = a
        while e:
            if e & 1:
                result = self._mul_coeffs(result, base)
            base = self._mul_coeffs(base, base)
            e >>= 1
        return result

    def _inv_coeffs(self, a):
        if not any(a):
            raise InputError("zero has no multiplicative inverse")
        return self._pow_coeffs(a, self.q - 2)

    # -- index-level arithmetic --

    def inv_index(self, a: int) -> int:
        return self.index_of(self._inv_coeffs(self.coeffs_of(a)))

    def pow_index(self, a: int, e: int) -> int:
        return self.index_of(self._pow_coeffs(self.coeffs_of(a), e))

    def frobenius_index(self, a: int, m: int = 1) -> int:
        return self.pow_index(a, self.p ** (m % self.k))

    # -- dense tables for hot loops --

    def _check_table_size(self):
        if self.q > _TABLE_SIZE_CAP:
            raise SizeCapError(
                f"dense op tables for GF({self.q}) exceed the field table "
                f"cap {_TABLE_SIZE_CAP}"
            )

    def add_table(self):
        if self._add_table is None:
            self._check_table_size()
            q = self.q
            cs = [self.coeffs_of(i) for i in range(q)]
            self._add_table = [
                [self.index_of(self._add_coeffs(cs[a], cs[b])) for b in range(q)]
                for a in range(q)
            ]
        return self._add_table

    def mul_table(self):
        if self._mul_table is None:
            self._check_table_size()
            q = self.q
            cs = [self.coeffs_of(i) for i in range(q)]
            self._mul_table = [
                [self.index_of(self._mul_coeffs(cs[a], cs[b])) for b in range(q)]
                for a in range(q)
            ]
        return self._mul_table

    def neg_table(self):
        if self._neg_table is None:
            self._check_table_size()
            self._neg_table = [
                self.index_of(self._neg_coeffs(self.coeffs_of(a)))
                for a in range(self.q)
            ]
        return self._neg_table

    def inv_table(self):
        """Inverse table; entry 0 is None (zero is not invertible)."""
        if self._inv_table is None:
            self._check_table_size()
            self._inv_table = [None] + [
                self.inv_index(a) for a in range(1, self.q)
            ]
        return self._inv_table

    # -- element construction --

    def element(self, index: int) -> "FieldElement":
        if not 0 <= index < self.q:
            raise InputError(f"element index {index} out of range for GF({self.q})")
        return FieldElement(self, self.coeffs_of(index))

    def from_coeffs(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise InputError(
                f"expected {self.k} coefficients for GF({self.q}), got {len(coeffs)}"
            )
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> "FieldElement":
        return self.element(self.zero_index)

    @property
    def one(self) -> "FieldElement":
        return self.element(self.one_index)

    def elements(self):
        for i in range(self.q):
            yield self.element(i)

    def __repr__(self):
        return f"GF({self.q})"


_FIELDS: dict = {}


def field(p: int, k: int = 1) -> FieldSpec:
    """The field GF(p^k), cached so repeated calls return the same object."""
    key = (p, k)
    spec = _FIELDS.get(key)
    if spec is None:
        spec = FieldSpec(p, k)
        _FIELDS[key] = spec
    return spec


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue in GF(p^k): coefficient tuple, constant first."""

    spec: FieldSpec
    coeffs: tuple

    def _require_same(self, other):
        if not isinstance(other, FieldElement) or other.spec is not self.spec:
            raise InputError("operands belong to different fields")

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._require_same(other)
        return FieldElement(self.spec, self.spec._add_coeffs(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._require_same(other)
        return self + (-other)

    def __neg__(self):
        return FieldElement(self.spec, self.spec._neg_coeffs(self.coeffs))

    def __mul__(self, other):
        self._require_same(other)
        return FieldElement(self.spec, self.spec._mul_coeffs(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._require_same(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec._pow_coeffs(self.coeffs, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._inv_coeffs(self.coeffs))

    def frobenius(self, m: int = 1) -> "FieldElement":
        return self ** (self.spec.p ** (m % self.spec.k))

    def __repr__(self):
        return f"FieldElement(GF({self.spec.q}), {self.coeffs})"


# module-level operation aliases matching the functional surface

def add(a: FieldElement, b: FieldElement) -> FieldElement:
    return a + b


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    return a * b


def neg(a: FieldElement) -> FieldElement:
    return -a


def inv(a: FieldElement) -> FieldElement:
    return a.inverse()


def power(a: FieldElement, e: int) -> FieldElement:
    return a ** e


def frobenius(a: FieldElement, m: int = 1) -> FieldElement:
    """Apply the Frobenius automorphism x -> x^(p^m)."""
    return a.frobenius(m)
