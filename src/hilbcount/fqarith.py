"""Exact arithmetic in F_q (q = p^k) and in the polynomial ring F_q[t].

Field elements are encoded as plain integers in [0, q).  The base-p digits
of the code are the coordinates in the polynomial basis 1, x, ..., x^(k-1)
of F_{p^k} over F_p; for k = 1 the code is just the residue mod p.  For
k > 1 the defining modulus is the lexicographically least monic irreducible
of degree k over F_p (by coefficient sequence, lowest degree first), so
(p, k) alone fixes a field and outputs are reproducible across runs.

Polynomials over F_q are lists or tuples of element codes, lowest degree
first, multiplied by `convolve` and reduced by a monic polynomial with
`poly_rem`.  The two also build F_{p^k} on F_p: its modulus is the first
monic candidate of degree k that no monic polynomial of degree 1..k//2
divides, the search starting at constant term 1 since every candidate with
constant term 0 is divisible by t, and a product of two elements is the
product of their digit lists reduced by the modulus.  All counts use
Python's arbitrary-precision integers.
"""

from __future__ import annotations

import itertools

from .errors import SizeError

# Max q = p^k of the F_{p^k} modulus search, which scans fewer than q candidates.
ENUM_GUARD = 10**7
# Max bit length of a field size q; prime_power trial-divides up to
# sqrt(q), so each two more bits double its time.
Q_BITS_GUARD = 40


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k.  Refuses q past Q_BITS_GUARD bits before any
    trial division."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if q.bit_length() > Q_BITS_GUARD:
        raise SizeError(f"field size q = {q} exceeds guard of {Q_BITS_GUARD} bits")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q  # q itself is prime
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def field_from_order(q: int) -> "FqField":
    """F_q for a prime power q = p^k."""
    return FqField(*prime_power(q))


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(d: int, q: int) -> int:
    """Number of monic irreducibles of degree d over F_q (Mobius count)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
    assert total % d == 0
    return total // d


class FqField:
    """The finite field F_{p^k} with integer-coded elements."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k > 1:
            if self.q > ENUM_GUARD:
                raise SizeError(f"modulus search over {p}^{k} candidates exceeds guard {ENUM_GUARD}")
            base = FqField(p)
            # the least irreducible is the first candidate no monic g of degree
            # 1..k//2 divides; a zero constant term makes t a factor, so tails skip it
            for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
                modulus = tail + (1,)
                if all(
                    poly_rem(base, modulus, g + (1,))
                    for d in range(1, k // 2 + 1)
                    for g in itertools.product(range(p), repeat=d)
                ):
                    break
            self._base = base
            self.modulus = modulus
            self._add_cache: dict[tuple[int, int], int] = {}
            self._neg_cache: dict[int, int] = {}
        self._mul_cache: dict[tuple[int, int], int] = {}

    def __repr__(self):
        if self.k == 1:
            return f"FqField({self.p})"
        return f"FqField({self.p}, {self.k})"

    def __eq__(self, other):
        return isinstance(other, FqField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    # --- element codecs ---

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, digits) -> int:
        a = 0
        for c in reversed(list(digits)):
            a = a * self.p + (c % self.p)
        return a

    # --- arithmetic on codes ---

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        key = (a, b) if a <= b else (b, a)
        cached = self._add_cache.get(key)
        if cached is not None:
            return cached
        p = self.p
        result = self.encode((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))
        self._add_cache[key] = result
        return result

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        cached = self._neg_cache.get(a)
        if cached is None:
            cached = self.encode(-d for d in self.digits(a))
            self._neg_cache[a] = cached
        return cached

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        key = (a, b) if a <= b else (b, a)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        base = self._base
        result = self.encode(poly_rem(base, convolve(base, self.digits(a), self.digits(b)), self.modulus))
        self._mul_cache[key] = result
        return result


def convolve(field: FqField, a, b) -> list[int]:
    """The coefficients of the product of two polynomials over field, given
    by their coefficients lowest degree first; empty if either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def poly_rem(field: FqField, a, g) -> list[int]:
    """The remainder of a by a monic g, polynomials over field given by their
    coefficients lowest degree first; no trailing zeros, so empty iff g
    divides a."""
    rem = list(a)
    d = len(g) - 1
    while len(rem) > d:
        # subtract c t^(len(rem) - 1 - d) g, which clears the top coefficient c
        c = rem.pop()
        if c:
            shift = len(rem) - d
            for j in range(d):
                rem[shift + j] = field.sub(rem[shift + j], field.mul(c, g[j]))
    while rem and rem[-1] == 0:
        rem.pop()
    return rem
