"""Exact arithmetic in F_q (q = p^k) and in the polynomial ring F_q[t].

Field elements are encoded as plain integers in [0, q).  The base-p digits
of the code are the coordinates in the polynomial basis 1, x, ..., x^(k-1)
of F_{p^k} over F_p; for k = 1 the code is just the residue mod p.  For
k > 1 the defining modulus is the lexicographically least monic irreducible
of degree k over F_p (by coefficient sequence, lowest degree first), so
(p, k) alone fixes a field and outputs are reproducible across runs.  It
and the products in F_{p^k} are computed with `Poly` over F_p: the modulus
is the first monic candidate that `is_irreducible` accepts, the search
starting at constant term 1 since every candidate with constant term 0 is
divisible by t, and a product is a `Poly` product reduced by it.

Polynomials over F_q are immutable dense coefficient tuples (lowest degree
first, no trailing zeros).  All counts use Python's arbitrary-precision
integers.
"""

from __future__ import annotations

import itertools

from .errors import SizeError

# Max number of monic polynomials scanned when listing irreducibles.
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
            # the first hit in product order is the least irreducible; a
            # zero constant term makes t a factor, so the tails skip it
            for tail in itertools.product(range(1, p), *[range(p)] * (k - 1)):
                mod_poly = Poly(base, tail + (1,))
                if is_irreducible(mod_poly):
                    break
            self._mod_poly = mod_poly
            self.modulus = mod_poly.coeffs
            self._add_cache: dict[tuple[int, int], int] = {}
            self._neg_cache: dict[int, int] = {}
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._inv_cache: dict[int, int] = {}

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
        base = self._mod_poly.field
        prod = Poly(base, self.digits(a)) * Poly(base, self.digits(b)) % self._mod_poly
        result = self.encode(prod.coeffs)
        self._mul_cache[key] = result
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        cached = self._inv_cache.get(a)
        if cached is None:
            cached = self.pow(a, self.q - 2)
            self._inv_cache[a] = cached
        return cached

    def pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
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


class Poly:
    """Dense polynomial over an FqField.  deg(0) is reported as -1; callers
    that need the -infinity convention must special-case is_zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __sub__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.sub(x, y))
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        return Poly(self.field, convolve(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        quo = [0] * max(len(rem) - db, 0)
        inv_lead = F.inv(other.lead)
        while len(rem) - 1 >= db and rem:
            c = F.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for j, y in enumerate(other.coeffs):
                rem[shift + j] = F.sub(rem[shift + j], F.mul(c, y))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


_IRRED_CACHE: dict[tuple, tuple[Poly, ...]] = {}


def irreducibles_of_degree(d: int, field: FqField) -> list[Poly]:
    """All monic irreducibles of degree d, sorted lexicographically by
    coefficient sequence (lowest degree first)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    if q**d > ENUM_GUARD:
        raise SizeError(f"irreducible scan q^d = {q}^{d} exceeds guard {ENUM_GUARD}")
    key = (field.p, field.k, d)
    cached = _IRRED_CACHE.get(key)
    if cached is not None:
        return list(cached)
    lower: list[Poly] = []
    for e in range(1, d // 2 + 1):
        lower.extend(irreducibles_of_degree(e, field))
    found = []
    for tail in itertools.product(range(q), repeat=d):
        f = Poly(field, tuple(tail) + (1,))
        if all((f % g).coeffs for g in lower if 2 * g.degree <= d):
            found.append(f)
    assert len(found) == irreducible_count(d, q)
    _IRRED_CACHE[key] = tuple(found)
    return found


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    for e in range(1, f.degree // 2 + 1):
        for g in irreducibles_of_degree(e, f.field):
            if (f % g).is_zero:
                return False
    return True
