"""Canonical points of P^n(F_q(t)), exact-height enumeration, and the
closed-form counts they must reproduce.

A point is stored as a coprime tuple of polynomials whose first nonzero
entry is monic; this is the unique representative of its F_q(t)^*-orbit,
and its height is q to the maximum coordinate degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeError
from .fqarith import FqField, Poly, all_polys, poly_gcd, poly_gcd_all

# Max number of coordinate tuples scanned by enumerate_exact_height.
TUPLE_GUARD = 10**9


@dataclass(frozen=True)
class ProjPointFqt:
    coords: tuple[Poly, ...]

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def field(self) -> FqField:
        return self.coords[0].field

    def serialize(self) -> str:
        return "/".join(c.serialize() for c in self.coords)


def canonicalize(coords) -> ProjPointFqt:
    """Reduce a nonzero coordinate tuple to the canonical orbit representative."""
    coords = tuple(coords)
    if all(c.is_zero for c in coords):
        raise ValueError("all coordinates are zero")
    g = poly_gcd_all(coords)
    if g.degree > 0:
        coords = tuple(c // g for c in coords)
    pivot = next(c for c in coords if not c.is_zero)
    if not pivot.is_monic:
        u = pivot.field.inv(pivot.lead)
        coords = tuple(c.scale(u) for c in coords)
    return ProjPointFqt(coords)


def height_exponent(P: ProjPointFqt) -> int:
    """Exponent M with H(P) = q^M; this is the max coordinate degree."""
    return max(c.degree for c in P.coords if not c.is_zero)


def height_rational(P: ProjPointFqt) -> int:
    return P.field.q ** height_exponent(P)


def enumerate_exact_height(n: int, field: FqField, M: int):
    """Yield every canonical point of P^n(F_q(t)) of height exactly q^M.

    Every coordinate, and every partial gcd of coordinates, has degree <= M,
    so each is handled as its code in range(q^(M+1)), whose base-q digits
    are its coefficients.  Points come in itertools.product order over the
    codes: by pivot position from the last to the first, then by monic
    pivot, then by free tail.  The running gcd is a code, read from a row
    [gcd(g, c) for every code c] and stopped at code 1, the polynomial 1.
    The pivot's row lives for its tail loop; rows of the non-unit gcds of
    two or more coordinates are memoised for the call.  At n = 1 nothing is
    memoised; at n >= 2 the guard keeps q^(M+1) <= 1000, so the memo holds
    at most q^(M+1) rows of q^(M+1) entries, 10^6 in all.
    """
    if n < 1 or M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    q = field.q
    ncodes = q ** (M + 1)
    if ncodes ** (n + 1) > TUPLE_GUARD:
        raise SizeError(
            f"enumeration of q^((n+1)(M+1)) = {q}^{(n + 1) * (M + 1)} "
            f"coordinate tuples exceeds guard {TUPLE_GUARD}"
        )
    polys = all_polys(field, M)
    code_of = {f.coeffs: code for code, f in enumerate(polys)}
    monics = [code for code, f in enumerate(polys) if f.is_monic]
    top = q**M  # the codes of degree exactly M are those >= top
    codes = range(ncodes)

    def gcd_row(g):
        return [code_of[poly_gcd(polys[g], f).coeffs] for f in polys]

    memo = {}
    for pos in range(n, -1, -1):
        k = n - pos
        for pivot in monics:
            head = (polys[0],) * pos + (polys[pivot],)
            reaches_M = pivot >= top
            pivot_row = gcd_row(pivot) if pivot != 1 and k else None
            for tail in itertools.product(codes, repeat=k):
                if not reaches_M and max(tail, default=0) < top:
                    continue
                g = pivot
                for c in tail:
                    if g == 1:
                        break
                    row = pivot_row if g == pivot else memo.get(g)
                    if row is None:
                        row = memo[g] = gcd_row(g)
                    g = row[c]
                if g == 1:
                    yield ProjPointFqt(head + tuple(map(polys.__getitem__, tail)))


def schanuel_constant(
    n: int,
    field: FqField,
    g: int = 0,
    class_number: int = 1,
    zeta_value: Fraction | None = None,
) -> Fraction:
    """Leading constant S_K(n+1, 1) in the exact-height point count.

    For K = F_q(t) this is q^(n+1)(1 - q^-n)(1 - q^-(n+1))/(q - 1), an exact
    rational.  For other (g, class number) the caller must supply the value
    of zeta_K at n+1."""
    q = field.q
    if g == 0 and class_number == 1 and zeta_value is None:
        return (
            Fraction(q ** (n + 1), q - 1)
            * (1 - Fraction(1, q**n))
            * (1 - Fraction(1, q ** (n + 1)))
        )
    if zeta_value is None:
        raise ValueError("zeta_K(n+1) required when (g, J) != (0, 1)")
    return Fraction(class_number) * Fraction(q) ** ((1 - g) * (n + 1)) / (
        (q - 1) * zeta_value
    )


def point_count_exact_height(n: int, field: FqField, M: int) -> int:
    """Closed-form count of P^n(F_q(t)) points of height exactly q^M."""
    q = field.q
    if M == 0:
        return (q ** (n + 1) - 1) // (q - 1)
    value = schanuel_constant(n, field) * q ** ((n + 1) * M)
    assert value.denominator == 1
    return int(value)


@dataclass(frozen=True)
class PairCount:
    observed: Fraction
    closed_form: Fraction

    @property
    def match(self) -> bool:
        return self.observed == self.closed_form


def count_reducible_pairs(field: FqField, M: int) -> PairCount:
    """Halved convolution (1/2) sum_N A(N) A(M-N) over P^2 heights, with the
    exact closed form it must equal for M >= 1."""
    if M < 1:
        raise ValueError("M >= 1 required")
    q = field.q
    observed = Fraction(0)
    for N in range(M + 1):
        observed += Fraction(
            point_count_exact_height(2, field, N)
            * point_count_exact_height(2, field, M - N),
            2,
        )
    S = schanuel_constant(2, field)
    closed = (
        Fraction(S * S, 2) * q ** (3 * M) * M
        + Fraction(q * q + 1, 2 * (q * q - 1)) * S * S * q ** (3 * M)
    )
    return PairCount(observed, closed)


def count_pairs_closed_subset(field: FqField, M: int) -> Fraction:
    """Halved convolution of P^1 x P^2 exact-height counts; the majorant for
    pairs with a rational component on a line."""
    if M < 1:
        raise ValueError("M >= 1 required")
    total = Fraction(0)
    for N in range(M + 1):
        total += Fraction(
            point_count_exact_height(1, field, N)
            * point_count_exact_height(2, field, M - N),
            2,
        )
    return total
