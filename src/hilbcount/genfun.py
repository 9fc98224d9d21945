"""The zeta and symmetric/Hilbert generating functions of the plane over
F_q, and the closed 0-cycle formulas they cross-validate.

Everything here is exact: series coefficients are integers, point-count
polynomials have integer coefficients, and integrality of the final counts
is asserted rather than assumed.

One product gives every series: Goettsche's

    sum_m |Hilb^m P^2| t^m = prod_{n>=1} Z(x^(n-1) t^n),
    Z(u) = 1 / ((1 - u)(1 - x u)(1 - x^2 u)),

on integer coefficient lists (`_goettsche`).  At x = q its n = 1 factor,
Z(t), is the symmetric-power series and the whole product the Hilbert
counts; at x = 1 and x = 2^B it gives the polynomial in the field size,
`hilb_count_poly`.  The tests check it against a `Fraction` exponential
formula, a coefficient-list product and the punctual cell count.
Goettsche, Math. Ann. 286 (1990).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import SizeError
from .fqarith import irreducible_count

SERIES_ORDER_GUARD = 64


def _check_field_size(q: int):
    if q < 2:
        raise ValueError("field size must be >= 2")


def _check_series_order(order: int):
    if order > SERIES_ORDER_GUARD:
        raise SizeError(f"series order {order} exceeds guard order <= {SERIES_ORDER_GUARD}")


def _goettsche(x: int, m_max: int, n_max: int) -> list[int]:
    """The t^0..t^m_max terms of prod_{n=1}^{n_max} Z(x^(n-1) t^n) at the
    integer x: each factor 1/(1 - x^s t^n), s in {n-1, n, n+1}, applied in
    place by series[i] += x^s * series[i-n]."""
    series = [1] + [0] * m_max
    for n in range(1, n_max + 1):
        for s in (n - 1, n, n + 1):
            x_s = x**s
            for i in range(n, m_max + 1):
                series[i] += x_s * series[i - n]
    return series


def sym_counts(q: int, m_max: int) -> list[int]:
    """|Sym^m P^2(F_q)| for m = 0..m_max: the coefficients of the zeta
    series Z(t) = 1/((1-t)(1-qt)(1-q^2 t)), the n = 1 factor of the
    product at x = q."""
    _check_field_size(q)
    _check_series_order(m_max)
    return _goettsche(q, m_max, 1)


def chen7_closed(q: int, m: int) -> int:
    """Closed even/odd formula for |Sym^m P^2(F_q)|:

        (1 + 1/q) sum_{i<m//2} (i+1)(q^(2(m-i)) + q^(2i+1))
          + (m+2)/2 q^m                   (m even)
          + (m+1)/2 q^(m-1)(q^2 + q + 1)  (m odd).

    Every term of the sum has a factor q, so it is evaluated as
    (q+1) sum / q in integers; each division is asserted exact."""
    if m < 1:
        raise ValueError("m >= 1 required")
    _check_field_size(q)
    total = sum((i + 1) * (q ** (2 * (m - i)) + q ** (2 * i + 1)) for i in range(m // 2))
    total, rem = divmod((q + 1) * total, q)
    assert rem == 0
    if m % 2 == 0:
        half, rem = divmod(m + 2, 2)
        total += half * q**m
    else:
        half, rem = divmod(m + 1, 2)
        total += half * q ** (m - 1) * (q * q + q + 1)
    assert rem == 0
    return total


def hilb_counts(q: int, m_max: int) -> list[int]:
    """|Hilb^m P^2(F_q)| for m = 0..m_max: the product at x = q.  No factor
    with n > m_max reaches t^m_max."""
    _check_field_size(q)
    _check_series_order(m_max)
    return _goettsche(q, m_max, m_max)


def hilb_count_poly(m: int) -> list[int]:
    """|Hilb^m P^2| as a polynomial in the field size x: its 2m+1 integer
    coefficients, constant term first (degree 2m, monic, second coefficient
    2), read off the t^m term of the product at x = 2^B, whose base-2^B
    digits are those coefficients.

    Every step of the product adds, so no coefficient of the t^m term
    exceeds the term's value at x = 1, which the product at x = 1 gives.
    B is one bit more than that value needs, so no digit carries into the
    next."""
    if m < 0:
        raise ValueError("m >= 0 required")
    _check_series_order(m)
    bits = _goettsche(1, m, m)[m].bit_length() + 1
    packed = _goettsche(1 << bits, m, m)[m]
    mask = (1 << bits) - 1
    poly = [(packed >> (j * bits)) & mask for j in range(2 * m + 1)]
    assert packed >> ((2 * m + 1) * bits) == 0
    assert poly[2 * m] == 1
    if m >= 2:
        assert poly[2 * m - 1] == 2
    return poly


def closed_point_counts(q: int, m_max: int) -> list[int]:
    """Number of closed points of degree m on P^2 over F_q (prime 0-cycles),
    for m = 1..m_max.  Mobius inversion of the Newton identity
    sum_{d|m} d P_d = q^(2m) + q^m + 1 gives the monic irreducibles of
    degree m over F_(q^2) and over F_q, plus one at m = 1, since
    sum_{d|m} mu(d) = [m = 1]."""
    _check_field_size(q)
    return [
        irreducible_count(m, q * q) + irreducible_count(m, q) + (m == 1)
        for m in range(1, m_max + 1)
    ]


def _chen8(q: int, m: int) -> Fraction:
    """The closed even/odd formula for the degree-m closed points (m >= 2),
    evaluated verbatim.  It is exact for prime-power m; for other m the
    caller reports the divergence from the Mobius recursion, never repairs
    it."""
    if m % 2 == 0:
        return Fraction(q ** (2 * m) - q ** (m // 2), m)
    j = next(d for d in range(2, m + 1) if m % d == 0)
    return Fraction(q ** (2 * m) + q**m - q ** (2 * m // j) - q ** (m // j), m)


def _chen1(q: int, m: int, primes: int, sym: int) -> Fraction:
    """|m r - m main| q^m for the proportion r = primes / sym of degree-m
    0-cycles that are prime, against the main term
    (1/m)(1 - 1/q - 1/q^2 + 1/q^3)."""
    ratio = Fraction(primes, sym)
    main = Fraction(1, m) * (
        1 - Fraction(1, q) - Fraction(1, q * q) + Fraction(1, q**3)
    )
    return abs(m * ratio - m * main) * q**m


class CycleRow(NamedTuple):
    m: int
    sym: int
    hilb: int
    primes: int
    chen7: int
    chen8: Fraction
    chen8_valid: bool
    ratio_error: Fraction


def cycle_table(q: int, m_max: int) -> list[CycleRow]:
    """One row per m = 1..m_max with every 0-cycle count and its
    closed-form checks."""
    if m_max < 1:
        raise ValueError("m_max >= 1 required")
    sym = sym_counts(q, m_max)
    hilb = hilb_counts(q, m_max)
    primes = closed_point_counts(q, m_max)
    rows = []
    for m in range(1, m_max + 1):
        chen8 = _chen8(q, m) if m >= 2 else Fraction(primes[0])
        rows.append(
            CycleRow(
                m=m,
                sym=sym[m],
                hilb=hilb[m],
                primes=primes[m - 1],
                chen7=chen7_closed(q, m),
                chen8=chen8,
                chen8_valid=chen8 == primes[m - 1],
                ratio_error=_chen1(q, m, primes[m - 1], sym[m]),
            )
        )
    return rows
