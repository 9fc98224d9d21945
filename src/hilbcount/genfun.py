"""The zeta and symmetric/Hilbert generating functions of the plane over
F_q, and the closed 0-cycle formulas they cross-validate.

Everything here is exact: series coefficients are integers, point-count
polynomials have integer coefficients, and integrality of the final counts
is asserted rather than assumed.

|Hilb^m P^2| comes by two routes that share no arithmetic.  The polynomial
in the field size, `hilb_count_poly`, is Goettsche's product over Z[x]
(shift-and-add on ints that pack the x-coefficients); the numeric counts,
`hilb_counts`, are the exponential formula as an integer recurrence with
exact division.  The tests hold the two equal for every m up to the series
guard.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import SizeError
from .fqarith import mobius

SERIES_ORDER_GUARD = 64


def _check_field_size(q: int):
    if q < 2:
        raise ValueError("field size must be >= 2")


def _check_series_order(order: int):
    if order > SERIES_ORDER_GUARD:
        raise SizeError(f"series order {order} exceeds guard order <= {SERIES_ORDER_GUARD}")


def sym_counts(q: int, m_max: int) -> list[int]:
    """|Sym^m P^2(F_q)| for m = 0..m_max: the coefficients of the zeta
    series 1/((1-t)(1-qt)(1-q^2 t)), each geometric factor 1/(1 - a t)
    applied in place by series[i] += a * series[i-1]."""
    _check_field_size(q)
    _check_series_order(m_max)
    series = [1] + [0] * m_max
    for a in (1, q, q * q):
        for i in range(1, m_max + 1):
            series[i] += a * series[i - 1]
    return series


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
    """|Hilb^m P^2(F_q)| for m = 0..m_max via the exponential formula.

    The counts are the coefficients h_n of exp(sum_k (t^k / k) N_k /
    (1 - q^k t^k)), N_k = q^(2k) + q^k + 1 the number of F_{q^k}-points of
    the plane.  With b_n = n * [t^n] of the argument, an integer, they obey
    n h_n = sum_{k=1}^{n} b_k h_{n-k}; the division by n must be exact."""
    _check_field_size(q)
    _check_series_order(m_max)
    # b_n = sum over k | n of (n/k) N_k q^(n-k)
    b = [0] * (m_max + 1)
    for k in range(1, m_max + 1):
        n_k = q ** (2 * k) + q**k + 1
        for n in range(k, m_max + 1, k):
            b[n] += (n // k) * n_k * q ** (n - k)
    out = [1] + [0] * m_max
    for n in range(1, m_max + 1):
        acc = sum(b[k] * out[n - k] for k in range(1, n + 1))
        assert acc % n == 0, "Hilbert count coefficients must be integers"
        out[n] = acc // n
    return out


def hilb_count_poly(m: int) -> list[int]:
    """|Hilb^m P^2| as a polynomial in the field size x: its 2m+1 integer
    coefficients, constant term first (degree 2m, monic, second coefficient
    2), from Goettsche's product over Z[x]:

        sum_m |Hilb^m P^2| t^m = prod_{n>=1} Z(x^(n-1) t^n),
        Z(u) = 1 / ((1 - u)(1 - x u)(1 - x^2 u)).

    Each factor 1/(1 - x^s t^n), s in {n-1, n, n+1}, is applied in place by
    series[i] += x^s * series[i-n] for i = n..m.  Each t^i term is one int
    holding its x-coefficients in fields of B bits, so x^s is a shift by sB
    bits.  Every step adds, so no coefficient of the t^i term exceeds its
    value at x = 1: the number of triples of partitions of total size i, at
    most that of size m, which the same recurrence computes on ints.  B is
    one bit more than that needs, so no field carries into the next.
    Goettsche, Math. Ann. 286 (1990)."""
    if m < 0:
        raise ValueError("m >= 0 required")
    _check_series_order(m)
    at_one = [1] + [0] * m
    for n in range(1, m + 1):
        for _s in range(3):
            for i in range(n, m + 1):
                at_one[i] += at_one[i - n]
    bits = at_one[m].bit_length() + 1
    series = [1] + [0] * m
    for n in range(1, m + 1):
        for s in (n - 1, n, n + 1):
            shift = s * bits
            for i in range(n, m + 1):
                series[i] += series[i - n] << shift
    mask = (1 << bits) - 1
    packed = series[m]
    poly = [(packed >> (j * bits)) & mask for j in range(2 * m + 1)]
    assert packed >> ((2 * m + 1) * bits) == 0
    assert poly[2 * m] == 1
    if m >= 2:
        assert poly[2 * m - 1] == 2
    return poly


def closed_point_counts(q: int, m_max: int) -> list[int]:
    """Number of closed points of degree m on P^2 over F_q (prime 0-cycles),
    for m = 1..m_max, via Mobius inversion of the Newton identity."""
    _check_field_size(q)
    out = []
    for m in range(1, m_max + 1):
        total = 0
        for d in range(1, m + 1):
            if m % d == 0:
                r = m // d
                total += mobius(d) * (q ** (2 * r) + q**r + 1)
        assert total % m == 0 and total > 0
        out.append(total // m)
    return out


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
