"""Peyre-constant machinery over K = F_q(t): the zeta function of F_q(t) at
integers, Euler products of local densities of the punctual Hilbert schemes
of the plane, and the leading constants they assemble into.  The paper
states the constants for any global field of positive characteristic; at
F_q(t) its genus is 0 and its class number 1, so each prefactor is a
rational function of q and zeta(3).

Local densities are polynomials in x = 1/q_v held as integer coefficient
lists, constant term first, so the m = 2 telescoping identity is a list
equality and the Euler-product tail admits an explicit bound from the
1 + O(x^2) expansion of the damped density.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .errors import SizeError, refuse_power
from .fqarith import irreducible_count
from .genfun import hilb_count_poly
from .ratpoints import schanuel_constant

# Max bit length of q^deg_cut, the norm of the last places an Euler product
# takes in; its exact factors and working digits grow with it.
EULER_BITS_GUARD = 512
# Max bit length of q^(n+1), the size of the Schanuel constant's numerator
# that the P^n constant prints exactly.
PN_BITS_GUARD = 2**15


def zeta_fqt(s: int, q: int) -> Fraction:
    """zeta of F_q(t) at an integer s > 1, exact:
    1/((1 - q^(1-s))(1 - q^(-s)))."""
    if s <= 1:
        raise ValueError("s > 1 required")
    return 1 / ((1 - Fraction(1, q ** (s - 1))) * (1 - Fraction(1, q**s)))


def local_density_poly(m: int) -> list[int]:
    """omega_v for Hilb^m of the plane as a polynomial in x = 1/q_v:
    |Hilb^m(F_{q_v})| / q_v^(2m), the count's coefficients reversed.
    Constant term 1, second coefficient 2, as hilb_count_poly asserts."""
    return hilb_count_poly(m)[::-1]


def damped_density_poly(m: int) -> list[int]:
    """(1 - x)^2 * omega_v(x): the convergence-factored local density.
    Expands as 1 + O(x^2); the vanishing linear term is what makes the
    Euler product converge."""
    out = local_density_poly(m) + [0, 0]
    for _ in range(2):
        # times (1 - x), top down so out[i-1] is still the old coefficient
        for i in range(len(out) - 1, 0, -1):
            out[i] -= out[i - 1]
    assert out[0] == 1
    if m >= 2:
        assert out[1] == 0
    return out


def places_by_degree(q: int, deg_cut: int) -> list[tuple[int, int]]:
    """(degree, number of places of that degree) for the projective line,
    including the infinite place in the degree-1 bucket.  Refuses a cut
    with q^deg_cut past EULER_BITS_GUARD bits before any work."""
    if deg_cut < 1:
        raise ValueError("deg_cut >= 1 required")
    refuse_power(q, deg_cut, EULER_BITS_GUARD, f"Euler product to deg_cut {deg_cut}: q^deg_cut")
    out = []
    for d in range(1, deg_cut + 1):
        count = irreducible_count(d, q) + (1 if d == 1 else 0)
        out.append((d, count))
    return out


def euler_product_factors(q: int, poly: list[int], deg_cut: int):
    """Exact per-degree factors (degree, count, base value at x = q^-d).

    With Q = q^d, poly(1/Q) = (sum_i c_i Q^(n-i)) / Q^n, n = len(poly) - 1,
    whose numerator is an integer Horner pass at Q."""
    out = []
    for d, count in places_by_degree(q, deg_cut):
        Q = q**d
        num = 0
        for c in poly:
            num = num * Q + c
        out.append((d, count, Fraction(num, Q ** (len(poly) - 1))))
    return out


def _tail_log_bound(q: int, poly: list[int], deg_cut: int) -> Fraction:
    """Bound on |log of the omitted factors| for degrees > deg_cut.

    Uses |poly(x) - 1| <= C x^k0 for x <= 1, with k0 the first nonzero power
    (k0 >= 2 for damped densities) and C the absolute coefficient sum,
    |log(1+u)| <= 2|u| for |u| <= 1/2, and at most 2 q^d / d <= 2 q^d places
    of degree d.  A cut is refused, with the smallest that works named,
    unless C q^(-k0 (deg_cut+1)) <= 1/2, so that the log bound holds at every
    omitted place, and the returned bound is <= 1/2, so that the residual
    (e^bound - 1)|value| is at most (e^(1/2) - 1)|value|."""
    k0 = next(i for i, c in enumerate(poly[1:], 1) if c != 0)
    assert k0 >= 2
    C = sum(abs(c) for c in poly[1:])
    # sum_{d > cut} 2 q^d * 2C q^(-k0 d) = 4C r^(cut+1) / (1 - r)
    r = Fraction(1, q ** (k0 - 1))

    def admits(cut):
        return 2 * C <= q ** (k0 * (cut + 1)) and 8 * C * r ** (cut + 1) <= 1 - r

    if not admits(deg_cut):
        need = deg_cut + 1
        while not admits(need):
            need += 1
        raise SizeError(
            f"deg_cut {deg_cut} too small for the tail bound to apply "
            f"(needs deg_cut >= {need})"
        )
    return 4 * C * r ** (deg_cut + 1) / (1 - r)


def euler_product_density(q: int, m: int, deg_cut: int, dps: int):
    """Truncated product of (1 - q_v^-1)^2 omega_v over all places of degree
    <= deg_cut, with an explicit bound on the log of the omitted tail."""
    poly = damped_density_poly(m)
    factors = euler_product_factors(q, poly, deg_cut)
    tb = _tail_log_bound(q, poly, deg_cut)
    with localcontext() as ctx:
        # a base rounded to prec digits and raised to the power count is off
        # by about count units in its last place, so carry that many more
        ctx.prec = dps + len(str(max(count for _, count, _ in factors)))
        value = Decimal(1)
        for _, count, base in factors:
            value *= (Decimal(base.numerator) / base.denominator) ** count
        tail = Decimal(tb.numerator) / tb.denominator
        # |true/truncated - 1| <= e^tail - 1, whose subtraction cancels the
        # -tail.adjusted() leading digits of e^tail
        ctx.prec += max(0, -tail.adjusted())
        residual = (tail.exp() - 1) * abs(value)
        return value, residual


class PeyreResult(NamedTuple):
    value: Decimal
    residual_bound: Decimal
    exact_prefactor: Fraction


def _positive_mu(mu) -> Fraction:
    """mu as a positive Fraction; ValueError for anything else."""
    try:
        mu = Fraction(mu)
    except ZeroDivisionError:
        raise ValueError(f"mu {mu!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"mu {mu!r} is not a fraction") from None
    if mu <= 0:
        raise ValueError("mu must be positive")
    return mu


def mu_slope(m: int, mu=None) -> Fraction:
    """Minimum-slope parameter of the effective cone.  Table-driven: 1 for
    m = 2, and r when m is the binomial coefficient C(r+2, 2)."""
    if mu is not None:
        return _positive_mu(mu)
    if m == 2:
        return Fraction(1)
    r = 1
    while (r + 2) * (r + 1) // 2 <= m:
        if (r + 2) * (r + 1) // 2 == m:
            return Fraction(r)
        r += 1
    raise ValueError(f"no tabulated slope for m={m}; pass mu explicitly")


def alpha_star_hilbm(mu) -> Fraction:
    """alpha^* of Hilb^m of the plane: mu / 9."""
    return _positive_mu(mu) / 9


def peyre_constant_pn(n: int, q: int, dps: int):
    """Leading constant for P^n over F_q(t): S(n+1, 1) / ((n+1) log q).
    Refuses q^(n+1) past PN_BITS_GUARD bits before any work."""
    if n < 1:
        raise ValueError("n >= 1 required")
    refuse_power(q, n + 1, PN_BITS_GUARD, f"P^n constant at n = {n}: q^(n+1)")
    S = schanuel_constant(n, q)
    with localcontext() as ctx:
        ctx.prec = dps
        value = Decimal(S.numerator) / S.denominator / ((n + 1) * Decimal(q).ln())
        return PeyreResult(value, Decimal(0), S)


def peyre_constant_hilb2(q: int, dps: int):
    """Leading constant for Hilb^2 of the plane over F_q(t):
    q^6 / (9 (q-1)^2 (log q)^2 zeta(3)^2)."""
    rational = Fraction(q**6, 9 * (q - 1) ** 2) / zeta_fqt(3, q) ** 2
    with localcontext() as ctx:
        ctx.prec = dps
        value = Decimal(rational.numerator) / rational.denominator / Decimal(q).ln() ** 2
        return PeyreResult(value, Decimal(0), rational)


def peyre_constant_hilbm(m: int, q: int, mu=None, *, deg_cut: int, dps: int):
    """Leading constant for Hilb^m of the plane over F_q(t) by the general
    product formula: alpha^* q^(2(m+1)) / ((q-1)^2 (log q)^2) times the Euler
    product of damped local densities."""
    if m < 2:
        raise ValueError("m >= 2 required")
    prefactor = alpha_star_hilbm(mu_slope(m, mu)) * Fraction(q ** (2 * (m + 1)), (q - 1) ** 2)
    product, residual = euler_product_density(q, m, deg_cut, dps)
    with localcontext() as ctx:
        ctx.prec = dps
        scale = Decimal(prefactor.numerator) / prefactor.denominator / Decimal(q).ln() ** 2
        return PeyreResult(scale * product, scale * residual, prefactor)


def cm_constant(m: int, q: int, mu=None, *, deg_cut: int, dps: int):
    """The positive constant c_m relating the prime-orbit main term to the
    total Sym^m main term over F_q(t).  Exactly 2/3 for m = 2; for m >= 3 the
    displayed product formula."""
    if m < 2:
        raise ValueError("m >= 2 required")
    mu = mu_slope(m, mu)  # a given mu and deg_cut are checked at m = 2 too, though unread
    if m == 2:
        if deg_cut < 1:
            raise ValueError("deg_cut >= 1 required")
        with localcontext() as ctx:
            ctx.prec = dps
            return PeyreResult(Decimal(2) / 3, Decimal(0), Fraction(2, 3))
    S = schanuel_constant(2, q)
    prefactor = (
        mu
        * Fraction(3) ** (m - 2)
        * zeta_fqt(3, q) ** 2
        * math.factorial(m)
        * math.factorial(m - 1)
        / S ** (m - 2)
    )
    product, residual = euler_product_density(q, m, deg_cut, dps)
    with localcontext() as ctx:
        ctx.prec = dps
        scale = Decimal(prefactor.numerator) / prefactor.denominator
        return PeyreResult(scale * product, scale * residual, prefactor)
