"""Numerical verification of the asymptotic lemmas: the fractional-power
sums against their predicted main terms, and the exact convolution ratios.

Ratios that can be exact are kept as Fractions; everything involving
q^(i/t) or log q is a stdlib Decimal evaluated at a caller-chosen precision.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction


def technical_sum(q: int, t: int, j: int, m: int, M: int, dps: int):
    """sum_{i=0}^{M} q^((t-j)i/t) * i^(m-t), high precision."""
    if not (0 < j < t < m):
        raise ValueError("need 0 < j < t < m")
    with localcontext() as ctx:
        ctx.prec = dps
        # one fractional power, then integer powers of it: q^((t-j)i/t) = root^i
        root = Decimal(q) ** (Decimal(t - j) / t)
        return sum(root**i * i ** (m - t) for i in range(M + 1))


def technical_main_term(q: int, t: int, j: int, m: int, M: int, dps: int):
    """Predicted leading term (1/(alpha log q) + 1/2) q^(alpha M) M^(m-t),
    alpha = (t-j)/t; the constant is 1/(1 - q^(-alpha)) to two terms only."""
    with localcontext() as ctx:
        ctx.prec = dps
        alpha = Decimal(t - j) / t
        lead = 1 / (alpha * Decimal(q).ln()) + Decimal(1) / 2
        return lead * Decimal(q) ** (alpha * M) * Decimal(M) ** (m - t)


def technical_lemma_check(q: int, t: int, j: int, m: int, M: int, dps: int):
    """Normalized deviation dev(M) = |sum/main - 1| * M; bounded in M when
    the main term is right, but technical_main_term's constant is short,
    so for q >= 3 dev grows about like M (12.7 at q = 5 and M = 400)."""
    s = technical_sum(q, t, j, m, M, dps)
    main = technical_main_term(q, t, j, m, M, dps)
    with localcontext() as ctx:
        ctx.prec = dps
        return abs(s / main - 1) * M


def technical2_check(k: int, M: int) -> Fraction:
    """Exact ratio of (1/k!) sum_i i (M-i)^k to M^(k+2)/(k+2)!.  For k = 1
    this is exactly (M^2 - 1)/M^2."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and >= 1")
    if M < 1:
        raise ValueError("M >= 1 required")
    s = Fraction(sum(i * (M - i) ** k for i in range(M + 1)), math.factorial(k))
    main = Fraction(M ** (k + 2), math.factorial(k + 2))
    return s / main


def product_main_term_check(rV: int, rW: int, M: int) -> Fraction:
    """Exact ratio of sum_i i^(rV-1) (M-i)^(rW-1) to its limiting value
    M^(rV+rW-1) (rV-1)! (rW-1)! / (rV+rW-1)!."""
    if not (rV >= rW >= 1):
        raise ValueError("need rV >= rW >= 1")
    total = sum(i ** (rV - 1) * (M - i) ** (rW - 1) for i in range(M + 1))
    main = Fraction(
        M ** (rV + rW - 1) * math.factorial(rV - 1) * math.factorial(rW - 1),
        math.factorial(rV + rW - 1),
    )
    return Fraction(total) / main
