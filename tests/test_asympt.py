import math
from fractions import Fraction

import mpmath
import pytest

from hilbcount.fqarith import FqField
from hilbcount.asympt import (
    product_main_term_check,
    technical2_check,
    technical_lemma_check,
    technical_main_term,
    technical_sum,
)


def mpf(v):
    """A Decimal result as an mpmath number, for comparison with an mpmath
    oracle; call inside workdps(50) so no digit of v is lost."""
    return mpmath.mpf(str(v))


def test_technical_sum_small():
    # q=3, t=2, j=1, m=3, M=2: 0 + 3^(1/2)*1 + 3^1*2
    val = technical_sum(3, 2, 1, 3, 2, 50)
    with mpmath.workdps(50):
        assert abs(mpf(val) - (mpmath.sqrt(3) + 6)) < mpmath.mpf(10) ** -40
    # M=0: only the i=0 term, which vanishes for m > t
    assert technical_sum(3, 2, 1, 3, 0, 50) == 0
    with pytest.raises(ValueError):
        technical_sum(3, 2, 2, 3, 5, 50)
    with pytest.raises(ValueError):
        technical_sum(3, 3, 1, 3, 5, 50)


def test_technical_sum_precision_agreement():
    a = technical_sum(2, 2, 1, 4, 10, dps=50)
    b = technical_sum(2, 2, 1, 4, 10, dps=80)
    with mpmath.workdps(50):
        assert abs(mpf(a) - mpf(b)) / abs(mpf(b)) < mpmath.mpf(10) ** -40


def test_technical_sum_monotone_in_M():
    vals = [technical_sum(3, 2, 1, 5, M, 50) for M in (10, 20, 40, 80)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "field,t,j,m", [(FqField(3), 2, 1, 5), (FqField(2), 2, 1, 4), (FqField(3), 3, 2, 5)]
)
def test_technical_lemma_deviation_bounded(field, t, j, m):
    devs = [technical_lemma_check(field.q, t, j, m, M, 50) for M in (50, 100, 200, 400)]
    assert all(d < 10 for d in devs)
    assert all(technical_main_term(field.q, t, j, m, M, 50) > 0 for M in (50, 400))


def test_technical2_exact():
    for M in (10, 100, 1000):
        assert technical2_check(1, M) == Fraction(M * M - 1, M * M)
    assert abs(technical2_check(3, 100) - 1) < Fraction(2, 100)
    with pytest.raises(ValueError):
        technical2_check(2, 10)
    with pytest.raises(ValueError):
        technical2_check(1, 0)


def test_technical2_monotone_to_one():
    ratios = [technical2_check(1, M) for M in (10, 20, 40, 80, 160)]
    assert ratios == sorted(ratios)
    assert all(r < 1 for r in ratios)


def test_product_main_term_check():
    for M in (10, 100):
        assert product_main_term_check(1, 1, M) == Fraction(M + 1, M)
        assert product_main_term_check(2, 1, M) == Fraction(M + 1, M)
    assert product_main_term_check(2, 2, 100) == Fraction(9999, 10000)
    with pytest.raises(ValueError):
        product_main_term_check(1, 2, 10)


def binomial_cancellation(k):
    """sum_j C(2k-1, j) (-1)^j; identically 0, the cancellation that kills
    the order-M^(m-2) terms."""
    return sum((-1) ** j * math.comb(2 * k - 1, j) for j in range(2 * k))


def test_binomial_cancellation():
    for k in range(1, 9):
        assert binomial_cancellation(k) == 0
