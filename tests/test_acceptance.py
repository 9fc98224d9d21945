"""End-to-end acceptance checks, one test per criterion, each with an
explicit wall-clock budget.  These exercise the public API the way the CLI
does and pin the headline numbers."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from hilbcount.fqarith import FqField
from hilbcount.ratpoints import (
    count_reducible_pairs,
    point_count_exact_height,
    schanuel_constant,
)
from hilbcount.genfun import (
    chen7_closed,
    closed_point_counts,
    cycle_table,
    hilb_counts,
    sym_counts,
)
from hilbcount.peyre import (
    damped_density_poly,
    euler_product_factors,
    peyre_constant_hilb2,
)
from hilbcount.quadfield import enumerate_degree2
from hilbcount.asympt import (
    product_main_term_check,
    technical_lemma_check,
    technical2_check,
)
from oracles import (
    Poly,
    enumerate_exact_height,
    is_squarefree,
    kt_main_term,
    line_form_key,
    sym2_basis,
)

F3 = FqField(3)
F5 = FqField(5)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded {seconds}s budget: {elapsed:.1f}s"


def test_criterion_1_rational_counts():
    with budget(10):
        grid = [(1, 2, range(1, 5)), (2, 2, range(1, 4)), (1, 3, range(1, 4)), (2, 3, range(1, 3))]
        for n, q, Ms in grid:
            field = FqField(q)
            for M in Ms:
                observed = sum(1 for _ in enumerate_exact_height(n, field, M))
                assert observed == point_count_exact_height(n, q, M)
        assert point_count_exact_height(2, 2, 1) == 42
        assert point_count_exact_height(1, 2, 1) == 6


def test_criterion_2_reducible_pairs():
    with budget(5):
        for q in (2, 3):
            assert all(pc.match for pc in count_reducible_pairs(q, 1, 3))
        assert count_reducible_pairs(2, 2, 2)[0].observed == 3234


def test_criterion_3_generating_functions():
    with budget(5):
        for q in (2, 3, 4, 5):
            sym = sym_counts(q, 12)
            for m in range(1, 13):
                assert chen7_closed(q, m) == sym[m]
            counts = hilb_counts(q, 12)
            assert all(isinstance(c, int) and c > 0 for c in counts)
        assert hilb_counts(2, 2)[2] == 49 == 35 - 7 + 21


def test_criterion_4_closed_points_and_chen8():
    with budget(2):
        for q in (2, 3, 5):
            primes = closed_point_counts(q, 12)
            for m in range(1, 13):
                total = sum(d * primes[d - 1] for d in range(1, m + 1) if m % d == 0)
                assert total == q ** (2 * m) + q**m + 1
        rows = cycle_table(2, 16)
        for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            assert rows[m - 1].chen8_valid
        for m in (6, 10, 12, 15):
            assert not rows[m - 1].chen8_valid


def test_criterion_5_chen1_error_bound():
    with budget(2):
        for q in (2, 3, 5):
            for r in cycle_table(q, 12)[1:]:
                assert r.ratio_error <= 4


def test_criterion_6_peyre():
    with budget(5):
        # telescoping: the m=2 damped local factor equals the zeta(3)^-2
        # damped factor (1 - x^3)^2 at every place, so the truncated
        # products agree exactly at any cutoff
        zeta3_damped = [1, 0, 0, -2, 0, 0, 1]
        assert damped_density_poly(2) == zeta3_damped
        for q in (3, 5):
            for deg_cut in (4, 10):
                lhs = euler_product_factors(q, damped_density_poly(2), deg_cut)
                rhs = euler_product_factors(q, zeta3_damped, deg_cut)
                assert lhs == rhs
        res = peyre_constant_hilb2(3, 50)
        with mpmath.workdps(50):
            target = mpmath.mpf(10816) / 81 / 9 / mpmath.log(3) ** 2
            assert abs(mpmath.mpf(str(res.value)) - target) < 1e-9


def test_criterion_7_quadratic_heights():
    """H([sqrt(d) : 1 : 0]) = q^(deg d / 2) for every monic squarefree d of
    degree 1 to 4 at q = 3 and 5: the key of s^2 - d on the line Z = 0 has
    max degree deg d."""
    with budget(30):
        for field in (F3, F5):
            zero, one = Poly(field, ()), Poly.one(field)
            basis = sym2_basis((one, zero, zero), (zero, one, zero))
            for deg in (1, 2, 3, 4):
                for tail in itertools.product(range(field.q), repeat=deg):
                    d = Poly(field, list(tail) + [1])
                    if is_squarefree(d):
                        key = line_form_key(basis, one, zero, -d)
                        assert max(c.degree for c in key.coords) == d.degree


def test_criterion_8_degree2_counts():
    with budget(60):
        results = enumerate_degree2(3, 1, 2)
        for res in results:
            assert res.count > 0
            assert Fraction(res.ratio) > 0
        r1, r2 = (Fraction(res.ratio) for res in results)
        # the count/main-term ratio approaches 1/2 as M grows
        assert abs(r2 - Fraction(1, 2)) < abs(r1 - Fraction(1, 2))


def test_degree2_count_reads_line_classes_in_closed_form():
    # catches a return to walking the rational lines, over 60 s on 2 cores
    with budget(20):
        assert enumerate_degree2(5, 2, 2)[0].count == 27767940


def test_criterion_9_technical_lemmas():
    with budget(10):
        for M in (10, 100, 1000):
            assert technical2_check(1, M) == Fraction(M * M - 1, M * M)
        devs = [technical_lemma_check(3, 2, 1, 5, M, 50) for M in (50, 100, 200, 400)]
        assert all(d < 10 for d in devs)
        assert product_main_term_check(2, 2, 100) == Fraction(9999, 10000)


def test_criterion_10_main_term_identities():
    with budget(1):
        # the two exact convolution ratios behind the product main term
        for M in (10, 100):
            assert product_main_term_check(1, 1, M) == Fraction(M + 1, M)
            assert product_main_term_check(2, 2, M) == Fraction(M * M - 1, M * M)
        # S = S(3, 1) at q = 3 carries the degree-2 and reducible-pair main
        # terms: 2 S^2 q^(3M) M, and S^2 q^(3M) (M/2 + (q^2+1)/(2(q^2-1)))
        S = schanuel_constant(2, 3)
        assert S == Fraction(104, 9)
        for M in (1, 2, 5):
            assert kt_main_term(F3, M) == 2 * S * S * 27**M * M
            (pairs,) = count_reducible_pairs(3, M, M)
            assert pairs.match
            assert pairs.closed_form == S * S * 27**M * (Fraction(M, 2) + Fraction(10, 16))
