import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbcount.errors import SizeError
from hilbcount.genfun import (
    SERIES_ORDER_GUARD,
    chen7_closed,
    closed_point_counts,
    cycle_table,
    hilb_count_poly,
    hilb_counts,
    sym_counts,
)
from oracles import cell_sum, punctual_count_by_matrices, punctual_hilb_counts


class TruncSeries:
    """Power series truncated at a fixed order, with Fraction coefficients:
    the oracle the package's integer series are held equal to.

    All arithmetic is exact through the truncation order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be >= 0")
        c = list(coeffs)[: order + 1]
        while len(c) < order + 1:
            c.append(Fraction(0))
        self.order = order
        self.coeffs = c

    @classmethod
    def constant(cls, order, value=Fraction(1)):
        return cls(order, [value])

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and all(x == y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        N = min(self.order, other.order)
        out = [Fraction(0)] * (N + 1)
        for i, x in enumerate(self.coeffs[: N + 1]):
            if not x:
                continue
            for j in range(N + 1 - i):
                y = other.coeffs[j]
                if y:
                    out[i + j] = out[i + j] + x * y
        return TruncSeries(N, out)

    def inverse(self):
        c0 = self.coeffs[0]
        if not c0:
            raise ValueError("inverse needs nonzero constant term")
        inv0 = 1 / Fraction(c0)
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * out[n - k]
            out[n] = -inv0 * acc
        return TruncSeries(self.order, out)

    def exp(self):
        if self.coeffs[0]:
            raise ValueError("exp needs zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * k * out[n - k]
            out[n] = acc / n
        return TruncSeries(self.order, out)

    def log(self):
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        out = [Fraction(0)] * (self.order + 1)
        for n in range(1, self.order + 1):
            acc = Fraction(self.coeffs[n] * n)
            for k in range(1, n):
                acc -= out[k] * k * self.coeffs[n - k]
            out[n] = acc / n
        return TruncSeries(self.order, out)


def zeta_p2_series(q: int, N: int) -> TruncSeries:
    """Zeta series of the plane: 1/((1-t)(1-qt)(1-q^2 t)) through order N."""
    prod = TruncSeries.constant(N)
    for a in (1, q, q * q):
        geom = TruncSeries(N, [Fraction(a) ** i for i in range(N + 1)])
        prod = prod * geom
    return prod


def gottsche_argument(q: int, N: int) -> TruncSeries:
    """The series sum_k (t^k / k) * N_k / (1 - q^k t^k) inside the exp, with
    N_k = q^(2k) + q^k + 1 the number of F_{q^k}-points of the plane."""
    coeffs = [Fraction(0)] * (N + 1)
    for k in range(1, N + 1):
        c_k = Fraction(q ** (2 * k) + q**k + 1, k)
        for j in range(N // k):
            # term (N_k / k) * q^(k j) t^(k (j+1))
            coeffs[k * (j + 1)] += c_k * q ** (k * j)
    return TruncSeries(N, coeffs)


def horner(coeffs, x):
    """The polynomial with these coefficients, constant term first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


@given(coeffs=st.lists(small_fracs, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_series_exp_log_roundtrip(coeffs):
    N = len(coeffs)
    s = TruncSeries(N, [Fraction(0)] + coeffs)
    assert s.exp().log() == s
    u = TruncSeries(N, [Fraction(1)] + coeffs)
    assert u.log().exp() == u


@given(coeffs=st.lists(small_fracs, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_series_inverse(coeffs):
    N = len(coeffs)
    u = TruncSeries(N, [Fraction(1)] + coeffs)
    one = TruncSeries.constant(N)
    assert u * u.inverse() == one


def test_series_inverse_int_coefficients():
    inv = TruncSeries(3, [1, 2]).inverse()
    assert inv == TruncSeries(3, [Fraction(c) for c in (1, -2, 4, -8)])
    assert TruncSeries(2, [3]).inverse() == TruncSeries(2, [Fraction(1, 3)])


def brute_sym_count(q, m):
    """Complete homogeneous symmetric function h_m(1, q, q^2)."""
    total = 0
    for a in range(m + 1):
        for b in range(m - a + 1):
            c = m - a - b
            total += q**b * q ** (2 * c)
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sym_counts_and_chen7(q):
    sym = sym_counts(q, 12)
    for m in range(0, 13):
        assert sym[m] == brute_sym_count(q, m)
    for m in range(1, 13):
        assert chen7_closed(q, m) == sym[m]


def _chen7_by_fraction(q, m):
    """The Fraction form of chen7_closed."""
    total = Fraction(0)
    for i in range(m // 2):
        total += (i + 1) * Fraction(q ** (2 * (m - i)) + q ** (2 * i + 1))
    total *= 1 + Fraction(1, q)
    if m % 2 == 0:
        total += Fraction(m + 2, 2) * q**m
    else:
        total += Fraction(m + 1, 2) * q ** (m - 1) * (q * q + q + 1)
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_chen7_integer_form_matches_fraction_oracle(q):
    for m in range(1, SERIES_ORDER_GUARD + 1):
        value = chen7_closed(q, m)
        assert type(value) is int
        assert value == _chen7_by_fraction(q, m), m


def test_zeta_series_is_sym_generating_function():
    s = zeta_p2_series(2, 8)
    assert [int(c) for c in s.coeffs] == sym_counts(2, 8)


@pytest.mark.parametrize("q", [2, 3, 16])
def test_integer_series_equal_fraction_oracle(q):
    # every m up to the series guard: sym_counts is the zeta series, and
    # hilb_counts the exp of the Goettsche argument, computed over Q
    N = SERIES_ORDER_GUARD
    assert [Fraction(c) for c in sym_counts(q, N)] == zeta_p2_series(q, N).coeffs
    assert [Fraction(c) for c in hilb_counts(q, N)] == gottsche_argument(q, N).exp().coeffs


def test_hilb_counts():
    h = hilb_counts(2, 3)
    assert h[2] == 49
    assert 35 - 7 + 21 == 49  # chi-style decomposition of the m=2 count
    for q in (2, 3, 4, 5):
        counts = hilb_counts(q, 12)
        assert all(isinstance(c, int) and c > 0 for c in counts)
        # polynomial route agrees with the numeric route
        for m in (0, 1, 2, 3, 5, 8):
            assert horner(hilb_count_poly(m), q) == counts[m]


@pytest.mark.parametrize("m", range(13))
def test_hilb_count_poly_equals_exp_route_oracle(m):
    # the t^m coefficient of exp(sum_k (t^k / k) N_k(x) / (1 - x^k t^k)),
    # N_k(x) = x^(2k) + x^k + 1, has x-degree <= 2m, because each t^n term
    # of the argument has x-degree <= 2n; its values at 2m+1 points fix it
    poly = hilb_count_poly(m)
    assert len(poly) == 2 * m + 1
    for q in range(2, 2 * m + 3):
        assert horner(poly, q) == gottsche_argument(q, m).exp().coeffs[m], (m, q)


def test_hilb_count_poly_interpolates_hilb_counts():
    # 2m+1 points fix a polynomial of degree 2m
    m_max = 7
    counts = {q: hilb_counts(q, m_max) for q in range(2, 2 * m_max + 3)}
    for m in range(m_max + 1):
        poly = hilb_count_poly(m)
        for q in range(2, 2 * m + 3):
            assert horner(poly, q) == counts[q][m], (m, q)


def test_hilb_count_poly_matches_hilb_counts_to_guard():
    counts = {q: hilb_counts(q, SERIES_ORDER_GUARD) for q in (2, 3, 16)}
    for m in range(SERIES_ORDER_GUARD + 1):
        poly = hilb_count_poly(m)
        for q, row in counts.items():
            assert horner(poly, q) == row[m], (m, q)


def _hilb_count_series_by_lists(m):
    """The t^0..t^m terms of Goettsche's product on x-coefficient lists, one
    add per coefficient: the oracle for the packed ints of hilb_count_poly."""
    # x^s series[i-n] has degree at most s + 2(i-n) <= 2i, so 2i+1 slots suffice
    series = [[0] * (2 * i + 1) for i in range(m + 1)]
    series[0][0] = 1
    for n in range(1, m + 1):
        for s in (n - 1, n, n + 1):
            for i in range(n, m + 1):
                src, dst = series[i - n], series[i]
                for j, c in enumerate(src, s):
                    dst[j] += c
    return series


def test_hilb_count_poly_matches_list_oracle():
    # no factor past t^i touches the t^i term, so one run to the guard
    # gives every smaller m too
    series = _hilb_count_series_by_lists(SERIES_ORDER_GUARD)
    for m in range(SERIES_ORDER_GUARD + 1):
        assert hilb_count_poly(m) == series[m], m


def test_hilb_count_poly_budget():
    start = time.perf_counter()
    poly = hilb_count_poly(SERIES_ORDER_GUARD)
    elapsed = time.perf_counter() - start
    assert len(poly) == 2 * SERIES_ORDER_GUARD + 1 and poly[-1] != 0
    assert elapsed < 2, f"hilb_count_poly({SERIES_ORDER_GUARD}) took {elapsed:.2f}s"


def test_hilb_count_poly_shape():
    for m in (2, 3, 4, 6):
        p = hilb_count_poly(m)
        assert len(p) == 2 * m + 1
        assert p[2 * m] == 1
        assert p[2 * m - 1] == 2
    with pytest.raises(SizeError, match=r"^series order 65 exceeds guard order <= 64$"):
        hilb_count_poly(65)


def test_punctual_cells_equal_hilb_counts():
    # the product over closed points of the punctual cell series shares no
    # step with Goettsche's product but the closed-point counts
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert punctual_hilb_counts(q, 16) == hilb_counts(q, 16), q


@pytest.mark.parametrize(("p", "k", "points"), [(2, 1, 1), (2, 2, 3), (2, 3, 7), (3, 1, 1), (3, 2, 4)])
def test_cell_sum_base_case(p, k, points):
    # the cyclic commuting nilpotent triples over |GL_k(F_p)| count the
    # punctual Hilbert scheme with no cell decomposition
    assert punctual_count_by_matrices(p, k) == cell_sum(p, k) == points


@pytest.mark.parametrize("q", [2, 3, 5])
def test_closed_points_newton_identity(q):
    primes = closed_point_counts(q, 12)
    for m in range(1, 13):
        total = sum(d * primes[d - 1] for d in range(1, m + 1) if m % d == 0)
        assert total == q ** (2 * m) + q**m + 1


def test_chen8_flags():
    rows = cycle_table(2, 16)
    for m in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        r = rows[m - 1]
        assert r.chen8_valid and r.chen8 == r.primes, m
    for m in (6, 10, 12, 15):
        assert not rows[m - 1].chen8_valid, m
    # the documented m=6 discrepancy at q=2: formula gives a non-integer
    r = rows[5]
    assert r.chen8 == Fraction(2044, 3)
    assert r.primes == 679


@pytest.mark.parametrize("q", [2, 3, 5])
def test_chen1_normalized_error(q):
    for r in cycle_table(q, 12)[1:]:
        assert r.ratio_error <= 4, (q, r)


def test_cycle_table_rows():
    rows = cycle_table(2, 3)
    assert [(r.sym, r.hilb, r.primes) for r in rows[1:]] == [(35, 49, 7), (155, 281, 22)]
    assert all(r.chen7 == r.sym for r in rows)
    for m_max in (0, -1):
        with pytest.raises(ValueError, match=r"^m_max >= 1 required$"):
            cycle_table(2, m_max)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_cycle_table_matches_per_m_checks(q):
    rows = cycle_table(q, 12)
    assert [r.m for r in rows] == list(range(1, 13))
    main = 1 - Fraction(1, q) - Fraction(1, q * q) + Fraction(1, q**3)
    for r in rows:
        assert r.ratio_error == abs(Fraction(r.m * r.primes, r.sym) - main) * q**r.m, (q, r.m)
        assert r.chen8_valid == (r.chen8 == r.primes), (q, r.m)
    assert (rows[0].chen8, rows[0].chen8_valid) == (rows[0].primes, True)


def test_series_guards():
    """The series order is guarded; q is not (the CLI bounds it by bits)."""
    for counts in (sym_counts, hilb_counts, cycle_table):
        assert counts(17, 4)
        with pytest.raises(SizeError):
            counts(2, 65)
