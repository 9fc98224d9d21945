from fractions import Fraction

import mpmath
import pytest

from hilbcount.errors import SizeError
from hilbcount.genfun import hilb_counts
from hilbcount.ratpoints import schanuel_constant
from hilbcount.peyre import (
    _tail_log_bound,
    alpha_star_hilbm,
    cm_constant,
    damped_density_poly,
    euler_product_density,
    euler_product_factors,
    local_density_poly,
    mu_slope,
    peyre_constant_hilb2,
    peyre_constant_hilbm,
    peyre_constant_pn,
    places_by_degree,
    zeta_fqt,
)

# (1 - x^3)^2, the per-place factor of zeta(3)^-2: for m = 2 it equals the
# damped density identically (the telescoping identity)
ZETA3_DAMPED = [1, 0, 0, -2, 0, 0, 1]


def mpf(v):
    """A Decimal result as an mpmath number, for comparison with an mpmath
    oracle; call inside workdps(50) so no digit of v is lost."""
    return mpmath.mpf(str(v))


def test_zeta_fqt():
    assert zeta_fqt(3, 3) == Fraction(243, 208)
    assert zeta_fqt(3, 2) == Fraction(32, 21)
    with pytest.raises(ValueError):
        zeta_fqt(1, 2)


def horner(coeffs, x):
    """The polynomial with these coefficients, constant term first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_local_density_poly():
    for m in (2, 3, 4):
        poly = local_density_poly(m)
        assert poly[0] == 1
        assert poly[1] == 2
        # density at x = 1/q equals |Hilb^m(F_q)| / q^(2m)
        for q in (2, 3):
            counts = hilb_counts(q, m)
            assert horner(poly, Fraction(1, q)) == Fraction(counts[m], q ** (2 * m))


def test_damped_density_expansion():
    for m in (2, 3, 4, 5):
        poly = damped_density_poly(m)
        assert poly[0] == 1
        assert poly[1] == 0


def test_m2_telescoping_identity():
    assert damped_density_poly(2) == ZETA3_DAMPED


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("deg_cut", [1, 4, 7, 10])
def test_m2_truncated_product_equals_zeta3_product(q, deg_cut):
    # both products run over the same places, so exact equality of every
    # per-degree rational factor is exact equality of the truncated products
    # (comparing the assembled products themselves would need million-digit
    # rationals at deg_cut 10)
    lhs = euler_product_factors(q, damped_density_poly(2), deg_cut)
    rhs = euler_product_factors(q, ZETA3_DAMPED, deg_cut)
    assert lhs == rhs
    # and assemble the full exact rational product where it stays small
    if deg_cut <= 4:
        prod_l = Fraction(1)
        prod_r = Fraction(1)
        for (_, count, base_l), (_, _, base_r) in zip(lhs, rhs):
            prod_l *= base_l**count
            prod_r *= base_r**count
        assert prod_l == prod_r


@pytest.mark.parametrize("q, m, need", [(2, 6, 9), (3, 45, 18)])
def test_tail_bound_guard_names_smallest_cut(q, m, need):
    poly = damped_density_poly(m)
    message = rf"^deg_cut {need - 1} too small for the tail bound to apply \(needs deg_cut >= {need}\)$"
    with pytest.raises(SizeError, match=message):
        _tail_log_bound(q, poly, need - 1)
    assert 0 < _tail_log_bound(q, poly, need) <= Fraction(1, 2)


def test_places_by_degree():
    assert places_by_degree(2, 3) == [(1, 3), (2, 1), (3, 2)]
    assert places_by_degree(3, 2) == [(1, 4), (2, 3)]


def test_zeta_euler_product_converges():
    # truncated product of (1 - q_v^-3)^-1 approaches zeta(3)
    for q in (2, 3):
        with mpmath.workdps(50):
            product = mpmath.mpf(1)
            for d, count in places_by_degree(q, 12):
                product *= (1 / (1 - mpmath.mpf(q) ** (-3 * d))) ** count
            # the zeta function here includes only finite places plus
            # infinity, which is exactly what places_by_degree covers
            assert abs(product / float(zeta_fqt(3, q)) - 1) < 1e-6


def test_tail_bound_is_honest_for_m2():
    # |truncated - exact| <= reported residual, checked against the exact
    # closed form zeta_K(3)^-2 which the m=2 product converges to
    for q in (3, 5):
        exact = 1 / zeta_fqt(3, q) ** 2
        for deg_cut in (4, 6, 8):
            value, residual = euler_product_density(q, 2, deg_cut, 50)
            with mpmath.workdps(50):
                err = abs(mpf(value) - mpmath.mpf(exact.numerator) / mpmath.mpf(exact.denominator))
                assert err <= mpf(residual)


def test_peyre_constant_pn():
    res = peyre_constant_pn(2, 3, 50)
    res1 = peyre_constant_pn(1, 2, 50)
    assert res.exact_prefactor == Fraction(104, 9)
    with mpmath.workdps(50):
        assert abs(mpf(res.value) - 3.50617) < 1e-4
        # scaling identity: c (n+1) ln q = S
        assert abs(mpf(res.value) * 3 * mpmath.log(3) - float(Fraction(104, 9))) < 1e-12
        assert abs(mpf(res1.value) - 1.08202) < 1e-4


def test_peyre_constant_hilb2():
    res = peyre_constant_hilb2(3, 50)
    with mpmath.workdps(50):
        target = (
            mpmath.mpf(10816) / 81 / 9 / mpmath.log(3) ** 2
        )
        assert abs(mpf(res.value) - target) < 1e-9
    assert res.value > 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_hilbm_matches_hilb2(q):
    general = peyre_constant_hilbm(2, q, deg_cut=12, dps=50)
    special = peyre_constant_hilb2(q, 50)
    assert abs(general.value - special.value) < 1e-9
    assert general.residual_bound < 1e-9


def test_mu_slope_and_alpha_star():
    assert mu_slope(2) == 1
    assert mu_slope(6) == 2
    assert mu_slope(10) == 3
    assert mu_slope(7, mu="5/2") == Fraction(5, 2)
    with pytest.raises(ValueError):
        mu_slope(7)
    assert alpha_star_hilbm(mu_slope(2)) == Fraction(1, 9)
    assert alpha_star_hilbm(mu_slope(6)) == Fraction(2, 9)
    assert alpha_star_hilbm(mu_slope(10)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        alpha_star_hilbm(0)
    with pytest.raises(ValueError):
        alpha_star_hilbm("1/0")  # the same parser as mu_slope


def test_cm_constant():
    assert cm_constant(2, 3, deg_cut=8, dps=50).exact_prefactor == Fraction(2, 3)
    res = cm_constant(3, 3, deg_cut=8, dps=50)
    assert res.value > 0
    assert res.residual_bound > 0
    with pytest.raises(ValueError):
        cm_constant(1, 3, deg_cut=8, dps=50)


def test_all_constants_positive():
    for m in (2, 3, 4):
        assert peyre_constant_hilbm(m, 3, mu=1, deg_cut=6, dps=50).value > 0


# (constant, n or m, q, exact_prefactor, value to 20 significant digits):
# reference values for q beyond the q = 3 of the pinned CLI outputs; hilbm
# and cm at deg_cut 9, the smallest cut the tail guard admits for every row
PINNED = [
    ("pn", 1, 2, Fraction(3, 2), "1.0820212806667225555e+0"),
    ("pn", 2, 2, Fraction(21, 4), "2.5247163215556859629e+0"),
    ("pn", 3, 2, Fraction(105, 8), "4.7338431029169111804e+0"),
    ("hilb2", 2, 2, Fraction(49, 16), "6.3741925043296738810e+0"),
    ("hilbm", 2, 2, Fraction(64, 9), "6.3741940369408764216e+0"),
    ("hilbm", 3, 2, Fraction(256, 9), "9.3268747072550389938e+1"),
    ("hilbm", 6, 2, Fraction(32768, 9), "1.3504456370415494757e+5"),
    ("cm", 3, 2, Fraction(16384, 1029), "2.5083848752166769938e+1"),
    ("cm", 6, 2, Fraction(5033164800, 117649), "7.6238354352651488699e+5"),
    ("pn", 1, 3, Fraction(8, 3), "1.2136523021691165248e+0"),
    ("pn", 2, 3, Fraction(104, 9), "3.5061066507107810717e+0"),
    ("pn", 3, 3, Fraction(1040, 27), "8.7652666267769526792e+0"),
    ("hilb2", 2, 3, Fraction(10816, 729), "1.2292783846158370985e+1"),
    ("hilbm", 2, 3, Fraction(81, 4), "1.2292783846939799490e+1"),
    ("hilbm", 3, 3, Fraction(729, 4), "2.5898302781000560138e+2"),
    ("hilbm", 6, 3, Fraction(531441, 2), "1.3334518525823313556e+6"),
    ("cm", 3, 3, Fraction(4782969, 1124864), "7.2927314338987509013e+0"),
    ("cm", 6, 3, Fraction(21182215236075, 19770609664), "6.4892200012022684779e+3"),
    ("pn", 1, 4, Fraction(15, 4), "1.3525266008334031944e+0"),
    ("pn", 2, 4, Fraction(315, 16), "4.7338431029169111804e+0"),
    ("pn", 3, 4, Fraction(5355, 64), "1.5089124890547654388e+1"),
    ("hilb2", 2, 4, Fraction(11025, 256), "2.2409270523034009738e+1"),
    ("hilbm", 2, 4, Fraction(4096, 81), "2.2409270523038327615e+1"),
    ("hilbm", 3, 4, Fraction(65536, 81), "6.6760206999587771264e+2"),
    ("hilbm", 6, 4, Fraction(536870912, 81), "1.1811227428273788458e+7"),
    ("cm", 3, 4, Fraction(67108864, 31255875), "3.4047239221676522686e+0"),
    ("cm", 6, 4, Fraction(17592186044416, 160811476875), "3.7464837983473604282e+2"),
    ("pn", 1, 5, Fraction(24, 5), "1.4912038429430683457e+0"),
    ("pn", 2, 5, Fraction(744, 25), "6.1636425508313491622e+0"),
    ("pn", 3, 5, Fraction(19344, 125), "2.4038205948242261733e+1"),
    ("hilb2", 2, 5, Fraction(61504, 625), "3.7990489494418780641e+1"),
    ("hilbm", 2, 5, Fraction(15625, 144), "3.7990489494418863295e+1"),
    ("hilbm", 3, 5, Fraction(390625, 144), "1.5434821380685330769e+3"),
    ("hilbm", 6, 5, Fraction(6103515625, 72), "8.1596784515280474244e+7"),
    ("cm", 3, 5, Fraction(244140625, 183035904), "1.9658767385698798966e+0"),
    ("cm", 6, 5, Fraction(286102294921875, 14540860309504), "4.9057473135112829546e+1"),
    ("pn", 1, 9, Fraction(80, 9), "2.0227538369485275414e+0"),
    ("pn", 2, 9, Fraction(7280, 81), "1.3634859197208593057e+1"),
    ("pn", 3, 9, Fraction(596960, 729), "9.3171537847592052553e+1"),
    ("hilb2", 2, 9, Fraction(52998400, 59049), "1.8590938532770375872e+2"),
    ("hilbm", 2, 9, Fraction(59049, 64), "1.8590938532770375872e+2"),
    ("hilbm", 3, 9, Fraction(4782969, 64), "1.9398399860922120542e+4"),
    ("hilbm", 6, 9, Fraction(2541865828329, 32), "2.5295092840609936158e+10"),
    ("cm", 3, 9, Fraction(2541865828329, 6173253632000), "5.1598338077077925504e-1"),
    ("cm", 6, 9, Fraction(328256967394537077627, 1488635172070359040000), "3.3900664173764686966e-1"),
    ("pn", 1, 16, Fraction(255, 16), "2.8741190267709817881e+0"),
    ("pn", 2, 16, Fraction(69615, 256), "3.2693103929519917840e+1"),
    ("pn", 3, 16, Fraction(17891055, 4096), "3.9384973640093526022e+2"),
    ("hilb2", 2, 16, Fraction(538472025, 65536), "1.0688390445463906930e+3"),
    ("hilbm", 2, 16, Fraction(16777216, 2025), "1.0688390445463906930e+3"),
    ("hilbm", 3, 16, Fraction(4294967296, 2025), "3.1337393772629304064e+5"),
    ("hilbm", 6, 16, Fraction(144115188075855872, 2025), "1.1509173120864313731e+13"),
    ("cm", 3, 16, Fraction(1125899906842624, 8434289254584375), "1.5161781650913106321e-1"),
    ("cm", 6, 16, Fraction(1208925819614629174706176, 468393318386814499305046875), "3.2086272245768677771e-3"),
]


@pytest.mark.parametrize("kind, arg, q, prefactor, value", PINNED)
def test_constants_pinned_across_q(kind, arg, q, prefactor, value):
    if kind == "pn":
        res = peyre_constant_pn(arg, q, 50)
    elif kind == "hilb2":
        res = peyre_constant_hilb2(q, 50)
    elif kind == "hilbm":
        res = peyre_constant_hilbm(arg, q, deg_cut=9, dps=50)
    else:
        res = cm_constant(arg, q, deg_cut=9, dps=50)
    assert res.exact_prefactor == prefactor
    assert f"{res.value:.19e}" == value


@pytest.mark.parametrize("q", sorted({q for _kind, _arg, q, _prefactor, _value in PINNED} | {2**24}))
def test_hilb2_prefactor_is_schanuel_squared_over_nine(q):
    """q^6 / (9 (q-1)^2 zeta(3)^2) = S^2 / 9 exactly, S = schanuel_constant(2)
    = q^2 (1 - q^-3)(1 + q^-1), at each q the constants are pinned at and at
    2^24, past the F_{p^k} modulus search guard, which q alone never meets."""
    assert peyre_constant_hilb2(q, 50).exact_prefactor == schanuel_constant(2, q) ** 2 / 9
