from fractions import Fraction

import mpmath
import pytest

from hilbcount.errors import SizeError
from hilbcount.fqarith import FqField
from hilbcount.genfun import hilb_counts
from hilbcount.peyre import (
    GlobalFieldParams,
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
    zeta3_damped_poly,
    zeta_fqt,
    zeta_k,
)

F2 = FqField(2)
F3 = FqField(3)
F5 = FqField(5)


def mpf(v):
    """A Decimal result as an mpmath number, for comparison with an mpmath
    oracle; call inside workdps(50) so no digit of v is lost."""
    return mpmath.mpf(str(v))


def test_zeta_fqt():
    assert zeta_fqt(3, F3) == Fraction(243, 208)
    assert zeta_fqt(3, F2) == Fraction(32, 21)
    with pytest.raises(ValueError):
        zeta_fqt(1, F2)
    with mpmath.workdps(50):
        # s -> infinity: value tends to 1
        assert abs(mpf(zeta_fqt(40.0, F2)) - 1) < 1e-9
        # float path agrees with the exact path
        assert abs(mpf(zeta_fqt(3.0, F3)) - float(Fraction(243, 208))) < 1e-12


def test_global_field_params_validation():
    with pytest.raises(ValueError):
        GlobalFieldParams(F3, genus=0, class_number=2)
    with pytest.raises(ValueError):
        GlobalFieldParams(F3, class_number=2)
    with pytest.raises(ValueError):
        GlobalFieldParams(F3, l_poly=(1, 2))
    p = GlobalFieldParams(F3)
    assert zeta_k(3, p) == zeta_fqt(3, F3)
    # immutable, and equal to params with the same fields
    assert p == GlobalFieldParams(F3, 0, 1, (1,)) and hash(p) == hash(GlobalFieldParams(F3))
    assert p != GlobalFieldParams(F2) and p != (F3, 0, 1, (1,))
    assert GlobalFieldParams(F3, genus=1, class_number=5, l_poly=(1, 1, 3)).class_number == 5
    with pytest.raises(AttributeError):
        p.genus = 1


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
    assert damped_density_poly(2) == zeta3_damped_poly()


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("deg_cut", [1, 4, 7, 10])
def test_m2_truncated_product_equals_zeta3_product(q, deg_cut):
    # both products run over the same places, so exact equality of every
    # per-degree rational factor is exact equality of the truncated products
    # (comparing the assembled products themselves would need million-digit
    # rationals at deg_cut 10)
    field = FqField(q)
    lhs = euler_product_factors(field, damped_density_poly(2), deg_cut)
    rhs = euler_product_factors(field, zeta3_damped_poly(), deg_cut)
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
    field, poly = FqField(q), damped_density_poly(m)
    message = rf"^deg_cut {need - 1} too small for the tail bound to apply \(needs deg_cut >= {need}\)$"
    with pytest.raises(SizeError, match=message):
        _tail_log_bound(field, poly, need - 1)
    assert 0 < _tail_log_bound(field, poly, need) <= Fraction(1, 2)


def test_places_by_degree():
    assert places_by_degree(F2, 3) == [(1, 3), (2, 1), (3, 2)]
    assert places_by_degree(F3, 2) == [(1, 4), (2, 3)]


def test_zeta_euler_product_converges():
    # truncated product of (1 - q_v^-3)^-1 approaches zeta(3)
    for q in (2, 3):
        field = FqField(q)
        with mpmath.workdps(50):
            product = mpmath.mpf(1)
            for d, count in places_by_degree(field, 12):
                product *= (1 / (1 - mpmath.mpf(q) ** (-3 * d))) ** count
            # the zeta function here includes only finite places plus
            # infinity, which is exactly what places_by_degree covers
            assert abs(product / float(zeta_fqt(3, field)) - 1) < 1e-6


def test_tail_bound_is_honest_for_m2():
    # |truncated - exact| <= reported residual, checked against the exact
    # closed form zeta_K(3)^-2 which the m=2 product converges to
    for q in (3, 5):
        field = FqField(q)
        exact = 1 / zeta_fqt(3, field) ** 2
        for deg_cut in (4, 6, 8):
            value, residual = euler_product_density(field, 2, deg_cut)
            with mpmath.workdps(50):
                err = abs(mpf(value) - mpmath.mpf(exact.numerator) / mpmath.mpf(exact.denominator))
                assert err <= mpf(residual)


def test_peyre_constant_pn():
    res = peyre_constant_pn(2, GlobalFieldParams(F3))
    res1 = peyre_constant_pn(1, GlobalFieldParams(F2))
    assert res.exact_prefactor == Fraction(104, 9)
    with mpmath.workdps(50):
        assert abs(mpf(res.value) - 3.50617) < 1e-4
        # scaling identity: c (n+1) ln q = S
        assert abs(mpf(res.value) * 3 * mpmath.log(3) - float(Fraction(104, 9))) < 1e-12
        assert abs(mpf(res1.value) - 1.08202) < 1e-4


def test_peyre_constant_hilb2():
    res = peyre_constant_hilb2(GlobalFieldParams(F3))
    with mpmath.workdps(50):
        target = (
            mpmath.mpf(10816) / 81 / 9 / mpmath.log(3) ** 2
        )
        assert abs(mpf(res.value) - target) < 1e-9
    assert res.value > 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_hilbm_matches_hilb2(q):
    params = GlobalFieldParams(FqField(q))
    general = peyre_constant_hilbm(2, params, deg_cut=12)
    special = peyre_constant_hilb2(params)
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
    assert cm_constant(2, GlobalFieldParams(F3)).exact_prefactor == Fraction(2, 3)
    res = cm_constant(3, GlobalFieldParams(F3), deg_cut=8)
    assert res.value > 0
    assert res.residual_bound > 0
    with pytest.raises(ValueError):
        cm_constant(1, GlobalFieldParams(F3))


def test_all_constants_positive():
    params = GlobalFieldParams(F3)
    for m in (2, 3, 4):
        assert peyre_constant_hilbm(m, params, mu=1, deg_cut=6).value > 0
