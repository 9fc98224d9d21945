import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from hilbcount.errors import SizeError
from hilbcount.fqarith import (
    FqField,
    field_from_order,
    irreducible_count,
    is_prime,
    mobius,
    poly_rem,
    prime_power,
)
from oracles import (
    Poly,
    all_polys,
    field_inv,
    irreducibles_of_degree,
    is_irreducible,
    is_monic,
    is_square_unit,
    poly_gcd,
    poly_gcd_all,
    poly_xgcd,
    serialize,
)

F2 = FqField(2)
F3 = FqField(3)
F4 = FqField(2, 2)
F5 = FqField(5)
F9 = FqField(3, 2)


def poly_from_code(field, code, length):
    digits = []
    for _ in range(length):
        digits.append(code % field.q)
        code //= field.q
    return Poly(field, digits)


codes = st.integers(min_value=0, max_value=3**5 - 1)


def test_is_prime_and_mobius():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(ValueError):
        mobius(0)


def test_field_from_order():
    assert field_from_order(9).q == 9
    assert field_from_order(7).q == 7
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(1)


def test_prime_power_builds_no_field():
    assert [prime_power(q) for q in (2, 7, 9, 2**24, 3**15)] == [
        (2, 1), (7, 1), (3, 2), (2, 24), (3, 15)
    ]
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        prime_power(6)
    with pytest.raises(ValueError):
        prime_power(1)
    # F_q itself is refused past its modulus search, and says where the limit is
    with pytest.raises(SizeError, match=r"^modulus search over 2\^24 candidates exceeds guard 10000000$"):
        field_from_order(2**24)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_extension_add_sub_neg_match_digitwise_oracle(q):
    """add, sub and neg on codes equal digit-wise arithmetic mod p, computed
    here from the base-p digits of each code."""
    field = field_from_order(q)
    p = field.p

    def digits(a):
        return [a // p**i % p for i in range(field.k)]

    def code(ds):
        return sum(d % p * p**i for i, d in enumerate(ds))

    for a in range(q):
        da = digits(a)
        assert field.neg(a) == code([-x for x in da])
        for b in range(q):
            db = digits(b)
            assert field.add(a, b) == code([x + y for x, y in zip(da, db)])
            assert field.sub(a, b) == code([x - y for x, y in zip(da, db)])


@pytest.mark.parametrize("field", [F2, F3, F5, F9])
def test_field_axioms(field):
    elems = list(range(field.q))
    assert len(elems) == field.q
    for a in elems:
        assert field.add(a, field.neg(a)) == 0
        if a != 0:
            assert field.mul(a, field_inv(field, a)) == 1
    # squares: exactly (q-1)/2 nonzero squares for odd q
    if field.q % 2 == 1:
        squares = {field.mul(a, a) for a in elems if a != 0}
        assert len(squares) == (field.q - 1) // 2
        for s in squares:
            assert is_square_unit(field, s)
        for a in elems:
            if a != 0 and a not in squares:
                assert not is_square_unit(field, a)


def test_extension_field_modulus_irreducible():
    # the modulus used for F_9 must be irreducible over F_3
    mod = Poly(F3, F9.modulus)
    assert is_irreducible(mod)
    assert mod.degree == 2


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 0, 1, 1)),
        (2, 4, (1, 0, 0, 1, 1)),
        (2, 5, (1, 0, 0, 1, 0, 1)),
        (2, 6, (1, 0, 0, 0, 0, 1, 1)),
        (2, 8, (1, 0, 0, 0, 1, 1, 0, 1, 1)),
        (3, 2, (1, 0, 1)),
        (3, 3, (1, 0, 2, 1)),
        (3, 4, (1, 0, 1, 1, 1)),
        (5, 2, (1, 1, 1)),
        (5, 3, (1, 0, 1, 1)),
        (7, 2, (1, 0, 1)),
        (11, 2, (1, 0, 1)),
        (13, 2, (1, 3, 1)),
    ],
)
def test_extension_field_modulus_is_least_irreducible(p, k, modulus):
    """The default modulus is the least monic irreducible of degree k,
    coefficients lowest degree first."""
    assert FqField(p, k).modulus == modulus


def _least_irreducible_by_full_scan(p, k):
    """The modulus search over every monic tail, zero constant terms
    included; the oracle for the search that skips them."""
    base = FqField(p)
    for tail in itertools.product(range(p), repeat=k):
        f = Poly(base, tail + (1,))
        if is_irreducible(f):
            return f.coeffs


_EXTENSIONS = [(p, k) for p in range(2, 65) if is_prime(p) for k in range(2, 13) if p**k <= 4096]


@pytest.mark.parametrize("p, k", _EXTENSIONS)
def test_modulus_search_matches_full_scan(p, k):
    assert FqField(p, k).modulus == _least_irreducible_by_full_scan(p, k)


def test_modulus_search_budget():
    start = time.perf_counter()
    F = FqField(2, 20)
    assert time.perf_counter() - start < 2
    assert F.modulus == (1,) + (0,) * 16 + (1, 0, 0, 1)


def test_extension_field_builds_no_per_element_table():
    """Negation is computed per element on demand, so building a field of
    2^19 elements allocates no table of q entries."""
    tracemalloc.start()
    try:
        F = FqField(2, 19)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert F.sub(5, 3) == F.add(5, F.neg(3)) == 6


@st.composite
def rem_cases(draw):
    """(field, a, g): a of degree <= 12 and a monic g of degree 1..4, as
    coefficient lists over F_2, F_3, F_4 or F_9; a may be empty (0), shorter
    than g, or end in zeros."""
    field = draw(st.sampled_from([F2, F3, F4, F9]))
    coeff = st.integers(min_value=0, max_value=field.q - 1)
    g = draw(st.lists(coeff, min_size=1, max_size=4)) + [1]
    return field, draw(st.lists(coeff, max_size=13)), g


@given(case=rem_cases())
@example(case=(F4, [], [1, 1]))
@example(case=(F9, [5, 0, 7, 0], [1, 2, 0, 0, 1]))
@settings(max_examples=200, deadline=None)
def test_poly_rem_matches_poly_mod(case):
    field, a, g = case
    assert poly_rem(field, a, g) == list((Poly(field, a) % Poly(field, g)).coeffs)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_extension_mul_matches_poly_product(q):
    """Every product in F_{p^k} is the Poly product of the two digit
    polynomials over F_p reduced by the modulus."""
    field = field_from_order(q)
    base = FqField(field.p)
    modulus = Poly(base, field.modulus)
    for a in range(q):
        for b in range(q):
            want = Poly(base, field.digits(a)) * Poly(base, field.digits(b)) % modulus
            assert field.mul(a, b) == field.encode(want.coeffs), (a, b)


@given(a=codes, b=codes)
@settings(max_examples=60, deadline=None)
def test_poly_divmod(a, b):
    pa = poly_from_code(F3, a, 5)
    pb = poly_from_code(F3, b, 5)
    if pb.is_zero:
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero or r.degree < pb.degree


@given(a=codes, b=codes)
@settings(max_examples=60, deadline=None)
def test_gcd_xgcd(a, b):
    pa = poly_from_code(F3, a, 5)
    pb = poly_from_code(F3, b, 5)
    if pa.is_zero and pb.is_zero:
        return
    g = poly_gcd(pa, pb)
    assert is_monic(g)
    assert (pa % g).is_zero and (pb % g).is_zero
    g2, s, u = poly_xgcd(pa, pb)
    assert g2 == g
    assert s * pa + u * pb == g


@given(cs=st.lists(codes, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_gcd_all_folds_gcd(cs):
    polys = [poly_from_code(F3, c, 5) for c in cs]
    g = Poly(F3, ())
    for f in polys:
        g = poly_gcd(g, f)
    assert poly_gcd_all(polys) == g


def poly_core(a: Poly, b: Poly) -> dict:
    """Sum, product, gcd and, for nonzero b, quotient and remainder."""
    out = {"sum": a + b, "product": a * b, "gcd": poly_gcd(a, b)}
    if not b.is_zero:
        q, r = divmod(a, b)
        out["quotient"] = q
        out["remainder"] = r
    return out


def test_poly_core_bundle():
    t = Poly(F3, (0, 1))
    a, b = t * t, t * (t + Poly.one(F3))
    bundle = poly_core(a, b)
    assert bundle["gcd"] == t
    assert bundle["product"] == a * b
    assert bundle["quotient"] * b + bundle["remainder"] == a


def test_serialize():
    t = Poly(F2, (0, 1))
    one = Poly.one(F2)
    assert serialize(one + t * t) == "1,0,1"
    assert serialize(Poly(F2, ())) == "0"


@pytest.mark.parametrize("field,dmax", [(F2, 5), (F3, 4), (F5, 3)])
def test_irreducibles_of_degree(field, dmax):
    for d in range(1, dmax + 1):
        irr = irreducibles_of_degree(d, field)
        assert len(irr) == irreducible_count(d, field.q)
        for p in irr:
            assert is_monic(p) and is_irreducible(p)


def test_all_polys_complete():
    ps = all_polys(F3, 2)
    assert len(ps) == 27
    assert len({p.coeffs for p in ps}) == 27


def test_enumeration_guard():
    with pytest.raises(SizeError):
        irreducibles_of_degree(40, F5)
