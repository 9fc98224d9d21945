import functools
import itertools
import operator
import random
import time
from fractions import Fraction

import pytest

from hilbcount.errors import SizeError
from hilbcount.fqarith import FqField
from hilbcount.ratpoints import (
    PAIR_BITS_GUARD,
    _coprime_tuples,
    count_exact_height,
    count_reducible_pairs,
    divisor_masks,
    guard_count,
    point_count_exact_height,
    schanuel_constant,
)
from oracles import (
    Poly,
    ProjPointFqt,
    all_polys,
    canonicalize,
    divisor_masks_by_poly,
    enumerate_exact_height,
    irreducibles_of_degree,
    is_monic,
    poly_gcd,
)

F2 = FqField(2)
F3 = FqField(3)


def P(field, *coeff_lists):
    return tuple(Poly(field, c) for c in coeff_lists)


def height_exponent(pt: ProjPointFqt) -> int:
    """Exponent M with H(pt) = q^M for a canonical point: the max coordinate
    degree."""
    return max(c.degree for c in pt.coords if not c.is_zero)


def multiplicity(f: Poly, p: Poly) -> int:
    """Largest e with p^e | f, for a nonzero f."""
    e = 0
    while True:
        f, r = divmod(f, p)
        if not r.is_zero:
            return e
        e += 1


def test_point_is_immutable():
    pt = ProjPointFqt((Poly.one(F3), Poly(F3, (0, 1))))
    with pytest.raises(AttributeError):
        pt.coords = (Poly.one(F3),)
    assert (pt.n, pt.field) == (1, F3)


def test_canonicalize_examples():
    # [t, t^2] over F_2 -> [1 : t]
    pt = canonicalize(P(F2, [0, 1], [0, 0, 1]))
    assert pt.serialize() == "1/0,1"
    # [2, 2t] over F_3 -> [1 : t]
    pt = canonicalize(P(F3, [2], [0, 2]))
    assert pt.serialize() == "1/0,1"
    # [0, t+1, 2t+2] over F_3 -> [0 : 1 : 2]
    pt = canonicalize(P(F3, [0], [1, 1], [2, 2]))
    assert pt.serialize() == "0/1/2"


def test_canonicalize_errors_and_idempotence():
    with pytest.raises(ValueError):
        canonicalize(P(F3, [0], [0]))
    rng = random.Random(1)
    polys = all_polys(F3, 3)
    for _ in range(50):
        coords = [rng.choice(polys) for _ in range(3)]
        if all(c.is_zero for c in coords):
            continue
        pt = canonicalize(coords)
        assert canonicalize(pt.coords) == pt
        # scalar invariance
        s = rng.choice([p for p in polys if not p.is_zero])
        assert canonicalize(tuple(c * s for c in coords)) == pt


def test_height_examples():
    assert F2.q ** height_exponent(canonicalize(P(F2, [1], [0], [0]))) == 1
    assert F2.q ** height_exponent(canonicalize(P(F2, [1], [0, 1]))) == 2
    assert F2.q ** height_exponent(canonicalize(P(F2, [1, 0, 1], [0, 1], [1]))) == 4


def test_serialization_example():
    # [t : 1 : 1+t^2] over F_2
    pt = canonicalize(P(F2, [0, 1], [1], [1, 0, 1]))
    assert pt.serialize() == "0,1/1/1,0,1"


def test_schanuel_constants():
    assert schanuel_constant(2, 2) == Fraction(21, 4)
    assert schanuel_constant(1, 2) == Fraction(3, 2)
    assert schanuel_constant(2, 3) == Fraction(104, 9)


@pytest.mark.parametrize(
    "n,q,Ms",
    [(1, 2, range(0, 4)), (2, 2, range(0, 3)), (1, 3, range(0, 3)), (2, 3, range(0, 2))],
)
def test_enumeration_matches_closed_form_and_is_duplicate_free(n, q, Ms):
    field = FqField(q)
    for M in Ms:
        pts = list(enumerate_exact_height(n, field, M))
        assert len({p.serialize() for p in pts}) == len(pts)
        for p in pts:
            assert height_exponent(p) == M
            assert canonicalize(p.coords) == p
        assert len(pts) == point_count_exact_height(n, q, M)


def test_m0_counts():
    assert point_count_exact_height(2, 2, 0) == 7
    assert point_count_exact_height(2, 3, 0) == 13


def _brute_exact_height(n, field, M):
    """Reference enumeration: every coordinate tuple in itertools.product
    order, filtered by height, monic pivot and a poly_gcd chain."""
    q = field.q
    ncodes = q ** (M + 1)
    polys = []
    for code in range(ncodes):
        digits = []
        c = code
        for _ in range(M + 1):
            digits.append(c % q)
            c //= q
        polys.append(Poly(field, digits))
    one = Poly.one(field)
    for tup in itertools.product(range(ncodes), repeat=n + 1):
        if max(polys[c].degree for c in tup) != M:
            continue
        pivot = next(c for c in tup if c)
        if not is_monic(polys[pivot]):
            continue
        g = Poly(field, ())
        for c in tup:
            g = poly_gcd(g, polys[c])
            if g.degree == 0:
                break
        if g == one:
            yield ProjPointFqt(tuple(polys[c] for c in tup))


@pytest.mark.parametrize(
    "n,q,Ms",
    [
        (1, 2, range(0, 4)),
        (1, 3, range(0, 3)),
        (1, 4, range(0, 3)),
        (1, 5, range(0, 3)),
        (1, 9, range(0, 2)),
        (2, 2, range(0, 3)),
        (2, 3, range(0, 2)),
        (2, 4, range(0, 2)),
        (2, 5, range(0, 2)),
        (2, 9, range(0, 1)),
        (3, 2, range(0, 2)),
        (3, 3, range(0, 2)),
        (3, 4, range(0, 2)),
        (3, 5, range(0, 1)),
        (3, 9, range(0, 1)),
    ],
)
def test_enumeration_matches_brute_force_in_order(n, q, Ms):
    field = FqField(q)
    counts = []
    for M in Ms:
        got = [p.serialize() for p in enumerate_exact_height(n, field, M)]
        want = [p.serialize() for p in _brute_exact_height(n, field, M)]
        assert got == want, (n, q, M)
        counts.append(len(want))
    assert count_exact_height(n, q, Ms.start, Ms.stop - 1) == counts, (n, q)


def test_count_matches_closed_form_beyond_enumeration():
    start = time.monotonic()
    cases = [(1, 3, 6), (2, 3, 4), (3, 3, 3), (2, 9, 2), (2, 31, 1), (5, 2, 2)]
    cases += [(4, 2, 3), (6, 2, 2), (3, 4, 2), (2, 3, 5), (1, 2, 0), (2, 9, 0)]
    cases += [(9, 2, 2), (20, 2, 2)]
    for n, q, M in cases:
        want = [point_count_exact_height(n, q, m) for m in range(M + 1)]
        assert count_exact_height(n, q, 0, M) == want, (n, q, M)
        assert count_exact_height(n, q, M, M) == want[-1:], (n, q, M)
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_code_sieve_matches_poly_sieve(q):
    """The sieve on integer codes gives the masks of the one on Poly
    objects, mask for mask, and its masks below q^(m+1) are those of the
    sieve over degree <= m, so one sieve serves every row of a range."""
    field = FqField(q)
    M_top = max(M for M in range(8) if q ** (M + 1) <= 3**7)
    top = divisor_masks(field, M_top)
    for M in range(M_top + 1):
        _polys, want, _monics = divisor_masks_by_poly(field, M)
        assert divisor_masks(field, M) == want == top[: q ** (M + 1)], M


def test_count_builds_no_poly(monkeypatch):
    """At prime q the count multiplies coefficient lists of codes and
    builds no Poly."""
    def no_poly(*args):
        raise AssertionError("the count built a Poly")

    monkeypatch.setattr(Poly, "__init__", no_poly)
    assert count_exact_height(2, 3, 0, 3) == [point_count_exact_height(2, 3, M) for M in range(4)]


def test_count_range_checks_its_smallest_M():
    with pytest.raises(ValueError, match=r"^need n >= 1 and M >= 0$"):
        count_exact_height(1, 3, -1, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coprime_tuples_matches_brute_force(k):
    # at k = 1 the fold runs no step and only the mask-0 entries count
    rng = random.Random(k)
    for _ in range(20):
        masks = [-1, 0] + [rng.choice([-1, 0, 1, 2, 3, 4, 5, 6, 12]) for _ in range(rng.randrange(5))]
        rng.shuffle(masks)
        want = sum(
            1 for t in itertools.product(masks, repeat=k) if functools.reduce(operator.and_, t) == 0
        )
        assert _coprime_tuples(masks, k) == want, (masks, k)


def _count_calls(monkeypatch, name):
    """Count the calls of the Poly method `name` for the rest of the test."""
    calls = []
    method = getattr(Poly, name)

    def counting(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(Poly, name, counting)
    return calls


def test_scans_make_no_division(monkeypatch):
    # coprimality comes from the sieved divisor masks, not from gcds
    calls = _count_calls(monkeypatch, "__divmod__")
    for n in (1, 2):
        pts = list(enumerate_exact_height(n, F3, 2))
        assert count_exact_height(n, 3, 2, 2) == [len(pts)] == [point_count_exact_height(n, 3, 2)]
    assert calls == []


def test_enumeration_guard(monkeypatch):
    calls = _count_calls(monkeypatch, "__mul__")
    with pytest.raises(SizeError, match=r"= 97\^60 coordinate tuples exceeds guard 1000000000$"):
        list(enumerate_exact_height(5, FqField(97), 9))
    with pytest.raises(SizeError, match=r"= 97\^10 codes exceeds guard 200000$"):
        count_exact_height(5, 97, 9, 9)
    assert calls == []


@pytest.mark.parametrize(
    "n, q, M, message",
    [
        (1, 2**24, 0, r"^count of P\^1 at M = 0: sieve of q\^\(M\+1\) = 16777216\^1 codes exceeds guard 200000$"),
        (1, 2, 10**9, r"^count of P\^1 at M = 1000000000: sieve of q\^\(M\+1\) = 2\^1000000001 codes"),
        (1, 3, 8, r"^count of P\^1 at M = 8: fold of about 43830111 steps exceeds guard 12000000$"),
        (1, 2, 13, r"^count of P\^1 at M = 13: fold of about 68977540 steps exceeds guard 12000000$"),
        # 200 (2^8 + 2)^2 = 13312800 steps alone would pass, but each adds
        # counts of up to 201 * 9 bits; with the guard lifted it takes about 10 s
        (200, 2, 8, r"^count of P\^200 at M = 8: fold of about 36831213 steps exceeds guard 12000000$"),
    ],
    ids=["sieve", "sieve-past-2^M", "fold-1-3-8", "fold-1-2-13", "fold-bits-200-2-8"],
)
def test_count_guard_states_size_and_limit(n, q, M, message):
    with pytest.raises(SizeError, match=message):
        guard_count(n, q, M)


def test_count_guard_admits_its_limit():
    """The guard reads (n, q, M) alone.  It admits (9,2,2) and (20,2,2),
    whose q^((n+1)(M+1)) tuples are many but whose fold is short, and the
    sizes just under its limits, and refuses one more."""
    for n, q, M in [(9, 2, 2), (20, 2, 2), (2, 3, 7), (43, 443, 1), (1, 447, 1), (1, 199999, 0)]:
        guard_count(n, q, M)
    for n, q, M in [(3, 3, 7), (44, 443, 1), (1, 449, 1), (1, 200003, 0)]:
        with pytest.raises(SizeError):
            guard_count(n, q, M)
    with pytest.raises(ValueError):
        guard_count(0, 2, 1)
    with pytest.raises(ValueError):
        guard_count(1, 2, -1)


def test_product_formula_rational_points():
    """The full place product of max_i |x_i|_v equals q^(max deg): finite
    places contribute 1 by coprimality, infinity contributes q^(max deg)."""
    rng = random.Random(5)
    polys = all_polys(F3, 3)
    checked = 0
    while checked < 50:
        coords = [rng.choice(polys) for _ in range(3)]
        if all(c.is_zero for c in coords):
            continue
        pt = canonicalize(coords)
        M = height_exponent(pt)
        total = M  # infinite place: max_i (deg x_i) * deg(infty)
        for d in range(1, M + 1):
            for p in irreducibles_of_degree(d, F3):
                vmin = min(
                    multiplicity(c, p) for c in pt.coords if not c.is_zero
                )
                total -= vmin * d
        assert total == M
        checked += 1


def test_reducible_pairs():
    assert [pc.observed for pc in count_reducible_pairs(2, 1, 2)] == [294, 3234]
    for q in (2, 3):
        pcs = count_reducible_pairs(q, 1, 3)
        assert pcs[1:] == count_reducible_pairs(q, 2, 3)
        assert all(pc.match for pc in pcs), (q, pcs)
    for M, M_max in [(0, 0), (0, 3), (-2, -1)]:
        with pytest.raises(ValueError, match=r"^M >= 1 required$"):
            count_reducible_pairs(2, M, M_max)
    # the largest M's guard comes before the smallest M's check
    with pytest.raises(SizeError):
        count_reducible_pairs(2, 0, PAIR_BITS_GUARD)


def _point_count_by_fraction(n, q, M):
    """The Fraction form of point_count_exact_height for M >= 1: the Schanuel
    constant times q^((n+1)M), asserted integral."""
    value = schanuel_constant(n, q) * q ** ((n + 1) * M)
    assert value.denominator == 1
    return int(value)


def _reducible_pairs_by_fraction(q, M):
    """The Fraction forms of count_reducible_pairs: (observed, closed_form)."""
    A = [point_count_exact_height(2, q, N) for N in range(M + 1)]
    observed = Fraction(sum(A[N] * A[M - N] for N in range(M + 1)), 2)
    S = schanuel_constant(2, q)
    closed = (
        Fraction(S * S, 2) * q ** (3 * M) * M
        + Fraction(q * q + 1, 2 * (q * q - 1)) * S * S * q ** (3 * M)
    )
    return observed, closed


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 97])
def test_point_count_integer_form_matches_fraction_oracle(q):
    for n in range(1, 6):
        for M in range(1, 12):
            count = point_count_exact_height(n, q, M)
            assert type(count) is int
            assert count == _point_count_by_fraction(n, q, M), (n, M)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27])
def test_reducible_pairs_integer_form_matches_fraction_oracle(q):
    for M, pc in zip(range(1, 41), count_reducible_pairs(q, 1, 40)):
        assert type(pc.observed) is int and type(pc.closed_form) is int
        assert (pc.observed, pc.closed_form) == _reducible_pairs_by_fraction(q, M), M
        assert pc.match


def count_pairs_closed_subset(q, M):
    """Halved convolution of P^1 x P^2 exact-height counts; the majorant for
    pairs with a rational component on a line."""
    if M < 1:
        raise ValueError("M >= 1 required")
    total = Fraction(0)
    for N in range(M + 1):
        total += Fraction(
            point_count_exact_height(1, q, N)
            * point_count_exact_height(2, q, M - N),
            2,
        )
    return total


def test_pairs_closed_subset():
    # (1/2)(3*42 + 6*7) with A1 = (3, 6, 24, 96, ...), A2 = (7, 42, 336, ...)
    assert count_pairs_closed_subset(2, 1) == 84
    # A1(2) = S(2,1) q^4 = 24, so M=2 gives (1/2)(3*336 + 6*42 + 24*7) = 714
    assert count_pairs_closed_subset(2, 2) == 714
    # the majorant stays O(q^{3M}): the ratio increases toward a constant
    # (about 11.8 at q=2) and stays bounded over the feasible range
    ratios = [count_pairs_closed_subset(2, M) / Fraction(2**(3 * M)) for M in range(1, 8)]
    assert ratios == sorted(ratios)
    assert max(ratios) < 12
