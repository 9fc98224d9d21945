import functools
import itertools
import re
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import pytest

import oracles
from hilbcount.errors import SizeError
from hilbcount.fqarith import FqField, field_from_order
from hilbcount import quadfield, ratpoints
from hilbcount.quadfield import (
    M_GUARD,
    QuadraticCount,
    _form_counts,
    _form_exponent,
    _form_key,
    _line_count,
    _main_term_cells,
    enumerate_degree2,
)
from oracles import (
    Poly,
    divisor_masks_by_poly,
    enumerate_exact_height,
    field_inv,
    is_irreducible,
    is_monic,
    is_square_unit,
    is_squarefree,
    kt_main_term,
    line_form_key,
    n2_conjecture,
    poly_xgcd,
    scale,
    singular_conic_count,
    sym2_basis,
)

F2 = FqField(2)
F3 = FqField(3)
F4 = field_from_order(4)
F5 = FqField(5)
F7 = FqField(7)
F9 = field_from_order(9)


def t_poly(field):
    return Poly(field, (0, 1))


def z0_key(field, A, B, C):
    """The Sym^2 key of the point [s_0 : 1 : 0], A s_0^2 + B s_0 + C = 0, of
    an irreducible form on the line Z = 0, with basis P = (1, 0, 0) and
    Q = (0, 1, 0)."""
    zero, one = Poly(field, ()), Poly.one(field)
    return line_form_key(sym2_basis((one, zero, zero), (zero, one, zero)), A, B, C)


def key_exponent(key) -> int:
    """The exponent e of H^2 = q^e read off a canonical key."""
    return max(c.degree for c in key.coords)


def test_records_are_immutable():
    qc = QuadraticCount(3, 1, 0, "1", "0")
    for name in ("count", "ratio"):
        with pytest.raises(AttributeError):
            setattr(qc, name, 0)


@pytest.mark.parametrize("field", [F3, F5, F7, F9, F2, F4])
def test_height_family_sqrt_d(field):
    """H([sqrt(D):1:0]) = q^(deg D / 2) for monic squarefree D, deg <= 3,
    read off the key of s^2 - D, at even q too."""
    one = Poly.one(field)
    for deg in (1, 2, 3):
        for tail in itertools.product(range(field.q), repeat=deg):
            d = Poly(field, list(tail) + [1])
            if is_squarefree(d):
                assert key_exponent(z0_key(field, one, Poly(field, ()), -d)) == d.degree


def test_height_spec_spots():
    t, one = t_poly(F3), Poly.one(F3)
    # [1+sqrt(t) : 1 : 0], the point of (s - 1)^2 - t, has H^2 = q
    assert key_exponent(z0_key(F3, one, -(one + one), one - t)) == 1


def test_height_past_a_large_split_place():
    """[a + sqrt(t) : 1 : 0] over F_7 with a = 1 + t^2 + t^4: the norms share
    p = a^2 - t, irreducible of degree 8, at which t is a square.  A height
    read place by place needs a square root of t in the 7^8 residue field of
    p; read off the key (a^2 - t, 1, 0, 2a, 0, 0) of the point of
    (s - a)^2 - t it is q^4."""
    zero, one, t = Poly(F7, ()), Poly.one(F7), t_poly(F7)
    a = Poly(F7, (1, 0, 1, 0, 1))
    assert is_irreducible(a * a - t)
    key = z0_key(F7, one, -(a + a), a * a - t)
    assert key.coords == (a * a - t, one, zero, a + a, zero, zero)
    assert key_exponent(key) == 8


def test_kt_main_term():
    assert kt_main_term(F3, 1) == 2 * Fraction(104, 9) ** 2 * 27
    assert kt_main_term(F3, 1) == Fraction(21632, 3)
    assert kt_main_term(F3, 0) == 0


@pytest.mark.parametrize("field", [F3, F5])
def test_main_term_cells_match_fraction_oracle(field):
    """The main_term and ratio cells, computed in integers, print as the
    Fraction oracle kt_main_term and count / kt_main_term print: on the rows
    of a sweep to M = 8, and at every M <= M_GUARD for a spread of counts."""
    q = field.q
    for row in enumerate_degree2(q, 1, 8):
        main = kt_main_term(field, row.M)
        assert (row.main_term, row.ratio) == (str(main), str(row.count / main)), row
    for M in range(1, M_GUARD + 1):
        main = kt_main_term(field, M)
        for count in (0, 1, q**4, 2 * M * q ** (3 * M), main.numerator, 3**M * 5**M + 7):
            assert _main_term_cells(q, M, count) == (str(main), str(count / main)), (M, count)


def _form_stream(field: FqField, fmax: int):
    """Yield (A, B, C) over the primitive irreducible forms with monic A,
    C != 0 and coefficient degrees <= fmax.  The form is primitive iff the
    AND of the divisor masks of A, B and C is 0, and by Gauss's lemma
    reducible iff it is (a s + b u)(c s + d u), that is iff B = a d + b c
    for some factorisation a c = A (a monic) and b d = C; the factorisations
    of each code are built once.  No square root is taken, so the scan runs
    at every q; over every coefficient triple, it is the oracle for
    quadfield._form_counts."""
    polys, mask, monic_codes = divisor_masks_by_poly(field, fmax)
    ncodes = len(polys)
    code_of = {f.coeffs: code for code, f in enumerate(polys)}
    factors = [[] for _ in polys]  # (x, y) with x y = f, for each code of f
    for x in polys[1:]:
        for y in polys[1 : field.q ** (fmax - x.degree + 1)]:
            factors[code_of[(x * y).coeffs]].append((x, y))
    for ai in monic_codes:
        A = polys[ai]
        splits = [(a, c) for a, c in factors[ai] if is_monic(a)]
        for ci in range(1, ncodes):
            C = polys[ci]
            reducible = {(a * d + b * c).coeffs for a, c in splits for b, d in factors[ci]}
            mAC = mask[ai] & mask[ci]
            for bi in range(ncodes):
                B = polys[bi]
                if not mAC & mask[bi] and B.coeffs not in reducible:
                    yield A, B, C


# The streams the form oracles read form by form, held as lists (about 5 MB
# together); the larger ones, up to 40 MB as lists, are only counted.
_LISTED_STREAMS = ((F3, 2), (F5, 1), (F9, 1))


@functools.lru_cache(maxsize=None)
def _listed_stream(field: FqField, fmax: int) -> list:
    """_form_stream(field, fmax) as a list, built once per (field, fmax)."""
    return list(_form_stream(field, fmax))


@functools.lru_cache(maxsize=None)
def _stream_forms(field: FqField, fmax: int) -> Counter:
    """Counter {(deg A, deg B, deg C): number of forms} over the stream,
    deg B = -1 for B = 0; built once per (field, fmax)."""
    listed = (field, fmax) in _LISTED_STREAMS
    forms = _listed_stream(field, fmax) if listed else _form_stream(field, fmax)
    return Counter((A.degree, B.degree, C.degree) for A, B, C in forms)


@pytest.mark.parametrize(
    "q, fmax",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2), (7, 1), (8, 1), (9, 1)],
)
def test_form_counts_match_stream(q, fmax):
    """The closed form equals the scan over every coefficient triple, key by
    key; every key of the closed form has forms."""
    keyed = Counter()
    for profile, n in _stream_forms(field_from_order(q), fmax).items():
        keyed[_form_key(*profile)] += n
    counts = _form_counts(q, fmax)
    assert all(n > 0 for n in counts.values())
    assert dict(counts) == dict(keyed)


def test_pair_keys_read_off_the_two_points():
    """The key of a product (a s + b u)(c s + d u), deg a, b, c, d = i1, j1,
    i2, j2 < 6, is (max(i1, j1) + max(i2, j2), the sorted 2 (i - j) of its
    points), the rule _form_counts keys the reducible pairs by: at the deg B
    of the product when i1 + j2 != j1 + i2, and at every deg B from -1 up
    when they are equal, since B can cancel there.  The stream oracle
    reaches only degree 3."""
    for i1, j1, i2, j2 in itertools.product(range(6), repeat=4):
        want = (max(i1, j1) + max(i2, j2), *sorted((2 * (i1 - j1), 2 * (i2 - j2))))
        if i1 + j2 != j1 + i2:
            betas = [max(i1 + j2, j1 + i2)]
        else:
            betas = range(-1, i1 + j2 + 1)
        for beta in betas:
            assert _form_key(i1 + i2, beta, j1 + j2) == want, (i1, j1, i2, j2, beta)


def test_enumerate_degree2_builds_no_poly(monkeypatch):
    def no_poly(*args):
        raise AssertionError("the degree-2 count built a Poly")

    monkeypatch.setattr(Poly, "__init__", no_poly)
    assert enumerate_degree2(3, 3, 3)[0].count == 6225336


def test_form_stream_reads_primitivity_from_masks(monkeypatch):
    def no_gcd(*args):
        raise AssertionError("the form stream called poly_gcd")

    monkeypatch.setattr(oracles, "poly_gcd", no_gcd)
    assert sum(1 for _ in _form_stream(F3, 2)) == 7479


# A walk over every rational line, by a reduced basis of each dual vector:
# the oracle for T, and the lines of the key route.


def _line_basis(lams: tuple[Poly, Poly, Poly]):
    """A basis of the saturated kernel {X : lam . X = 0} for a coprime lam.
    The cross product of the returned vectors equals lam exactly."""
    l0, l1, l2 = lams
    field = l0.field
    zero, one = Poly(field, ()), Poly.one(field)
    if l0.is_zero and l1.is_zero:
        # lam = (0, 0, 1) in canonical form
        return (one, zero, zero), (zero, one, zero)
    g1, a, b = poly_xgcd(l0, l1)
    u1 = (-(l1 // g1), l0 // g1, zero)
    u2 = (-(a * l2), -(b * l2), g1)
    return u1, u2


def _vec_degree(v) -> int:
    return max(c.degree for c in v if not c.is_zero)


def _lead_vector(v, d: int):
    return tuple(c.coeffs[d] if len(c.coeffs) > d else 0 for c in v)


def _reduce_basis(u1, u2):
    """Reduce at infinity until the leading coefficient vectors are
    independent over F_q; returns ((P, d_P), (Q, d_Q)) with d_P <= d_Q."""
    field = u1[0].field
    while True:
        d1, d2 = _vec_degree(u1), _vec_degree(u2)
        if d1 > d2:
            u1, u2 = u2, u1
            d1, d2 = d2, d1
        L1 = _lead_vector(u1, d1)
        L2 = _lead_vector(u2, d2)
        i = next(i for i, c in enumerate(L1) if c)
        c = field.mul(L2[i], field_inv(field, L1[i]))
        if c == 0 or any(L2[j] != field.mul(c, L1[j]) for j in range(3)):
            return (u1, d1), (u2, d2)
        shift = d2 - d1
        ct = Poly(field, (0,) * shift + (c,))  # c t^shift
        u2 = tuple(x2 - x1 * ct for x1, x2 in zip(u1, u2))
        assert any(not x.is_zero for x in u2), "basis degenerated (impossible)"


def _lines(field: FqField, dq_cap: int):
    """Yield ((P, d_P), (Q, d_Q)), the reduced basis of each rational line
    with d_Q <= dq_cap (dual height d_P + d_Q <= 2 dq_cap)."""
    for N in range(0, 2 * dq_cap + 1):
        for pt in enumerate_exact_height(2, field, N):
            (P, dP), (Q, dQ) = _reduce_basis(*_line_basis(pt.coords))
            assert dP + dQ == N, "reduced basis degrees must sum to dual height"
            if dQ <= dq_cap:
                yield (P, dP), (Q, dQ)


@functools.lru_cache(maxsize=None)
def _line_classes(field: FqField, dq_cap: int) -> Counter:
    """Counter {(d_P, d_Q): number of lines} over _lines."""
    return Counter((dP, dQ) for (_, dP), (_, dQ) in _lines(field, dq_cap))


@pytest.mark.parametrize("q", [2, 3])
def test_line_count_matches_line_walk(q):
    """T equals the walk's classes at q = 2 and 3 up to dual height 2."""
    assert _line_classes(FqField(q), 1) == Counter(
        {(dP, dQ): _line_count(q, dP, dQ) for dQ in range(2) for dP in range(dQ + 1)}
    )


# The key route: the height of every (line, form) pair read off its Sym^2
# key, at every q.  Rows walk every line, or the first line of each class
# where every line is too slow for Tier-1.
_KEY_ROUTE_ROWS = {(2, 1): True, (2, 2): False, (3, 1): True, (4, 1): False}


@functools.lru_cache(maxsize=None)
def _key_route(q: int, M: int) -> dict:
    """{(d_P, d_Q): Counter {e: forms}} over the walked lines with
    d_Q <= M // 2 and the forms of degree <= M, counting the forms whose key
    has H^2 = q^e, e <= M; each walked line of a class must give its
    class's Counter.  Where every line is walked, the keys of H^2 <= q^M are
    pairwise distinct and each class has T(d_P, d_Q) lines."""
    field = field_from_order(q)
    every_line = _KEY_ROUTE_ROWS[q, M]
    forms = list(_form_stream(field, M))
    heights, walked, keys = {}, Counter(), set()
    for (P, dP), (Q, dQ) in _lines(field, M // 2):
        cls = (dP, dQ)
        if cls in heights and not every_line:
            continue
        basis = sym2_basis(P, Q)
        got = Counter()
        for A, B, C in forms:
            key = line_form_key(basis, A, B, C)
            e = max(c.degree for c in key.coords)
            if e <= M:
                got[e] += 1
                keys.add(key)
        assert heights.setdefault(cls, got) == got, (cls, P, Q)
        walked[cls] += 1
    if every_line:
        assert walked == {cls: _line_count(q, *cls) for cls in heights}
        assert len(keys) == sum(walked[cls] * sum(got.values()) for cls, got in heights.items())
    return heights


@pytest.mark.parametrize("q, M", sorted(_KEY_ROUTE_ROWS))
def test_key_route_heights_match_class_sum(q, M):
    """Per line class, the forms of each height H^2 = q^e, e <= M, read off
    the Sym^2 key of every (line, form) pair, are those whose degree profile
    has _form_exponent e; times T they are the class's share of
    enumerate_degree2.  This checks the height formula on lines with d_P
    or d_Q >= 1, at even q too."""
    heights = _key_route(q, M)
    assert set(heights) == {(dP, dQ) for dQ in range(M // 2 + 1) for dP in range(dQ + 1)}
    forms = _form_counts(q, M)
    for cls, got in heights.items():
        want = Counter()
        for key, n in forms.items():
            e = _form_exponent(*key, *cls)
            if e <= M:
                want[e] += n
        assert got == want, cls
    rows = enumerate_degree2(q, 1, M)
    assert [r.count for r in rows] == [
        sum(_line_count(q, *cls) * got[m] for cls, got in heights.items()) for m in range(1, M + 1)
    ]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_line_count_sums_to_plane_points(q):
    """The classes of dual height N are all the lines of dual height N, one
    per point of the dual plane of height q^N; those through a constant
    point are class (0, N), s for each point of P^1 of height q^N."""
    s = q * q + q + 1
    for N in range(13):
        lines = sum(_line_count(q, dP, N - dP) for dP in range(N // 2 + 1))
        assert lines == ratpoints.point_count_exact_height(2, q, N)
        if N >= 1:
            assert _line_count(q, 0, N) == s * ratpoints.point_count_exact_height(1, q, N)


def test_enumerate_degree2_m1():
    [res] = enumerate_degree2(3, 1, 1)
    assert res.count == 2808
    assert res.ratio == str(Fraction(81, 208))
    assert res.main_term == str(kt_main_term(F3, 1))


def _brute_matches(fmax, classes, M, min_deg=0):
    """Forms of the F_3 stream with max degree >= min_deg reaching exponent
    M, per line class."""
    counts = {cls: 0 for cls in classes}
    for profile, n in _stream_forms(F3, fmax).items():
        if max(profile) < min_deg:
            continue
        for cls in classes:
            if _form_exponent(*_form_key(*profile), *cls) == M:
                counts[cls] += n
    return counts


def _brute_degree2(M, bound=None):
    """Oracle for enumerate_degree2 over F_3 past the bounds (dq_cap, fmax)
    it stops at, (M // 2, M) unless given: it counts the forms of degree
    <= fmax on the lines with d_Q <= dq_cap, and also matches every form
    against the line classes with d_Q up to dq_cap + 2 and the forms of
    degree in (fmax, fmax + 2] against every class.  Returns (count,
    whether no form past the bounds matches, the nonzero matches of the
    forms past fmax per class)."""
    dq_cap, fmax = bound if bound is not None else (M // 2, M)
    classes = _line_classes(F3, dq_cap)
    boundary = [(dP, dQ) for dQ in (dq_cap + 1, dq_cap + 2) for dP in range(dQ + 1)]
    all_classes = sorted(set(classes) | set(boundary))
    matches = _brute_matches(fmax, all_classes, M)
    count = sum(classes[cls] * matches[cls] for cls in classes)
    extra = _brute_matches(fmax + 2, all_classes, M, min_deg=fmax + 1)
    complete = all(matches[cls] == 0 for cls in boundary) and all(v == 0 for v in extra.values())
    return count, complete, {cls: v for cls, v in extra.items() if v}


@pytest.mark.parametrize(
    "M, bound, count, complete, extra",
    [
        (1, None, 2808, True, {}),
        (1, (0, 0), 0, False, {(0, 0): 216}),
        (2, (1, 1), 34632, False, {(0, 0): 7260, (0, 1): 141}),
    ],
)
def test_no_form_past_the_proven_bounds_matches(M, bound, count, complete, extra):
    """At the proven bounds no form past them matches, so enumerate_degree2
    leaves nothing out; the truncated bounds show that the oracle catches a
    search that stops short."""
    assert _brute_degree2(M, bound) == (count, complete, extra)
    if bound is None:
        assert enumerate_degree2(3, M, M)[0].count == count


def test_form_exponent_proven_bounds():
    """The completeness bounds of enumerate_degree2, H^2 >= q^(2 d_Q) and
    H^2 >= q^(deg F + 2 d_P), for every degree profile and line class of
    degree up to 8; so no form matches a line class past d_Q = M // 2 and no
    form of degree above M matches at all, for every M <= 8."""
    degs = range(9)
    profiles = [
        (alpha, beta, gamma) for alpha in degs for beta in (-1, *degs) for gamma in degs
    ]
    assert len(profiles) == 810
    classes = [(dP, dQ) for dQ in degs for dP in range(dQ + 1)]
    for profile in profiles:
        deg_f = max(profile)
        for dP, dQ in classes:
            e = _form_exponent(*_form_key(*profile), dP, dQ)
            assert e >= 2 * dQ and e >= deg_f + 2 * dP, (profile, dP, dQ)
    for M in range(1, 9):
        boundary = [(dP, dQ) for dQ in (M // 2 + 1, M // 2 + 2) for dP in range(dQ + 1)]
        for profile in profiles:
            checked = classes if max(profile) > M else boundary
            assert all(_form_exponent(*_form_key(*profile), *cls) != M for cls in checked), (M, profile)


# Each form classified by its type at infinity, with an exponent formula per
# type: the oracle for the claim of the quadfield docstring that the type at
# infinity drops out of the exponent.


class FormData(NamedTuple):
    """Infinity data of a primitive irreducible form A s^2 + B s u + C u^2."""

    deg_f: int
    inf_kind: str  # split2 (distinct slopes) | split1 | inert | ramified
    slopes: tuple  # (v1, v2) for split2, else (W,) with W = alpha - gamma


def _infinite_kind(field: FqField, f: Poly) -> str:
    """How the infinite place of F_q(t) behaves in F_q(t)(sqrt(f)) for a
    nonsquare f: ramified for odd degree, split for a square leading
    coefficient, otherwise inert."""
    if f.degree % 2 == 1:
        return "ramified"
    return "split" if is_square_unit(field, f.lead) else "inert"


def _kind_exponent(fd: FormData, dP: int, dQ: int) -> int:
    """Exponent of q in H^2 for the point of this form on a (d_P, d_Q) line."""
    if fd.inf_kind == "split2":
        g = 0
        for v in fd.slopes:
            g += max(dP - v, dQ) - max(-v, 0)
    elif fd.inf_kind == "split1":
        v0 = fd.slopes[0] // 2
        g = 2 * (max(dP - v0, dQ) - max(-v0, 0))
    else:
        W = fd.slopes[0]
        g = max(2 * dP - W, 2 * dQ) - max(-W, 0)
    assert g >= 0
    return fd.deg_f + g


@functools.lru_cache(maxsize=None)
def _scaled_product(f: Poly, g: Poly, c: int) -> Poly:
    """c f g for an integer c; a stream repeats each pair of factors."""
    return scale(f * g, c % f.field.p)  # the prime-field scalar c has code c mod p


def _discriminant(A: Poly, B: Poly, C: Poly) -> Poly:
    """B^2 - 4 A C, whose leading term gives the type at infinity at odd q."""
    return _scaled_product(B, B, 1) - _scaled_product(A, C, 4)


def _classify_form(A: Poly, B: Poly, C: Poly, field: FqField) -> FormData:
    alpha = A.degree
    gamma = C.degree
    beta = B.degree if not B.is_zero else None
    deg_f = max(alpha, gamma) if beta is None else max(alpha, beta, gamma)
    kind = _infinite_kind(field, _discriminant(A, B, C))
    if beta is not None and 2 * beta > alpha + gamma:
        assert kind == "split", "distinct Newton slopes force a split infinity"
        return FormData(deg_f, "split2", (alpha - beta, beta - gamma))
    if kind == "split":
        assert (alpha - gamma) % 2 == 0
        return FormData(deg_f, "split1", (alpha - gamma,))
    return FormData(deg_f, kind, (alpha - gamma,))


def test_profile_exponent_matches_infinity_type_oracle():
    """On every form of the stream and every line class with d_Q <= 3, the
    exponent of the form's degree profile equals the exponent of its type
    at infinity; the stream reaches all four types."""
    classes = [(dP, dQ) for dQ in range(4) for dP in range(dQ + 1)]
    for field, fmax in _LISTED_STREAMS:
        pairs = Counter(
            ((A.degree, B.degree, C.degree), _classify_form(A, B, C, field))
            for A, B, C in _listed_stream(field, fmax)
        )
        assert {fd.inf_kind for _, fd in pairs} == {"split2", "split1", "inert", "ramified"}
        for profile, fd in pairs:
            for cls in classes:
                assert _form_exponent(*_form_key(*profile), *cls) == _kind_exponent(fd, *cls), (profile, fd, cls)


def test_m_guard_message_states_size_and_limit(monkeypatch):
    """The guard refuses M past M_GUARD before any work, whatever q is."""
    def no_count(*args):
        raise AssertionError("forms were counted before the guard")

    monkeypatch.setattr(quadfield, "_form_counts", no_count)
    for q in (3, 5):
        with pytest.raises(SizeError) as exc:
            enumerate_degree2(q, 1, M_GUARD + 1)
        assert [int(n) for n in re.findall(r"\d+", str(exc.value))] == [M_GUARD + 1, M_GUARD]


@pytest.mark.parametrize(
    "field, M, count",
    [
        (F5, 1, 93000),
        (FqField(7), 1, 938448),
        (F3, 3, 6225336),
        (F3, 2, 173004),
        (F9, 1, 5307120),
        (FqField(7), 2, 780376968),
        (F3, 4, 254964996),
        (F2, 1, 168),
        (F2, 2, 2793),
        (F4, 1, 20160),
    ],
)
def test_enumerate_degree2_reach(field, M, count):
    """Pinned counts, each even-q one also by the key route.  (7,2) and
    (3,4) were reached by the form scan in about 40 s each."""
    assert enumerate_degree2(field.q, M, M)[0].count == count
    if (field.q, M) in _KEY_ROUTE_ROWS:
        heights = _key_route(field.q, M)
        assert sum(_line_count(field.q, *cls) * got[M] for cls, got in heights.items()) == count


@pytest.mark.parametrize("field, M_max", [(F3, 4), (F5, 2), (F7, 2)])
def test_sweep_rows_equal_single_counts(field, M_max, monkeypatch):
    """One sweep to M_max counts the forms once and gives, for every M up to
    M_max, the row that the count at M alone gives; a sweep from M gives
    the tail of those rows."""
    calls = []
    form_counts = quadfield._form_counts
    with monkeypatch.context() as patch:
        patch.setattr(quadfield, "_form_counts", lambda q, fmax: calls.append(fmax) or form_counts(q, fmax))
        rows = enumerate_degree2(field.q, 1, M_max)
    assert calls == [M_max]
    assert [r.M for r in rows] == list(range(1, M_max + 1))
    assert rows == [enumerate_degree2(field.q, M, M)[0] for M in range(1, M_max + 1)]
    assert enumerate_degree2(field.q, 2, M_max) == rows[1:]


def test_enumerate_degree2_cross_validation():
    """The class sum equals D(M) - P_2(M) - [M even] A(M/2)/2, the singular
    conics less the pairs and doubles of rational points (see
    oracles.singular_conic_count), a route through no line class, form key
    or square root: at odd and even q, and at M = 2, where the doubles
    enter."""
    for q, M, D in ((2, 1, 462), (3, 1, 6864), (2, 2, 6048)):
        assert singular_conic_count(q, M) == D, (q, M)
        pairs = ratpoints.count_reducible_pairs(q, M, M)[0].observed
        doubles = 0 if M % 2 else ratpoints.point_count_exact_height(2, q, M // 2)
        assert 2 * enumerate_degree2(q, M, M)[0].count == 2 * (D - pairs) - doubles, (q, M)


@pytest.mark.parametrize("q, M_max", [(2, 12), (3, 12), (4, 8), (5, 8), (7, 6), (8, 6), (9, 6), (16, 4)])
def test_n2_conjecture_matches_class_sum(q, M_max):
    """The conjectured closed form equals every row of a sweep, at odd and
    even M and at every characteristic."""
    rows = enumerate_degree2(q, 1, M_max)
    assert [n2_conjecture(q, r.M) for r in rows] == [r.count for r in rows]


def test_enumerate_degree2_errors():
    with pytest.raises(ValueError):
        enumerate_degree2(3, 0, 1)
    with pytest.raises(SizeError):  # the top M's guard comes first
        enumerate_degree2(3, 0, M_GUARD + 1)
