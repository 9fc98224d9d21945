"""Second routes that no command runs, kept with the tests that compare the
package against them.

- F_q: `field_inv`, `field_pow` and `is_square_unit` on the element codes
  of `fqarith.FqField`.
- F_q[t]: `Poly`, a polynomial type over an `FqField` built on
  `fqarith.convolve`, whose remainder `fqarith.poly_rem` is held equal to;
  the recursive, cached listing of monic irreducibles of each degree and
  the irreducibility test on it, the reference for the modulus search of
  `FqField`; gcd, extended gcd and the squarefree test, with the `Poly`
  operations only they read (`scale`, `is_monic`, `monic`, `derivative`,
  `serialize`) as plain functions.
- F_q[t] by code: `all_polys`, every polynomial of degree <= M as a `Poly`
  indexed by its base-q code, and `divisor_masks_by_poly`, the divisor-mask
  sieve on those `Poly` objects that `ratpoints.divisor_masks` is held
  equal to.
- P^n(F_q(t)): `canonicalize`, which reduces a coordinate tuple to its
  canonical point by a gcd, and `enumerate_exact_height`, which builds every
  point that `ratpoints.count_exact_height` counts from the `Poly` sieve.
- Degree-2 points of the plane: the key route, which reads the orbit key
  in Sym^2 P^2 of the point of an irreducible form on a line straight off
  the line's basis and the form's coefficients, at every q (see the
  `quadfield` docstring), and the height read off a key;
  `singular_conic_count`, the singular conics of each height, which
  count the orbits together with the pairs and doubles of rational points
  with no line, form key, place or square root; `n2_conjecture`, the
  conjectured closed form of the orbit count; and `kt_main_term`, the
  `Fraction` the integer main_term and ratio cells of `count quadratic`
  are checked against.
- Hilb^m of the plane: `punctual_hilb_counts`, the Hilbert counts as a
  product over closed points of the punctual series, whose coefficients
  `cell_sum` counts by the cells of the punctual Hilbert scheme, one per
  partition, with no Goettsche product; and `punctual_count_by_matrices`,
  the base case of `cell_sum`, counted from commuting nilpotent matrices
  with a cyclic vector.
- The command line: `build_parser`, the argparse parser of every command
  built from `cli._COMMANDS` and `cli._FLAGS` with abbreviations off, which
  `cli._parse` is held equal to: the same namespace for every argv it
  accepts, and a refusal of every argv it refuses.
"""

from __future__ import annotations

import argparse
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from hilbcount import cli
from hilbcount.errors import SizeError
from hilbcount.fqarith import ENUM_GUARD, FqField, convolve, field_from_order, irreducible_count
from hilbcount.genfun import closed_point_counts
from hilbcount.ratpoints import divisor_masks, schanuel_constant

# Max number of coordinate tuples an enumerate_exact_height scan covers.
TUPLE_GUARD = 10**9


# --- F_q and F_q[t] ---


_INV_CACHE: dict[tuple[int, int], int] = {}


def field_inv(field: FqField, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero field element")
    if field.k == 1:
        return pow(a, field.p - 2, field.p)
    key = (field.q, a)
    cached = _INV_CACHE.get(key)
    if cached is None:
        cached = field_pow(field, a, field.q - 2)
        _INV_CACHE[key] = cached
    return cached


def field_pow(field: FqField, a: int, e: int) -> int:
    result = 1
    base = a
    while e:
        if e & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        e >>= 1
    return result


def is_square_unit(field: FqField, a: int) -> bool:
    """Whether a nonzero element is a square in F_q^* (q odd)."""
    if a == 0:
        raise ValueError("zero is not a unit")
    if field.q % 2 == 0:
        raise ValueError("squareness of units needs odd q")
    return field_pow(field, a, (field.q - 1) // 2) == 1


class Poly:
    """Dense polynomial over an FqField.  deg(0) is reported as -1; callers
    that need the -infinity convention must special-case is_zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __sub__(self, other):
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else 0
            y = other.coeffs[i] if i < len(other.coeffs) else 0
            out.append(F.sub(x, y))
        return Poly(F, out)

    def __neg__(self):
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        return Poly(self.field, convolve(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        db = other.degree
        quo = [0] * max(len(rem) - db, 0)
        inv_lead = field_inv(F, other.lead)
        while len(rem) - 1 >= db and rem:
            c = F.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for j, y in enumerate(other.coeffs):
                rem[shift + j] = F.sub(rem[shift + j], F.mul(c, y))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


_IRRED_CACHE: dict[tuple, tuple[Poly, ...]] = {}


def irreducibles_of_degree(d: int, field: FqField) -> list[Poly]:
    """All monic irreducibles of degree d, sorted lexicographically by
    coefficient sequence (lowest degree first)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    if q**d > ENUM_GUARD:
        raise SizeError(f"irreducible scan q^d = {q}^{d} exceeds guard {ENUM_GUARD}")
    key = (field.p, field.k, d)
    cached = _IRRED_CACHE.get(key)
    if cached is not None:
        return list(cached)
    lower: list[Poly] = []
    for e in range(1, d // 2 + 1):
        lower.extend(irreducibles_of_degree(e, field))
    found = []
    for tail in itertools.product(range(q), repeat=d):
        f = Poly(field, tuple(tail) + (1,))
        if all((f % g).coeffs for g in lower if 2 * g.degree <= d):
            found.append(f)
    assert len(found) == irreducible_count(d, q)
    _IRRED_CACHE[key] = tuple(found)
    return found


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    for e in range(1, f.degree // 2 + 1):
        for g in irreducibles_of_degree(e, f.field):
            if (f % g).is_zero:
                return False
    return True


def scale(f: Poly, c: int) -> Poly:
    F = f.field
    return Poly(F, (F.mul(c, x) for x in f.coeffs))


def is_monic(f: Poly) -> bool:
    return bool(f.coeffs) and f.coeffs[-1] == 1


def monic(f: Poly) -> Poly:
    if f.is_zero:
        return f
    if is_monic(f):
        return f
    return scale(f, field_inv(f.field, f.lead))


def derivative(f: Poly) -> Poly:
    F = f.field
    out = []
    for i in range(1, len(f.coeffs)):
        # i * c_i; the prime-field scalar i mod p has element code i mod p
        out.append(F.mul(i % F.p, f.coeffs[i]))
    return Poly(F, out)


def serialize(f: Poly) -> str:
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return monic(a)


def poly_gcd_all(polys) -> Poly:
    """Monic gcd of a nonempty list of polynomials, stopping once it is 1;
    the gcd of all-zero polynomials is 0."""
    g = Poly(polys[0].field, ())
    for f in polys:
        g = poly_gcd(g, f)
        if g.degree == 0:
            break
    return g


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, u) with g monic and s*a + u*b = g."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly(F, ())
    u0, u1 = Poly(F, ()), Poly.one(F)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero:
        return r0, s0, u0
    c = field_inv(F, r0.lead)
    return scale(r0, c), scale(s0, c), scale(u0, c)


def is_squarefree(f: Poly) -> bool:
    if f.is_zero:
        return False
    if f.degree == 0:
        return True
    # any repeated factor divides gcd(f, f'); this covers char p since a
    # square factor g^2 | f forces g | f' as well
    return poly_gcd(f, derivative(f)).degree == 0


def all_polys(field: FqField, max_deg: int) -> list[Poly]:
    """Every polynomial of degree <= max_deg, indexed by its base-q code."""
    q = field.q
    out = []
    for code in range(q ** (max_deg + 1)):
        digits = []
        c = code
        for _ in range(max_deg + 1):
            digits.append(c % q)
            c //= q
        out.append(Poly(field, digits))
    return out


def divisor_masks_by_poly(field: FqField, M: int):
    """The divisor-mask sieve over the polynomials of degree <= M, built on
    `Poly` objects.

    Returns (polys, mask, monics): every polynomial of degree <= M by its
    code (see all_polys); for each code a mask with one bit per monic
    irreducible that divides it, mask[0] = -1; and the monic codes in
    ascending order.  Ascending code is non-decreasing degree, so a monic
    code of degree >= 1 still at mask 0 when the walk reaches it is
    irreducible, and its new bit goes to every nonzero multiple of degree
    <= M, found by looking each `Poly` product up by its coefficients.
    """
    q = field.q
    polys = all_polys(field, M)
    code_of = {f.coeffs: code for code, f in enumerate(polys)}
    monics = [code for code, f in enumerate(polys) if is_monic(f)]
    mask = [0] * len(polys)
    mask[0] = -1
    bit = 1
    for d in monics:
        f = polys[d]
        if f.degree < 1 or mask[d]:
            continue
        for h in polys[1 : q ** (M - f.degree + 1)]:
            mask[code_of[(f * h).coeffs]] |= bit
        bit <<= 1
    return polys, mask, monics


# --- points of P^n(F_q(t)) ---


class ProjPointFqt(NamedTuple):
    coords: tuple[Poly, ...]

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    @property
    def field(self) -> FqField:
        return self.coords[0].field

    def serialize(self) -> str:
        return "/".join(serialize(c) for c in self.coords)


def canonicalize(coords) -> ProjPointFqt:
    """Reduce a nonzero coordinate tuple to the canonical orbit representative."""
    coords = tuple(coords)
    if all(c.is_zero for c in coords):
        raise ValueError("all coordinates are zero")
    g = poly_gcd_all(coords)
    if g.degree > 0:
        coords = tuple(c // g for c in coords)
    pivot = next(c for c in coords if not c.is_zero)
    if not is_monic(pivot):
        u = field_inv(pivot.field, pivot.lead)
        coords = tuple(scale(c, u) for c in coords)
    return ProjPointFqt(coords)


def _guard_tuples(n: int, field: FqField, M: int):
    """Refuse a scan of P^n at height q^M past TUPLE_GUARD tuples."""
    if n < 1 or M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    if field.q ** ((n + 1) * (M + 1)) > TUPLE_GUARD:
        raise SizeError(
            f"enumeration of q^((n+1)(M+1)) = {field.q}^{(n + 1) * (M + 1)} "
            f"coordinate tuples exceeds guard {TUPLE_GUARD}"
        )


def enumerate_exact_height(n: int, field: FqField, M: int):
    """Yield every canonical point of P^n(F_q(t)) of height exactly q^M.

    Every coordinate has degree <= M, so each is handled as its code in
    range(q^(M+1)).  Points come in itertools.product order over the codes:
    by pivot position from the last to the first, then by monic pivot, then
    by free tail.  Coprimality is the running AND of the coordinates'
    divisor masks (see divisor_masks_by_poly), stopped at 0.
    """
    _guard_tuples(n, field, M)
    polys, mask, monics = divisor_masks_by_poly(field, M)
    top = field.q**M  # the codes of degree exactly M are those >= top
    codes = range(len(polys))
    for pos in range(n, -1, -1):
        k = n - pos
        for pivot in monics:
            head = (polys[0],) * pos + (polys[pivot],)
            reaches_M = pivot >= top
            for tail in itertools.product(codes, repeat=k):
                if not reaches_M and max(tail, default=0) < top:
                    continue
                g = mask[pivot]
                for c in tail:
                    if not g:
                        break
                    g &= mask[c]
                if not g:
                    yield ProjPointFqt(head + tuple(map(polys.__getitem__, tail)))


# --- degree-2 points of the plane ---


def sym2_basis(P, Q) -> list[tuple[Poly, Poly, Poly]]:
    """The Sym^2 coordinates of P P, P Q + Q P and Q Q for a line with basis
    (P, Q): one triple (P_i^2, P_i Q_i, Q_i^2) per coordinate ii, then one
    triple (2 P_i P_j, P_i Q_j + P_j Q_i, 2 Q_i Q_j) per coordinate ij,
    i < j: the order of the coefficients (a, b, c, d, e, f) of
    a X^2 + b Y^2 + c Z^2 + d XY + e XZ + f YZ in `singular_conic_count`."""
    n = len(P)
    out = [(P[i] * P[i], P[i] * Q[i], Q[i] * Q[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pp = P[i] * P[j]
            qq = Q[i] * Q[j]
            out.append((pp + pp, P[i] * Q[j] + P[j] * Q[i], qq + qq))
    return out


def line_form_key(basis, A: Poly, B: Poly, C: Poly) -> ProjPointFqt:
    """The orbit key in Sym^2 P^2 of the point s_0 P + Q, A s_0^2 + B s_0 + C
    = 0, of an irreducible form on the line with `sym2_basis` basis: A times
    the key is C P P - B (P Q + Q P) + A Q Q (see the quadfield docstring),
    made canonical.  No square root is taken, so it holds at every q, and
    H^2 = q^(max deg) of the canonical key."""
    return canonicalize([C * pp - B * pq + A * qq for pp, pq, qq in basis])


def singular_conic_count(q: int, M: int) -> int:
    """D(M), the number of singular conics over F_q(t) of height q^M, M >= 1:
    the primitive forms a X^2 + b Y^2 + c Z^2 + d XY + e XZ + f YZ over
    F_q[t], up to F_q^*, of largest coefficient degree exactly M and
    half-discriminant 4abc + def - af^2 - be^2 - cd^2 = 0.  The half-
    discriminant is the singularity test in characteristic 2 too.

    A singular conic splits into two lines over the algebraic closure, so it
    is the Sym^2 key l_x l_x' of a degree-2 orbit {x, x'}, the product
    l_x l_y of two rational points, of height q^(N + N') by Gauss's lemma,
    or the square l_x^2 of a doubled one.  With P_2(M) half the ordered
    pairs of rational points (the `observed` cell of `count pairs`) and
    A(N) the rational points of height q^N, that gives
    D(M) = N_2(M) + P_2(M) + [M even] A(M/2)/2, with no line, form key,
    place or square root.

    The half-discriminant is linear in b: b (4ac - e^2) = af^2 + cd^2 - def.
    So each (a, c, d, e, f) of codes below q^(M+1) has at most one b, looked
    up among the multiples of Delta = 4ac - e^2 by a b of degree <= M, and
    where Delta = 0 and the right side is 0 every b counts, read off the
    histogram of masks.  A tuple is primitive iff the AND of its divisor
    masks (`ratpoints.divisor_masks`) is 0; the tuples are counted and the
    q - 1 units divided out.
    """
    field = field_from_order(q)
    mask = divisor_masks(field, M)
    n, top, L = q ** (M + 1), q**M, 3 * M + 1  # codes >= top have degree M
    polys = [f.coeffs for f in all_polys(field, M)]

    def times(*factors) -> tuple:
        out = (1,)
        for f in factors:
            out = convolve(field, out, f)
        return tuple(out) + (0,) * (L - len(out))

    codes = range(n)
    sq = [[times(x, y, y) for y in polys] for x in polys]  # x y^2
    neg = [[[tuple(map(field.neg, times(x, y, z))) for z in polys] for y in polys] for x in polys]
    hists = Counter(mask[top:]), Counter(mask)  # the masks of b, by whether b may have degree < M
    free_b: dict[tuple[int, bool], int] = {}
    four = 4 % field.p  # the prime-field scalar 4 has code 4 mod p
    zero = (0,) * L
    quotients: dict[tuple, dict | None] = {}
    total = 0
    for a in codes:
        for c in codes:
            ac4 = tuple(field.mul(four, x) for x in times(polys[a], polys[c]))
            for e in codes:
                delta = tuple(map(field.sub, ac4, times(polys[e], polys[e])))
                if delta not in quotients:  # deg Delta <= 2M, so b Delta has L coefficients
                    multiples = {times(polys[b], delta[: 2 * M + 1]): b for b in codes}
                    quotients[delta] = multiples if any(delta) else None
                quot = quotients[delta]
                g_ace, high_ace = mask[a] & mask[c] & mask[e], max(a, c, e) >= top
                sq_a, sq_c, neg_e = sq[a], sq[c], neg[e]
                for d in codes:
                    sq_cd, neg_ed = sq_c[d], neg_e[d]
                    g_d, high_d = g_ace & mask[d], high_ace or d >= top
                    for f in codes:
                        rhs = tuple(map(field.add, map(field.add, sq_a[f], sq_cd), neg_ed[f]))
                        g, high = g_d & mask[f], high_d or f >= top
                        if quot is None:
                            if rhs == zero:
                                if (g, high) not in free_b:
                                    free_b[g, high] = sum(k for m, k in hists[high].items() if not g & m)
                                total += free_b[g, high]
                        else:
                            b = quot.get(rhs)
                            if b is not None and not g & mask[b] and (high or b >= top):
                                total += 1
    assert total % (q - 1) == 0
    return total // (q - 1)


def kt_main_term(field: FqField, M: int) -> Fraction:
    """2 S^2 q^(3M) M, the conjectured point count (two points per orbit)."""
    S = schanuel_constant(2, field.q)
    return 2 * S * S * Fraction(field.q) ** (3 * M) * M


def n2_conjecture(q: int, M: int) -> Fraction:
    """A conjecture, not a derivation: the closed form of N_2(M), the
    degree-2 orbits of the plane with H^2 = q^M, M >= 1, that the class sum
    of `enumerate_degree2` has matched at every row compared.  With
    S = schanuel_constant(2), s = q^2 + q + 1,
    c_1 = -q (2q^2 + 3q + 2) / ((q^2 - 1) s) and
    c_0 = (q^2 - 6q + 1) / (2 (q^2 - 1)):

        odd M:  S^2 [(M + c_1) q^(3M) + (q + 1)^2 / ((q - 1) s) q^((5M+1)/2)]
        even M: S^2 [(M + c_0) q^(3M) - c_1 q^(5M/2)
                     - q^2 / (2 (q^2 - 1) s) q^(3M/2)]
    """
    S = schanuel_constant(2, q)
    s = q * q + q + 1
    c1 = Fraction(-q * (2 * q * q + 3 * q + 2), (q * q - 1) * s)
    if M % 2:
        return S * S * ((M + c1) * q ** (3 * M) + Fraction((q + 1) ** 2, (q - 1) * s) * q ** ((5 * M + 1) // 2))
    c0 = Fraction(q * q - 6 * q + 1, 2 * (q * q - 1))
    return S * S * (
        (M + c0) * q ** (3 * M) - c1 * q ** (5 * M // 2) - Fraction(q * q, 2 * (q * q - 1) * s) * q ** (3 * M // 2)
    )


# --- Hilb^m of the plane ---


def partitions(k: int, largest: int):
    """Yield every partition of k into parts <= largest, each as a tuple of
    parts in non-increasing order."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def cell_sum(Q: int, k: int) -> int:
    """sum over partitions lambda of k of Q^(k - len(lambda)): the points
    over F_Q of the punctual Hilbert scheme of k points at a point of the
    plane, one affine cell per partition (Ellingsrud and Stromme, Invent.
    Math. 87, 1987)."""
    return sum(Q ** (k - len(lam)) for lam in partitions(k, k))


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two series truncated to the length of a."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: len(a) - i]):
                out[i + j] += x * y
    return out


def punctual_hilb_counts(q: int, m_max: int) -> list[int]:
    """|Hilb^m P^2(F_q)| for m = 0..m_max from the closed points of the
    plane and the punctual cells, with no Goettsche product: a subscheme
    is one punctual subscheme at each closed point it meets, so the counts
    are [t^m] prod_d P_0(q^d, t^d)^(N_d), with P_0(Q, t) = sum_k
    cell_sum(Q, k) t^k and N_d the closed points of degree d
    (`genfun.closed_point_counts`).  Each power is the binomial series
    sum_j C(N_d, j) (P_0 - 1)^j in integers; P_0 - 1 has no constant term,
    so it stops at j = m_max // d."""
    out = [1] + [0] * m_max
    for d, n_d in enumerate(closed_point_counts(q, m_max), 1):
        cells = [0] * (m_max + 1)
        for k in range(1, m_max // d + 1):
            cells[k * d] = cell_sum(q**d, k)
        power, term = list(out), list(out)
        for j in range(1, m_max // d + 1):
            term = _times(term, cells)
            power = [a + math.comb(n_d, j) * b for a, b in zip(power, term)]
        out = power
    return out


def _spans(A, B, v, p: int) -> bool:
    """Whether v, A v, B v, A B v, ... span F_p^k: the closure of v under A
    and B, kept as rows with a leading 1 at distinct pivots."""
    k = len(v)
    basis: dict[int, list[int]] = {}
    todo = [v]
    while todo:
        w = list(todo.pop())
        for pivot in sorted(basis):
            if w[pivot]:
                c = w[pivot]
                w = [(x - c * y) % p for x, y in zip(w, basis[pivot])]
        lead = next((i for i, x in enumerate(w) if x), None)
        if lead is None:
            continue
        inv = pow(w[lead], p - 2, p)
        basis[lead] = [x * inv % p for x in w]
        for M in (A, B):
            todo.append([sum(M[i][j] * w[j] for j in range(k)) % p for i in range(k)])
    return len(basis) == k


def punctual_count_by_matrices(p: int, k: int) -> int:
    """The points over the prime field F_p of the punctual Hilbert scheme of
    k points of the plane, by its quiver description: the triples (A, B, v)
    of commuting nilpotent A, B in M_k(F_p) and a vector v with F_p[A, B] v
    = F_p^k, over |GL_k(F_p)|, which acts on the triples freely (Feit and
    Fine, Duke Math. J. 27, 1960; Bryan and Morrison, J. Algebraic Geom.
    24, 2015).  A naive scan of every pair, for the base case of
    cell_sum."""

    def mul(A, B):
        return tuple(tuple(sum(A[i][l] * B[l][j] for l in range(k)) % p for j in range(k)) for i in range(k))

    def nilpotent(A):
        power = A
        for _ in range(k - 1):
            power = mul(power, A)
        return not any(map(any, power))

    matrices = (tuple(zip(*[iter(flat)] * k)) for flat in itertools.product(range(p), repeat=k * k))
    nil = [A for A in matrices if nilpotent(A)]
    vectors = list(itertools.product(range(p), repeat=k))[1:]
    triples = 0
    for A in nil:
        for B in nil:
            if mul(A, B) == mul(B, A):
                triples += sum(_spans(A, B, v, p) for v in vectors)
    gl = math.prod(p**k - p**i for i in range(k))
    assert triples % gl == 0
    return triples // gl


# --- the command line ---


def build_parser():
    """The argparse parser of every command, from cli._COMMANDS and
    cli._FLAGS; no parser takes an abbreviated flag."""
    parser = argparse.ArgumentParser(prog="hilbcount", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    tops, groups = {}, {}
    for (command, *sub), (_run, flags, defaults) in cli._COMMANDS.items():
        if command not in tops:
            tops[command] = subs.add_parser(command, help=cli._HELP[command], allow_abbrev=False)
        if not sub:
            leaf = tops[command]
        else:
            if command not in groups:
                groups[command] = tops[command].add_subparsers(dest="subcommand", required=True)
            leaf = groups[command].add_parser(sub[0], allow_abbrev=False)
        for dest in cli._COMMON + flags:
            leaf.add_argument("--" + dest.replace("_", "-"), **cli._FLAGS[dest])
        leaf.set_defaults(**defaults)
    return parser
