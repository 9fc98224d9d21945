"""Second routes that no command runs, kept with the tests that compare the
package against them.

- F_q: `field_inv`, `field_pow` and `is_square_unit` on the element codes
  of `fqarith.FqField`.
- F_q[t]: `Poly`, a polynomial type over an `FqField` built on
  `fqarith.convolve`, whose remainder `fqarith.poly_rem` is held equal to;
  the recursive, cached listing of monic irreducibles of each degree and
  the irreducibility test on it, the reference for the modulus search of
  `FqField`; gcd, extended gcd, squarefree test, trial factoring and the
  squarefree decomposition f = d h^2, with the `Poly` operations only they
  read (`scale`, `is_monic`, `monic`, `derivative`, `constant`,
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
  `quadfield` docstring); at odd q the quadratic extensions L =
  F_q(t)(sqrt(D)), the canonical coordinates of a point of P^2(L) and its
  orbit key; the height read off a key; and `kt_main_term`, the `Fraction`
  the integer main_term and ratio cells of `count quadratic` are checked
  against.
- The command line: `build_parser`, the argparse parser of every command
  built from `cli._COMMANDS` and `cli._FLAGS` with abbreviations off, which
  `cli._parse` is held equal to: the same namespace for every argv it
  accepts, and a refusal of every argv it refuses.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from typing import NamedTuple

from hilbcount import cli
from hilbcount.errors import SizeError
from hilbcount.fqarith import ENUM_GUARD, FqField, convolve, irreducible_count
from hilbcount.ratpoints import schanuel_constant

# Max number of coordinate tuples an enumerate_exact_height scan covers.
TUPLE_GUARD = 10**9


class WrongDegreeError(Exception):
    """Point does not have the algebraic degree the operation expects."""


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


def constant(field: FqField, c: int) -> Poly:
    return Poly(field, (c % field.q if field.k == 1 else c,))


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


def trial_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor a nonzero polynomial into monic irreducibles by trial division.
    Only intended for small degrees."""
    if f.is_zero:
        raise ValueError("cannot factor zero")
    factors = []
    g = monic(f)
    d = 1
    while g.degree >= 1:
        if d > g.degree // 2:
            factors.append((g, 1))
            break
        for p in irreducibles_of_degree(d, f.field):
            if (g % p).is_zero:
                e = 0
                while (g % p).is_zero:
                    g = g // p
                    e += 1
                factors.append((p, e))
        d += 1
    return factors


def squarefree_decompose(f: Poly) -> tuple[Poly, Poly]:
    """Write f = d * h^2 with d squarefree.  The unit of f stays on d."""
    F = f.field
    unit = f.lead
    d = constant(F, unit)
    h = Poly.one(F)
    for p, e in trial_factor(f):
        if e % 2:
            d = d * p
        h = h * p ** (e // 2)
    assert d * h * h == f
    return d, h


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
    i < j, in the order of `_orbit_key`."""
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


class QuadExt:
    """L = F_q(t)(sqrt(D)) for squarefree D (or a nonsquare constant)."""

    def __init__(self, field: FqField, d: Poly):
        if field.q % 2 == 0:
            raise ValueError("F_q(t)(sqrt(D)) needs odd q")
        if d.is_zero:
            raise ValueError("D must be nonzero")
        if d.degree == 0:
            if is_square_unit(field, d.lead):
                raise ValueError("constant D must be a nonsquare unit")
        elif not is_squarefree(d):
            raise ValueError("D must be squarefree")
        self.field = field
        self.d = d

    def __eq__(self, other):
        return isinstance(other, QuadExt) and self.field == other.field and self.d == other.d

    def __hash__(self):
        return hash((self.field, self.d))

    def __repr__(self):
        return f"QuadExt(q={self.field.q}, D={self.d!r})"


class QuadElem:
    """a + b sqrt(D) with polynomial parts."""

    __slots__ = ("ext", "a", "b")

    def __init__(self, ext: QuadExt, a: Poly, b: Poly):
        self.ext = ext
        self.a = a
        self.b = b

    @property
    def is_zero(self):
        return self.a.is_zero and self.b.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, QuadElem)
            and self.ext == other.ext
            and self.a == other.a
            and self.b == other.b
        )

    def __add__(self, other):
        return QuadElem(self.ext, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return QuadElem(
            self.ext,
            self.a * other.a + self.ext.d * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    def conj(self):
        return QuadElem(self.ext, self.a, -self.b)

    def norm(self) -> Poly:
        return self.a * self.a - self.ext.d * (self.b * self.b)

    def trace(self) -> Poly:
        return self.a + self.a

    def __repr__(self):
        return f"QuadElem({self.a!r} + {self.b!r}*sqrt(D))"


class DegreeTwoPoint(NamedTuple):
    ext: QuadExt
    coords: tuple[QuadElem, ...]  # polynomial parts, canonical
    orbit_key: ProjPointFqt  # the orbit's point of Sym^2 P^2


def _orbit_key(y: tuple[QuadElem, ...]) -> ProjPointFqt:
    """The orbit's point of Sym^2 P^2 in P^5(F_q(t)): the products
    x_i conj(x_i), then x_i conj(x_j) + x_j conj(x_i) for i < j.  They lie
    in F_q(t) and do not depend on which sqrt(D) presentation of the residue
    field was used; conjugation fixes them and scaling x by c multiplies them
    all by N(c)."""
    n = len(y)
    cross = [(y[i] * y[j].conj()).trace() for i in range(n) for j in range(i + 1, n)]
    return canonicalize([c.norm() for c in y] + cross)


def canonicalize_quadratic(ext: QuadExt, coords) -> DegreeTwoPoint:
    """Scale by the conjugate of the first nonzero coordinate, which makes
    that coordinate its norm in F_q[t], remove the polynomial content of the
    parts, and make the first nonzero leading coefficient 1.  Raises
    WrongDegreeError when the point is actually rational."""
    coords = tuple(coords)
    pivot = next((c for c in coords if not c.is_zero), None)
    if pivot is None:
        raise ValueError("all coordinates are zero")
    conj = pivot.conj()
    y = [c * conj for c in coords]
    if all(c.b.is_zero for c in y):
        raise WrongDegreeError("point is rational (degree 1), not degree 2")
    parts = [f for c in y for f in (c.a, c.b)]
    g = poly_gcd_all(parts)
    if g.degree > 0:
        parts = [f // g for f in parts]
    u = field_inv(ext.field, next(f for f in parts if not f.is_zero).lead)
    parts = [scale(f, u) for f in parts]
    out = tuple(QuadElem(ext, a, b) for a, b in zip(parts[::2], parts[1::2]))
    return DegreeTwoPoint(ext, out, _orbit_key(out))


def height_degree2(P: DegreeTwoPoint) -> Fraction:
    """Exponent h with H(P) = q^h: half the max degree of the orbit key; see
    the quadfield docstring."""
    return Fraction(max(c.degree for c in P.orbit_key.coords), 2)


def kt_main_term(field: FqField, M: int) -> Fraction:
    """2 S^2 q^(3M) M, the conjectured point count (two points per orbit)."""
    S = schanuel_constant(2, field.q)
    return 2 * S * S * Fraction(field.q) ** (3 * M) * M


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
