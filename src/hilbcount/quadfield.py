"""The count of the degree-2 points of the projective plane over F_q(t) of a
given exact height, and the geometry it rests on.

Keys: a Galois orbit {x, x'} of degree-2 points is a point of Sym^2 P^2,
the coefficients (x_i x'_i, x_i x'_j + x_j x'_i) in P^5(F_q(t)) of the
product of the two conjugate linear forms; it is unchanged by conjugation
and by scaling, and it is the orbit's key.  On a line with basis (P, Q)
(below) the point of a form A s^2 + B s u + C u^2 is x = s_0 P + Q with
A s_0^2 + B s_0 + C = 0, and A times its key is, with no square root and
in every characteristic,

    key_ii = C P_i^2 - B P_i Q_i + A Q_i^2,
    key_ij = 2 C P_i P_j - B (P_i Q_j + P_j Q_i) + 2 A Q_i Q_j    (i < j).

The count builds no keys; the tests build them on walked lines at small q,
even q included (the key route of tests/oracles.py), and read each height
off the key.  The key is a singular conic, and so are the product l_x l_y
of the lines of two rational points and the square l_x^2 of one; since a
singular conic splits into two lines over the algebraic closure, there are
no others.  So the tests also count the singular conics of height q^M,
the primitive forms with largest coefficient degree M and half-discriminant
0 (singular_conic_count in tests/oracles.py), and hold them equal to this
count plus the pairs and doubles of rational points, at even q and M = 2
too, through no line, key, place or square root.

Height: H(x) = (prod_w max_i |x_i|_w)^(1/2) over the places w of the
quadratic extension L of F_q(t) that x is defined over, with
|z|_w = q^(-w(z) deg(w)), w the valuation onto Z, deg(w) = f_w times the
degree of the place below and the infinite place of F_q(t) of degree 1, so
that the product formula holds in L and H is Galois- and
scaling-invariant.  Every place is non-archimedean, so by Gauss's lemma
the max of |.|_w over the coefficients is multiplicative on a product of
polynomials.  The key is the coefficient vector of l_x l_conj(x), with
l_x = sum x_i X_i, so max |key|_w = max_i |x_i|_w max_i |conj(x_i)|_w, and
the product over w gives H(x)^4 = prod_w max |key|_w = H(key)^2, where
H(key) is the height of the key in P^5(F_q(t)) (each place of F_q(t) has
sum e f = 2 above it).  The canonical key has coprime polynomial
coordinates, so H(key) = q^(max deg) and H(x)^2 = q^(max deg of the key):
a height needs no place, valuation or factorization.

Counting strategy: every degree-2 point of the plane lies on a unique
rational line, and on that line corresponds to a unique irreducible binary
quadratic form over F_q[t] (primitive, leading coefficient monic).  Writing
the line's module of sections in a reduced basis (P, Q) with degrees
d_P <= d_Q (leading coefficient vectors independent over F_q), the squared
height of the point attached to a form F is exactly

    H^2 = q^(deg F) * prod_{w | infty} max(|z|_w q^(e f d_P), q^(e f d_Q))
                                       / max(|z|_w, 1)

with z the root of F.  Since sum e f = 2 over w | infty, H^2 is
q^(2 d_Q) times a power of q that reads the line only through its offset
delta = d_Q - d_P >= 0.  Counting therefore factors per offset, not per
class: (number of lines of each class (d_Q - delta, d_Q)) times (number of
forms of each offset at delta).

A form F = A s^2 + B s u + C u^2 enters H^2 only through deg F and the
absolute values |z|_w of its root at the places above infinity, and those
are read off the Newton polygon of F at infinity, that is off the degree
profile (alpha, beta, gamma) = (deg A, deg B, deg C), with deg 0 = -1.  In
the valuation v = -deg of F_q(t) at infinity, extended: if 2 beta > alpha +
gamma the polygon has two slopes, the two roots have the distinct
valuations alpha - beta and beta - gamma, and infinity splits.  Otherwise
the polygon is one segment, and both conjugate roots have valuation
(alpha - gamma) / 2 at every place above infinity.  Since sum e f = 2
there, the product over w | infty reads only u_1 <= u_2, twice the roots'
valuations, whether infinity splits, is inert or ramifies.  So a form's
class is its key (deg F, u_1, u_2), the type at infinity never enters
the count, and the exponent on a line of class (d_P, d_Q) has one term per
root:

    2 d_Q + deg F + (1/2) sum_{u in (u_1, u_2)} clamp(u, -2 delta, 0),

with clamp(u, a, b) = max(a, min(u, b)); all but 2 d_Q is the form's
offset at delta (_form_exponent).

Forms per key, by Moebius inversion over the monic gcd g of (A, B, C):
sum_{deg g = k} mu(g) is 1, -q and 0 for k = 0, k = 1 and k >= 2, and a
multiple of g of exact degree d >= deg g has q^(d - deg g) choices if
monic, (q - 1) q^(d - deg g) if not.  So the primitive forms of profile
(alpha, beta, gamma) with A monic and C != 0 number f(0) - q f(1), f(k)
the product of those choice counts for deg g = k (1 for B = 0).  The
reducible ones among them are, by Gauss's lemma, the products
(a s + b u)(c s + d u) of two points (a : b), (c : d) of P^1 with a, c
monic and b, d != 0, so unordered pairs of such points, repeats allowed.
N_1(i, j) points have deg a = i and deg b = j, by the same count.  A pair
has the roots -b / a of its points, of valuation i - j, and by Gauss's
lemma at infinity the degree d_1 + d_2, d = max(i, j), whatever cancels
in B; so its key is (d_1 + d_2, u_1, u_2) with u = 2 (i - j).  Half of
the ordered pairs plus the repeated ones are the unordered pairs per key,
and the primitive forms less these are the irreducible ones.  The tests
hold this count equal, key by key, to a scan over every coefficient
triple that keeps the primitive forms with B != a d + b c for every
factorisation a c = A (a monic) and b d = C; that scan is the oracle.

The bounds 2 d_Q <= M and deg F <= M are provable from H^2 >= q^(2 d_Q) and
H^2 >= q^(deg F + 2 d_P), that is from offsets >= 0 and >= deg F - 2 delta,
so the count reads only those classes and forms.  The tests check both
inequalities on _form_exponent for every degree profile and the offset of
every line class of degree up to 8, so no form matches a line class with
d_Q > M // 2 and no form of degree above M matches at all.

Lines per class: a line is the kernel E = O(-d_P) + O(-d_Q) of a primitive
dual vector O^3 -> O(d_P + d_Q) on P^1 (its Grothendieck splitting; d_P is
the mu of a mu-basis, Cox, Sederberg and Chen, CAGD 1998).  A saturated
O(-d_P) in O^3 is a point of P^2 of height q^(d_P): s = q^2 + q + 1 of them
for d_P = 0, s (q^2 - 1) q^(3 d_P - 2) for d_P >= 1.  E / O(-d_P) is a
saturated O(-d_Q) in O^3 / O(-d_P) = O(c) + O(d_P - c), one of
(q^2 - 1) q^(2 d_Q + d_P - 1) for d_Q >= 1 whatever c is, and the extension
splits since H^1(O(d_Q - d_P)) = 0.  The O(-d_P) in E is unique for
d_P < d_Q, and one of q + 1 for d_P = d_Q.  So class (d_P, d_Q) has
T(d_P, d_Q) lines, which the tests check against a walk over dual vectors:

    T(0, 0) = s
    T(0, b) = s (q^2 - 1) q^(2b - 1)                 b >= 1
    T(a, a) = s (q^2 - 1) (q - 1) q^(6a - 3)         a >= 1
    T(a, b) = s (q^2 - 1)^2 q^(4a + 2b - 3)          1 <= a < b
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import SizeError
from .records import fmt_fraction

# max height exponent M of a degree-2 count, whose time is the O(M^4) pair
# loop of _form_counts
M_GUARD = 38


def _line_count(q: int, dP: int, dQ: int) -> int:
    """T(d_P, d_Q), the number of rational lines of class (d_P, d_Q); see
    the module docstring."""
    s = q * q + q + 1
    if dQ == 0:
        return s
    if dP == 0:
        return s * (q * q - 1) * q ** (2 * dQ - 1)
    if dP == dQ:
        return s * (q * q - 1) * (q - 1) * q ** (6 * dP - 3)
    return s * (q * q - 1) ** 2 * q ** (4 * dP + 2 * dQ - 3)


def _form_exponent(deg_f: int, u1: int, u2: int, delta: int) -> int:
    """The form's part of the exponent of q in H^2 for the point of a form
    of key (deg F, u_1, u_2) on a line of offset delta = d_Q - d_P: H^2 is
    q^(2 d_Q) times q to this offset.  One term per root, u twice its
    valuation."""
    g = max(-2 * delta, min(u1, 0)) + max(-2 * delta, min(u2, 0))
    assert g % 2 == 0
    return deg_f + g // 2


def _form_key(alpha: int, beta: int, gamma: int) -> tuple[int, int, int]:
    """The class (deg F, u_1, u_2) of a form of coefficient degrees
    (alpha, beta, gamma), beta = -1 for B = 0: u_1 <= u_2 are twice the
    valuations at infinity of its roots, read off its Newton polygon."""
    if 2 * beta > alpha + gamma:
        return (max(alpha, beta, gamma), 2 * (alpha - beta), 2 * (beta - gamma))
    return (max(alpha, gamma), alpha - gamma, alpha - gamma)


def _coprime_count(q: int, degs) -> int:
    """Coprime tuples of polynomials of the given exact degrees (-1 for the
    zero polynomial), the first monic and the others nonzero: f(0) - q f(1),
    with f(k) the product of the numbers of multiples of a monic g of
    degree k."""

    def f(k):
        n = 1
        for i, d in enumerate(degs):
            if d < 0:
                continue
            if d < k:
                return 0
            n *= q ** (d - k) * (1 if i == 0 else q - 1)
        return n

    return f(0) - q * f(1)


def _form_counts(q: int, fmax: int) -> Counter:
    """Counter {_form_key: number of forms} over the primitive irreducible
    forms with monic A, C != 0 and coefficient degrees <= fmax: primitive
    forms less the unordered pairs of points of P^1; see the module
    docstring."""
    degs = range(fmax + 1)
    counts = Counter()
    for alpha in degs:
        for gamma in degs:
            for beta in range(-1, fmax + 1):
                counts[_form_key(alpha, beta, gamma)] += _coprime_count(q, (alpha, beta, gamma))
    # each point (a : b) of P^1 as (its degree, twice the valuation of -b / a)
    points = [(max(i, j), 2 * (i - j), _coprime_count(q, (i, j))) for i in degs for j in degs]
    pairs = Counter()  # ordered pairs, plus each repeated pair once more
    for d1, u1, n1 in points:
        pairs[2 * d1, u1, u1] += n1
        for d2, u2, n2 in points:
            pairs[d1 + d2, min(u1, u2), max(u1, u2)] += n1 * n2
    for key, n in pairs.items():
        if key[0] <= fmax:
            assert n % 2 == 0
            counts[key] -= n // 2
    return counts


def _main_term_cells(q: int, M: int, count: int) -> tuple[str, str]:
    """The main_term and ratio cells of the row at M >= 1, computed in
    integers: 2 S^2 q^(3M) M, the conjectured point count (two points per
    orbit), with S = schanuel_constant(2) = (q + 1)(q^3 - 1) / q^2, and count
    over it, each printed as fmt_value prints a Fraction."""
    main = 2 * M * ((q + 1) * (q**3 - 1)) ** 2 * q ** (3 * M)  # q^4 times the main term
    return fmt_fraction(main, q**4), fmt_fraction(count * q**4, main)


class QuadraticCount(NamedTuple):
    q: int
    M: int
    count: int
    main_term: str  # 2 S^2 q^(3M) M, exact, as fmt_fraction prints it
    ratio: str  # count / main_term, likewise; tends to 1/2 (orbits vs points)


def enumerate_degree2(q: int, M: int, M_max: int) -> list[QuadraticCount]:
    """Count Galois orbits of degree-2 points of the plane with H^2 = q^m,
    one row for each m from M to M_max, in one sweep.

    For each offset delta <= M_max // 2, the forms of the keys of
    coefficient degree <= M_max are grouped once into a histogram of their
    offsets h at delta; each line class (d_Q - delta, d_Q) with
    d_Q <= M_max // 2 adds T(d_Q - delta, d_Q) times that histogram to the
    counts of the exponents 2 d_Q + h <= M_max.  By the height inequalities
    in the module docstring a class and form reaching exponent M have
    2 d_Q <= M and deg F <= M, so every count is complete.  Refuses
    M_max > M_GUARD before any work."""
    if M_max > M_GUARD:
        raise SizeError(f"form count at M = {M_max} exceeds guard M <= {M_GUARD}")
    if M < 1:
        raise ValueError("M >= 1 required")
    forms = _form_counts(q, M_max).items()
    counts = [0] * (M_max + 1)
    for delta in range(M_max // 2 + 1):
        offsets = Counter()
        for key, n in forms:
            offsets[_form_exponent(*key, delta)] += n
        for dQ in range(delta, M_max // 2 + 1):
            lines = _line_count(q, dQ - delta, dQ)
            for h, n in offsets.items():
                e = 2 * dQ + h
                if e <= M_max:
                    counts[e] += lines * n
    return [
        QuadraticCount(q, m, counts[m], *_main_term_cells(q, m, counts[m])) for m in range(M, M_max + 1)
    ]
