"""Exact-height point counts of P^n(F_q(t)), and the closed-form counts
they must reproduce.

A point has a unique representative: a coprime tuple of polynomials whose
first nonzero entry is monic, and its height is q to the maximum coordinate
degree.  count_exact_height counts coprime tuples on the integer codes of
their coordinates, reading coprimality from a sieve of divisor masks, and
divides out the q - 1 units; it builds no point and is the observed side of
the closed form.  The tests build the points themselves as the second route
to it.  count_exact_height and count_reducible_pairs take q and a range
M..M_max, check the guard of M_max before any work, and return the rows in
ascending M.

Every count here is an integer and is computed in integers: the closed
forms are products of integer factors, and each division in them is
asserted exact.  Only schanuel_constant, the leading constant the Peyre and
asymptotic modules build on, is a Fraction; it imports `fractions` when
called, so the counts load neither `fractions` nor `decimal`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .errors import SizeError
from .fqarith import FqField, convolve, field_from_order

if TYPE_CHECKING:
    from fractions import Fraction

# Max sieve codes and fold steps of count_exact_height; see guard_count.
SIEVE_GUARD = 2 * 10**5
FOLD_GUARD = 12 * 10**6
# Max bit length of q^(3M) in count_reducible_pairs, whose M + 1 products
# are about that long.
PAIR_BITS_GUARD = 2**15
# Max total of 3M bit_length(q) over the rows M of one count_reducible_pairs
# range, about the bits of its q^(3M) and of each of its two exact columns.
PAIR_RANGE_GUARD = 2**22


def guard_count(n: int, q: int, M: int):
    """Refuse count_exact_height(n, q, _, M) from (n, q, M) alone, before F_q
    is built: past SIEVE_GUARD codes q^(M+1), or past FOLD_GUARD steps of n
    passes over pairs of the R <= q^M + 2 distinct masks (of the monic
    squarefree radicals of degree <= M, and of 0), a step counting once more
    per 2048 bits of b = (n+1)(M+1) bit_length(q), which bounds its counts."""
    if n < 1 or M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    # q >= 2, so q^(M+1) has more than M + 1 bits and is built only below the guard
    if M >= SIEVE_GUARD.bit_length() or q ** (M + 1) > SIEVE_GUARD:
        raise SizeError(
            f"count of P^{n} at M = {M}: sieve of q^(M+1) = {q}^{M + 1} codes exceeds guard {SIEVE_GUARD}"
        )
    b = (n + 1) * (M + 1) * q.bit_length()
    steps = n * (q**M + 2) ** 2 * (2048 + b) // 2048
    if steps > FOLD_GUARD:
        raise SizeError(
            f"count of P^{n} at M = {M}: fold of about {steps} steps exceeds guard {FOLD_GUARD}"
        )


def divisor_masks(field: FqField, M: int) -> list[int]:
    """The divisor-mask sieve over the polynomials of degree <= M.

    Returns, for each code in range(q^(M+1)), whose base-q digits are the
    coefficients of its polynomial, a mask with one bit per monic
    irreducible that divides it.  mask[0] is -1, since 0 is divisible
    by everything, and units have mask 0, so a tuple is coprime iff the AND
    of its masks is 0.  Ascending code is non-decreasing degree, so a monic
    code of degree >= 1 still at mask 0 when the walk reaches it has no
    irreducible divisor of lower degree: it is irreducible, and its new bit
    goes to its products with the nonzero codes below q^(M-d+1), d its
    degree.  The monic codes of degree d are range(q^d, 2 q^d), and the
    masks below q^(m+1) are those of the sieve over degree <= m.
    """
    q = field.q
    coeffs = [()]
    for code in range(1, 2 * q**M):
        coeffs.append((code % q, *coeffs[code // q]))
    mask = [0] * q ** (M + 1)
    mask[0] = -1
    bit = 1
    for d in range(1, M + 1):
        for f in range(q**d, 2 * q**d):
            if not mask[f]:
                for h in coeffs[1 : q ** (M - d + 1)]:
                    code = 0
                    for c in reversed(convolve(field, coeffs[f], h)):
                        code = code * q + c
                    mask[code] |= bit
                bit <<= 1
    return mask


def _coprime_tuples(masks, k: int) -> int:
    """Number of k-tuples of entries of masks whose masks AND to 0.

    The running ANDs of the first j coordinates are kept as a dict from AND
    to number of j-tuples, starting from the empty tuple's -1 and folded
    with the histogram of distinct masks k - 1 times.  The last coordinate
    is counted without recording its ANDs: a running AND g takes every mask
    m with g & m == 0.
    """
    hist = Counter(masks)
    running = {-1: 1}
    for _ in range(k - 1):
        folded = Counter()
        for g, a in running.items():
            for m, b in hist.items():
                folded[g & m] += a * b
        running = folded
    return sum(a * sum(b for m, b in hist.items() if not g & m) for g, a in running.items())


def count_exact_height(n: int, q: int, M: int, M_max: int) -> list[int]:
    """Number of canonical points of P^n(F_q(t)) of height exactly q^M,
    counted without building them, for each M up to M_max.

    Every coordinate has degree <= M, so each is handled as its code in
    range(q^(M+1)), and codes below q^M are those of degree < M.  A point of
    height q^M is q - 1 coprime (n+1)-tuples of codes, one per unit, each
    with a coordinate of degree M; mask[0] = -1 keeps the all-zero tuple
    out of the coprime ones.  One sieve at M_max, built past its guard,
    serves every M: its prefix mask[:q^m] is folded once for m = M..M_max+1.
    """
    guard_count(n, q, M_max)
    if M < 0:
        raise ValueError("need n >= 1 and M >= 0")
    mask = divisor_masks(field_from_order(q), M_max)
    tuples = [_coprime_tuples(mask[: q**m], n + 1) for m in range(M, M_max + 2)]
    assert all((b - a) % (q - 1) == 0 for a, b in zip(tuples, tuples[1:]))
    return [(b - a) // (q - 1) for a, b in zip(tuples, tuples[1:])]


def schanuel_constant(n: int, q: int) -> Fraction:
    """Leading constant S(n+1, 1) in the exact-height point count of
    P^n(F_q(t)): q^(n+1)(1 - q^-n)(1 - q^-(n+1))/(q - 1), an exact rational."""
    from fractions import Fraction

    return (
        Fraction(q ** (n + 1), q - 1)
        * (1 - Fraction(1, q**n))
        * (1 - Fraction(1, q ** (n + 1)))
    )


def point_count_exact_height(n: int, q: int, M: int) -> int:
    """Closed-form count of P^n(F_q(t)) points of height exactly q^M.

    For M >= 1 this is schanuel_constant(n) q^((n+1)M), with the constant's
    denominator (q - 1) q^n cancelled: (q^n - 1)/(q - 1) (q^(n+1) - 1)
    q^((n+1)M - n)."""
    if M == 0:
        return (q ** (n + 1) - 1) // (q - 1)
    lines, rem = divmod(q**n - 1, q - 1)
    assert rem == 0
    return lines * (q ** (n + 1) - 1) * q ** ((n + 1) * M - n)


class PairCount(NamedTuple):
    observed: int
    closed_form: int

    @property
    def match(self) -> bool:
        return self.observed == self.closed_form


def count_reducible_pairs(q: int, M: int, M_max: int) -> list[PairCount]:
    """For each M up to M_max, the halved convolution (1/2) sum_N A(N) A(M-N)
    over P^2 heights, with the exact closed form it must equal for M >= 1:

        S^2 q^(3M) (M/2 + (q^2 + 1)/(2(q^2 - 1)))
          = (q+1)(q^3-1)^2 (M(q^2-1) + q^2 + 1) q^(3M) / (2(q-1)q^4),

    S = schanuel_constant(2) = (q^2 - 1)(q^3 - 1)/((q - 1) q^2).  Refuses
    q^(3 M_max) past PAIR_BITS_GUARD bits, and a range whose sum of
    3M bit_length(q) is past PAIR_RANGE_GUARD, before any work, and makes
    each A(N) once."""
    if M_max < 1:
        raise ValueError("M >= 1 required")
    # q >= 2, so q^(3M) has more than 3M bits and is built only below the guard
    if 3 * M_max >= PAIR_BITS_GUARD or (q ** (3 * M_max)).bit_length() > PAIR_BITS_GUARD:
        raise SizeError(
            f"pair count at M = {M_max}: q^(3M) = {q}^{3 * M_max} exceeds guard of {PAIR_BITS_GUARD} bits"
        )
    if M < 1:
        raise ValueError("M >= 1 required")
    total = 3 * q.bit_length() * (M_max * (M_max + 1) - M * (M - 1)) // 2
    if total > PAIR_RANGE_GUARD:
        raise SizeError(
            f"pair count over M = {M}..{M_max}: sum of 3M bit_length(q) = {total} bits "
            f"exceeds guard of {PAIR_RANGE_GUARD} bits"
        )
    A = [point_count_exact_height(2, q, N) for N in range(M_max + 1)]
    rows = []
    for m in range(M, M_max + 1):
        observed, odd = divmod(sum(A[N] * A[m - N] for N in range(m + 1)), 2)
        closed, rem = divmod(
            (q + 1) * (q**3 - 1) ** 2 * (m * (q * q - 1) + q * q + 1) * q ** (3 * m),
            2 * (q - 1) * q**4,
        )
        assert odd == rem == 0
        rows.append(PairCount(observed, closed))
    return rows
