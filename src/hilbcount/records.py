"""Cell formatting shared by every CLI table and cache payload."""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from decimal import Decimal


def fmt_value(v, digits: int = 12) -> str:
    """Token-safe rendering: no commas, no quotes, no spaces.

    bool, int and str are handled before `fractions` and `decimal` are
    imported, so a table of integers loads neither."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _fmt_int(v)
    if isinstance(v, str):
        return v
    from decimal import Decimal
    from fractions import Fraction

    if isinstance(v, Fraction):
        return fmt_fraction(v.numerator, v.denominator)
    if isinstance(v, (Decimal, float)):
        return _fmt_real(Decimal(v), digits)
    raise TypeError(f"cannot format {type(v)!r} for a table")


def fmt_fraction(num: int, den: int) -> str:
    """num/den for den > 0 in lowest terms, "n/d", or "n" when d is 1, with
    every digit; it imports neither `fractions` nor `decimal` below the
    int-to-str limit, so exact cells computed in integers load neither."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return _fmt_int(num) if den == 1 else f"{_fmt_int(num)}/{_fmt_int(den)}"


def _fmt_int(n: int) -> str:
    """All the digits of n.  Past the interpreter's limit on int-to-str
    conversion (4300 digits by default) str() refuses, so those go through
    Decimal, which has no such limit; the limit itself is left alone."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _fmt_real(v: Decimal, digits: int) -> str:
    """v rounded half-up to `digits` significant digits, laid out as
    mpmath.nstr lays out a number: fixed notation for decimal exponents in
    (min(-(digits // 3), -5), digits), scientific (`1.5e+44`, `2.0e-7`)
    otherwise, trailing zeros stripped down to one after the point."""
    from decimal import ROUND_HALF_UP, localcontext

    if not v:
        return "0.0"
    # rounding in decimal, not through int(), has no limit on digits
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, ROUND_HALF_UP
        v = +v
    sign, coeff, _ = v.as_tuple()
    coeff = "".join(map(str, coeff))
    lead = v.adjusted()  # decimal exponent of the first digit
    if min(-(digits // 3), -5) < lead < digits:
        if lead < 0:
            whole, frac = "0", "0" * (-lead - 1) + coeff
        else:
            coeff = coeff.ljust(lead + 1, "0")
            whole, frac = coeff[: lead + 1], coeff[lead + 1 :]
        exponent = ""
    else:
        whole, frac, exponent = coeff[0], coeff[1:], f"e{lead:+d}"
    return ("-" if sign else "") + whole + "." + (frac.rstrip("0") or "0") + exponent
