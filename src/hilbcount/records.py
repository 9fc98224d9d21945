"""Cell formatting shared by every CLI table and cache payload."""

from __future__ import annotations

from fractions import Fraction


def fmt_value(v, digits: int = 12) -> str:
    """Token-safe rendering: no commas, no quotes, no spaces."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, str):
        return v
    import mpmath  # only floats need it loaded; an mpf means it is loaded already

    if isinstance(v, mpmath.mpf) or isinstance(v, float):
        return mpmath.nstr(mpmath.mpf(v), digits)
    raise TypeError(f"cannot format {type(v)!r} for a table")
