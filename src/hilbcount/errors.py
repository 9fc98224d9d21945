"""The exception of the hard size guards, and the guard on a power of q."""


class SizeError(Exception):
    """A requested enumeration or series computation exceeds a hard guard."""


def refuse_power(q: int, e: int, guard: int, what: str):
    """Raise SizeError if q^e has more than guard bits, naming it as what.
    q^e has more than e (bit_length(q) - 1) bits, so it is built only below
    twice the guard."""
    if e * (q.bit_length() - 1) >= guard or (q**e).bit_length() > guard:
        raise SizeError(f"{what} = {q}^{e} exceeds guard of {guard} bits")
