"""The exception of the hard size guards."""


class SizeError(Exception):
    """A requested enumeration or series computation exceeds a hard guard."""
