"""Shared exception types."""


class SizeError(Exception):
    """A requested enumeration or series computation exceeds a hard guard."""


class CharacteristicError(Exception):
    """Operation requires odd characteristic."""
