"""Argument checks shared by the configuration records of every layer.

It imports nothing from the package, so the endpoint layer, which must
not import the fabric, can check its counts the same way.
"""

import numbers

__all__ = ["check_count"]


def check_count(name: str, value: object, minimum: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int
    (not a bool) of at least ``minimum`` -- a float or a string count
    otherwise constructs and fails mid-run, naming nothing."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(
            f"{name} must be an int >= {minimum}, got {value!r}")
