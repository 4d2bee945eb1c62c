"""Field checks shared by the configuration records of every layer.

A record declares each field's check with its default, ``num_nodes: int
= count(1)``, and its ``__post_init__`` is, or calls, :func:`validate`.
A field whose default is ``None`` also takes ``None``.  A rule relating
two fields is no field's check: the record states it beside that call.

It imports nothing from the package, so the endpoint layer, which must
not import the fabric, can check its fields the same way.
"""

import dataclasses
import math
import numbers
from typing import Any, Callable, Tuple

__all__ = ["CHECK", "count", "non_negative", "positive", "probability",
           "one_of", "validate"]

#: the ``dataclasses.field`` metadata key of a field's check: the values
#: it takes, in words, and the test of one value.
CHECK = "check"

_MISSING = dataclasses.MISSING


def _field(default: Any, text: str, test: Callable[[Any], bool]) -> Any:
    return dataclasses.field(default=default, metadata={CHECK: (text, test)})


def _real(value: Any) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def count(minimum: int = 1, default: Any = _MISSING) -> Any:
    """An int of at least ``minimum``: a float or a string count would
    construct, then fail mid-run naming nothing."""
    return _field(default, f"an int >= {minimum}", lambda v: isinstance(
        v, numbers.Integral) and not isinstance(v, bool) and v >= minimum)


def non_negative(default: Any = _MISSING) -> Any:
    """A finite real >= 0: a cost or a multiplier."""
    return _field(default, "a finite real >= 0", lambda v: _real(v) and v >= 0)


def positive(default: Any = _MISSING, at_most: float = math.inf) -> Any:
    """A finite real > 0, at most ``at_most``: a rate or a share of one."""
    text = ("a finite real > 0" if at_most == math.inf
            else f"a real in (0, {at_most:g}]")
    return _field(default, text, lambda v: _real(v) and 0 < v <= at_most)


def probability(default: Any = _MISSING) -> Any:
    """A real in [0, 1]."""
    return _field(default, "a real in [0, 1]",
                  lambda v: _real(v) and 0 <= v <= 1)


def one_of(*choices: str, default: Any = _MISSING) -> Any:
    """One of ``choices``: a string that selects behaviour."""
    return _field(default, f"one of {', '.join(choices)}",
                  lambda v: v in choices)


def validate(obj: Any, skip: Tuple[str, ...] = ()) -> None:
    """Check every field of the dataclass ``obj`` but those in ``skip``,
    in order; raise ``ValueError`` naming the first that fails."""
    for f in dataclasses.fields(obj):
        if CHECK not in f.metadata or f.name in skip:
            continue
        text, test = f.metadata[CHECK]
        value = getattr(obj, f.name)
        optional = f.default is None
        if not (test(value) or optional and value is None):
            raise ValueError(f"{f.name} must be "
                             f"{'None or ' if optional else ''}{text}, "
                             f"got {value!r}")
