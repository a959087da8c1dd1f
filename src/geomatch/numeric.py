"""Numeric-mode plumbing shared by every solver module.

All algorithms are generic over the scalar type: exact ``fractions.Fraction``
(ints mix in freely) in rational mode, ``float`` in float mode.  A
``NumericContext`` carries the mode plus the zero threshold used to squash
roundoff when running on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class InputError(ValueError):
    """Bad caller-supplied data: parse failure, dimension mismatch, violated precondition."""


class InternalError(RuntimeError):
    """An internal invariant broke; indicates a bug, not bad input."""


@dataclass(frozen=True)
class NumericContext:
    """Scalar interpretation used by solvers: exact rationals or thresholded floats."""

    mode: str = "rational"  # "rational" | "float"
    zero_threshold: float = 1e-9

    def __post_init__(self) -> None:
        if self.mode not in ("rational", "float"):
            raise InputError(f"unknown numeric mode {self.mode!r}")

    def is_zero(self, x) -> bool:
        if self.mode == "rational":
            return x == 0
        return abs(x) <= self.zero_threshold

    def is_positive(self, x) -> bool:
        if self.mode == "rational":
            return x > 0
        return x > self.zero_threshold

    def convert(self, x):
        """Coerce a parsed value into this mode's scalar type."""
        if self.mode == "float":
            return float(x)
        return x if isinstance(x, (int, Fraction)) else Fraction(x)


RATIONAL = NumericContext("rational")
FLOAT = NumericContext("float")


def parse_scalar(text: str, numeric: NumericContext = RATIONAL):
    """Parse ``"3"``, ``"3.5"`` or ``"7/2"`` into a scalar of the requested mode."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad numeric literal {text!r}") from exc
    return numeric.convert(value)


def integer_scale(values):
    """Smallest positive int that turns every value into an int when
    multiplied by it (the LCM of the denominators), or None when some value
    is neither an int nor a ``Fraction``."""
    scale = 1
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return None
        scale = math.lcm(scale, v.denominator)
    return scale


def scaled_ints(values, scale: int) -> tuple:
    """Each int or ``Fraction`` value times ``scale``, as an int; ``scale``
    must be a multiple of every denominator (see ``integer_scale``)."""
    return tuple(v.numerator * (scale // v.denominator) for v in values)


def scalar_to_json(x):
    """Render a scalar for JSON output: exact fraction strings, floats as-is."""
    if isinstance(x, Fraction):
        return str(x)
    return x
