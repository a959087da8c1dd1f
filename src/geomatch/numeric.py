"""Scalars shared by every solver module.

Every algorithm runs on exact values.  Floats are accepted at the input
boundary and read exactly: a finite float is a dyadic rational, so
``as_integer_ratio`` gives its numerator and its power-of-two denominator
and loses nothing.  The solvers then turn their inputs into ints in one
place each: coordinates through ``scaled_coords`` and supplies and demands
through ``flow.SupplyDemand.scaled``, both on ``integer_scale`` and
``scaled_ints``.  All of them read a value through ``ratio``, so no
coordinate or weight becomes a ``Fraction`` on its way to an int.
"""

from __future__ import annotations

import math
from fractions import Fraction


class InputError(ValueError):
    """Bad caller-supplied data: parse failure, dimension mismatch, violated precondition."""


class InternalError(RuntimeError):
    """An internal invariant broke; indicates a bug, not bad input."""


def exact(x):
    """An int or a ``Fraction`` as it is; a finite float as the ``Fraction``
    of the same value.  Anything else is an InputError."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(x)
    raise InputError(f"not a finite real number: {x!r}")


def parse_scalar(text: str):
    """Parse ``"3"``, ``"3.5"`` or ``"7/2"`` into an exact scalar."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad numeric literal {text!r}") from exc


# Largest bit length integer_scale accepts.  Every float passes: its
# denominator is a power of two no larger than 2**1074, so floats alone never
# scale past 1075 bits.  Past the limit, the scaled ints would make every add
# and compare of the solvers slow, so the input is refused instead.
SCALE_LIMIT_BITS = 4096


_EXACT_TYPES = (float, int, Fraction)


def ratio(x) -> tuple:
    """(numerator, denominator) of an int, a ``Fraction`` or a finite float,
    in lowest terms (``as_integer_ratio``); anything else is the InputError
    of ``exact``."""
    if isinstance(x, _EXACT_TYPES):
        try:
            return x.as_integer_ratio()
        except (OverflowError, ValueError):  # inf, nan
            pass
    raise InputError(f"not a finite real number: {x!r}")


def integer_scale(values) -> int:
    """Smallest positive int that turns every value into an int when
    multiplied by it (the LCM of the denominators of ``ratio``).  A scale
    longer than ``SCALE_LIMIT_BITS`` bits raises InputError."""
    return _common_scale(map(ratio, values))


def scaled_ints(values, scale: int) -> tuple:
    """Each value times ``scale``, as an int; ``scale`` must be a multiple of
    every denominator (see ``integer_scale``)."""
    return _times(map(ratio, values), scale)


def _common_scale(ratios) -> int:
    scale = math.lcm(*{d for _n, d in ratios})
    if scale.bit_length() > SCALE_LIMIT_BITS:
        raise InputError(
            f"the common denominator of the input has {scale.bit_length()} bits, "
            f"more than the {SCALE_LIMIT_BITS} this program accepts"
        )
    return scale


def _times(ratios, scale: int) -> tuple:
    return tuple(n * (scale // d) for n, d in ratios)


def scaled_coords(tuples) -> tuple:
    """(int tuples, scale) of coordinate tuples all of one length.  When
    every coordinate is an int already, the tuples come back as they are
    and the scale is None; else every coordinate is read once (``ratio``)
    and multiplied by the scale, the one positive int that makes each an
    int (``integer_scale``).  Scaling every coordinate alike changes no
    order and no incidence, and scales every distance alike."""
    flat = [c for t in tuples for c in t]
    if all(isinstance(c, int) for c in flat):
        return list(tuples), None
    ratios = list(map(ratio, flat))
    scale = _common_scale(ratios)
    ints = iter(_times(ratios, scale))
    return list(zip(*[ints] * len(tuples[0]))), scale


def to_float(x) -> float:
    """The float nearest to an exact x; past the float range, an InputError
    that names x."""
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{x} lies past the float range") from None


def float_sqrt(x) -> float:
    """The float nearest to the square root of an exact x >= 0, through
    integer square roots (``math.sqrt(float(x))`` rounds twice and fails past
    the float range).  A root past the float range is an InputError."""
    x = exact(x)
    n, d = x.numerator, x.denominator
    # s = floor(sqrt(x) 2^k) has 56+ bits: an inexact root rounds as (2s + 1) / 2^(k+1)
    k = max(0, 58 - (n.bit_length() - d.bit_length()) // 2)
    q, rem = divmod(n << 2 * k, d)
    s = math.isqrt(q)
    try:
        return float(Fraction(2 * s + (rem != 0 or s * s != q), 2 << k))
    except OverflowError:
        raise InputError(f"the square root of {x} lies past the float range") from None


def scalar_to_json(x):
    """Render a scalar for JSON output: exact fraction strings, floats as-is."""
    if isinstance(x, Fraction):
        return str(x)
    return x
