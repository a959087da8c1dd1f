import math
from decimal import Decimal
from fractions import Fraction

import pytest

from geomatch.flow import SupplyDemand
from geomatch.numeric import (
    SCALE_LIMIT_BITS,
    InputError,
    exact,
    integer_scale,
    scaled_coords,
    scaled_ints,
)

# the smallest and a near-largest float, a signed zero, and ints, floats and
# Fractions side by side
EDGE_TUPLES = [
    (5e-324, 1e308),
    (-0.0, 3),
    (Fraction(1, 3), 0.1),
    (-7, Fraction(-5, 12)),
    (2.5, Fraction(10**30, 7)),
]
BAD = [math.inf, -math.inf, math.nan, Decimal("1"), "1", None]


def fraction_scale(values):
    return math.lcm(*(Fraction(v).denominator for v in values))


def fraction_ints(values, scale):
    return tuple(int(Fraction(v) * scale) for v in values)


def test_integer_scale_and_scaled_ints_match_the_fraction_path():
    flat = [c for t in EDGE_TUPLES for c in t]
    scale = integer_scale(flat)
    assert scale == fraction_scale(flat)
    assert scale % 2**1074 == 0  # 5e-324 is 2**-1074
    assert scaled_ints(flat, scale) == fraction_ints(flat, scale)
    for t in EDGE_TUPLES:
        assert integer_scale(t) == fraction_scale(t)
        assert scaled_ints(t, integer_scale(t)) == fraction_ints(t, fraction_scale(t))
    assert integer_scale([-0.0, 3, 0.0]) == 1
    assert scaled_ints([-0.0], 8) == (0,)


def test_scaled_coords_matches_the_fraction_path():
    flat = [c for t in EDGE_TUPLES for c in t]
    ints, scale = scaled_coords(EDGE_TUPLES)
    assert scale == fraction_scale(flat)
    assert [c for t in ints for c in t] == list(fraction_ints(flat, scale))
    assert all(type(c) is int and len(t) == 2 for t in ints for c in t)
    # one tuple at a time, and in three dimensions
    for t in EDGE_TUPLES:
        assert scaled_coords([t]) == ([fraction_ints(t, fraction_scale(t))], fraction_scale(t))
    three = [(0.5, Fraction(1, 3), 2), (-0.0, 1e308, 5e-324)]
    ints, scale = scaled_coords(three)
    flat = [c for t in three for c in t]
    assert ints == [fraction_ints(t, scale) for t in three]
    assert scale == fraction_scale(flat)
    # all-int tuples come back as they are, with no scale
    tuples = [(1, -2), (3, 10**40)]
    assert scaled_coords(tuples) == (tuples, None)


def test_supply_demand_scaled_matches_the_fraction_path():
    weights = [
        ((5e-324, 1e308), (3, Fraction(1, 3))),
        ((0.1, 2), (Fraction(7, 2), 0.75)),
    ]
    for sup, dem in weights:
        got, scale = SupplyDemand(sup, dem).scaled()
        want, want_scale = SupplyDemand(
            tuple(map(Fraction, sup)), tuple(map(Fraction, dem))
        ).scaled()
        assert (got, scale) == (want, want_scale)
        assert scale == fraction_scale(sup + dem)
        assert got.supplies == fraction_ints(sup, scale)
        assert got.demands == fraction_ints(dem, scale)
    unit = SupplyDemand.unit(2, 3)
    assert unit.scaled() == (unit, None)


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_every_reader_refuses_what_exact_refuses(bad):
    with pytest.raises(InputError) as want:
        exact(bad)
    message = str(want.value)
    for read in (
        lambda: integer_scale([1, bad]),
        lambda: scaled_ints([1, bad], 1),
        lambda: scaled_coords([(0.5, 1), (2, bad)]),
        lambda: SupplyDemand((1, bad), (1,)).scaled(),
        lambda: SupplyDemand((1,), (bad,)).scaled(),
    ):
        with pytest.raises(InputError) as got:
            read()
        assert str(got.value) == message


def test_scale_limit_is_unchanged():
    at_limit = Fraction(1, 2 ** (SCALE_LIMIT_BITS - 1))
    past = Fraction(1, 2**SCALE_LIMIT_BITS)
    assert integer_scale([at_limit, 0.5]).bit_length() == SCALE_LIMIT_BITS
    assert scaled_coords([(at_limit, 1.5)])[1].bit_length() == SCALE_LIMIT_BITS
    message = f"{SCALE_LIMIT_BITS + 1} bits, more than the {SCALE_LIMIT_BITS}"
    for read in (
        lambda: integer_scale([past, 0.5]),
        lambda: scaled_coords([(past, 1.5)]),
        lambda: SupplyDemand((past,), (1.5,)).scaled(),
    ):
        with pytest.raises(InputError, match=message):
            read()
