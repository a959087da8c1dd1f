from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from geomatch.geometry import (
    Box,
    Disk,
    Metric,
    Point,
    contains,
    distance,
    rotate45,
    squared_distance,
)
from geomatch.numeric import InputError

coord = st.fractions(min_value=-100, max_value=100, max_denominator=8)


def test_point_basics():
    p = Point((Fraction(1, 2), Fraction(3)))
    assert p.dim == 2
    assert p[0] == Fraction(1, 2)
    assert p[1] == 3


def test_squared_distance_exact():
    p, q = Point((0, 0)), Point((Fraction(3), Fraction(1, 2)))
    assert squared_distance(p, q) == Fraction(37, 4)
    assert distance(Metric.L2, p, q) == pytest.approx((37 / 4) ** 0.5)
    assert distance(Metric.LINF, p, q) == 3
    assert distance(Metric.L1, p, q) == Fraction(7, 2)


def test_distance_reads_floats_exactly():
    # 0.7 - (-0.3) rounds to 1.0 in floats; the exact difference is below 1
    p, q = Point((0.7, 0.0)), Point((-0.3, 0.0))
    want = Fraction(18014398509481983, 18014398509481984)
    assert want == Fraction(0.7) - Fraction(-0.3)
    assert distance(Metric.LINF, p, q) == want
    assert distance(Metric.L1, p, q) == want
    assert distance(Metric.L2, p, q) == float(want)


def test_box_contains_closed_boundary():
    b = Box(Point((0, 0)), Point((2, 2)))
    assert contains(b, Point((0, 0)))
    assert contains(b, Point((2, 2)))
    assert contains(b, Point((1, 2)))
    assert not contains(b, Point((2, Fraction(201, 100))))


def test_box_rejects_inverted_corners():
    with pytest.raises(InputError):
        Box(Point((1, 0)), Point((0, 1)))


def test_disk_contains_uses_squared_radius():
    d = Disk(Point((0, 0)), 5)
    assert contains(d, Point((3, 4)))
    assert not contains(d, Point((3, Fraction(401, 100))))


def test_disk_with_explicit_squared_radius():
    d = Disk(Point((0, 0)), None, radius_sq=Fraction(2))
    assert contains(d, Point((1, 1)))
    assert not contains(d, Point((1, Fraction(101, 100))))


def test_disk_rejects_negative_radius():
    with pytest.raises(InputError):
        Disk(Point((0, 0)), -1)


def test_disk_must_be_planar():
    with pytest.raises(InputError):
        Disk(Point((0, 0, 0)), 1)


def test_rotate45_map():
    assert rotate45(Point((1, 2))).coords == (3, -1)
    assert rotate45(Point((0, 0))).coords == (0, 0)


@given(coord, coord, coord, coord)
def test_rotation_turns_l1_into_linf(px, py, qx, qy):
    p, q = Point((px, py)), Point((qx, qy))
    l1 = abs(px - qx) + abs(py - qy)
    rp, rq = rotate45(p), rotate45(q)
    linf = max(abs(rp[0] - rq[0]), abs(rp[1] - rq[1]))
    assert l1 == linf


def test_metric_enum_members():
    assert {m.name for m in Metric} == {"LINF", "L1", "L2"}
