"""Points, ranges and metrics shared by the cover, flow and matching solvers.

Ranges are closed: a point on the boundary of a box or disk is incident to it.
Disk membership is always decided on squared distances, with floats read
exactly, so every decision is exact even though an L2 radius itself may be
irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .numeric import InputError, exact, float_sqrt


class Metric(Enum):
    LINF = "linf"
    L1 = "l1"
    L2 = "l2"


def _check_finite(value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"non-finite coordinate {value!r}")


@dataclass(frozen=True)
class Point:
    coords: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise InputError("point needs at least one coordinate")
        for c in self.coords:
            _check_finite(c)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, axis: int):
        return self.coords[axis]


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box, given by its componentwise min and max corners."""

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if self.lo.dim != self.hi.dim:
            raise InputError("box corners disagree on dimension")
        if any(a > b for a, b in zip(self.lo.coords, self.hi.coords)):
            raise InputError("box has lo > hi on some axis")

    @property
    def dim(self) -> int:
        return self.lo.dim


@dataclass(frozen=True)
class Disk:
    """Closed planar disk.  ``radius_sq`` is the authoritative field for
    membership tests; pass it explicitly to get exact decisions for radii that
    are only known as squared values.  A float radius is squared exactly."""

    center: Point
    radius: object
    radius_sq: object = None

    def __post_init__(self) -> None:
        if self.center.dim != 2:
            raise InputError("disks are planar")
        if self.radius_sq is None:
            if self.radius < 0:
                raise InputError("negative disk radius")
            object.__setattr__(self, "radius_sq", exact(self.radius) ** 2)
        elif self.radius_sq < 0:
            raise InputError("negative squared radius")

    @property
    def dim(self) -> int:
        return 2


Range = Union[Box, Disk]


def squared_distance(p: Point, q: Point):
    """Squared L2 distance, exact: floats are read through ``exact``."""
    if p.dim != q.dim:
        raise InputError("points disagree on dimension")
    return sum((exact(a) - exact(b)) ** 2 for a, b in zip(p.coords, q.coords))


def distance(metric: Metric, p: Point, q: Point):
    """Distance under the given metric, floats read through ``exact``: L∞
    and L1 exact, L2 the float nearest to the root of ``squared_distance``."""
    if p.dim != q.dim:
        raise InputError("points disagree on dimension")
    diffs = [abs(exact(a) - exact(b)) for a, b in zip(p.coords, q.coords)]
    if metric is Metric.LINF:
        return max(diffs)
    if metric is Metric.L1:
        return sum(diffs)
    if metric is Metric.L2:
        return float_sqrt(squared_distance(p, q))
    raise InputError(f"unknown metric {metric!r}")


def contains(r: Range, p: Point) -> bool:
    """Closed containment test, exact for int, Fraction and float inputs."""
    if isinstance(r, Box):
        if r.dim != p.dim:
            raise InputError("range and point disagree on dimension")
        return all(lo <= c <= hi for lo, c, hi in zip(r.lo.coords, p.coords, r.hi.coords))
    if isinstance(r, Disk):
        if p.dim != 2:
            raise InputError("range and point disagree on dimension")
        return squared_distance(r.center, p) <= r.radius_sq
    raise InputError(f"not a range: {r!r}")


def rotate45(p: Point) -> Point:
    """Map (x, y) to (x + y, x - y); turns L1 balls into L-infinity balls of
    the same radius."""
    if p.dim != 2:
        raise InputError("rotation is planar")
    x, y = p.coords
    return Point((x + y, x - y))
