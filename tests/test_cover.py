import math
import random
from fractions import Fraction

import pytest

from geomatch.cover import (
    BicliqueCover,
    box_cover,
    cover_from_text,
    cover_size,
    cover_to_text,
    trivial_cover,
    validate_cover,
)
from geomatch.geometry import Box, Disk, Point
from geomatch.numeric import InputError
from geomatch.oracle import brute_force_incidences

from helpers import rand_boxes, rand_congruent_disks, rand_points


def edge_set(cover):
    out = set()
    for pts, rngs in cover.parts:
        out |= {(p, r) for p in pts for r in rngs}
    return out


def test_sigma_accounting():
    cover = BicliqueCover(
        3, 2, [([0, 1, 2], [0, 1]), ([0, 1], [0, 1]), ([0, 1, 2], [0, 1])]
    )
    assert cover_size(cover) == 14


def test_cover_rejects_bad_indices():
    with pytest.raises(InputError):
        BicliqueCover(2, 2, [([0, 2], [0])])
    with pytest.raises(InputError):
        BicliqueCover(2, 2, [([0], [-1])])


def test_trivial_cover_empty():
    assert cover_size(trivial_cover([], [])) == 0
    assert cover_size(trivial_cover(rand_points(random.Random(0), 4), [])) == 0


def test_trivial_cover_single_pair():
    cover = trivial_cover([Point((0, 0))], [Box(Point((-1, -1)), Point((1, 1)))])
    assert cover.parts == [([0], [0])]
    assert cover_size(cover) == 2


def test_trivial_cover_disks_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        pts = rand_points(rng, rng.randrange(0, 25))
        disks = rand_congruent_disks(rng, rng.randrange(0, 25))
        cover = trivial_cover(pts, disks)
        want = set(map(tuple, brute_force_incidences(pts, disks).edges))
        assert edge_set(cover) == want


def test_box_cover_matches_brute_force_all_dims():
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(15):
            pts = rand_points(rng, rng.randrange(0, 20), d)
            boxes = rand_boxes(rng, rng.randrange(0, 20), d)
            cover = box_cover(pts, boxes, d)
            want = set(map(tuple, brute_force_incidences(pts, boxes).edges))
            assert edge_set(cover) == want


def test_box_cover_parts_are_edge_disjoint():
    rng = random.Random(13)
    for _ in range(20):
        pts = rand_points(rng, 20)
        boxes = rand_boxes(rng, 20)
        cover = box_cover(pts, boxes)
        seen = set()
        for pts_i, rngs_i in cover.parts:
            for p in pts_i:
                for r in rngs_i:
                    assert (p, r) not in seen
                    seen.add((p, r))


def test_validate_cover_reports():
    pts = [Point((0, 0)), Point((5, 5))]
    boxes = [Box(Point((-1, -1)), Point((1, 1)))]
    good = box_cover(pts, boxes)
    rep = validate_cover(good, pts, boxes)
    assert rep.edge_set_ok and rep.edge_disjoint and rep.ok

    missing = BicliqueCover(2, 1, [])
    rep = validate_cover(missing, pts, boxes)
    assert not rep.edge_set_ok
    assert (0, 0) in rep.missing

    extra = BicliqueCover(2, 1, [([0, 1], [0])])
    rep = validate_cover(extra, pts, boxes)
    assert not rep.edge_set_ok
    assert (1, 0) in rep.extra

    doubled = BicliqueCover(2, 1, [([0], [0]), ([0], [0])])
    rep = validate_cover(doubled, pts, boxes)
    assert rep.edge_set_ok and not rep.edge_disjoint


def test_cover_text_round_trip():
    rng = random.Random(3)
    pts = rand_points(rng, 12)
    boxes = rand_boxes(rng, 9)
    cover = box_cover(pts, boxes)
    back = cover_from_text(cover_to_text(cover), 12, 9)
    assert [tuple(map(tuple, part)) for part in back.parts] == [
        tuple(map(tuple, part)) for part in cover.parts
    ]
    assert cover_size(back) == cover_size(cover)


def test_cover_text_rejects_garbage():
    with pytest.raises(InputError):
        cover_from_text("")
    with pytest.raises(InputError):
        cover_from_text("nonsense header\n")
    with pytest.raises(InputError):
        cover_from_text("sigma=2 parts=2\nP: 0 | R: 0\n")
    with pytest.raises(InputError):
        cover_from_text("sigma=99 parts=1\nP: 0 | R: 0\n")


def test_box_cover_fractional_coordinates():
    pts = [Point((Fraction(1, 3), Fraction(1, 3)))]
    boxes = [Box(Point((0, 0)), Point((Fraction(1, 3), 1)))]
    cover = box_cover(pts, boxes)
    assert edge_set(cover) == {(0, 0)}


def test_box_cover_scales_fractions_to_int_parts(monkeypatch):
    import geomatch.cover as cover_mod

    seen = []
    tree_level = cover_mod._tree_level

    def recorded(pc, lo, hi, *rest):
        seen.extend(c for group in (pc, lo, hi) for t in group for c in t)
        return tree_level(pc, lo, hi, *rest)

    monkeypatch.setattr(cover_mod, "_tree_level", recorded)
    rng = random.Random(37)
    dens = (3, 7, 10)
    for d in (1, 2, 3):
        pts = rand_points(rng, 25, d=d)
        pts = [Point(tuple(c + Fraction(1, rng.choice(dens)) for c in p.coords)) for p in pts]
        boxes = rand_boxes(rng, 20, d=d)
        cover = box_cover(pts, boxes)
        assert validate_cover(cover, pts, boxes).ok
        assert seen and all(type(c) is int for c in seen)
        corners = [c for b in boxes for c in b.lo.coords + b.hi.coords]
        scale = math.lcm(*(c.denominator for c in corners + [c for p in pts for c in p.coords]))
        as_ints = lambda p: Point(tuple(int(c * scale) for c in p.coords))
        int_pts = [as_ints(p) for p in pts]
        int_boxes = [Box(as_ints(b.lo), as_ints(b.hi)) for b in boxes]
        assert box_cover(int_pts, int_boxes).parts == cover.parts
