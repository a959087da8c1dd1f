import random
from fractions import Fraction

import pytest

from geomatch.geometry import Box, Disk, Point
from geomatch.numeric import InputError

from oracle import (
    ExplicitBipartite,
    NaiveRbForest,
    brute_force_incidences,
    hopcroft_karp,
    reference_max_flow,
)


def test_incidences_single_pair():
    g = brute_force_incidences([Point((0, 0))], [Box(Point((-1, -1)), Point((1, 1)))])
    assert g.edges == [(0, 0)]


def test_incidences_disjoint():
    g = brute_force_incidences([Point((9, 9))], [Disk(Point((0, 0)), 1)])
    assert g.edges == []


def test_incidences_guard():
    pts = [Point((0, 0))] * 4000
    boxes = [Box(Point((0, 0)), Point((1, 1)))] * 3000
    with pytest.raises(InputError):
        brute_force_incidences(pts, boxes)


def test_reference_flow_basics():
    assert reference_max_flow(ExplicitBipartite(1, 1, [(0, 0)]), (1,), (1,)) == 1
    g = ExplicitBipartite(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert reference_max_flow(g, (2, 3), (1, 4)) == 5


def test_reference_flow_respects_target_bound():
    rng = random.Random(8)
    for _ in range(40):
        nl, nr = rng.randrange(1, 10), rng.randrange(1, 10)
        edges = [
            (i, j) for i in range(nl) for j in range(nr) if rng.random() < 0.4
        ]
        sup = [rng.randrange(1, 6) for _ in range(nl)]
        dem = [rng.randrange(1, 6) for _ in range(nr)]
        v = reference_max_flow(ExplicitBipartite(nl, nr, edges), sup, dem)
        assert 0 <= v <= min(sum(sup), sum(dem))


def test_reference_flow_exact_rationals():
    g = ExplicitBipartite(2, 1, [(0, 0), (1, 0)])
    v = reference_max_flow(g, (Fraction(1, 3), Fraction(1, 6)), (Fraction(5, 12),))
    assert v == Fraction(5, 12)


def test_reference_flow_size_guard():
    g = ExplicitBipartite(150, 100, [])
    with pytest.raises(InputError):
        reference_max_flow(g, (1,) * 150, (1,) * 100)


def test_hopcroft_karp_basics():
    n = 7
    complete = ExplicitBipartite(n, n, [(i, j) for i in range(n) for j in range(n)])
    assert hopcroft_karp(complete) == n
    assert hopcroft_karp(ExplicitBipartite(3, 3, [])) == 0


def test_hopcroft_karp_agrees_with_unit_flow():
    rng = random.Random(21)
    for _ in range(60):
        nl, nr = rng.randrange(1, 12), rng.randrange(1, 12)
        edges = [
            (i, j) for i in range(nl) for j in range(nr) if rng.random() < 0.35
        ]
        g = ExplicitBipartite(nl, nr, edges)
        assert hopcroft_karp(g) == reference_max_flow(g, (1,) * nl, (1,) * nr)


def test_naive_forest_link_requires_root():
    f = NaiveRbForest()
    a, b, c = f.maketree("red"), f.maketree("blue"), f.maketree("red")
    f.link(a, b, 1)
    with pytest.raises(InputError):
        f.link(a, c, 1)  # a is no longer a root


def test_naive_forest_path_queries():
    f = NaiveRbForest()
    p = f.maketree("red")
    r = f.maketree("blue")
    f.link(p, r, 3)
    # the edge takes the parent's color, blue here
    assert f.findblue(p) == (p, 3)
    assert f.findroot(p) == r


def test_naive_forest_tie_rule_prefers_root_side():
    f = NaiveRbForest()
    reds = [f.maketree("red") for _ in range(3)]
    blues = [f.maketree("blue") for _ in range(3)]
    # chain v=reds[0] -(5)- blues[0] -...- with blue-edge values 5, 2, 2
    f.link(reds[0], blues[0], 5)
    f.link(blues[0], reds[1], 7)  # red edge, ignored by findblue
    f.link(reds[1], blues[1], 2)
    f.link(blues[1], reds[2], 9)  # red edge
    f.link(reds[2], blues[2], 2)
    w, x = f.findblue(reds[0])
    assert x == 2
    assert w == reds[2]  # the value-2 blue edge nearest the root wins
