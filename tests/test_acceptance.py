"""End-to-end acceptance suite.

Each test is one named criterion with its own workload and wall-clock budget;
`pytest -v` prints one pass/fail line per criterion.  Scaling thresholds in
criterion 10 warn instead of failing.
"""

import math
import random
import time
import warnings
from fractions import Fraction

from geomatch.cover import BicliqueCover, box_cover, cover_size, trivial_cover, validate_cover
from geomatch.flow import (
    SupplyDemand,
    build_network,
    flow_to_matching,
    matching_value,
    max_flow_dinitz,
)
from geomatch.geometry import Box, Metric, Point, rotate45
from geomatch.implicit_dinitz import max_matching_implicit
from geomatch.bottleneck import bottleneck_search, pd_bottleneck
from geomatch.rblct import prune_to_forest

from brute import bottleneck_brute, pd_brute
from helpers import (
    MirroredForests,
    node_totals,
    rand_boxes,
    rand_congruent_disks,
    rand_fraction,
    rand_points,
    rand_sd,
    rand_support_flow,
    uf_is_forest,
)
from oracle import brute_force_incidences, hopcroft_karp, reference_max_flow


def test_criterion_01_cover_correctness():
    start = time.perf_counter()
    rng = random.Random(101)
    count = 0
    for d in (1, 2, 3):
        for _ in range(125):
            pts = rand_points(rng, rng.randrange(0, 61), d)
            boxes = rand_boxes(rng, rng.randrange(0, 61), d)
            rep = validate_cover(box_cover(pts, boxes, d), pts, boxes)
            assert rep.edge_set_ok, f"box cover edge set broken (d={d})"
            assert rep.edge_disjoint, f"box cover parts overlap (d={d})"
            count += 1
    for _ in range(125):
        pts = rand_points(rng, rng.randrange(0, 61))
        disks = rand_congruent_disks(rng, rng.randrange(0, 61))
        rep = validate_cover(trivial_cover(pts, disks), pts, disks)
        assert rep.edge_set_ok, "disk cover edge set broken"
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 500
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_02_cover_size_accounting():
    cover = BicliqueCover(
        3, 2, [([0, 1, 2], [0, 1]), ([0, 1], [0, 1]), ([0, 1, 2], [0, 1])]
    )
    assert cover_size(cover) == 14


def test_criterion_03_integral_matching_equals_reference():
    start = time.perf_counter()
    rng = random.Random(103)
    for _ in range(1000):
        n_p, n_r = rng.randrange(1, 41), rng.randrange(1, 41)
        pts = rand_points(rng, n_p)
        boxes = rand_boxes(rng, n_r)
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, n_p, n_r, integral=True, max_w=10)
        net = build_network(cover, sd)
        flow = max_flow_dinitz(net)
        matching = flow_to_matching(flow, net, cover)
        want = reference_max_flow(
            brute_force_incidences(pts, boxes), sd.supplies, sd.demands
        )
        assert flow.value == want
        assert matching_value(matching) == want
        assert len(matching) <= cover_size(cover)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_04_real_engine_equals_reference():
    start = time.perf_counter()
    rng = random.Random(104)
    for _ in range(1000):
        n_p, n_r = rng.randrange(1, 41), rng.randrange(1, 41)
        pts = rand_points(rng, n_p)
        boxes = rand_boxes(rng, n_r)
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, n_p, n_r, integral=False)
        trace = []
        matching = max_matching_implicit(n_p, n_r, sd, cover, trace=trace)
        want = reference_max_flow(
            brute_force_incidences(pts, boxes), sd.supplies, sd.demands
        )
        assert matching_value(matching) == want
        levels = [t for t, _, _ in trace]
        assert levels == sorted(set(levels)), "t-levels must strictly increase"
        assert len(trace) <= min(n_p, n_r)
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_05_prune_preserves_totals_and_forests():
    start = time.perf_counter()
    rng = random.Random(105)
    for _ in range(1000):
        n_p, n_r = rng.randrange(1, 61), rng.randrange(1, 61)
        flow = rand_support_flow(rng, n_p, n_r, 500)
        out = prune_to_forest(dict(flow))
        assert set(out) <= set(flow), "support grew"
        assert node_totals(out) == node_totals(flow), "a node total changed"
        assert uf_is_forest([(("p", p), ("r", r)) for p, r in out]), "cycle survived"
        assert len(out) <= n_p + n_r - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_06_linkcut_differential():
    start = time.perf_counter()
    MirroredForests(seed=106, max_nodes=200).run(100_000, check_every=2500)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_07_unit_matchings_equal_hopcroft_karp():
    start = time.perf_counter()
    rng = random.Random(107)
    for _ in range(500):
        n_p, n_r = rng.randrange(1, 61), rng.randrange(1, 61)
        pts = rand_points(rng, n_p)
        boxes = rand_boxes(rng, n_r)
        cover = box_cover(pts, boxes)
        sd = SupplyDemand.unit(n_p, n_r)
        net = build_network(cover, sd)
        flow = max_flow_dinitz(net)
        matching = flow_to_matching(flow, net, cover)
        assert matching_value(matching) == hopcroft_karp(
            brute_force_incidences(pts, boxes)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_08_bottleneck_matches_brute_force():
    start = time.perf_counter()
    rng = random.Random(108)
    for i in range(200):
        n = rng.randrange(1, 31)
        P = [
            Point((rand_fraction(rng, -30, 30), rand_fraction(rng, -30, 30)))
            for _ in range(n)
        ]
        Q = [
            Point((rand_fraction(rng, -30, 30), rand_fraction(rng, -30, 30)))
            for _ in range(n)
        ]
        for metric in Metric:
            r = bottleneck_search(P, Q, metric)
            got = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
            assert got == bottleneck_brute(P, Q, metric), f"{metric} disagreed"
        direct = bottleneck_search(P, Q, Metric.L1).lambda_star
        rotated = bottleneck_search(
            [rotate45(p) for p in P], [rotate45(q) for q in Q], Metric.LINF
        ).lambda_star
        assert direct == rotated
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 8 took {elapsed:.1f}s"


def test_criterion_09_diagram_distance_matches_brute_force():
    start = time.perf_counter()
    assert pd_bottleneck([(1, 3)], []) == 1
    rng = random.Random(109)
    for _ in range(100):
        X = [
            (b, b + rand_fraction(rng, 1, 10))
            for b in (rand_fraction(rng, -10, 10) for _ in range(rng.randrange(0, 21)))
        ]
        Y = [
            (b, b + rand_fraction(rng, 1, 10))
            for b in (rand_fraction(rng, -10, 10) for _ in range(rng.randrange(0, 21)))
        ]
        assert pd_bottleneck(X, Y) == pd_brute(X, Y)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 9 took {elapsed:.1f}s"


def _scaling_instance(n, rng, alpha=2.0):
    pts = [Point((rng.random(), rng.random())) for _ in range(n)]
    bound = alpha / math.sqrt(n)
    boxes = []
    for _ in range(n):
        cx, cy = rng.random(), rng.random()
        w, h = rng.random() * bound, rng.random() * bound
        boxes.append(Box(Point((cx - w, cy - h)), Point((cx + w, cy + h))))
    return pts, boxes


def test_criterion_10_scaling_smoke():
    start = time.perf_counter()
    ratios = {}
    for exp in range(10, 17):
        n = 2**exp
        pts, boxes = _scaling_instance(n, random.Random(110 + exp))
        sigma = cover_size(box_cover(pts, boxes))
        ratios[exp] = sigma / (n * math.log2(n) ** 2)
    base = ratios[10]
    for exp, ratio in ratios.items():
        if ratio > 2 * base:
            warnings.warn(
                f"normalized cover size drifted: n=2^{exp} ratio {ratio:.4f} "
                f"vs 2x base {2 * base:.4f}",
                stacklevel=1,
            )

    n = 100_000
    pts, boxes = _scaling_instance(n, random.Random(1100))
    cover = box_cover(pts, boxes)
    sd = SupplyDemand.unit(n, n)
    trace = []
    matching = max_matching_implicit(n, n, sd, cover, trace=trace)
    levels = [t for t, _, _ in trace]
    assert levels == sorted(set(levels)), "t-levels must strictly increase"
    assert matching_value(matching) > 0
    assert uf_is_forest([(("p", p), ("r", r)) for p, r, _ in matching])
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"criterion 10 took {elapsed:.1f}s"
