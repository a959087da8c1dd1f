import random
from fractions import Fraction

import pytest

import geomatch.flow as flow_mod
from geomatch.cover import BicliqueCover, box_cover, cover_size
from geomatch.flow import (
    INF,
    SupplyDemand,
    build_network,
    flow_to_matching,
    matching_value,
    max_flow_dinitz,
    project_flow,
    validate_matching,
)
from geomatch.geometry import Box, Point
from geomatch.implicit_dinitz import build_level_graph, expand_level_graph
from geomatch.numeric import InputError, InternalError

from helpers import assert_blocking, rand_boxes, rand_fraction, rand_points, rand_sd
from oracle import ExplicitBipartite, brute_force_incidences, reference_max_flow


def test_supply_demand_validation():
    with pytest.raises(InputError):
        SupplyDemand((1, 0), (1,))
    with pytest.raises(InputError):
        SupplyDemand((1,), (-2,))
    sd = SupplyDemand((2, 3), (1, 4))
    assert sd.target == 5


def test_single_pair_unit_flow():
    cover = BicliqueCover(1, 1, [([0], [0])])
    net = build_network(cover, SupplyDemand.unit(1, 1))
    flow = max_flow_dinitz(net)
    assert flow.value == 1
    matching = flow_to_matching(flow, net, cover)
    assert matching == [(0, 0, 1)]


def test_two_point_instance_against_hand_value():
    # p0 reaches both ranges, p1 only the second
    cover = BicliqueCover(2, 2, [([0], [0]), ([0, 1], [1])])
    sd = SupplyDemand((2, 3), (1, 4))
    net = build_network(cover, sd)
    flow = max_flow_dinitz(net)
    assert flow.value == 5
    g = ExplicitBipartite(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert reference_max_flow(g, sd.supplies, sd.demands) == 5


def test_matching_respects_sigma_bound():
    rng = random.Random(2)
    for _ in range(50):
        pts = rand_points(rng, rng.randrange(1, 25))
        boxes = rand_boxes(rng, rng.randrange(1, 25))
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, len(pts), len(boxes))
        net = build_network(cover, sd)
        flow = max_flow_dinitz(net)
        matching = flow_to_matching(flow, net, cover)
        assert len(matching) <= cover_size(cover)
        assert matching_value(matching) == flow.value
        assert validate_matching(matching, pts, boxes, sd)


def test_flow_matches_reference_on_random_instances():
    rng = random.Random(4)
    for _ in range(100):
        pts = rand_points(rng, rng.randrange(1, 20))
        boxes = rand_boxes(rng, rng.randrange(1, 20))
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, len(pts), len(boxes), integral=rng.random() < 0.5)
        flow = max_flow_dinitz(build_network(cover, sd))
        g = brute_force_incidences(pts, boxes)
        assert flow.value == reference_max_flow(g, sd.supplies, sd.demands)


def test_rational_values_stay_exact():
    cover = BicliqueCover(2, 1, [([0, 1], [0])])
    sd = SupplyDemand((Fraction(1, 3), Fraction(1, 6)), (Fraction(5, 12),))
    flow = max_flow_dinitz(build_network(cover, sd))
    assert flow.value == Fraction(5, 12)


def test_float_mode_runs():
    cover = BicliqueCover(2, 2, [([0], [0]), ([0, 1], [1])])
    for sup, dem in (((2.0, 3.0), (1.0, 4.0)), ((0.1, 0.2), (0.1, 0.3))):
        flow = max_flow_dinitz(build_network(cover, SupplyDemand(sup, dem)))
        exact = SupplyDemand(tuple(map(Fraction, sup)), tuple(map(Fraction, dem)))
        assert flow.value == max_flow_dinitz(build_network(cover, exact)).value
        assert flow.value == Fraction(sup[0]) + Fraction(sup[1])


def test_matching_validation_catches_violations():
    from geomatch.geometry import Box, Point

    pts = [Point((0, 0))]
    boxes = [Box(Point((-1, -1)), Point((1, 1)))]
    sd = SupplyDemand.unit(1, 1)
    assert validate_matching([(0, 0, 1)], pts, boxes, sd)
    assert not validate_matching([(0, 0, 2)], pts, boxes, sd)  # supply exceeded
    assert not validate_matching([(0, 0, -1)], pts, boxes, sd)  # negative amount
    assert not validate_matching([(0, 0, 1), (0, 0, 1)], pts, boxes, sd)  # dup pair
    far = [Box(Point((5, 5)), Point((6, 6)))]
    assert not validate_matching([(0, 0, 1)], pts, far, sd)  # not incident


def test_network_follows_the_cover_layout():
    # a full part, a one-point part, a one-range part and a second full part
    parts = [([0, 2], [1, 2]), ([1], [0, 2]), ([0, 1], [1]), ([1, 2], [0, 1])]
    cover = BicliqueCover(3, 3, parts)
    net = build_network(cover, SupplyDemand((2, 3, 5), (1, 4, 6)))
    # vertices: source 0, sink 1, points 2-4, ranges 5-7, middle vertices 8-9
    assert net.n == 10
    tails = [net.eto[e + 1] for e in range(0, len(net.eto), 2)]
    heads = [net.eto[e] for e in range(0, len(net.eto), 2)]
    # feeders, drains, then the parts in cover order: a full part's pins
    # and pouts, the direct edges of any other part point by point
    assert tails == [0, 0, 0, 5, 6, 7, 2, 4, 8, 8, 3, 3, 2, 3, 3, 4, 9, 9]
    assert heads == [2, 3, 4, 1, 1, 1, 8, 8, 6, 7, 5, 7, 6, 6, 9, 9, 5, 6]
    assert net.ecap[0::2] == [2, 3, 5, 1, 4, 6] + [INF] * 12
    for u in range(net.n):
        assert net.head[u] == [e for e in range(len(net.eto)) if net.eto[e ^ 1] == u]


def test_singleton_sided_parts_build_no_middle_vertex():
    parts = [([0], [0, 1, 2]), ([1, 2, 3], [2]), ([3], [0]), ([0, 1], [1])]
    cover = BicliqueCover(4, 3, parts)
    net = build_network(cover, SupplyDemand.unit(4, 3))
    assert net.n == 2 + 4 + 3
    assert net.edge_count == 4 + 3 + sum(len(a) * len(b) for a, b in parts)


def _mixed_cover(rng, g):
    """A cover of the incidences ``g``: parts of two points and all their
    common ranges, then the rest as one-point and one-range parts."""
    ranges_of = [set() for _ in range(g.n_left)]
    for p, r in g.edges:
        ranges_of[p].add(r)
    parts = []
    left = set(g.edges)
    for p, r in rng.sample(g.edges, len(g.edges) // 4):
        # p and another point of r, with every range the two share
        a, b = sorted((p, rng.choice([q for q, s in g.edges if s == r])))
        common = sorted(ranges_of[a] & ranges_of[b])
        if a != b and len(common) > 1:
            parts.append(([a, b], common))
            left -= {(x, y) for x in (a, b) for y in common}
    by_point, by_range = {}, {}
    for p, r in sorted(left):
        if rng.random() < 0.5:
            by_point.setdefault(p, []).append(r)
        else:
            by_range.setdefault(r, []).append(p)
    parts += [([p], rs) for p, rs in by_point.items()]
    parts += [(ps, [r]) for r, ps in by_range.items()]
    rng.shuffle(parts)
    return BicliqueCover(g.n_left, g.n_right, parts)


@pytest.mark.parametrize("unit", [True, False])
def test_mixed_covers_match_the_reference(unit):
    rng = random.Random(41 if unit else 42)
    shapes = [0, 0]  # parts without and with a middle vertex
    for trial in range(80):
        # points packed in the middle, so that boxes share several of them
        pts = rand_points(rng, rng.randrange(1, 16), lo=-15, hi=15)
        boxes = rand_boxes(rng, rng.randrange(1, 16), lo=-40, hi=0, max_side=50)
        g = brute_force_incidences(pts, boxes)
        cover = _mixed_cover(rng, g)
        for a, b in cover.parts:
            shapes[len(a) > 1 and len(b) > 1] += 1
        if unit:
            sd = SupplyDemand.unit(len(pts), len(boxes))
        else:
            sd = rand_sd(rng, len(pts), len(boxes), integral=False)
        want = reference_max_flow(g, sd.supplies, sd.demands)
        net = build_network(cover, sd)
        runs = [(net, max_flow_dinitz(net))]
        if trial % 2:
            sub = BicliqueCover(
                len(pts), len(boxes), rng.sample(cover.parts, len(cover.parts) // 2)
            )
            runs.append(_regrown(sub, cover, sd))
        for net, flow in runs:
            assert flow.value == want
            assert_blocking(net, flow)
            matching = flow_to_matching(flow, net, cover)
            assert matching_value(matching) == want
            assert validate_matching(matching, pts, boxes, sd)
    assert min(shapes) > 50


def test_unbalanced_middle_vertex_flow_raises():
    cover = BicliqueCover(2, 2, [([0, 1], [0, 1])])
    net = build_network(cover, SupplyDemand.unit(2, 2))
    flow = max_flow_dinitz(net)
    assert flow_to_matching(flow, net, cover) == [(0, 0, 1), (1, 1, 1)]
    pin = next(e for e in range(0, len(net.eto), 2) if net.eto[e] == net.n - 1)
    flow.values[pin // 2] += 1  # one more unit into the middle vertex than out
    with pytest.raises(InternalError):
        flow_to_matching(flow, net, cover)


def test_dinitz_levels_stop_at_the_sink(monkeypatch):
    # every phase's level graph must hold no vertex but the sink at or past
    # the sink's level: such a vertex cannot reach the sink in that phase
    phases = []

    def checked(head, eto, res, level, s, t):
        assert level[t] > 0
        assert all(lv < level[t] for v, lv in enumerate(level) if v != t)
        phases.append(level[t])
        return blocking_flow(head, eto, res, level, s, t)

    blocking_flow = flow_mod._blocking_flow
    monkeypatch.setattr(flow_mod, "_blocking_flow", checked)
    rng = random.Random(43)
    for _ in range(40):
        # points packed in the middle, so that phases reach past the first
        pts = rand_points(rng, rng.randrange(1, 20), lo=-15, hi=15)
        boxes = rand_boxes(rng, rng.randrange(1, 20), lo=-40, hi=0, max_side=50)
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, len(pts), len(boxes))
        flow = max_flow_dinitz(build_network(cover, sd))
        assert flow.value == reference_max_flow(
            brute_force_incidences(pts, boxes), sd.supplies, sd.demands
        )
    assert sum(level > 4 for level in phases) > 10


def _shuffled_parts(rng, n, m):
    """Parts on n >= 2 points and m >= 2 ranges: one-point, one-range and
    full ones (two or more of each) in random order."""
    parts = []
    for _ in range(rng.randrange(1, 8)):
        a = sorted(rng.sample(range(n), rng.randrange(2, n + 1)))
        b = sorted(rng.sample(range(m), rng.randrange(2, m + 1)))
        kind = rng.randrange(3)
        parts.append((a[:1] if kind == 0 else a, b[:1] if kind == 1 else b))
    return parts


def test_first_phase_levels_follow_the_vertex_blocks(monkeypatch):
    # at zero flow the first BFS levels points 1, middle vertices 2, reached
    # ranges 3 and the sink 4, wherever a part sits in the cover: a
    # point-to-range edge spans two levels by its ends' blocks, not its id;
    # the engine's first phase runs the same BFS on the same network
    firsts = []

    def first_levels(head, eto, res, level, s, t):
        firsts.append(list(level))
        return blocking_flow(head, eto, res, level, s, t)

    blocking_flow = flow_mod._blocking_flow
    monkeypatch.setattr(flow_mod, "_blocking_flow", first_levels)
    rng = random.Random(44)
    # a full part ahead of direct ones, which an id block after the
    # feeders and drains would take for the direct edges
    covers = [BicliqueCover(3, 3, [([0, 1], [0, 1]), ([2], [1, 2]), ([0, 2], [2])])]
    for _ in range(60):
        n, m = rng.randrange(2, 9), rng.randrange(2, 9)
        covers.append(BicliqueCover(n, m, _shuffled_parts(rng, n, m)))
    for cover in covers:
        n, m = cover.left_count, cover.right_count
        sd = rand_sd(rng, n, m)
        reached = {r for _, rs in cover.parts for r in rs}
        mids = sum(len(a) > 1 and len(b) > 1 for a, b in cover.parts)
        ranges = [3 if r in reached else -1 for r in range(m)]
        want = [0, 4] + [1] * n + ranges + [2] * mids
        del firsts[:]
        net = build_network(cover, sd)
        max_flow_dinitz(net)
        assert firsts[0] == want
        engine = expand_level_graph(net, {}, {})
        assert build_level_graph(engine, list(engine.ecap)) == want


def _centred_boxes(centres, half):
    return [
        Box(Point(tuple(c - half for c in q.coords)), Point(tuple(c + half for c in q.coords)))
        for q in centres
    ]


def _regrown(sub, cover, sd) -> tuple:
    """(network, flow): the maximum flow of ``sub``'s network, its idle
    edges dropped and every part of ``cover`` added, continued to a maximum
    flow, as a search grows its network from one decision to the next."""
    net = build_network(sub, sd)
    res = list(net.ecap)
    max_flow_dinitz(net, residual=res)
    net.drop_idle(res)
    net.add_parts(cover.parts)
    res += net.ecap[len(res) :]
    return net, max_flow_dinitz(net, residual=res)


@pytest.mark.parametrize("unit", [True, False])
def test_regrown_network_matches_cold(unit):
    rng = random.Random(31 if unit else 32)
    seeded = 0
    for trial in range(60):
        pts = rand_points(rng, rng.randrange(1, 16))
        centres = rand_points(rng, rng.randrange(1, 16))
        if unit:
            sd = SupplyDemand.unit(len(pts), len(centres))
        else:
            sd = rand_sd(rng, len(pts), len(centres), integral=False)
        wide = rand_fraction(rng, 5, 40)
        cover = box_cover(pts, _centred_boxes(centres, wide))
        if trial % 2:
            # a sub-cover with parts of its own: smaller boxes around the same centres
            narrow = wide * Fraction(rng.randrange(0, 8), 8)
            sub = box_cover(pts, _centred_boxes(centres, narrow))
        else:
            sub = BicliqueCover(
                len(pts), len(centres), rng.sample(cover.parts, len(cover.parts) // 2)
            )
        sub_net = build_network(sub, sd)
        res = list(sub_net.ecap)
        sub_flow = max_flow_dinitz(sub_net, residual=res)
        seeded += sub_flow.value > 0
        sub_net.drop_idle(res)
        # the feeders and drains stay; past them only edges with flow do,
        # and the flow reads as before by edge id
        base = 2 * (len(pts) + len(centres))
        for u, out in enumerate(sub_net.head):
            assert [e for e in out if e < base] == [e for e in range(base) if sub_net.eto[e ^ 1] == u]
            assert all(res[e | 1] > 0 for e in out if e >= base)
        assert project_flow(sub_net, res[1::2]) == project_flow(sub_net, sub_flow.values)
        net, warm = _regrown(sub, cover, sd)
        cold = max_flow_dinitz(build_network(cover, sd))
        assert warm.value == cold.value
        assert_blocking(net, warm)
        matching = flow_to_matching(warm, net, cover)
        assert matching_value(matching) == cold.value
        assert validate_matching(matching, pts, _centred_boxes(centres, wide), sd)
    assert seeded > 20


@pytest.mark.parametrize("unit", [True, False])
def test_reached_set_is_a_minimum_cut(unit):
    rng = random.Random(51 if unit else 52)
    short = 0  # flows below the target, whose cut is not the trivial one
    for _ in range(80):
        pts = rand_points(rng, rng.randrange(1, 16), lo=-15, hi=15)
        boxes = rand_boxes(rng, rng.randrange(1, 16), lo=-40, hi=0, max_side=50)
        g = brute_force_incidences(pts, boxes)
        cover = _mixed_cover(rng, g)
        if unit:
            sd = SupplyDemand.unit(len(pts), len(boxes))
        else:
            sd = rand_sd(rng, len(pts), len(boxes), integral=False)
        flow = max_flow_dinitz(build_network(cover, sd))
        S, T = map(set, flow.reached)
        assert S <= set(range(len(pts))) and T <= set(range(len(boxes)))
        cut = sum(s for i, s in enumerate(sd.supplies) if i not in S)
        assert cut + sum(sd.demands[j] for j in T) == flow.value
        for ps, rs in cover.parts:
            assert not (S & set(ps)) or set(rs) <= T
        short += flow.value < sd.target
    assert short > 20


def test_grown_network_continues_to_a_maximum_flow():
    rng = random.Random(53)
    for _ in range(40):
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        sd = rand_sd(rng, n, m, integral=rng.random() < 0.5)
        pairs = [(i, j) for i in range(n) for j in range(m) if rng.random() < 0.4]
        rng.shuffle(pairs)
        net = build_network(BicliqueCover(n, m, []), sd)
        res = list(net.ecap)
        k = 0
        while k < len(pairs):
            step = pairs[k : k + rng.randrange(1, 6)]
            k += len(step)
            net.add_parts([([p], [r]) for p, r in step])
            res += net.ecap[len(res) :]
            flow = max_flow_dinitz(net, residual=res)
            # the same layout as the network of one part per pair, built anew
            cover = BicliqueCover(n, m, [([p], [r]) for p, r in pairs[:k]])
            fresh = build_network(cover, sd)
            assert (net.eto, net.ecap, net.head) == (fresh.eto, fresh.ecap, fresh.head)
            assert flow.value == max_flow_dinitz(fresh).value
            assert res[1::2] == flow.values
            assert_blocking(net, flow)
            assert matching_value(flow_to_matching(flow, net, cover)) == flow.value
