import math
import random
from fractions import Fraction

import pytest

from geomatch.cover import BicliqueCover, box_cover
from geomatch.flow import (
    Flow,
    FlowNetwork,
    SupplyDemand,
    build_network,
    matching_value,
    project_flow,
)
from geomatch.geometry import Box, Point
from geomatch.implicit_dinitz import (
    Done,
    augment_and_project,
    blocking_flow,
    build_level_graph,
    expand_level_graph,
    max_matching_implicit,
)
from geomatch.numeric import SCALE_LIMIT_BITS, InputError, InternalError, integer_scale

from helpers import (
    assert_blocking,
    first_primes,
    rand_boxes,
    rand_points,
    rand_sd,
    uf_is_forest,
)
from oracle import ExplicitBipartite, brute_force_incidences, reference_max_flow


TRIANGLE = BicliqueCover(2, 2, [([0], [0]), ([0, 1], [1])])
TRIANGLE_SD = SupplyDemand((2, 3), (1, 4))
# p0 sits in both ranges, p1 only in r1; part order steers the first
# blocking flow into p0->r1, which the second phase must undo
REROUTE = BicliqueCover(2, 2, [([0], [1]), ([0], [0]), ([1], [1])])
# incidences of four unit points and four unit ranges, as one-pair parts in
# this order: the perfect matching takes three phases
CHAIN_PAIRS = [(0, 1), (1, 0), (0, 2), (0, 3), (2, 1), (3, 0), (1, 2)]


def first_phase(cover, sd):
    """(the cover's network set up for the first phase, the cover's edge
    count, the map from every pair seen to its backward edge, still
    empty)."""
    net = build_network(cover, sd)
    backward = {}
    return expand_level_graph(net, backward, {}), net.edge_count, backward


def run_phase(net, backward, new):
    """Expand by the pairs ``new``, level and block one phase; (levels as
    the BFS left them, blocking flow, residual), or Done."""
    expand_level_graph(net, backward, new)
    res = list(net.ecap)
    level = build_level_graph(net, res)
    if level is Done:
        return Done
    levels = list(level)
    pushed = blocking_flow(net, res, level)
    return levels, Flow(res[1::2], pushed), res


def test_first_level_graph_shape():
    net, m, _backward = first_phase(TRIANGLE, TRIANGLE_SD)
    level = build_level_graph(net, list(net.ecap))
    assert level is not Done
    # source, sink (t-level 4 // 2 + 1 = 3), points 0-1, ranges 0-1
    assert level == [0, 4, 1, 1, 3, 3]
    assert net.edge_count == m  # no support, so no backward edge


def assert_backward_edges(net, m, backward, sd):
    """The edges past the cover's first ``m`` are one backward edge r -> p
    per pair in ``backward``, in its order, with an empty reverse slot; and
    the feeders and drains hold the supplies and demands less the per-node
    totals of the backward edges' capacities, the flow by pair."""
    assert net.edge_count == m + len(backward)
    assert list(backward.values()) == list(range(2 * m, 2 * net.edge_count, 2))
    np_, nr = net.n_points, net.n_ranges
    used, met = [0] * np_, [0] * nr
    for (p, r), e in backward.items():
        assert (net.eto[e + 1], net.eto[e]) == (2 + np_ + r, 2 + p)
        assert net.ecap[e] >= 0 and net.ecap[e + 1] == 0
        used[p] += net.ecap[e]
        met[r] += net.ecap[e]
    assert net.ecap[: 2 * np_ : 2] == [s - u for s, u in zip(sd.supplies, used)]
    assert net.ecap[2 * np_ : 2 * (np_ + nr) : 2] == [d - x for d, x in zip(sd.demands, met)]


def test_expanded_network_vertex_count():
    # TRIANGLE has singleton-sided parts only; the second cover adds a part
    # with two points and two ranges.  A phase network holds the whole
    # cover, then one backward edge per pair that was ever in the support
    full = BicliqueCover(3, 3, [([0, 1], [0, 1]), ([2], [1, 2]), ([1, 2], [2])])
    for cover, sd in ((TRIANGLE, TRIANGLE_SD), (full, SupplyDemand.unit(3, 3))):
        net, m, backward = first_phase(cover, sd)
        mids = sum(len(a) > 1 and len(b) > 1 for a, b in cover.parts)
        assert net.n == 2 + cover.left_count + cover.right_count + mids
        assert mids == (cover is full)
        while (phase := run_phase(net, backward, {})) is not Done:
            _level, g, res = phase
            expand_level_graph(net, backward, augment_and_project(net, res, g.value, m, backward))
            assert net.n == 2 + cover.left_count + cover.right_count + mids
            assert_backward_edges(net, m, backward, sd)


def test_blocking_flow_single_path():
    # s -> p -> part -> r -> t with caps 2 on supply, 3 on demand
    cover = BicliqueCover(1, 1, [([0], [0])])
    sd = SupplyDemand((2,), (3,))
    net, _m, backward = first_phase(cover, sd)
    level, g, _res = run_phase(net, backward, {})
    assert g.value == 2
    assert_blocking(net, g, level)


def test_blocking_flow_two_disjoint_paths():
    cover = BicliqueCover(2, 2, [([0], [0]), ([1], [1])])
    sd = SupplyDemand((1, 5), (4, 2))
    net, _m, backward = first_phase(cover, sd)
    level, g, _res = run_phase(net, backward, {})
    assert g.value == 1 + 2
    assert_blocking(net, g, level)


def test_blocking_flow_is_blocking_on_random_level_graphs():
    # parts of any shape, then parts of two or more points and two or more
    # ranges (a middle vertex each), then covers that mix the two; every
    # phase of the matching is checked, so the later ones run with backward
    # edges
    rng = random.Random(31)
    mids = reversals = 0
    for trial in range(180):
        shape = ("any", "full", "mixed")[trial // 60]
        least = 1 if shape == "any" else 2
        n_p, n_r = rng.randrange(least, 10), rng.randrange(least, 10)
        parts = []
        for _ in range(rng.randrange(1, 6)):
            lo = 2 if shape == "full" or (shape == "mixed" and rng.random() < 0.5) else 1
            pts = sorted(rng.sample(range(n_p), rng.randrange(lo, n_p + 1)))
            rngs = sorted(rng.sample(range(n_r), rng.randrange(lo, n_r + 1)))
            parts.append((pts, rngs))
        cover = BicliqueCover(n_p, n_r, parts)
        sd = rand_sd(rng, n_p, n_r, integral=rng.random() < 0.5)
        net, m, backward = first_phase(cover, sd)
        mid0 = 2 + n_p + n_r
        # the flow by pair, kept apart from the network: every pair seen,
        # in the order first seen, 0 for a pair that carries nothing
        flow, new = {}, {}
        while (phase := run_phase(net, backward, new)) is not Done:
            level, g, res = phase
            # feeders first, then drains, then the cover's edges, then one
            # backward edge from a range to a point per pair ever seen, its
            # capacity the pair's flow
            ends = list(zip(net.eto[1::2], net.eto[0::2]))
            roles = ["feeder" if u == 0 else "drain" if v == 1 else "cover" for u, v in ends[:m]]
            assert roles == ["feeder"] * n_p + ["drain"] * n_r + ["cover"] * (m - n_p - n_r)
            assert_backward_edges(net, m, backward, sd)
            assert list(backward) == list(flow)
            assert [net.ecap[e] for e in backward.values()] == list(flow.values())
            assert all(g.on(e) == 0 for k, e in backward.items() if not flow[k])
            back = [(u, v) for (u, v), cap in zip(ends[m:], net.ecap[2 * m :: 2]) if cap > 0]
            # the middle vertices and backward edges on this phase's level graph
            mids += sum(lv >= 0 for lv in level[mid0:])
            reversals += sum(level[v] == level[u] + 2 for u, v in back if level[u] >= 0)
            assert_blocking(net, g, level)
            for k, e in backward.items():
                flow[k] -= g.on(e)
            for p, r, amt in project_flow(net, g.values[:m]):
                flow[(p, r)] = flow.get((p, r), 0) + amt
            new = augment_and_project(net, res, g.value, m, backward)
        g = ExplicitBipartite(n_p, n_r, sorted({(p, r) for a, b in parts for p in a for r in b}))
        want = reference_max_flow(g, sd.supplies, sd.demands)
        assert sum(flow.values()) == sum(net.ecap[e] for e in backward.values()) == want
    assert mids > 100 and reversals > 20


def test_projection_short_of_the_blocking_flow_raises():
    net, m, backward = first_phase(TRIANGLE, TRIANGLE_SD)
    _level, g, res = run_phase(net, backward, {})
    with pytest.raises(InternalError):
        # one unit more than the pairs carry
        augment_and_project(net, res, g.value + 1, m, backward)


def test_pushing_a_pair_back_and_forward_keeps_its_net_amount():
    # p0 sends 2 to r0 already.  A hand-made phase pushes one unit back
    # along that pair's backward edge (s -> p1 -> r0 -> p0 -> r1 -> t) and
    # one forward onto it through its part (s -> p0 -> r0 -> t).  No level
    # graph admits both, as the first needs r0 below p0 and the second p0
    # below r0, but the flow is feasible, and the pair keeps 2 - 1 + 1.
    cover = BicliqueCover(2, 2, [([0], [0, 1]), ([1], [0])])
    sd = SupplyDemand((3, 1), (3, 1))
    net = build_network(cover, sd)
    m, backward = net.edge_count, {}
    expand_level_graph(net, backward, {(0, 0): 2})
    net.ecap[0] = net.ecap[4] = 1  # p0's feeder and r0's drain
    assert_backward_edges(net, m, backward, sd)
    res = list(net.ecap)
    for path in ((0, 3, 4, 2, 5, 1), (0, 2, 4, 1)):
        for u, v in zip(path, path[1:]):
            e = next(e for e in net.head[u] if e % 2 == 0 and net.eto[e] == v)
            res[e] -= 1
            res[e + 1] += 1
    new = augment_and_project(net, res, 2, m, backward)
    assert net.ecap[backward[(0, 0)]] == 2
    assert new == {(0, 1): 1, (1, 0): 1}
    expand_level_graph(net, backward, new)
    assert_backward_edges(net, m, backward, sd)
    assert net.ecap[:8:2] == [0, 0, 0, 0]


def test_triangle_instance_value():
    matching = max_matching_implicit(2, 2, TRIANGLE_SD, TRIANGLE)
    assert matching_value(matching) == 5
    assert matching == sorted(matching)


def test_forced_rerouting_uses_a_second_phase():
    sd = SupplyDemand.unit(2, 2)
    trace = []
    matching = max_matching_implicit(2, 2, sd, REROUTE, trace=trace)
    assert matching_value(matching) == 2
    assert [t for t, _, _ in trace] == [3, 5]


def test_one_network_per_matching(monkeypatch):
    # every phase runs on the cover's network, built once per call
    built = []
    init = FlowNetwork.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "__init__", counted)
    trace = []
    max_matching_implicit(2, 2, SupplyDemand.unit(2, 2), REROUTE, trace=trace)
    assert len(trace) == 2
    assert len(built) == 1


def test_backward_edges_persist_across_phases(monkeypatch):
    # REROUTE with an isolated pair (2, 2) that the first phase matches and
    # every later phase keeps; the second phase retires (0, 1)
    cover = BicliqueCover(3, 3, REROUTE.parts + [([2], [2])])
    appended, nets = [], []
    add_backward = FlowNetwork.add_backward

    def counted(self, pairs):
        appended.extend(pairs)
        nets.append(self)
        add_backward(self, pairs)

    monkeypatch.setattr(FlowNetwork, "add_backward", counted)
    trace = []
    matching = max_matching_implicit(3, 3, SupplyDemand.unit(3, 3), cover, trace=trace)
    assert [t for t, _, _ in trace] == [3, 5]
    assert sorted(matching) == [(0, 0, 1), (1, 1, 1), (2, 2, 1)]
    # each distinct pair's edge is appended once over the call
    assert sorted(appended) == [(0, 0), (0, 1), (1, 1), (2, 2)]
    # the last network keeps the retired pair's edge, at capacity 0
    net = nets[-1]
    m = net.edge_count - len(appended)
    e = 2 * (m + appended.index((0, 1)))
    assert (net.eto[e + 1], net.eto[e]) == (2 + 3 + 1, 2 + 0)
    assert net.ecap[e] == 0


def test_retired_backward_edge_carries_no_flow():
    # one-pair parts in this order: the first phase matches p0-r1 and p1-r0,
    # the second reroutes p0 to r2 and retires (0, 1), and the third runs
    # with that pair's edge still in the network
    cover = BicliqueCover(4, 4, [([p], [r]) for p, r in CHAIN_PAIRS])
    sd = SupplyDemand.unit(4, 4)
    net, m, backward = first_phase(cover, sd)
    levels, new = [], {}
    while (phase := run_phase(net, backward, new)) is not Done:
        level, g, res = phase
        levels.append(level[net.sink] // 2 + 1)
        assert_backward_edges(net, m, backward, sd)
        if len(levels) == 3:
            assert net.ecap[backward[(0, 1)]] == 0
            assert g.on(backward[(0, 1)]) == 0
        new = augment_and_project(net, res, g.value, m, backward)
    assert levels == [3, 5, 7]
    assert sum(net.ecap[e] for e in backward.values()) == 4


def test_backward_edges_stay_inside_levels():
    sd = SupplyDemand.unit(2, 2)
    net, m, backward = first_phase(REROUTE, sd)
    _level, g, res = run_phase(net, backward, {})
    pairs = project_flow(net, g.values[:m])
    new = augment_and_project(net, res, g.value, m, backward)
    level, _g, _res = run_phase(net, backward, new)
    assert level[net.sink] // 2 + 1 == 5
    back = range(2 * m, 2 * net.edge_count, 2)
    assert back, "rerouting phase must expose flow-reversal edges"
    got = [(net.eto[e + 1], net.eto[e], net.ecap[e]) for e in back]
    assert got == [(4 + r, 2 + p, amt) for p, r, amt in pairs]
    # the reversal runs from range layer 0 (level 3) to point layer 1 (level 5)
    assert any(level[net.eto[e]] == level[net.eto[e + 1]] + 2 == 5 for e in back)


def test_done_when_supplies_exhausted():
    cover = BicliqueCover(1, 1, [([0], [0])])
    sd = SupplyDemand.unit(1, 1)
    net, m, backward = first_phase(cover, sd)
    # the one pair carries the one unit, which uses up p0's supply and r0's demand
    net.ecap[0] = net.ecap[2] = 0
    assert run_phase(net, backward, {(0, 0): 1}) is Done
    assert_backward_edges(net, m, backward, sd)


def test_done_when_no_ranges():
    matching = max_matching_implicit(3, 0, SupplyDemand((1, 1, 1), ()), BicliqueCover(3, 0, []))
    assert matching == []


def test_complete_cover_single_phase():
    cover = BicliqueCover(5, 5, [(list(range(5)), list(range(5)))])
    sd = SupplyDemand.unit(5, 5)
    trace = []
    matching = max_matching_implicit(5, 5, sd, cover, trace=trace)
    assert matching_value(matching) == 5
    assert len(trace) == 1


def test_exact_rational_result():
    cover = BicliqueCover(2, 2, [([0], [0]), ([0, 1], [1])])
    sd = SupplyDemand(
        (Fraction(2, 3), Fraction(3, 2)), (Fraction(1, 2), Fraction(5, 3))
    )
    matching = max_matching_implicit(2, 2, sd, cover)
    assert matching_value(matching) == min(
        Fraction(2, 3) + Fraction(3, 2), Fraction(1, 2) + Fraction(5, 3)
    )


def test_matches_reference_on_random_instances():
    rng = random.Random(47)
    for _ in range(150):
        pts = rand_points(rng, rng.randrange(1, 16))
        boxes = rand_boxes(rng, rng.randrange(1, 16))
        cover = box_cover(pts, boxes)
        sd = rand_sd(rng, len(pts), len(boxes), integral=rng.random() < 0.5)
        trace = []
        matching = max_matching_implicit(
            len(pts), len(boxes), sd, cover, trace=trace
        )
        g = brute_force_incidences(pts, boxes)
        want = reference_max_flow(g, sd.supplies, sd.demands)
        assert matching_value(matching) == want
        levels = [t for t, _, _ in trace]
        assert levels == sorted(set(levels)), "t-levels must strictly increase"
        assert len(trace) <= min(len(pts), len(boxes))
        assert uf_is_forest([(("p", p), ("r", r)) for p, r, _ in matching])


def test_phase_support_stays_forest():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randrange(2, 12)
        parts = [
            (
                sorted(rng.sample(range(n), rng.randrange(1, n + 1))),
                sorted(rng.sample(range(n), rng.randrange(1, n + 1))),
            )
            for _ in range(rng.randrange(1, 5))
        ]
        cover = BicliqueCover(n, n, parts)
        sd = rand_sd(rng, n, n, integral=False)
        matching = max_matching_implicit(n, n, sd, cover)
        assert uf_is_forest([(("p", p), ("r", r)) for p, r, _ in matching])


def test_the_one_prune_cancels_a_cycle_of_the_last_phase():
    # p0 and p1 lie in both boxes and p2 in the second only; the second
    # phase leaves flow on all four pairs of p0, p1 and the two boxes, a
    # cycle, and the prune after it leaves a forest of the same value
    pts = [Point((2, 1)), Point((2, 1)), Point((1, 1))]
    boxes = [Box(Point((2, 1)), Point((3, 2))), Box(Point((0, 0)), Point((2, 1)))]
    sd = SupplyDemand((1, Fraction(3, 2), Fraction(1, 2)), (2, Fraction(3, 2)))
    trace = []
    matching = max_matching_implicit(pts, boxes, sd, box_cover(pts, boxes), trace=trace)
    assert [(t, s) for t, _, s in trace] == [(3, 3), (5, 5)]
    assert len(matching) == 3
    assert uf_is_forest([(("p", p), ("r", r)) for p, r, _ in matching])
    g = brute_force_incidences(pts, boxes)
    assert matching_value(matching) == reference_max_flow(g, sd.supplies, sd.demands) == 3


def test_input_validation():
    with pytest.raises(InputError):
        max_matching_implicit(3, 2, SupplyDemand.unit(2, 2), TRIANGLE)
    with pytest.raises(InputError):
        max_matching_implicit(2, 1, SupplyDemand.unit(2, 1), TRIANGLE)


def test_float_mode_runs_clean():
    rng = random.Random(61)
    pts = rand_points(rng, 30)
    boxes = rand_boxes(rng, 30)
    cover = box_cover(pts, boxes)
    sd = SupplyDemand((1.0,) * 30, (1.0,) * 30)
    matching = max_matching_implicit(30, 30, sd, cover)
    g = brute_force_incidences(pts, boxes)
    want = reference_max_flow(g, (1,) * 30, (1,) * 30)
    assert matching_value(matching) == want
    assert matching == max_matching_implicit(30, 30, SupplyDemand.unit(30, 30), cover)


def test_float_tenth_weights_give_the_exact_maximum():
    # summed and compared as floats, k/10 weights leave residues that broke
    # the pairing at a middle vertex (InternalError) or changed the value
    for seed in range(300):
        rng = random.Random(seed)
        pts = rand_points(rng, rng.randrange(1, 20))
        boxes = rand_boxes(rng, rng.randrange(1, 20))
        sup = [rng.randrange(1, 30) / 10 for _ in pts]
        dem = [rng.randrange(1, 30) / 10 for _ in boxes]
        cover = box_cover(pts, boxes)
        got = max_matching_implicit(pts, boxes, SupplyDemand(sup, dem), cover)
        exact = SupplyDemand(tuple(map(Fraction, sup)), tuple(map(Fraction, dem)))
        assert got == max_matching_implicit(pts, boxes, exact, cover), seed
        g = brute_force_incidences(pts, boxes)
        assert matching_value(got) == reference_max_flow(g, exact.supplies, exact.demands)


def test_tiny_float_weights_give_the_exact_maximum():
    # 5e-324 is the smallest float: its denominator, 2**1074, is the longest
    # any float has, and the LCM with the others stays at 1075 bits
    sup = (5e-324, 1e-300)
    dem = (2e-300, 3e-300)
    g = ExplicitBipartite(2, 2, [(0, 0), (0, 1), (1, 1)])
    exact = SupplyDemand(tuple(map(Fraction, sup)), tuple(map(Fraction, dem)))
    assert integer_scale(sup + dem).bit_length() == 1075
    matching = max_matching_implicit(2, 2, SupplyDemand(sup, dem), TRIANGLE)
    assert matching_value(matching) == Fraction(5e-324) + Fraction(1e-300)
    assert matching_value(matching) == reference_max_flow(g, exact.supplies, exact.demands)


def test_scale_past_the_limit_is_input_error():
    weights = [Fraction(1, p) for p in first_primes(600)]
    bits = math.lcm(*(w.denominator for w in weights)).bit_length()
    assert bits > SCALE_LIMIT_BITS
    with pytest.raises(InputError, match=f"{bits} bits"):
        integer_scale(weights)
    cover = BicliqueCover(600, 1, [(list(range(600)), [0])])
    with pytest.raises(InputError, match="bits"):
        max_matching_implicit(600, 1, SupplyDemand(weights, (1,)), cover)


def test_unlike_denominators_return_exact_fractions_in_caller_units():
    rng = random.Random(67)
    dens = (3, 7, 10, 11)
    for _ in range(40):
        pts = rand_points(rng, rng.randrange(1, 12))
        boxes = rand_boxes(rng, rng.randrange(1, 12))
        sd = SupplyDemand(
            tuple(Fraction(rng.randrange(1, 40), rng.choice(dens)) for _ in pts),
            tuple(Fraction(rng.randrange(1, 40), rng.choice(dens)) for _ in boxes),
        )
        trace = []
        matching = max_matching_implicit(pts, boxes, sd, box_cover(pts, boxes), trace=trace)
        want = reference_max_flow(brute_force_incidences(pts, boxes), sd.supplies, sd.demands)
        assert matching_value(matching) == want
        assert all(type(a) is Fraction and a > 0 for _, _, a in matching)
        # each phase pushes its blocking flow on top of the last one, so the
        # pushed values add up to the value, in the caller's units
        assert all(type(v) is Fraction for _, v, _ in trace)
        assert sum(v for _, v, _ in trace) == want
