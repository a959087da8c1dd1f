import math
import random
from fractions import Fraction

import pytest

from geomatch.cover import BicliqueCover, box_cover
from geomatch.flow import SupplyDemand, matching_value
from geomatch.implicit_dinitz import (
    Done,
    augment_and_project,
    blocking_flow,
    build_level_graph,
    build_point_index,
    expand_level_graph,
    max_matching_implicit,
    new_phase_state,
)
from geomatch.numeric import SCALE_LIMIT_BITS, InputError, InternalError, integer_scale
from geomatch.rblct import prune_to_forest

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


def test_phase_state_shape():
    st = new_phase_state(3, 2)
    assert st.flow == {}
    assert st.used == [0, 0, 0]
    assert st.met == [0, 0]
    assert st.t_levels == []


def test_first_level_graph_shape():
    st = new_phase_state(2, 2)
    L = build_level_graph(st, TRIANGLE, TRIANGLE_SD)
    assert L is not Done
    assert L.t_level == 3
    assert L.backward == []
    assert list(L.point_layers[0]) == [0, 1]
    assert list(L.range_layers[0]) == [0, 1]


def test_expanded_network_vertex_count():
    # TRIANGLE has singleton-sided parts only; the second cover adds a part
    # with two points and two ranges
    full = BicliqueCover(3, 3, [([0, 1], [0, 1]), ([2], [1, 2]), ([1, 2], [2])])
    for cover, sd in ((TRIANGLE, TRIANGLE_SD), (full, SupplyDemand.unit(3, 3))):
        L = build_level_graph(new_phase_state(cover.left_count, cover.right_count), cover, sd)
        net = expand_level_graph(L)
        pts = sum(len(layer) for layer in L.point_layers)
        rngs = sum(len(layer) for layer in L.range_layers)
        mids = sum(len(a) > 1 and len(b) > 1 for step in L.forward for a, b in step)
        assert net.n == 2 + pts + rngs + mids
        assert mids == (cover is full)


def test_blocking_flow_single_path():
    # s -> p -> part -> r -> t with caps 2 on supply, 3 on demand
    cover = BicliqueCover(1, 1, [([0], [0])])
    sd = SupplyDemand((2,), (3,))
    st = new_phase_state(1, 1)
    L = build_level_graph(st, cover, sd)
    net = expand_level_graph(L)
    g = blocking_flow(net)
    assert g.value == 2
    assert_blocking(net, g)


def test_blocking_flow_two_disjoint_paths():
    cover = BicliqueCover(2, 2, [([0], [0]), ([1], [1])])
    sd = SupplyDemand((1, 5), (4, 2))
    st = new_phase_state(2, 2)
    L = build_level_graph(st, cover, sd)
    net = expand_level_graph(L)
    g = blocking_flow(net)
    assert g.value == 1 + 2
    assert_blocking(net, g)


def test_blocking_flow_is_blocking_on_random_level_graphs():
    # parts of any shape, then parts of two or more points and two or more
    # ranges (a middle vertex each while the restriction keeps them that
    # big), then covers that mix the two; every phase of the matching is
    # checked, so the later ones run with backward edges
    rng = random.Random(31)
    mids = backward = 0
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
        st = new_phase_state(n_p, n_r)
        while (L := build_level_graph(st, cover, sd)) is not Done:
            net = expand_level_graph(L)
            # feeders first, then drains, then the steps' parts and backward edges
            ends = zip(net.eto[1::2], net.eto[0::2])
            roles = ["feeder" if u == 0 else "drain" if v == 1 else "step" for u, v in ends]
            nf, nd = len(L.feeders[0]), len(L.drains[0])
            assert roles == ["feeder"] * nf + ["drain"] * nd + ["step"] * (len(roles) - nf - nd)
            mids += net.n - 2 - sum(map(len, L.point_layers)) - sum(map(len, L.range_layers))
            backward += sum(map(len, L.backward))
            g = blocking_flow(net)
            assert_blocking(net, g)
            st = prune_to_forest(augment_and_project(st, g, L, net))
            # the supply/demand bookkeeping is the flow's per-node totals
            used, met = [0] * n_p, [0] * n_r
            for (p, r), amt in st.flow.items():
                used[p] += amt
                met[r] += amt
            assert (st.used, st.met) == (used, met)
        g = ExplicitBipartite(n_p, n_r, sorted({(p, r) for a, b in parts for p in a for r in b}))
        assert sum(st.used) == reference_max_flow(g, sd.supplies, sd.demands)
    assert mids > 100 and backward > 20


def test_projection_short_of_the_blocking_flow_raises():
    st = new_phase_state(2, 2)
    L = build_level_graph(st, TRIANGLE, TRIANGLE_SD)
    net = expand_level_graph(L)
    g = blocking_flow(net)
    g.value += 1  # one unit more than the pairs carry
    with pytest.raises(InternalError):
        augment_and_project(st, g, L, net)


def test_triangle_instance_value():
    matching = max_matching_implicit(2, 2, TRIANGLE_SD, TRIANGLE)
    assert matching_value(matching) == 5
    assert matching == sorted(matching)


def test_forced_rerouting_uses_a_second_phase():
    # p0 sits in both ranges, p1 only in r1; part order steers the first
    # blocking flow into p0->r1, which the second phase must undo
    cover = BicliqueCover(2, 2, [([0], [1]), ([0], [0]), ([1], [1])])
    sd = SupplyDemand.unit(2, 2)
    trace = []
    matching = max_matching_implicit(2, 2, sd, cover, trace=trace)
    assert matching_value(matching) == 2
    assert [t for t, _, _ in trace] == [3, 5]


def test_backward_edges_stay_inside_levels():
    cover = BicliqueCover(2, 2, [([0], [1]), ([0], [0]), ([1], [1])])
    sd = SupplyDemand.unit(2, 2)
    st = new_phase_state(2, 2)
    L1 = build_level_graph(st, cover, sd)
    net = expand_level_graph(L1)
    g = blocking_flow(net)
    st = augment_and_project(st, g, L1, net)
    L2 = build_level_graph(st, cover, sd)
    assert L2 is not Done
    assert L2.t_level == 5
    flat = [e for step in L2.backward for e in step]
    assert flat, "rerouting phase must expose flow-reversal edges"
    for r, p, cap in flat:
        assert st.flow.get((p, r)) == cap


def test_done_when_supplies_exhausted():
    st = new_phase_state(1, 1)
    st.flow[(0, 0)] = 1
    st.used[0] = 1
    st.met[0] = 1
    cover = BicliqueCover(1, 1, [([0], [0])])
    assert build_level_graph(st, cover, SupplyDemand.unit(1, 1)) is Done


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


def test_point_index_maps_points_to_parts():
    idx = build_point_index(TRIANGLE)
    assert list(idx[0]) == [0, 1]
    assert list(idx[1]) == [1]


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
