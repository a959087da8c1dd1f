import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

import geomatch.bottleneck as bottleneck_mod
from geomatch.bottleneck import PersistenceDiagram, bottleneck_search, decide, pd_bottleneck
import geomatch.cover as cover_mod
from geomatch.cover import BicliqueCover, BoxTree, box_cover, validate_cover
from geomatch.flow import INF, SupplyDemand, matching_value
from geomatch.geometry import Box, Metric, Point, rotate45
from geomatch.numeric import InputError, InternalError

from brute import _DIST, bottleneck_brute, l2sq, linf, pd_brute, range_tree_parts
from helpers import rand_fraction, rand_points, rand_sd
from oracle import ExplicitBipartite, reference_max_flow


def rand_pts(rng, n):
    return [
        Point((rand_fraction(rng, -30, 30), rand_fraction(rng, -30, 30)))
        for _ in range(n)
    ]


# ------------------------------------------------------------------- decide

def test_decide_single_pair_boundary():
    P, Q = [Point((0, 0))], [Point((1, 2))]
    assert decide(P, Q, Metric.LINF, 2).feasible
    assert not decide(P, Q, Metric.LINF, Fraction(19, 10)).feasible


def test_decide_two_pairs():
    P = [Point((0, 0)), Point((10, 0))]
    Q = [Point((0, 1)), Point((10, 2))]
    assert decide(P, Q, Metric.LINF, 2).feasible
    assert not decide(P, Q, Metric.LINF, 1).feasible


def test_decide_returns_witness():
    P = [Point((0, 0)), Point((5, 5))]
    Q = [Point((1, 0)), Point((5, 6))]
    res = decide(P, Q, Metric.LINF, 1)
    assert res.feasible
    assert sorted((p, q) for p, q, _ in res.matching) == [(0, 0), (1, 1)]


def test_decide_validates_input():
    with pytest.raises(InputError):
        decide([Point((0, 0))], [], Metric.LINF, 1)
    with pytest.raises(InputError):
        decide([Point((0, 0))], [Point((1, 1))], Metric.LINF, -1)
    with pytest.raises(InputError):
        decide([Point((0, 0))], [Point((1, 1))], Metric.L1, 4, squared=True)


def test_decide_monotone_in_lambda():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randrange(1, 7)
        P, Q = rand_pts(rng, n), rand_pts(rng, n)
        feas = [
            decide(P, Q, Metric.LINF, lam).feasible
            for lam in range(0, 80, 8)
        ]
        assert feas == sorted(feas), "feasibility must be monotone"


FLOAT_P = [Point((-1.7, 1.9)), Point((0.3, -3.4)), Point((-4.3, 4.4))]
FLOAT_Q = [Point((-0.5, 0.8)), Point((3.4, 2.4)), Point((1.6, 0.3))]


def exact_pts(pts):
    # floats are dyadic rationals, so Fraction(c) is the same value
    return [Point(tuple(Fraction(c) for c in p.coords)) for p in pts]


def test_float_decide_does_not_round_box_bounds():
    # as floats, (-1.7, 1.9) and (3.4, 2.4) lie exactly lam apart; box bounds
    # c +- lam computed in floats round that pair out of its box
    lam = Fraction(3.4) - Fraction(-1.7)
    res = decide(FLOAT_P, FLOAT_Q, Metric.LINF, lam)
    assert res.feasible
    assert sorted(res.matching) == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    # the float 5.1 lies below that distance
    assert not decide(FLOAT_P, FLOAT_Q, Metric.LINF, 5.1).feasible
    half = SupplyDemand((0.5,) * 3, (0.5,) * 3)
    res = decide(FLOAT_P, FLOAT_Q, Metric.LINF, lam, sd=half)
    assert res.feasible
    assert all(type(a) is Fraction and a == Fraction(1, 2) for _p, _q, a in res.matching)
    assert res == decide(exact_pts(FLOAT_P), exact_pts(FLOAT_Q), Metric.LINF, lam, sd=half)


def test_float_decide_matches_exact_decisions_on_tenths():
    rng = random.Random(34)
    tenth = lambda: rng.randrange(-50, 51) / 10
    for _ in range(40):
        n = rng.randrange(1, 5)
        P = [Point((tenth(), tenth())) for _ in range(n)]
        Q = [Point((tenth(), tenth())) for _ in range(n)]
        for metric in Metric:
            dists = {_DIST[metric](p, q) for p in exact_pts(P) for q in exact_pts(Q)}
            for lam in sorted(dists) + [float(d) for d in dists]:
                sq = metric is Metric.L2
                got = decide(P, Q, metric, lam, squared=sq)
                want = decide(exact_pts(P), exact_pts(Q), metric, Fraction(lam), squared=sq)
                assert got == want


# ---------------------------------------------------------------- the search

def test_single_pair_all_metrics():
    P, Q = [Point((0, 0))], [Point((1, 2))]
    assert bottleneck_search(P, Q, Metric.LINF).lambda_star == 2
    assert bottleneck_search(P, Q, Metric.L1).lambda_star == 3
    r = bottleneck_search(P, Q, Metric.L2)
    assert r.lambda_star_sq == 5
    assert r.lambda_star == pytest.approx(math.sqrt(5))


def test_identical_sets_zero():
    rng = random.Random(15)
    P = rand_pts(rng, 6)
    for metric in Metric:
        r = bottleneck_search(P, list(P), metric)
        star = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
        assert star == 0


def test_empty_sets():
    r = bottleneck_search([], [], Metric.LINF)
    assert r.lambda_star == 0 and r.matching == []


def test_size_mismatch_rejected():
    with pytest.raises(InputError):
        bottleneck_search([Point((0, 0))], [], Metric.LINF)


def test_search_matches_brute_force():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randrange(1, 9)
        P, Q = rand_pts(rng, n), rand_pts(rng, n)
        for metric in Metric:
            r = bottleneck_search(P, Q, metric)
            got = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
            assert got == bottleneck_brute(P, Q, metric)


@pytest.mark.parametrize("d", [1, 3, 4])
def test_linf_search_matches_brute_force_in_any_dimension(d):
    rng = random.Random(40 + d)
    dist = _DIST[Metric.LINF]
    for _ in range(15):
        n = rng.randrange(1, 8)
        P, Q = rand_points(rng, n, d, -30, 30), rand_points(rng, n, d, -30, 30)
        r = bottleneck_search(P, Q, Metric.LINF)
        assert r.lambda_star == bottleneck_brute(P, Q, Metric.LINF)
        assert all(dist(P[p], Q[q]) <= r.lambda_star for p, q, _a in r.matching)
        assert decide(P, Q, Metric.LINF, r.lambda_star).feasible
        below = [v for v in {dist(p, q) for p in P for q in Q} if v < r.lambda_star]
        if below:
            assert not decide(P, Q, Metric.LINF, max(below)).feasible


def test_supply_demand_lengths_must_match_the_points():
    P, Q = [Point((0, 0)), Point((1, 1))], [Point((1, 2))]
    for sd in (SupplyDemand((1,), (1,)), SupplyDemand((1, 1), (1, 1))):
        with pytest.raises(InputError, match="supplies and .* demands for 2 and 1 points"):
            decide(P, Q, Metric.LINF, 3, sd=sd)
        with pytest.raises(InputError, match="supplies and .* demands for 2 and 1 points"):
            bottleneck_search(P, Q, Metric.L2, sd=sd)


def test_bisected_oracle_equals_linear_scan():
    rng = random.Random(18)
    for _ in range(6):
        n = rng.randrange(1, 6)
        P, Q = rand_pts(rng, n), rand_pts(rng, n)
        for metric in Metric:
            assert bottleneck_brute(P, Q, metric) == bottleneck_brute(
                P, Q, metric, scan=True
            )


def test_l1_equals_linf_on_rotated_inputs():
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randrange(1, 8)
        P, Q = rand_pts(rng, n), rand_pts(rng, n)
        direct = bottleneck_search(P, Q, Metric.L1).lambda_star
        rotated = bottleneck_search(
            [rotate45(p) for p in P], [rotate45(q) for q in Q], Metric.LINF
        ).lambda_star
        assert direct == rotated


def test_witness_matching_is_within_bound():
    rng = random.Random(20)
    P, Q = rand_pts(rng, 7), rand_pts(rng, 7)
    r = bottleneck_search(P, Q, Metric.LINF)
    for p, q, _ in r.matching:
        d = max(abs(P[p][0] - Q[q][0]), abs(P[p][1] - Q[q][1]))
        assert d <= r.lambda_star


def test_predecessor_candidate_infeasible():
    rng = random.Random(22)
    P, Q = rand_pts(rng, 6), rand_pts(rng, 6)
    star = bottleneck_search(P, Q, Metric.LINF).lambda_star
    if star > 0:
        eps = Fraction(1, 10**9)
        assert not decide(P, Q, Metric.LINF, star - eps).feasible


def test_many_to_many_variant():
    P = [Point((0, 0)), Point((4, 0))]
    Q = [Point((1, 0)), Point((3, 0))]
    sd = SupplyDemand((2, 3), (1, 4))
    r = bottleneck_search(P, Q, Metric.LINF, sd=sd)
    assert r.lambda_star == 3
    assert sum(v for _, _, v in r.matching) == 5


def test_search_keeps_scalar_types():
    P = [Point((Fraction(1, 3), Fraction(1, 2)))]
    Q = [Point((Fraction(5, 6), Fraction(0)))]
    linf = bottleneck_search(P, Q, Metric.LINF).lambda_star
    l1 = bottleneck_search(P, Q, Metric.L1).lambda_star
    l2 = bottleneck_search(P, Q, Metric.L2)
    assert (linf, l1, l2.lambda_star_sq) == (Fraction(1, 2), 1, Fraction(1, 2))
    assert all(type(v) is Fraction for v in (linf, l1, l2.lambda_star_sq))
    assert l2.lambda_star == pytest.approx(math.sqrt(0.5))
    star = bottleneck_search([Point((0, 0))], [Point((1, 2))], Metric.LINF)
    assert type(star.lambda_star) is int


def test_float_mode_search():
    P = [Point((0.0, 0.0)), Point((3.0, 1.0))]
    Q = [Point((0.5, 0.0)), Point((3.0, 2.0))]
    r = bottleneck_search(P, Q, Metric.LINF)
    assert r.lambda_star == 1
    assert r == bottleneck_search(exact_pts(P), exact_pts(Q), Metric.LINF)


def test_float_search_does_not_round_box_bounds():
    # box bounds c +- lam computed in floats round, and the pair at distance
    # exactly 3.4 - (-1.7) falls outside its box: such a search returns 5.8
    r = bottleneck_search(FLOAT_P, FLOAT_Q, Metric.LINF)
    assert r.lambda_star == Fraction(3.4) - Fraction(-1.7)
    assert float(r.lambda_star) == 5.1
    assert sorted(r.matching) == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    assert r == bottleneck_search(exact_pts(FLOAT_P), exact_pts(FLOAT_Q), Metric.LINF)


def test_float_search_matches_rational_on_tenths():
    rng = random.Random(29)
    tenth = lambda: Fraction(rng.randrange(-50, 51), 10)
    for _ in range(50):
        n = rng.randrange(1, 7)
        P = [Point((tenth(), tenth())) for _ in range(n)]
        Q = [Point((tenth(), tenth())) for _ in range(n)]
        as_float = lambda pts: [Point(tuple(float(c) for c in p.coords)) for p in pts]
        for metric in Metric:
            exact = bottleneck_search(P, Q, metric)
            r = bottleneck_search(as_float(P), as_float(Q), metric)
            assert r == bottleneck_search(exact_pts(as_float(P)), exact_pts(as_float(Q)), metric)
            assert r.lambda_star == pytest.approx(float(exact.lambda_star), rel=1e-9, abs=1e-12)
            assert len(r.matching) == n


def _brute_sd(P, Q, sd, metric):
    """Smallest pairwise distance (squared for L2) at which the explicit
    incidence graph carries the full target value."""
    dist = _DIST[metric]
    for lam in sorted({dist(p, q) for p in P for q in Q}):
        edges = [(i, j) for i, p in enumerate(P) for j, q in enumerate(Q) if dist(p, q) <= lam]
        g = ExplicitBipartite(len(P), len(Q), edges)
        if reference_max_flow(g, sd.supplies, sd.demands) == sd.target:
            return lam
    raise AssertionError("the largest distance must carry the target")


def test_warm_search_matches_brute_force_many_to_many():
    rng = random.Random(35)
    for _ in range(12):
        P, Q = rand_pts(rng, rng.randrange(1, 7)), rand_pts(rng, rng.randrange(1, 7))
        sd = rand_sd(rng, len(P), len(Q), integral=False)
        for metric in Metric:
            r = bottleneck_search(P, Q, metric, sd=sd)
            star = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
            assert star == _brute_sd(P, Q, sd, metric)
            assert matching_value(r.matching) == sd.target
            assert all(_DIST[metric](P[p], Q[q]) <= star for p, q, _a in r.matching)


def _ints_only(values) -> bool:
    return all(type(v) is int or v == INF for v in values)


@pytest.mark.parametrize("metric", list(Metric))
def test_fractional_weights_reach_flows_and_finishes_as_ints(monkeypatch, metric):
    # fractional coordinates and weights: every max flow gets int
    # capacities and every minimax finish int supplies, demands and
    # amounts, and every box tree int coordinates; the witnesses and the
    # decisions' matchings still carry Fraction amounts
    seen = {"flows": 0, "finishes": 0, "trees": 0}
    dinitz, finish = bottleneck_mod.max_flow_dinitz, bottleneck_mod._minimax_finish

    def checked_dinitz(net, residual=None):
        assert _ints_only(net.ecap) and (residual is None or _ints_only(residual))
        seen["flows"] += 1
        return dinitz(net, residual)

    def checked_finish(near, sd, matching, bottom):
        assert _ints_only(sd.supplies + sd.demands)
        assert _ints_only(a for _p, _r, a in matching)
        seen["finishes"] += 1
        return finish(near, sd, matching, bottom)

    class CheckedTree(BoxTree):
        def __init__(self, coords, dim):
            assert _ints_only(c for t in coords for c in t)
            seen["trees"] += 1
            super().__init__(coords, dim)

    monkeypatch.setattr(bottleneck_mod, "max_flow_dinitz", checked_dinitz)
    monkeypatch.setattr(bottleneck_mod, "_minimax_finish", checked_finish)
    monkeypatch.setattr(bottleneck_mod, "BoxTree", CheckedTree)
    monkeypatch.setattr(cover_mod, "BoxTree", CheckedTree)
    rng = random.Random(51)
    for _ in range(16):
        P, Q = rand_pts(rng, rng.randrange(2, 9)), rand_pts(rng, rng.randrange(2, 9))
        sd = rand_sd(rng, len(P), len(Q), integral=False)
        r = bottleneck_search(P, Q, metric, sd=sd)
        star = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
        assert star == _brute_sd(P, Q, sd, metric)
        decided = decide(P, Q, metric, star, sd=sd, squared=metric is Metric.L2)
        for matching in (r.matching, decided.matching):
            assert all(type(a) is Fraction and a > 0 for _p, _q, a in matching)
            assert matching_value(matching) == sd.target
            assert all(_DIST[metric](P[p], Q[q]) <= star for p, q, _a in matching)
            for k, cap in enumerate(sd.supplies):
                assert sum(a for p, _q, a in matching if p == k) <= cap
            for k, cap in enumerate(sd.demands):
                assert sum(a for _p, q, a in matching if q == k) <= cap
    # box_cover reads float coordinates exactly, as int tuples too, even
    # where no coordinate is a Fraction
    pts = [Point((0.1, 2.5)), Point((0.25, -1.0)), Point((3, 0.30000000000000004))]
    boxes = [Box(Point((0.1, 0.3)), Point((1, 2.5))), Box(Point((0, -1)), Point((0.5, 0)))]
    assert validate_cover(box_cover(pts, boxes), pts, boxes).ok
    assert seen["flows"] and seen["finishes"]
    assert seen["trees"] == (1 if metric is Metric.L2 else 33)


def _log_gallop(monkeypatch) -> list:
    """Wrap ``_gallop``, the one decision loop of every search.  The list
    gets one dict per search: its start ``lb``, its cap ``ub`` and its
    ``decisions``, in order.  Each decision is a dict of the ``bound`` its
    grow step got and, from its max flow, whether it was ``feasible``, the
    flow's ``value`` and ``reached`` set, and ``edges``, the network's edges
    past the feeders and drains (for L2, the pairs within the bound)."""
    gallop, log = bottleneck_mod._gallop, []

    def logged_gallop(grow, sd, lam, ub):
        search = {"lb": lam, "ub": ub, "decisions": []}
        log.append(search)
        dinitz = bottleneck_mod.max_flow_dinitz

        def logged_grow(net, res, x):
            search["decisions"].append({"bound": x})
            return grow(net, res, x)

        def logged_dinitz(net, residual=None):
            flow = dinitz(net, residual)
            search["decisions"][-1].update(
                feasible=flow.value == sd.target,
                value=flow.value,
                reached=flow.reached,
                edges=net.edge_count - net.n_points - net.n_ranges,
            )
            return flow

        # only the gallop's max flows are logged, not those of a later decide
        bottleneck_mod.max_flow_dinitz = logged_dinitz
        try:
            return gallop(logged_grow, sd, lam, ub)
        finally:
            bottleneck_mod.max_flow_dinitz = dinitz

    monkeypatch.setattr(bottleneck_mod, "_gallop", logged_gallop)
    return log


def _bounds(search) -> list:
    return [d["bound"] for d in search["decisions"]]


def _verdicts(search) -> list:
    return [d["feasible"] for d in search["decisions"]]


@pytest.mark.parametrize("metric", list(Metric))
def test_warm_search_makes_as_many_decisions_as_cold(monkeypatch, metric):
    # A warm start changes no verdict and no minimum cut: the points and
    # ranges an infeasible decision's last BFS reaches are the same for every
    # maximum flow.  Each search's next bound depends on the last verdict
    # only, and the search ends at its first feasible decision, so the warm
    # and cold searches decide the same bounds with the same verdicts and
    # cuts; only the last, feasible decision's flow may differ.  The cold
    # search starts every max flow from the empty flow: the grown network's
    # residual is reset to the network's capacities.  Where the first
    # decision, at the Hall start, is infeasible, the next one continues a
    # warm flow.
    dinitz = bottleneck_mod.max_flow_dinitz
    gallops = _log_gallop(monkeypatch)
    rng = random.Random(36)
    warmed = 0
    for _ in range(8):
        P, Q = rand_pts(rng, 12), rand_pts(rng, 12)
        runs = []
        for cold in (False, True):
            seeded, steps = [], []

            def counted(net, residual=None):
                seeded.append(residual is not None and any(v > 0 for v in residual[1::2]))
                if cold and residual is not None:
                    residual[:] = net.ecap
                flow = dinitz(net, residual)
                if not cold:
                    assert flow.value == dinitz(net).value
                x = gallops[-1]["decisions"][-1]["bound"]
                steps.append((x, flow.value == 12, None if flow.value == 12 else flow.reached))
                return flow

            monkeypatch.setattr(bottleneck_mod, "max_flow_dinitz", counted)
            r = bottleneck_search(P, Q, metric)
            runs.append((r.lambda_star_sq if metric is Metric.L2 else r.lambda_star, seeded, steps))
        (warm_star, warm_seeded, warm_steps), (cold_star, _cold_seeded, cold_steps) = runs
        assert warm_star == cold_star
        assert warm_steps == cold_steps
        verdicts = [verdict for _x, verdict, _cut in warm_steps]
        assert verdicts == [False] * (len(verdicts) - 1) + [True]
        warmed += any(warm_seeded)
    assert warmed > 2


def _count_finishes(monkeypatch) -> list:
    """Wrap the minimax finish; the list gets one entry per call."""
    finish, calls = bottleneck_mod._minimax_finish, []

    def counted(*args):
        calls.append(1)
        return finish(*args)

    monkeypatch.setattr(bottleneck_mod, "_minimax_finish", counted)
    return calls


@pytest.mark.parametrize("metric", list(Metric))
def test_finished_search_matches_brute_force_many_to_many(monkeypatch, metric):
    finishes = _count_finishes(monkeypatch)
    rng = random.Random(47)
    early = None
    for t in range(80):
        if t == 40:
            early = len(finishes)
        P, Q = rand_pts(rng, rng.randrange(1, 13)), rand_pts(rng, rng.randrange(1, 13))
        sd = rand_sd(rng, len(P), len(Q), integral=t % 2 == 0, max_w=3)
        r = bottleneck_search(P, Q, metric, sd=sd)
        star = r.lambda_star_sq if metric is Metric.L2 else r.lambda_star
        assert star == _brute_sd(P, Q, sd, metric)
        assert matching_value(r.matching) == sd.target
        used, met = [0] * len(P), [0] * len(Q)
        assert len({(p, q) for p, q, _a in r.matching}) == len(r.matching)
        for p, q, a in r.matching:
            assert a > 0 and _DIST[metric](P[p], Q[q]) <= star
            used[p] += a
            met[q] += a
        assert all(u <= s for u, s in zip(used, sd.supplies))
        assert all(m <= d for m, d in zip(met, sd.demands))
    # the first 40 instances hold the L-infinity and L1 floor; L2 finishes
    # less often and is held over all 80
    assert (len(finishes) if metric is Metric.L2 else early) > 20


def test_minimax_finish_reroutes_through_a_backward_edge():
    # M holds (0, 0).  Point 1 reaches range 1 directly only at 10; at 3 it
    # takes range 0 and sends point 0 on to range 1 along its backward edge.
    # Ranges 0 and 1 are vertices 2 and 3.
    near = [[(1, 2), (2, 3)], [(3, 2), (10, 3)]]
    finish = bottleneck_mod._minimax_finish
    assert finish(near, SupplyDemand.unit(2, 2), [(0, 0, 1)], 1) == (3, [(0, 1, 1), (1, 0, 1)])
    # halves: the first path ends at range 0's unmet half, the second pushes
    # only the half that point 0 sends back from range 0
    M = [(0, 0, Fraction(1, 2)), (0, 1, Fraction(1, 2))]
    assert finish(near, SupplyDemand.unit(2, 2), M, 1) == (3, [(0, 1, 1), (1, 0, 1)])


def test_minimax_finish_through_the_hub_goes_back_from_a_column_to_a_row():
    # Diagram rows: point 0 of X and the projection of Y's one point (row
    # 1), then the hub point 2; columns: Y's point (vertex 3), the projection
    # of X's point (vertex 4), then the hub range (vertex 5).  The first path
    # sends row 1 through the hub to column 4 at 0.  Point 0 reaches only
    # column 4, at 5, so the second path must take the hub point back from
    # column 4, step to the hub range and back to row 1, which moves on to
    # its own point at 2.
    near = [[(5, 4)], [(2, 3), (0, 5)], [(0, 4), (0, 5)]]
    finish = bottleneck_mod._minimax_finish
    lam, witness = finish(near, SupplyDemand.unit(2, 2), [], 0, hub=True)
    assert lam == 5
    # row 1 to its point, point 0 to its projection; the hub keeps only its
    # own INF
    assert witness == [(0, 1, 1), (1, 0, 1), (2, 2, INF)]


def test_minimax_finish_refuses_a_short_pair_list():
    finish = bottleneck_mod._minimax_finish
    with pytest.raises(InternalError, match="do not reach the target"):
        finish([[(1, 2), (2, 3)], []], SupplyDemand.unit(2, 2), [(0, 0, 1)], 1)
    with pytest.raises(InternalError):
        finish([[]], SupplyDemand.unit(1, 1), [], -1)


def _count_tree_queries(monkeypatch) -> list:
    """Wrap ``BoxTree.parts``, the cover query of every decision of a
    gallop; the list gets one entry per query."""
    parts, calls = BoxTree.parts, []

    def counted(*args):
        calls.append(1)
        return parts(*args)

    monkeypatch.setattr(BoxTree, "parts", counted)
    return calls


def _count_built(monkeypatch) -> dict:
    """Count the networks and the covers made by the bottleneck module."""
    built = {"networks": 0, "covers": 0}

    def counted(kind, make):
        def made(*args, **kwargs):
            built[kind] += 1
            return make(*args, **kwargs)

        return made

    monkeypatch.setattr(bottleneck_mod, "build_network", counted("networks", bottleneck_mod.build_network))
    monkeypatch.setattr(bottleneck_mod, "BicliqueCover", counted("covers", bottleneck_mod.BicliqueCover))
    return built


@pytest.mark.parametrize("kind", [Metric.LINF, Metric.L1, Metric.L2, "diagram"])
def test_search_decides_only_when_asked(monkeypatch, kind):
    # every search builds one network and grows it per decision
    gallops, queries = _log_gallop(monkeypatch), _count_tree_queries(monkeypatch)
    built = _count_built(monkeypatch)
    rng = random.Random(28)
    if kind == "diagram":
        X = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fractions(rng, 8)]
        Y = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fractions(rng, 8)]
        assert pd_bottleneck(X, Y) == pd_brute(X, Y)
    else:
        P, Q = rand_pts(rng, 8), rand_pts(rng, 8)
        r = bottleneck_search(P, Q, kind)
        assert len(r.matching) == 8
    assert built["networks"] == 1
    (search,) = gallops
    bounds = _bounds(search)
    assert bounds and bounds == sorted(set(bounds))
    if kind is Metric.L2:
        # the L2 search asks by growing its network by pairs: every max
        # flow is a decision at a prefix of the sorted pairs that no earlier
        # verdict settles, and it builds no cover per decision
        assert built["covers"] == 1
        ranks = [d["edges"] for d in search["decisions"]]
        assert ranks and len(set(ranks)) == len(ranks)
        lo, hi = 0, 64
        for k, feasible in zip(ranks, _verdicts(search)):
            assert lo < k < hi or k == hi == 64
            if feasible:
                hi = k
            else:
                lo = k
        return
    # every decision of the gallop queries the search's one tree once, at a
    # larger bound than the last, and the finish queries none
    assert len(queries) == len(bounds)


def _int_grid_cases(rng, count):
    """Tie-heavy planar instances: int points on small grids (and a few
    sparser ones), with repeated points, and a many-to-many ``SupplyDemand`` with fractional amounts in
    every other case."""
    cases = []
    for t in range(count):
        n, m = rng.randrange(1, 10), rng.randrange(1, 10)
        side = rng.choice((1, 2, 3, 12))
        grid = lambda k: [Point((rng.randrange(side + 1), rng.randrange(side + 1))) for _ in range(k)]
        P, Q = grid(n), grid(m)
        P += rng.sample(P, rng.randrange(len(P)))  # duplicates
        if t % 2:
            sd = rand_sd(rng, len(P), len(Q), integral=False)
        else:
            Q = Q[: len(P)] + grid(len(P) - len(Q))
            sd = None
        cases.append((P, Q, sd))
    return cases


def _weight_unit(sd: SupplyDemand) -> int:
    """The int that a search multiplies the supplies and demands of ``sd``
    by, and so the values of its max flows: the LCM of their denominators."""
    return math.lcm(*(Fraction(w).denominator for w in sd.supplies + sd.demands))


def test_grown_search_decisions_match_cold_decisions(monkeypatch):
    gallops = _log_gallop(monkeypatch)
    rng = random.Random(44)
    jumps = 0
    for P, Q, sd in _int_grid_cases(rng, 60):
        gallops.clear()
        r = bottleneck_search(P, Q, Metric.L2, sd=sd)
        (search,) = gallops
        full = sd or SupplyDemand.unit(len(P), len(Q))
        # int points need no scaling: the search's squares are the inputs'
        dist = sorted(l2sq(p, q) for p in P for q in Q)
        # the search's flows run on the scaled weights
        unit = _weight_unit(full)
        # the cold decisions below log nothing
        for k, value, (S, T) in [(d["edges"], d["value"], d["reached"]) for d in search["decisions"]]:
            # every decision ends a tie group, so a cold decision at its
            # distance has the same incidences and must give the same verdict
            assert k == len(dist) or dist[k] > dist[k - 1]
            feasible = value == full.target * unit
            assert decide(P, Q, Metric.L2, dist[k - 1], sd=sd, squared=True).feasible == feasible
            if feasible:
                continue
            # the reached set is a minimum cut ...
            out_s = [i for i in range(len(P)) if i not in S]
            cut = sum(full.supplies[i] for i in out_s) + sum(full.demands[j] for j in T)
            assert value == cut * unit
            # ... that stands below the nearest pair crossing it, so the
            # bound just below that pair's distance is infeasible cold
            cross = min(l2sq(P[i], Q[j]) for i in S for j in range(len(Q)) if j not in T)
            below = max(d for d in dist if d < cross)
            assert below >= dist[k - 1]
            assert not decide(P, Q, Metric.L2, below, sd=sd, squared=True).feasible
            jumps += below > dist[k - 1]
        assert r.lambda_star_sq == _brute_sd(P, Q, full, Metric.L2)
    assert jumps > 5


def test_grown_search_matches_brute_force_on_ties():
    rng = random.Random(45)
    for P, Q, sd in _int_grid_cases(rng, 80):
        r = bottleneck_search(P, Q, Metric.L2, sd=sd)
        full = sd or SupplyDemand.unit(len(P), len(Q))
        assert r.lambda_star_sq == _brute_sd(P, Q, full, Metric.L2)
        used, met = [0] * len(P), [0] * len(Q)
        assert len({(p, q) for p, q, _a in r.matching}) == len(r.matching)
        for p, q, a in r.matching:
            assert a > 0 and l2sq(P[p], Q[q]) <= r.lambda_star_sq
            used[p] += a
            met[q] += a
        assert all(u <= s for u, s in zip(used, full.supplies))
        assert all(m <= d for m, d in zip(met, full.demands))
        assert matching_value(r.matching) == full.target


def test_grown_search_decides_nothing_below_its_hall_start(monkeypatch):
    gallops = _log_gallop(monkeypatch)
    rng = random.Random(48)
    for P, Q, sd in _int_grid_cases(rng, 60):
        gallops.clear()
        full = sd or SupplyDemand.unit(len(P), len(Q))
        start = _brute_hall_start(P, Q, l2sq, _brute_needs(full))
        dist = sorted(l2sq(p, q) for p in P for q in Q)
        r = bottleneck_search(P, Q, Metric.L2, sd=sd)
        # no bound below the Hall start is feasible
        assert r.lambda_star_sq >= start
        (search,) = gallops
        ranks = [d["edges"] for d in search["decisions"]]
        # the first decision holds every pair within the Hall start, and
        # each later one holds at least as many
        assert ranks[0] == bisect_right(dist, start)
        assert ranks == sorted(ranks)


def test_grown_search_ends_at_its_first_feasible_decision(monkeypatch):
    # fractional many-to-many instances: every decision but the last is
    # infeasible
    gallops = _log_gallop(monkeypatch)
    rng = random.Random(50)
    galloped = 0
    for _ in range(40):
        P, Q = rand_pts(rng, rng.randrange(1, 10)), rand_pts(rng, rng.randrange(1, 10))
        sd = rand_sd(rng, len(P), len(Q), integral=False)
        gallops.clear()
        r = bottleneck_search(P, Q, Metric.L2, sd=sd)
        # the search's flows run on the scaled weights
        target = sd.target * _weight_unit(sd)
        (search,) = gallops
        values = [d["value"] for d in search["decisions"]]
        assert values[-1] == target
        assert all(value < target for value in values[:-1])
        galloped += len(values) > 2
        assert r.lambda_star_sq == _brute_sd(P, Q, sd, Metric.L2)
    assert galloped > 10


def _unbalanced_cases(rng, count):
    """Planar int instances whose totals differ, each with one point or
    range far from the rest that the smaller side does not need."""
    cases = []
    for t in range(count):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        P = [Point((rng.randrange(13), rng.randrange(13))) for _ in range(n)]
        Q = [Point((rng.randrange(13), rng.randrange(13))) for _ in range(m)]
        sup = [rng.randrange(1, 4) for _ in P]
        dem = [rng.randrange(1, 4) for _ in Q]
        far = Point((1000 + rng.randrange(13), 1000))
        if t % 2:  # supply falls short: a far range with demand to spare
            Q.append(far)
            dem.append(1)
            dem[0] += sum(sup)
        else:  # demand falls short: a far point with supply to spare
            P.append(far)
            sup.append(1)
            sup[0] += sum(dem)
        cases.append((P, Q, SupplyDemand(tuple(sup), tuple(dem))))
    return cases


def test_grown_search_matches_brute_force_on_unbalanced_totals():
    # the unneeded far point or range has no near pair, so a search that
    # waited for it would start, and end, at its distance
    rng = random.Random(49)
    for P, Q, sd in _unbalanced_cases(rng, 40):
        assert sum(sd.supplies) != sum(sd.demands)
        r = bottleneck_search(P, Q, Metric.L2, sd=sd)
        star = _brute_sd(P, Q, sd, Metric.L2)
        assert r.lambda_star_sq == star < 1000**2
        assert matching_value(r.matching) == sd.target
        assert all(a > 0 and l2sq(P[p], Q[q]) <= star for p, q, a in r.matching)
    # a point needs a pair when the others cannot make up its supply: of
    # a demand of 2, point 1 ships at most 1 and far point 0 the rest
    P, Q = [Point((0, 0)), Point((4, 0))], [Point((5, 0))]
    r = bottleneck_search(P, Q, Metric.L2, sd=SupplyDemand((3, 1), (2,)))
    assert r.lambda_star_sq == 25 and matching_value(r.matching) == 2
    r = bottleneck_search(P, Q, Metric.L2, sd=SupplyDemand((3, 1), (1,)))
    assert r.lambda_star_sq == 1 and r.matching == [(1, 0, 1)]


def test_pd_decides_only_when_asked(monkeypatch):
    gallops, queries = _log_gallop(monkeypatch), _count_tree_queries(monkeypatch)
    rng = random.Random(29)
    for _ in range(6):
        X = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 9)]
        Y = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 9)]
        gallops.clear()
        queries.clear()
        assert pd_bottleneck(X, Y) == pd_brute(X, Y)
        if not X and not Y:
            assert not gallops and not queries
            continue
        bounds = _bounds(gallops[0])
        assert len(gallops) == 1 and bounds
        assert len(queries) == len(bounds)
        assert bounds == sorted(set(bounds))


def _rebuilt_runs(monkeypatch, run) -> list:
    """``run()`` twice: with the search's one tree, and with every
    decision's cover rebuilt from scratch by the recursive reference tree.
    Each entry is (result, decisions made)."""
    helper = bottleneck_mod._box_cover

    def rebuilt(tree, centres, lam, sd, extra_parts=()):
        lows = [tuple(c - lam for c in q) for q in centres]
        highs = [tuple(c + lam for c in q) for q in centres]
        parts = range_tree_parts(tree.coords, lows, highs, tree.dim) + list(extra_parts)
        return BicliqueCover(len(sd.supplies), len(sd.demands), parts)

    runs = []
    for cover in (helper, rebuilt):
        made = []

        def counted(*args, **kwargs):
            made.append(1)
            return cover(*args, **kwargs)

        monkeypatch.setattr(bottleneck_mod, "_box_cover", counted)
        runs.append((run(), len(made)))
    return runs


@pytest.mark.parametrize("metric", [Metric.LINF, Metric.L1])
def test_search_on_one_tree_matches_rebuilt_covers(monkeypatch, metric):
    rng = random.Random(38)
    for _ in range(10):
        n = rng.randrange(1, 12)
        P, Q = rand_pts(rng, n), rand_pts(rng, n)
        sd = rand_sd(rng, n, n, integral=False) if rng.random() < 0.3 else None
        (tree, made), (ref, ref_made) = _rebuilt_runs(
            monkeypatch, lambda: bottleneck_search(P, Q, metric, sd=sd)
        )
        assert made == ref_made > 0
        assert tree.lambda_star == ref.lambda_star
        assert tree.matching == ref.matching


def test_pd_on_one_tree_matches_rebuilt_covers(monkeypatch):
    rng = random.Random(39)
    for _ in range(10):
        X = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 9)]
        Y = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 9)]
        (tree, made), (ref, ref_made) = _rebuilt_runs(monkeypatch, lambda: pd_bottleneck(X, Y))
        assert made == ref_made
        assert tree == ref


def _int_pts(rng, n, d=2, side=12):
    """n points of int coordinates in [0, side]^d: the search reads them
    unscaled, so its bounds are the inputs' distances."""
    return [Point(tuple(rng.randrange(side + 1) for _ in range(d))) for _ in range(n)]


def _int_diagram(rng, n, span=2):
    births = [rng.randrange(-span, span + 1) for _ in range(n)]
    return [(b, b + rng.randrange(1, 9)) for b in births]


def _brute_needs(sd) -> list:
    """Per point, then per range, whether the others' weights fall short of
    the target without it."""
    supply, demand = sum(sd.supplies), sum(sd.demands)
    return [s > supply - sd.target for s in sd.supplies] + [
        x > demand - sd.target for x in sd.demands
    ]


def _brute_hall_start(P, Q, dist, needs) -> int:
    """The largest, over the points of P and Q that must carry flow, of the
    distance to the nearest point of the other set."""
    sides = [(p, Q) for p in P] + [(q, P) for q in Q]
    return max(
        (min(dist(p, o) for o in other) for (p, other), need in zip(sides, needs) if need),
        default=0,
    )


@pytest.mark.parametrize("kind", [Metric.LINF, Metric.L1, Metric.L2, "diagram"])
def test_gallop_starts_at_the_hall_start_and_doubles(monkeypatch, kind):
    gallops = _log_gallop(monkeypatch)
    rng = random.Random(52)
    galloped = 0
    for t in range(60):
        gallops.clear()
        if kind == "diagram":
            X, Y = _int_diagram(rng, rng.randrange(1, 9)), _int_diagram(rng, rng.randrange(0, 9))
            star, want = pd_bottleneck(X, Y), pd_brute(X, Y)
            lb, ub = _pd_bracket(X, Y)
        else:
            d = 1 + t % 3 if kind is Metric.LINF else 2
            n = rng.randrange(1, 10)
            P, Q = _int_pts(rng, n, d), _int_pts(rng, n if t % 3 else rng.randrange(1, 10), d)
            sd = None if t % 3 else rand_sd(rng, len(P), len(Q), integral=t % 2 == 0, max_w=3)
            full = sd or SupplyDemand.unit(len(P), len(Q))
            r = bottleneck_search(P, Q, kind, sd=sd)
            star = r.lambda_star_sq if kind is Metric.L2 else r.lambda_star
            want = _brute_sd(P, Q, full, kind)
            lb = _brute_hall_start(P, Q, _DIST[kind], _brute_needs(full))
            dist = sorted(_DIST[kind](p, q) for p in P for q in Q)
            # L2 caps at the largest squared distance; L-infinity and L1 at
            # the largest extent along one axis, of the rotated points for L1
            pts = [rotate45(p) if kind is Metric.L1 else p for p in P + Q]
            ub = dist[-1] if kind is Metric.L2 else max(max(c) - min(c) for c in zip(*pts))
            assert dist[-1] <= ub
        assert star == want
        # int inputs: the search's unit is 1 for points, 1/2 for diagrams
        unit = Fraction(1, 2) if kind == "diagram" else 1
        (search,) = gallops
        assert search["lb"] * unit == lb and search["ub"] * unit == ub
        bounds, verdicts = _bounds(search), _verdicts(search)
        # the first decision is at lb and each next one at twice the last
        # plus one, capped at ub
        assert bounds[0] == search["lb"]
        assert all(y == min(2 * x + 1, search["ub"]) for x, y in zip(bounds, bounds[1:]))
        if kind is Metric.L2:
            # the grown network of decision t holds exactly the pairs within bound t
            ranks = [d["edges"] for d in search["decisions"]]
            assert ranks == [bisect_right(dist, x) for x in bounds]
        # every decision but the last is infeasible
        assert verdicts == [False] * (len(bounds) - 1) + [True]
        assert all(x * unit < star for x in bounds[:-1]) and bounds[-1] * unit >= star
        galloped += len(bounds) > 1
    assert galloped > 10


def test_hall_start_scan_matches_brute_force_nearest_partners():
    hall = bottleneck_mod._hall_start
    rng = random.Random(53)
    for t in range(240):
        side = rng.choice((1, 2, 3, 40))
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        if t % 4 == 3:
            # L1: the search scans the points rotated onto L-infinity
            P, Q = _int_pts(rng, n, 2, side), _int_pts(rng, m, 2, side)
            Q += rng.sample(P, rng.randrange(len(P) + 1))  # coincident points
            rot = lambda pts: [(x + y, x - y) for x, y in (p.coords for p in pts)]
            pp, qq, dist = rot(P), rot(Q), _DIST[Metric.L1]
        else:
            # L-infinity in 1-3 dimensions, ties on small grids
            P, Q = _int_pts(rng, n, 1 + t % 4, side), _int_pts(rng, m, 1 + t % 4, side)
            Q += rng.sample(P, rng.randrange(len(P) + 1))
            pp, qq, dist = [p.coords for p in P], [q.coords for q in Q], linf
        # a perfect matching or many-to-many weights, often unbalanced
        if len(P) == len(Q) and t % 2:
            sd = SupplyDemand.unit(len(P), len(Q))
        else:
            sd = rand_sd(rng, len(P), len(Q), max_w=4)
        needs = bottleneck_mod._needs(sd)
        assert needs == _brute_needs(sd)
        caps = [INF if need else 0 for need in needs]
        assert hall(pp, qq, caps) == _brute_hall_start(P, Q, dist, needs)
    # diagrams: every point, capped at its distance to the diagonal
    for _ in range(60):
        X, Y = _int_diagram(rng, rng.randrange(1, 9)), _int_diagram(rng, rng.randrange(0, 9))
        Y += rng.sample(X, rng.randrange(len(X) + 1))
        pts = [(2 * b, 2 * d) for b, d in X + Y]
        to_diagonal = [d - b for b, d in X + Y]
        lb = hall(pts[: len(X)], pts[len(X) :], to_diagonal)
        assert Fraction(lb, 2) == _pd_bracket(X, Y)[0]


# ------------------------------------------------------------------ diagrams

def test_diagram_validation():
    with pytest.raises(InputError):
        PersistenceDiagram(((1, 1),))
    with pytest.raises(InputError):
        PersistenceDiagram(((2, 1),))
    assert len(PersistenceDiagram(((1, 3), (0, 1)))) == 2


def test_pd_single_point_vs_empty():
    v = pd_bottleneck([(1, 3)], [])
    assert v == 1
    assert isinstance(v, Fraction)


def test_pd_empty_and_identical():
    assert pd_bottleneck([], []) == 0
    dgm = [(Fraction(1), Fraction(3)), (Fraction(2), Fraction(9, 2))]
    assert pd_bottleneck(dgm, dgm) == 0


def test_pd_symmetry():
    rng = random.Random(23)
    for _ in range(8):
        X = [(b, b + rand_fraction(rng, 1, 9)) for b in rand_fraction_list(rng, 5)]
        Y = [(b, b + rand_fraction(rng, 1, 9)) for b in rand_fraction_list(rng, 4)]
        assert pd_bottleneck(X, Y) == pd_bottleneck(Y, X)


def rand_fractions(rng, n, span=10):
    return [rand_fraction(rng, -span, span) for _ in range(n)]


def rand_fraction_list(rng, n):
    return rand_fractions(rng, rng.randrange(0, n))


def test_pd_matches_brute_force():
    rng = random.Random(24)
    for _ in range(15):
        X = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 7)]
        Y = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 7)]
        assert pd_bottleneck(X, Y) == pd_brute(X, Y)


def _pd_bracket(X, Y):
    """(lb, ub) of the diagram search, by brute force: ub is the largest
    distance to the diagonal, lb the largest over every point of the smaller
    of that distance and the distance to the other diagram's nearest point."""
    to_diagonal = lambda p: Fraction(p[1] - p[0], 2)
    ub = max(map(to_diagonal, X + Y))
    lb = max(
        min([to_diagonal(p)] + [linf(p, q) for q in other])
        for pts, other in ((X, Y), (Y, X))
        for p in pts
    )
    return lb, ub


def test_pd_search_decides_inside_its_bracket(monkeypatch):
    rng = random.Random(31)
    crowded = lambda k: [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fractions(rng, k, 2)]
    equal_births = lambda k: [(0, rand_fraction(rng, 1, 6)) for _ in range(k)]
    equal_deaths = lambda k: [(b, 4) for b in rand_fractions(rng, k, 3)]
    cases = []
    for _ in range(8):
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        X = crowded(n)
        cases += [
            (X, crowded(m)),
            (X, []),
            (X, list(X)),
            # far apart: every point goes to the diagonal
            (X, [(b + 100, d + 100) for b, d in crowded(m)]),
            (equal_births(n), equal_births(m)),
            (equal_deaths(n), equal_deaths(m)),
        ]
    gallops = _log_gallop(monkeypatch)
    at = {"lb": 0, "ub": 0, "inside": 0}
    for X, Y in cases:
        gallops.clear()
        star = pd_bottleneck(X, Y)
        assert star == pd_brute(X, Y)
        lb, ub = _pd_bracket(X, Y)
        (search,) = gallops
        # the search runs on ints: its unit is a fixed fraction of the input's
        unit = ub / search["ub"]
        assert search["lb"] * unit == lb
        # every decision lies in [lb, ub], and ub is feasible by construction
        bounds = [x * unit for x in _bounds(search)]
        assert bounds[0] == lb and all(lb <= x <= ub for x in bounds)
        assert lb <= star <= ub
        at["lb" if star == lb else "ub" if star == ub else "inside"] += 1
    assert all(at.values()), at


def test_pd_scaled_inputs_match_brute_force():
    rng = random.Random(26)

    def odd_sums(n):
        # integer births and deaths whose diagonal projections are halves
        return [(b, b + 2 * rng.randrange(0, 4) + 1) for b in rng.sample(range(-9, 9), n)]

    def thirds_and_sevenths(n):
        return [
            (b, b + rand_fraction(rng, 1, 4, dens=(7,)))
            for b in (rand_fraction(rng, -5, 5, dens=(3,)) for _ in range(n))
        ]

    for make in (odd_sums, thirds_and_sevenths):
        for _ in range(8):
            X, Y = make(rng.randrange(1, 7)), make(rng.randrange(0, 7))
            v = pd_bottleneck(X, Y)
            assert v == pd_brute(X, Y)
            assert type(v) is Fraction


def test_pd_covers_compare_ints(monkeypatch):
    calls = []

    def ints(tuples):
        return all(type(c) is int for t in tuples for c in t)

    class IntOnlyTree(BoxTree):
        def __init__(self, coords, dim):
            assert ints(coords)
            super().__init__(coords, dim)

        def parts(self, lows, highs):
            assert ints(lows) and ints(highs)
            calls.append(len(lows))
            return super().parts(lows, highs)

    monkeypatch.setattr(bottleneck_mod, "BoxTree", IntOnlyTree)
    X = [(Fraction(1, 3), Fraction(9, 7)), (Fraction(-2, 3), Fraction(1, 2))]
    Y = [(Fraction(1, 7), Fraction(5, 3)), (0, Fraction(1, 100))]
    assert pd_bottleneck(X, Y) == pd_brute(X, Y)
    assert calls


def test_pd_float_mode_matches_rational():
    rng = random.Random(27)
    for _ in range(8):
        X = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 7)]
        Y = [(b, b + rand_fraction(rng, 1, 8)) for b in rand_fraction_list(rng, 7)]
        exact = pd_bottleneck(X, Y)
        as_float = lambda dgm: [(float(b), float(d)) for b, d in dgm]
        floats = pd_bottleneck(as_float(X), as_float(Y))
        as_exact = lambda dgm: [(Fraction(b), Fraction(d)) for b, d in dgm]
        assert floats == pd_bottleneck(as_exact(as_float(X)), as_exact(as_float(Y)))
        assert float(floats) == pytest.approx(float(exact))


def test_pd_float_mode_searches_exactly():
    # candidates and box bounds computed in floats round, and a float search
    # over these diagrams returns 2.1
    X = [(-3.4, -0.7), (0.2, 5.5)]
    Y = [(2.2, 6.4), (1.8, 4.2)]
    exact = lambda dgm: [(Fraction(b), Fraction(d)) for b, d in dgm]
    want = pd_brute(exact(X), exact(Y))
    assert float(want) == 2.0
    assert pd_bottleneck(X, Y) == want


def test_pd_triangle_inequality_soft():
    rng = random.Random(25)
    for _ in range(6):
        dgms = [
            [(b, b + rand_fraction(rng, 1, 6)) for b in rand_fraction_list(rng, 5)]
            for _ in range(3)
        ]
        d01 = float(pd_bottleneck(dgms[0], dgms[1]))
        d12 = float(pd_bottleneck(dgms[1], dgms[2]))
        d02 = float(pd_bottleneck(dgms[0], dgms[2]))
        assert d02 <= d01 + d12 + 1e-9


def _check_diagram_pairs(monkeypatch) -> list:
    """Wrap the diagram finish's pair lists: check that none pairs a
    projection with a projection, and that the hub is there exactly when
    both diagrams have points.  The list gets one entry per finish, whether
    it ran with the hub."""
    pairs_within, finish, hubs = (
        bottleneck_mod._diagram_pairs_within, bottleneck_mod._minimax_finish, []
    )

    def checked(cover, pts, to_diagonal, nx, hi):
        near = pairs_within(cover, pts, to_diagonal, nx, hi)
        n, ny = len(pts), len(pts) - nx
        hub = nx > 0 and ny > 0
        np_ = n + hub
        assert len(near) == np_
        # projection rows list their own point and the hub range only
        for k in range(nx, n):
            assert all(v - np_ == k - nx or (hub and v - np_ == n) for _d, v in near[k])
        # rows of X list points of Y and their own projection only
        for k in range(nx):
            assert all(v - np_ < ny or v - np_ == ny + k for _d, v in near[k])
        assert all(d <= hi for row in near for d, _v in row)
        if hub:
            # the hub point lists every projection column and the hub range
            assert near[n] == [(0, np_ + c) for c in range(ny, n + 1)]
        return near

    def counted(near, sd, matching, bottom, hub=False):
        hubs.append(hub)
        return finish(near, sd, matching, bottom, hub)

    monkeypatch.setattr(bottleneck_mod, "_diagram_pairs_within", checked)
    monkeypatch.setattr(bottleneck_mod, "_minimax_finish", counted)
    return hubs


def test_pd_finish_through_the_hub_matches_brute_force(monkeypatch):
    hubs = _check_diagram_pairs(monkeypatch)
    rng = random.Random(54)
    dgm = lambda: [
        (b, b + rand_fraction(rng, 1, 8)) for b in rand_fractions(rng, rng.randrange(1, 10), 3)
    ]
    for t in range(80):
        X, Y = dgm(), dgm()
        if t % 4 == 0:
            Y += rng.sample(X, rng.randrange(len(X) + 1))
        assert pd_bottleneck(X, Y) == pd_brute(X, Y)
    assert all(hubs) and len(hubs) > 20


def test_pd_pairs_within_one_empty_diagram():
    # no hub: one row per point and one per projection, as the cover's
    # rows; each lists its own partner within hi only
    X = [(0, 2), (1, 7), (3, 4)]
    pts = [(2 * b, 2 * d) for b, d in X]
    to_diagonal = [d - b for b, d in X]
    own = BicliqueCover(3, 3, [([i], [i]) for i in range(3)])
    for nx, want in ((3, [[(2, 3)], [], [(1, 5)]]), (0, [[(2, 3)], [], [(1, 5)]])):
        # with Y = X and X empty, projection row k lists point k
        near = bottleneck_mod._diagram_pairs_within(own, pts, to_diagonal, nx, 4)
        assert near == want
    # the finish over them: points 0 and 2 take their projections, and the
    # one left needs its own at 6
    near = bottleneck_mod._diagram_pairs_within(own, pts, to_diagonal, 3, 6)
    finish = bottleneck_mod._minimax_finish
    assert finish(near, SupplyDemand.unit(3, 3), [(0, 0, 1), (2, 2, 1)], 4)[0] == 6
    assert pd_bottleneck(X, []) == pd_bottleneck([], X) == 3


@pytest.mark.parametrize("kind", [Metric.LINF, Metric.L1, "diagram"])
def test_search_whose_hall_start_is_zero_but_infeasible(monkeypatch, kind):
    # every point coincides with one of the other side, but a and b come
    # twice on one side and once on the other
    gallops = _log_gallop(monkeypatch)
    a, b = (1, 4), (3, 9)
    if kind == "diagram":
        X, Y = [a, a, b], [a, b, b]
        assert pd_bottleneck(X, Y) == pd_brute(X, Y) > 0
    else:
        P, Q = [Point(a), Point(a), Point(b)], [Point(a), Point(b), Point(b)]
        r = bottleneck_search(P, Q, kind)
        assert r.lambda_star == bottleneck_brute(P, Q, kind) > 0
        assert matching_value(r.matching) == 3
    (search,) = gallops
    assert search["lb"] == 0
    assert _bounds(search)[:2] == [0, 1] and _verdicts(search)[:2] == [False, False]
