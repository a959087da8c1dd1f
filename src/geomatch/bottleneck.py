"""Bottleneck matching distances between point sets, and the bottleneck
distance between persistence diagrams.

Every decision and search first reads both point sets as int coordinate
tuples: floats exactly, every coordinate scaled by one positive int, and L1
rotated by 45 degrees onto L-infinity.  L-infinity takes points of any one
dimension; L1 and L2 take planar points.  Supplies and demands are read as
ints too, all multiplied by one positive int, so every amount a search adds
or compares is an int; the witness's amounts are divided back once, at the
end.  Each decision covers the incidences between one side and the metric
balls around the other (a box tree for L-infinity and L1) and asks the flow
module whether the target value is reached.

Every search has one shape: a Hall start, a gallop and a minimax finish.
The Hall start is a bound below which some point or range that must carry
flow has no partner at all.  The gallop (``_gallop``, the one decision loop)
decides there and, while a decision is infeasible, decides next at twice
its bound plus one, up to a cap within which every pair lies.  It grows one
flow network per search, and each decision's max flow continues the last
one's.  The first feasible decision's witness sets the upper end hi, its
own bottleneck.  If an earlier decision was infeasible, the search augments
that decision's flow to the target along minimax augmenting paths over the
pairs within hi, each path the one whose longest new pair is shortest (the
augmenting-path method for bottleneck assignment, Derigs-Zimmermann 1978;
Gabow-Tarjan 1988; Efrat-Itai-Katz 2001 in the plane).  The optimum is the
longest of those pairs and of the flow's bound, and the augmented flow is
its witness.

L-infinity, L1 and diagrams gallop on value bounds, each decision querying
one box tree built per search; the network keeps the edges that carry flow
and gains the whole cover at each bound (``_regrow``).  L2 gallops on
squared distances, so the decisions stay exact: it lists the n*m squared
distances once and its network grows by the pairs within each decision's
bound (``_grown_search``).  L-infinity and L1 cap the gallop at the largest
extent of the points along one axis.  A diagram search caps it at the
largest distance of a point to the diagonal, feasible by sending every
point to its own projection, and its finish keeps the free part between
diagonal projections as one hub vertex (Kerber-Morozov-Nigmetov 2017 treat
the diagonal so).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from operator import sub

from .cover import BicliqueCover, BoxTree, disk_cover
from .flow import (
    INF,
    Matching,
    SupplyDemand,
    build_network,
    flow_to_matching,
    matching_value,
    max_flow_dinitz,
    project_flow,
    unscaled,
)
from .geometry import Metric, Point
from .numeric import InputError, InternalError, exact, float_sqrt, scaled_coords

def _as_point(p) -> Point:
    return p if isinstance(p, Point) else Point(tuple(p))


def _int_coords(Pset, Qset, metric: Metric, sd: SupplyDemand | None) -> tuple:
    """The set-up every decision and search shares: (pp, qq, sd, scale,
    wscale).  ``pp`` and ``qq`` hold the points as the int coordinate tuples
    of ``scaled_coords``, every coordinate multiplied by ``scale``, None when
    every input coordinate was an int already; L1 points are then rotated
    by 45 degrees, which turns L1 balls into L-infinity balls of the same
    radius.  Scaling every coordinate alike scales every distance alike, so
    no decision changes.  ``sd`` defaults to a perfect matching and comes
    back as the int weights of ``SupplyDemand.scaled``, every supply and
    demand multiplied by ``wscale``, None when every one was an int already;
    ``flow.unscaled`` divides a matching over them back."""
    P = [_as_point(p).coords for p in Pset]
    Q = [_as_point(q).coords for q in Qset]
    dims = {len(c) for c in P + Q}
    if len(dims) > 1:
        raise InputError("points disagree on dimension")
    if metric is not Metric.LINF and dims - {2}:
        raise InputError(f"{metric.value} takes planar points, not dimension {dims.pop()}")
    if sd is None:
        if len(P) != len(Q):
            raise InputError("perfect matching needs equal-size point sets")
        sd = SupplyDemand.unit(len(P), len(Q))
    elif (len(sd.supplies), len(sd.demands)) != (len(P), len(Q)):
        raise InputError(
            f"{len(sd.supplies)} supplies and {len(sd.demands)} demands "
            f"for {len(P)} and {len(Q)} points"
        )
    pts, scale = scaled_coords(P + Q)
    pp, qq = pts[: len(P)], pts[len(P) :]
    if metric is Metric.L1:
        pp = [(x + y, x - y) for x, y in pp]
        qq = [(x + y, x - y) for x, y in qq]
    sd, wscale = sd.scaled()
    return pp, qq, sd, scale, wscale


def _cover_at(pp, qq, metric: Metric, sd: SupplyDemand):
    """The cover of a decision as a function of its bound (its squared bound
    for L2), over the int tuples of ``_int_coords``.  L-infinity and L1
    query one box tree over pp, built here; L2 lists the pairs within each
    disk through ``disk_cover``."""
    if metric is Metric.L2:
        return lambda lam_sq: disk_cover(pp, qq, lam_sq)
    tree = BoxTree(pp, len(pp[0]) if pp else 1)
    return lambda lam: _box_cover(tree, qq, lam, sd)


@dataclass
class DecideResult:
    feasible: bool
    matching: Matching | None = None


def decide(
    Pset,
    Qset,
    metric: Metric,
    lam,
    *,
    sd: SupplyDemand | None = None,
    squared: bool = False,
) -> DecideResult:
    """Is there a matching of full target value using only pairs within
    distance lam?  Perfect matching by default; pass supplies/demands for the
    many-to-many variant.  With ``squared`` (L2 only) ``lam`` is taken as the
    squared radius, keeping the decision exact.  Float coordinates and
    bounds are read exactly.  The matching is returned only for a feasible
    decision.

    The bound is scaled as the coordinates are and rounded down to an int:
    every distance between int tuples (squared for L2) is an int, so the
    rounding drops no pair."""
    pp, qq, sd, scale, wscale = _int_coords(Pset, Qset, metric, sd)
    lam = exact(lam)
    if lam < 0:
        raise InputError("negative distance bound")
    if squared and metric is not Metric.L2:
        raise InputError("squared bounds apply to L2 only")
    if metric is Metric.L2 and not squared:
        lam *= lam
    if scale:
        lam *= scale * scale if metric is Metric.L2 else scale
    cover = _cover_at(pp, qq, metric, sd)(math.floor(lam))
    net = build_network(cover, sd)
    flow = max_flow_dinitz(net)
    if flow.value != sd.target:
        return DecideResult(False)
    return DecideResult(True, unscaled(flow_to_matching(flow, net, cover), wscale))


def _box_cover(tree, centres, lam, sd, extra_parts=()) -> BicliqueCover:
    """Cover of the incidences between the points of ``tree`` and the
    L-infinity balls of radius lam around the centres (coordinate tuples),
    plus ``extra_parts``: complete parts given by index lists that may reach
    rows and columns of ``sd`` past the points and the centres."""
    lows = [tuple(c - lam for c in q) for q in centres]
    highs = [tuple(c + lam for c in q) for q in centres]
    parts = tree.parts(lows, highs) + list(extra_parts)
    return BicliqueCover(len(sd.supplies), len(sd.demands), parts)


@dataclass
class BottleneckResult:
    lambda_star: object
    metric: Metric
    matching: Matching
    lambda_star_sq: object = None  # exact squared optimum, L2 only


def bottleneck_search(
    Pset,
    Qset,
    metric: Metric,
    *,
    sd: SupplyDemand | None = None,
) -> BottleneckResult:
    """Minimum lam such that decide(..., lam) is feasible, with a witness
    matching.  L-infinity and L1 gallop on value bounds from their Hall
    start over covers (``_cover_search``); L2, at every size, gallops on
    squared distances from its Hall start over its pairs
    (``_grown_search``).  Both end by minimax augmenting paths at their
    first feasible decision, unless it was the first one.
    The search decides, gallops and finishes on the scaled ints of
    ``_int_coords``, coordinates and weights alike, so the answer is exact
    on every input: an int for int coordinates and a ``Fraction`` for any
    other, and the witness's amounts ints for int weights and ``Fraction``s
    for any other.  The search draws nothing at random: equal inputs give
    equal outputs.

    An infeasible decision's maximum flow uses only pairs within its bound,
    so it is a feasible flow at every larger bound: each search grows one
    network and continues that flow's residual."""
    pp, qq, sd, scale, wscale = _int_coords(Pset, Qset, metric, sd)
    if not pp or not qq:
        sq = 0 if metric is Metric.L2 else None
        return BottleneckResult(0, metric, [], lambda_star_sq=sq)

    if metric is Metric.L2:
        lam, witness = _grown_search(pp, qq, sd)
    else:
        lam, witness = _cover_search(pp, qq, metric, sd)
    if scale:
        lam = Fraction(lam, scale * scale if metric is Metric.L2 else scale)
    witness = unscaled(witness, wscale)
    if metric is Metric.L2:
        return BottleneckResult(float_sqrt(lam), metric, witness, lambda_star_sq=lam)
    return BottleneckResult(lam, metric, witness)


def _cover_search(pp, qq, metric: Metric, sd: SupplyDemand) -> tuple:
    """(optimum, witness) of an L-infinity or L1 search: a ``_gallop`` of
    decisions over covers from ``_cover_at``, from the Hall start of the
    points and ranges that must carry flow, capped at the largest extent of
    the points along one axis, within which every pair lies.  The first
    feasible decision's witness has bottleneck hi.  If it was the first
    decision, hi is the optimum: no bound below the Hall start is feasible.
    Otherwise ``_minimax_finish`` augments the last infeasible decision's
    flow to the target over the pairs within hi, read off the feasible
    decision's cover; no further cover is queried."""
    lb = _hall_start(pp, qq, [INF if need else 0 for need in _needs(sd)])
    ub = max(max(axis) - min(axis) for axis in zip(*pp, *qq))
    cover, witness, seed, bottom = _gallop(_regrow(_cover_at(pp, qq, metric, sd)), sd, lb, ub)
    hi = max(_linf_dist(pp[p], qq[r]) for p, r, _a in witness)
    if bottom is None:
        return hi, witness
    return _minimax_finish(_pairs_within(cover.parts, pp, qq, hi), sd, seed, bottom)


def _regrow(cover_at):
    """The grow step of ``_gallop`` for a search over covers, ``cover_at``
    giving a decision's cover from its bound: the network keeps the edges
    that carry flow and gains the whole cover at the bound, which the step
    returns.  The pairs of the flow lie within an earlier, smaller bound,
    so the network holds the cover's pairs and no other."""

    def grow(net, res, lam):
        net.drop_idle(res)
        cover = cover_at(lam)
        net.add_parts(cover.parts)
        return cover

    return grow


def _gallop(grow, sd: SupplyDemand, lam, ub) -> tuple:
    """(grown, witness, seed, bottom) of the first feasible decision of a
    search that decides at lam, a bound below which none is feasible, and
    after each infeasible decision at twice its bound plus one, capped at
    ub, a bound known to be feasible; an infeasible decision at ub raises
    InternalError.

    The search grows one flow network, built here over no parts.  Before
    each decision, ``grow(net, res, lam)`` makes the network hold exactly
    the pairs within lam, given the residual ``res`` of the flow so far,
    and returns what the search's finish reads, ``grown`` for the last
    decision.  Each decision's max flow continues that residual.

    When the first decision is feasible, ``witness`` is its maximum
    matching and ``seed`` and ``bottom`` are None.  Otherwise a finish
    follows: ``witness`` holds the (point, range, amount) triples of the
    feasible flow, a pair perhaps more than once, and ``seed`` those of the
    last infeasible decision's maximum flow, decided at ``bottom``."""
    cover = BicliqueCover(len(sd.supplies), len(sd.demands), [])
    net = build_network(cover, sd)
    res = list(net.ecap)
    last = None
    while True:
        grown = grow(net, res, lam)
        res += net.ecap[len(res) :]
        flow = max_flow_dinitz(net, residual=res)
        if flow.value == sd.target:
            break
        if lam == ub:
            raise InternalError("every pair together falls short of the target")
        last, bottom = flow, lam
        lam = min(2 * lam + 1, ub)
    if last is None:
        return grown, flow_to_matching(flow, net, cover), None, None
    # edge ids stay as the network grows, so the last infeasible flow reads as it was
    return grown, project_flow(net, flow.values), project_flow(net, last.values), bottom


def _needs(sd: SupplyDemand) -> list:
    """Per point, then per range, whether it must carry flow: a point must
    when the other points' supplies fall short of the target, a range when
    the other ranges' demands do."""
    target, supply, demand = sd.target, sum(sd.supplies), sum(sd.demands)
    return [s > supply - target for s in sd.supplies] + [x > demand - target for x in sd.demands]


def _hall_start(pp, qq, caps) -> int:
    """The largest, over the points of pp then qq (int coordinate tuples),
    of the smaller of the point's cap ``caps[k]`` and its L-infinity
    distance to the nearest point of the other side.  A point that must
    carry flow, and whose only partners besides the other side's points lie
    at least its cap away, has no partner below that value, so no bound
    below the result is feasible.  The point searches pass INF for the
    points and ranges that must carry flow and 0, which never counts, for
    the rest; diagrams pass every point's distance to the diagonal.

    Points are taken in decreasing cap, until the cap cannot raise the
    bound.  Each scans the other side outward from its sorted position, one
    step on each side at a time; a side stops at a first-coordinate gap of
    the point's best value so far, and the scan stops once a partner within
    the bound turns up."""
    sides = (sorted(qq), sorted(pp))
    pts = [*pp, *qq]
    lb = 0
    for cap, k in sorted(zip(caps, range(len(pts))), reverse=True):
        if cap <= lb:
            break
        p = pts[k]
        other = sides[k >= len(pp)]
        best = cap
        right = bisect_left(other, p)
        left = right - 1
        while best > lb:
            moved = False
            if left >= 0 and p[0] - other[left][0] < best:
                best = min(best, _linf_dist(p, other[left]))
                left -= 1
                moved = True
            if right < len(other) and other[right][0] - p[0] < best:
                best = min(best, _linf_dist(p, other[right]))
                right += 1
                moved = True
            if not moved:
                break
        lb = max(lb, best)
    return lb


def _pairs_within(parts, pp, qq, hi, np_=None) -> list:
    """The pairs that the cover parts ``parts``, over the int tuples pp and
    qq, hold within L-infinity distance hi, as ``_minimax_finish`` reads
    them: per point p, a (distance, np_ + r) tuple for each such range r.
    ``np_`` defaults to |pp|; a caller that numbers more points passes it."""
    if np_ is None:
        np_ = len(pp)
    near = [[] for _ in pp]
    for ps, rs in parts:
        for r in rs:
            q, v = qq[r], np_ + r
            for p in ps:
                d = max(map(abs, map(sub, pp[p], q)))  # _linf_dist, inlined
                if d <= hi:
                    near[p].append((d, v))
    return near


def _minimax_finish(near, sd: SupplyDemand, matching: Matching, bottom, hub=False) -> tuple:
    """(optimum, witness): the flow ``matching`` M, (point, range, amount)
    triples whose amounts add up where a pair repeats and whose pairs all
    lie within ``bottom``, a bound at most the optimum (the searches pass
    their last infeasible bound), augmented to the target of ``sd`` over the
    pairs ``near``, which must hold every pair within the optimum: per point
    p, a (distance, |P| + r) tuple for each range r it may use.

    Each augmenting path is one whose largest forward pair is smallest: a
    Dijkstra over the residual graph, keyed by that largest pair, from every
    point with supply to spare to the first range with demand to meet.  A
    point steps to a range along any listed pair, a range back to a point
    along a pair that carries flow, at no cost.  The path pushes the
    smallest spare supply, unmet demand or backward amount on it.  Let M* be
    an optimal flow: M* - M splits into augmenting paths whose pairs all lie
    within the optimum, so no key passes it; and the result carries the full
    target, so its largest pair is at least the optimum.  So the optimum is
    the largest of ``bottom`` and every path's key, and the result is its
    witness.  Pairs that cannot reach the target raise InternalError.

    With ``hub``, one more point and one more range follow the others, with
    no supply or demand, and range r is vertex |P| + 1 + r: the hub range
    sends INF back to the hub point, so a path through the two runs from any
    point that lists the hub range to any range the hub point lists, as one
    complete part of the cover would let it.  The witness then holds flows
    through the hub."""
    spare = [*sd.supplies, *[0] * hub]
    unmet = [*sd.demands, *[0] * hub]
    np_ = len(spare)
    into = [{} for _ in unmet]  # into[r]: point -> flow on (p, r)
    if hub:
        into[-1][np_ - 1] = INF
    for p, r, a in matching:
        spare[p] -= a
        unmet[r] -= a
        into[r][p] = into[r].get(p, 0) + a
    # the points with supply to spare and whether each range has demand to
    # meet, kept next to the amounts for speed: a path search starts from
    # the few sources and reads one flag per range it reaches
    sources = [p for p in range(np_) if spare[p] > 0]
    short = [x > 0 for x in unmet]
    # sd.target sums every supply and demand, so it is read once
    value, lam, target = matching_value(matching), bottom, sd.target
    while value < target:
        lam, u, came = _minimax_path(near, into, sources, short, lam)
        # walk the path back: range u from point came[u], and that point
        # back from range came[p] along a pair that carries flow
        steps = []  # (point, range, +1 forward or -1 backward)
        amt = unmet[u - np_]
        r = u
        while True:
            p = came[r]
            steps.append((p, r - np_, 1))
            back = came[p]
            if back < 0:
                break
            amt = min(amt, into[back - np_][p])
            steps.append((p, back - np_, -1))
            r = back
        amt = min(amt, spare[p])
        for q, s, sign in steps:
            left = into[s].get(q, 0) + sign * amt
            if left > 0:
                into[s][q] = left
            else:
                del into[s][q]
        spare[p] -= amt
        if not spare[p] > 0:
            sources.remove(p)
        unmet[u - np_] -= amt
        short[u - np_] = unmet[u - np_] > 0
        value += amt
    witness = sorted((p, r, a) for r, flows in enumerate(into) for p, a in flows.items())
    return lam, witness


def _minimax_path(near, into, sources, short, lam) -> tuple:
    """(key, range vertex, predecessors) of one augmenting path of
    ``_minimax_finish``'s flow whose largest forward pair is smallest, its
    key raised to lam, from a point of ``sources`` to a range r with
    ``short[r]``.  Point p is vertex p and range r vertex |P| + r.

    A Dijkstra by levels: keys at most lam all count as lam, and a vertex
    whose key equals the current level's, the pair being no longer, joins
    that level's list rather than the heap.  So the search runs as a
    breadth-first search while the pairs stay within the level, and the
    first range found at the lowest level with demand to meet ends it."""
    np_ = len(near)
    key = [INF] * (np_ + len(into))
    came = [-1] * len(key)
    level = list(sources)
    for p in level:
        key[p] = lam
    heap = []
    while True:
        while not level:
            if not heap:
                raise InternalError("the listed pairs do not reach the target")
            lam, u = heappop(heap)
            if lam == key[u]:  # else stale: u has a smaller key
                if u >= np_ and short[u - np_]:
                    return lam, u, came
                level.append(u)
        u = level.pop()
        if u < np_:
            for d, v in near[u]:
                if d <= lam:
                    if lam < key[v]:
                        key[v] = lam
                        came[v] = u
                        if short[v - np_]:
                            return lam, v, came
                        level.append(v)
                elif d < key[v]:
                    key[v] = d
                    came[v] = u
                    heappush(heap, (d, v))
        else:
            for v in into[u - np_]:
                if lam < key[v]:
                    key[v] = lam
                    came[v] = u
                    level.append(v)


def _linf_dist(p, q) -> int:
    return max(map(abs, map(sub, p, q)))


def _grown_search(pp, qq, sd: SupplyDemand) -> tuple:
    """(smallest feasible squared distance, witness) between the planar int
    points pp and qq: a ``_gallop`` on squared distances, so every decision
    is exact, whose network grows by the pairs each decision's bound lets
    in.

    The squared distances are listed once, point i's row at ``d[i]``.  The
    Hall start is the largest distance from a point or range that must
    carry flow (``_needs``) to its nearest partner, read off the rows and
    columns of that list; no bound below it is feasible (``_hall_start``
    bounds the other searches the same way).  The gallop is capped at the
    largest distance.  Each decision appends the pairs within its bound and
    beyond the last one, point by point and each point's in index order;
    no pair is dropped, as none is listed again.

    The first feasible decision's witness sets hi, its largest distance.
    If it was the first decision, hi is the optimum.  Otherwise
    ``_minimax_finish`` augments the last infeasible decision's flow to the
    target over the added pairs within hi, and its result is the
    search's."""
    np_ = len(pp)
    d = [[(px - qx) * (px - qx) + (py - qy) * (py - qy) for qx, qy in qq] for px, py in pp]
    nearest = [*map(min, d), *map(min, zip(*d))]  # per point, then per range
    added, last = [[] for _ in d], -1

    def grow(net, _res, lam):
        nonlocal last
        parts = []
        for i, row in enumerate(d):
            rs = [j for j, x in enumerate(row) if last < x <= lam]
            if rs:
                parts.append(([i], rs))
                added[i] += rs
        net.add_parts(parts)
        last = lam

    lb = max((x for x, need in zip(nearest, _needs(sd)) if need), default=0)
    _, witness, seed, bottom = _gallop(grow, sd, lb, max(map(max, d)))
    hi = max(d[p][r] for p, r, _a in witness)
    if bottom is None:
        return hi, witness
    near = [[(row[j], np_ + j) for j in rs if row[j] <= hi] for row, rs in zip(d, added)]
    # the seed's pairs lie within bottom, which is infeasible and so below the optimum
    return _minimax_finish(near, sd, seed, bottom)


@dataclass(frozen=True)
class PersistenceDiagram:
    """Finite multiset of (birth, death) pairs strictly above the diagonal."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple((b, d) for b, d in self.points)
        for b, d in pts:
            if not d > b:
                raise InputError(f"diagram point ({b}, {d}) is not above the diagonal")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def _diagram(x) -> PersistenceDiagram:
    return x if isinstance(x, PersistenceDiagram) else PersistenceDiagram(tuple(x))


def pd_bottleneck(X, Y):
    """Bottleneck distance between two persistence diagrams.

    Each off-diagonal point may match a point of the other diagram within
    L-infinity distance lam or its own diagonal projection; projections match
    each other freely, contributed by one complete cover part.  (Letting a
    point reach any projection instead gives the same optimum: none is nearer
    than its own.)  The search gallops as ``_cover_search`` does, from the
    Hall start of every point, each capped at its distance to the diagonal,
    and caps its bounds at ub, the largest distance of a point to the
    diagonal, which is feasible by sending every point to its own
    projection.  Its finish keeps the free part as one hub
    (``_diagram_pairs_within``).  The answer is exact, with float values
    read exactly."""
    dgm_x, dgm_y = _diagram(X), _diagram(Y)
    if not dgm_x.points and not dgm_y.points:
        return 0
    bd, scale = scaled_coords(dgm_x.points + dgm_y.points)
    # In doubled coordinates a point lies d - b from its own diagonal
    # projection ((b + d) / 2 undoubled), an int.
    nx = len(dgm_x)
    pts = [(2 * b, 2 * d) for b, d in bd]
    to_diagonal = [d - b for b, d in bd]
    n = len(bd)
    ny = n - nx
    sd = SupplyDemand.unit(n, n)
    # rows: X then the projections of Y; columns: Y then the projections of X
    free = [(list(range(nx, n)), list(range(ny, n)))] if nx and ny else []
    tree = BoxTree(pts[:nx], 2)
    centres = pts[nx:]

    def cover_at(lam):
        own = [([i], [ny + i]) for i in range(nx) if to_diagonal[i] <= lam]
        own += [([nx + j], [j]) for j in range(ny) if to_diagonal[nx + j] <= lam]
        return _box_cover(tree, centres, lam, sd, own + free)

    def dist(p, r):
        if p < nx and r < ny:
            return _linf_dist(pts[p], centres[r])
        # a projection pair is free; a point reaches only its own projection
        return 0 if p >= nx and r >= ny else to_diagonal[p]

    lb = _hall_start(pts[:nx], centres, to_diagonal)
    cover, witness, seed, bottom = _gallop(_regrow(cover_at), sd, lb, max(to_diagonal))
    lam = max(dist(p, r) for p, r, _a in witness)
    if bottom is not None:
        near = _diagram_pairs_within(cover, pts, to_diagonal, nx, lam)
        lam = _minimax_finish(near, sd, seed, bottom, hub=len(near) > n)[0]
    return Fraction(lam, 2 * (scale or 1))


def _diagram_pairs_within(cover, pts, to_diagonal, nx, hi) -> list:
    """The pairs within hi of a diagram decision's cover, as
    ``_minimax_finish`` reads them, with the free part between projections
    kept as one hub: no projection-to-projection pair is listed.  Rows are
    the nx points of X (``pts[:nx]``), then the projections of Y; when both
    diagrams have points, the hub point follows them, the hub range follows
    the columns, every projection row lists the hub range at 0, and the hub
    point lists every projection column of X and the hub range at 0.  Its
    pair to the hub range lets a path that reaches the hub from a column go
    back to a row that sends flow into it."""
    n = len(pts)
    ny = n - nx
    hub = bool(nx and ny)
    np_ = n + hub
    # the box tree's parts: rows of X to columns of Y
    parts = [(ps, rs) for ps, rs in cover.parts if ps[0] < nx and rs[0] < ny]
    near = _pairs_within(parts, pts[:nx], pts[nx:], hi, np_) + [[] for _ in range(ny)]
    for k, d in enumerate(to_diagonal):
        if d <= hi:
            # a point of X to its projection's column, a projection of Y to its point
            near[k].append((d, np_ + (ny + k if k < nx else k - nx)))
    if hub:
        for row in near[nx:]:
            row.append((0, np_ + n))
        near.append([(0, np_ + c) for c in range(ny, n + 1)])
    return near
