"""Bottleneck matching distances between point sets, and the bottleneck
distance between persistence diagrams.

Every decision and search first reads both point sets as int coordinate
tuples: floats exactly, every coordinate scaled by one positive int, and L1
rotated by 45 degrees onto L-infinity.  L-infinity takes points of any one
dimension; L1 and L2 take planar points.  The optimum under L-infinity is
always a coordinate difference between the two sets, so the candidate values
form two implicitly sorted int matrices per axis.  A search keeps an open
interval of candidate values (infeasible below, feasible above), decides
feasibility at a uniformly sampled candidate strictly inside it, and shrinks
the interval until none is left: O(log n) expected feasibility tests and no
selection.  Each test covers the incidences between one side and the
metric balls around the other (a box tree for L-infinity and L1), and asks
the flow module whether the target value is reached; a feasible test's
witness moves the interval's upper end down to its own bottleneck.
Supplies and demands are read as ints too, all multiplied by one positive
int, so every amount a search adds or compares is an int; the witness's
amounts are divided back once, at the end.

An L-infinity or L1 search stops testing once a feasible test has set the
upper end hi and the last infeasible test's maximum matching lacks at most
``_FINISH_DEFICIT`` units of the target.  It lists the pairs within hi from
the last feasible test's cover and augments that matching to the target
along minimax augmenting paths, each one the path whose longest new pair is
shortest (the augmenting-path method for bottleneck assignment,
Derigs-Zimmermann 1978; Gabow-Tarjan 1988).  The optimum is the longest of
those pairs and of the matching's own, and the augmented flow is its
witness.

L2 works on squared distances so the decisions stay exact.  It sorts all
n^2 pairs once by squared distance and grows one flow network along them,
one direct edge per pair: each decision appends the pairs up to its rank and
continues the last one's maximum flow.  The first decision is made at the
Hall start, the first pair by which every point and range that must carry
flow has a pair, and each next one at twice the last one's rank until one
is feasible.  The search then ends by minimax augmenting paths, as
L-infinity does, from the last infeasible decision's flow over the pairs
the feasible one's flow reaches.

The diagram search starts inside a bracket of two bounds that need no
decision: a feasible upper bound (every point to its own diagonal
projection) and a lower bound below which some point has no partner.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
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
    seed_flow,
    unscaled,
)
from .geometry import Metric, Point
from .numeric import InputError, InternalError, exact, float_sqrt, scaled_coords

# The L-infinity and L1 search stops deciding once a decision has been
# feasible and the last infeasible decision's flow lacks at most this many
# units of its target, the supplies and demands scaled to ints, and
# finishes by minimax augmenting paths (``_cover_search``); 0 never finishes.
_FINISH_DEFICIT = 32


class SortedMatrix:
    """Implicit int matrix of the differences rows[i] - cols[j].  It keeps
    the rows ascending in ``_a`` and the negated columns ascending in ``_b``,
    so its entries are the sums a[i] + b[j], ascending along every row and
    every column."""

    def __init__(self, rows, cols):
        self._a = sorted(rows)
        self._b = sorted(-c for c in cols)

    def min_entry(self):
        return self._a[0] + self._b[0]

    def max_entry(self):
        return self._a[-1] + self._b[-1]

    def count_lt(self, x) -> int:
        """Entries < x, by one staircase walk."""
        a, b = self._a, self._b
        j = len(b) - 1
        n = 0
        for ai in a:
            while j >= 0 and ai + b[j] >= x:
                j -= 1
            if j < 0:
                break
            n += j + 1
        return n

    def open_at(self, lo, hi, idx: int):
        """idx-th entry (row-major) among those strictly between lo and hi."""
        b = self._b
        for ai in self._a:
            jl = bisect_right(b, lo - ai)
            cnt = bisect_left(b, hi - ai) - jl
            if idx < cnt:
                return ai + b[jl + idx]
            idx -= cnt
        raise InternalError("open entry index ran past the matrix")


def build_sorted_matrices(pp, qq) -> list:
    """The candidate matrices of coordinate differences between the int
    coordinate tuples pp and qq, two per axis: x_i - x'_j and x'_j - x_i,
    then the same for y and every further axis.  Every L-infinity bottleneck
    value is an entry of one of them.  ``sampled_search`` counts the entries
    up to lo as those below lo + 1, which holds on ints only, so any other
    coordinate is an InputError."""
    coords = [*pp, *qq]
    if len({len(c) for c in coords}) > 1:
        raise InputError("points disagree on dimension")
    if not all(isinstance(x, int) for c in coords for x in c):
        raise InputError("candidate matrices take int coordinates")
    mats = []
    for axis in range(len(coords[0]) if coords else 0):
        ps, qs = [p[axis] for p in pp], [q[axis] for q in qq]
        mats += [SortedMatrix(ps, qs), SortedMatrix(qs, ps)]
    return mats


def sampled_search(mats: list, feasible, rng: random.Random | None = None, *, lo=None, hi=None):
    """Smallest x in (lo, hi], hi itself or an entry of the sorted int
    matrices ``mats``, with ``feasible(x)`` true, for a monotone
    ``feasible`` that fails at lo and holds at hi.  lo defaults to a
    sentinel below every entry and hi to the largest entry; a caller that
    knows tighter bounds passes them, and hi is never decided.  ``feasible``
    returns a bool, or for a feasible x an entry in (lo, x] that it knows to
    be feasible too, which then becomes hi.  It may also end the search
    early by raising, for a caller that finishes it another way
    (``_cover_search`` raises ``_Settled``).

    Keeps the open interval (lo, hi) between the largest value known to be
    infeasible and the smallest entry known to be feasible, decides at an
    entry drawn uniformly from strictly inside it, and stops once no entry
    is left inside.  Each draw is a rank query by staircase walks, so the
    search makes O(log N) expected decisions over N entries and never runs a
    selection."""
    if rng is None:
        rng = random.Random(0)
    if lo is None:
        lo = min(m.min_entry() for m in mats) - 1
    if hi is None:
        hi = max(m.max_entry() for m in mats)
    # per-matrix counts below hi and up to lo; a decision moves one bound,
    # so only that bound's counts are walked again
    below_hi = [m.count_lt(hi) for m in mats]
    # the entries are ints: up to lo means below lo + 1
    upto_lo = [m.count_lt(lo + 1) for m in mats]
    while True:
        counts = [b - a for b, a in zip(below_hi, upto_lo)]
        active = sum(counts)
        if active == 0:
            return hi
        idx = rng.randrange(active)
        for m, cnt in zip(mats, counts):
            if idx < cnt:
                break
            idx -= cnt
        x = m.open_at(lo, hi, idx)
        got = feasible(x)
        if got is False:
            lo = x
            upto_lo = [m.count_lt(lo + 1) for m in mats]
            continue
        if got is not True and not lo < got <= x:
            raise InternalError(f"feasible bound {got} outside ({lo}, {x}]")
        hi = x if got is True else got
        below_hi = [m.count_lt(hi) for m in mats]


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
    feasible, matching = _solve(_cover_at(pp, qq, metric, sd)(math.floor(lam)), sd)
    return DecideResult(feasible, unscaled(matching, wscale) if feasible else None)


def _box_cover(tree, centres, lam, sd, extra_parts=()) -> BicliqueCover:
    """Cover of the incidences between the points of ``tree`` and the
    L-infinity balls of radius lam around the centres (coordinate tuples),
    plus ``extra_parts``: complete parts given by index lists that may reach
    rows and columns of ``sd`` past the points and the centres."""
    lows = [tuple(c - lam for c in q) for q in centres]
    highs = [tuple(c + lam for c in q) for q in centres]
    parts = tree.parts(lows, highs) + list(extra_parts)
    return BicliqueCover(len(sd.supplies), len(sd.demands), parts)


def _solve(cover, sd, want_matching=True, seed=None) -> tuple:
    """One decision over a cover: (feasible, maximum matching or None).
    ``seed``, a matching over pairs the cover holds, starts the flow."""
    net = build_network(cover, sd)
    flow = max_flow_dinitz(net, seed_flow(net, seed) if seed else None)
    feasible = sd.target == flow.value
    if not want_matching:
        return feasible, None
    return feasible, flow_to_matching(flow, net, cover)


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
    rng: random.Random | None = None,
) -> BottleneckResult:
    """Minimum lam such that decide(..., lam) is feasible, with a witness
    matching.  L-infinity and L1 run the sampled search over the coordinate
    differences (``_cover_search``); L2, at every size, grows one network
    along its sorted squared pairwise distances from its Hall start
    (``_grown_search``) and draws no pivot.  Both end by minimax augmenting
    paths: L2 once a decision is feasible, L-infinity and L1 once the
    target is also nearly reached.  The search decides, gallops and
    finishes on the scaled ints of ``_int_coords``, coordinates and weights
    alike, so the answer is exact on every input: an int for int
    coordinates and a ``Fraction`` for any other, and the witness's amounts
    ints for int weights and ``Fraction``s for any other.

    Decisions move both ends of the search's interval.  A feasible one's
    witness is feasible at its own bottleneck, so the upper end drops to
    that value.  An infeasible one's maximum matching uses only pairs within
    its bound, so it is a feasible flow at every larger bound the search
    decides later and starts that decision's max flow; the grown L2 search
    keeps it as its residual."""
    pp, qq, sd, scale, wscale = _int_coords(Pset, Qset, metric, sd)
    if not pp or not qq:
        sq = 0 if metric is Metric.L2 else None
        return BottleneckResult(0, metric, [], lambda_star_sq=sq)
    if rng is None:
        rng = random.Random(0)

    if metric is Metric.L2:
        lam, witness = _grown_search(pp, qq, sd)
    else:
        lam, witness = _cover_search(pp, qq, metric, sd, rng)
    if scale:
        lam = Fraction(lam, scale * scale if metric is Metric.L2 else scale)
    witness = unscaled(witness, wscale)
    if metric is Metric.L2:
        return BottleneckResult(float_sqrt(lam), metric, witness, lambda_star_sq=lam)
    return BottleneckResult(lam, metric, witness)


def _cover_search(pp, qq, metric: Metric, sd: SupplyDemand, rng) -> tuple:
    """(optimum, witness) of an L-infinity or L1 search whose every decision
    solves a cover from ``_cover_at``, warm-started by the last infeasible
    one.

    It stops deciding once two things hold: a feasible decision has set the
    upper end hi, and the last infeasible decision's maximum matching M
    lacks at most ``_FINISH_DEFICIT`` units of the int weights' target.
    ``_minimax_finish`` then augments M to the target along minimax
    augmenting paths over the pairs within hi, which it reads off the last
    feasible decision's cover, built at a bound of at least hi; no further
    cover is queried.  Where no decision was feasible, it decides to the
    end."""
    cover_at = _cover_at(pp, qq, metric, sd)
    witness = seed = None
    # the last feasible decision's cover and its witness's bottleneck, hi
    hi_cover = hi = None

    def feas(v):
        # False, or the witness's bottleneck: a feasible bound at most v
        nonlocal witness, seed, hi_cover, hi
        if v < 0:
            return False
        cover = cover_at(v)
        feasible, matching = _solve(cover, sd, seed=seed)
        if not feasible:
            # every later decision is at a larger bound
            seed = matching
            return False
        # feasible decisions only lower the bound, so the last one is the
        # witness at the value the search returns
        witness = matching
        hi_cover, hi = cover, max(_linf_dist(pp[p], qq[r]) for p, r, _a in matching)
        return hi

    def feas_or_finish(v):
        got = feas(v)
        if hi is not None and seed is not None:
            if sd.target - matching_value(seed) <= _FINISH_DEFICIT:
                raise _Settled
        return got

    try:
        lam = sampled_search(build_sorted_matrices(pp, qq), feas_or_finish, rng)
    except _Settled:
        # M's pairs lie within its bound, below hi, so the cover holds them
        bottom = max((_linf_dist(pp[p], qq[r]) for p, r, _a in seed), default=-1)
        return _minimax_finish(_pairs_within(hi_cover, pp, qq, hi), sd, seed, bottom)
    # no decision was feasible: the search returned its largest candidate
    # without deciding it
    if witness is None and feas(lam) is False:
        raise InternalError("search landed on an infeasible bound")
    return lam, witness


class _Settled(Exception):
    """Raised by a search's feasibility callback to end the search: its
    caller finishes it some other way."""


def _pairs_within(cover, pp, qq, hi) -> list:
    """The pairs that ``cover``, a cover over the int tuples pp and qq,
    holds within L-infinity distance hi, as ``_minimax_finish`` reads them:
    per point p, a (distance, |P| + r) tuple for each such range r."""
    np_ = len(pp)
    near = [[] for _ in range(np_)]
    for ps, rs in cover.parts:
        for r in rs:
            q, v = qq[r], np_ + r
            for p in ps:
                d = max(map(abs, map(sub, pp[p], q)))  # _linf_dist, inlined
                if d <= hi:
                    near[p].append((d, v))
    return near


def _minimax_finish(near, sd: SupplyDemand, matching: Matching, bottom) -> tuple:
    """(optimum, witness): the maximum flow ``matching`` M at some bound,
    whose pairs all lie within ``bottom``, augmented to the target of ``sd``
    over the pairs ``near``, which must hold every pair within the optimum:
    per point p, a (distance, |P| + r) tuple for each range r it may use.

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
    witness.  Pairs that cannot reach the target raise InternalError."""
    np_ = len(sd.supplies)
    spare = list(sd.supplies)
    unmet = list(sd.demands)
    into = [{} for _ in range(len(sd.demands))]  # into[r]: point -> flow on (p, r)
    for p, r, a in matching:
        spare[p] -= a
        unmet[r] -= a
        into[r][p] = a
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
    points pp and qq, over all pairs sorted by squared distance, ties in
    (i, j) order.  A rank k stands for the k nearest pairs.

    One network holds the pairs, one direct edge each, and grows along
    them; each decision appends the pairs up to its rank and continues the
    last decision's maximum flow, with every new pair at its full capacity.
    The Hall start is the rank of the first pair by which every point and
    every range that must carry flow has a pair: a point must when the other
    points' supplies fall short of the target, a range when the other
    ranges' demands do.  No prefix without that pair is feasible
    (``_diagram_lower_bound`` bounds diagrams the same way).  The first
    decision ends the tie group of the pair before it, and until a decision
    is feasible each next one ends the tie group at twice the last one's
    rank, lo.  So every decision answers what a cold decision at its
    distance would.

    If the first decision is feasible, its flow is the witness, at the
    distance of the Hall start's tie group.  Otherwise ``_minimax_finish``
    augments lo's flow to the target over the pairs of ranks below hi, the
    rank after the last pair the feasible decision's flow uses, and its
    result is the search's."""
    np_ = len(pp)
    # one flat list, pair (i, j) at i * |Q| + j; the stable sort keeps the
    # (i, j) order of equal distances
    d = [(px - qx) * (px - qx) + (py - qy) * (py - qy) for px, py in pp for qx, qy in qq]
    order = sorted(range(len(d)), key=d.__getitem__)
    dist = list(map(d.__getitem__, order))
    # through lookup lists, so each point and range is one shared int
    rows = [i for i in range(np_) for _q in qq]
    ps = list(map(rows.__getitem__, order))
    rs = list(map((list(range(len(qq))) * np_).__getitem__, order))
    del d, order, rows

    # the Hall start: the rank of the pair that gives the last point or
    # range that must carry flow its first pair
    target, supply, demand = sd.target, sum(sd.supplies), sum(sd.demands)
    needs = [s > supply - target for s in sd.supplies] + [x > demand - target for x in sd.demands]
    left, start = sum(needs), -1
    while left:
        start += 1
        for v in (ps[start], np_ + rs[start]):
            if needs[v]:
                needs[v] = False
                left -= 1

    net = build_network(BicliqueCover(np_, len(qq), []), sd)
    base = net.edge_count  # the feeders and drains; pair k is edge base + k
    res = list(net.ecap)
    lo = lo_flow = None
    # every pair if they all tie the Hall start's
    k = len(dist) if dist[start] == dist[-1] else bisect_right(dist, dist[max(start, 1) - 1])
    while True:
        have = net.edge_count - base
        net.add_direct(ps[have:k], rs[have:k])
        res += net.ecap[len(res) :]
        flow = max_flow_dinitz(net, residual=res)
        if flow.value == target:
            break
        if k == len(dist):
            raise InternalError("every pair together falls short of the target")
        lo, lo_flow = k, flow
        k = bisect_right(dist, dist[min(2 * k, len(dist)) - 1])
    hi = flow.last_loaded() - base + 1
    if lo is None:
        return dist[hi - 1], sorted(project_flow(net, flow.values)[0])
    near = [[] for _ in pp]
    for j in range(hi):
        near[ps[j]].append((dist[j], np_ + rs[j]))
    # lo's pairs lie within dist[lo - 1], which an infeasible lo puts at or
    # below the optimum, and so does the Hall start
    return _minimax_finish(near, sd, project_flow(net, lo_flow.values)[0], dist[max(lo - 1, start)])


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
    than its own.)  The optimum is found by the sampled search over the
    coordinate-difference candidates, started inside the bracket (lb - 1, ub]
    of two bounds that cost no decision: ub, the largest distance of a point
    to the diagonal, is feasible by sending every point to its own
    projection, and below lb (see ``_diagram_lower_bound``) some point has no
    partner at all.  The answer is exact, with float values read exactly."""
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

    def feasible(lam) -> bool:
        own = [([i], [ny + i]) for i in range(nx) if to_diagonal[i] <= lam]
        own += [([nx + j], [j]) for j in range(ny) if to_diagonal[nx + j] <= lam]
        cover = _box_cover(tree, centres, lam, sd, own + free)
        return _solve(cover, sd, want_matching=False)[0]

    # the optimum is a point-to-point distance or a distance to the diagonal
    mats = [SortedMatrix(to_diagonal, (0,))]
    if nx and ny:
        mats += build_sorted_matrices(pts[:nx], pts[nx:])
    lb = _diagram_lower_bound(pts, to_diagonal, nx)
    # ub is an entry and feasible, so the search needs no decision at it
    lam = sampled_search(mats, feasible, random.Random(0), lo=lb - 1, hi=max(to_diagonal))
    return Fraction(lam, 2 * (scale or 1))


def _diagram_lower_bound(pts, to_diagonal, nx) -> int:
    """The largest, over the points of both diagrams (``pts[:nx]`` and
    ``pts[nx:]``, doubled int coordinates), of the smaller of the point's
    distance to the diagonal and its L-infinity distance to the nearest point
    of the other diagram.  Below it that point's row or column has no
    incidence, so no bound there is feasible.

    Points are taken in decreasing distance to the diagonal, until that
    distance cannot raise the bound.  Each scans the other diagram outward
    from its (x, y)-sorted position, one step on each side at a time; a side
    stops at an x-gap of the point's best value so far, and the scan stops
    once a partner within the bound turns up."""
    others = (sorted(pts[nx:]), sorted(pts[:nx]))
    lb = 0
    for d, k in sorted(zip(to_diagonal, range(len(pts))), reverse=True):
        if d <= lb:
            break
        px, py = pts[k]
        other = others[k >= nx]
        best = d
        right = bisect_left(other, (px, py))
        left = right - 1
        while best > lb:
            moved = False
            if left >= 0 and px - other[left][0] < best:
                qx, qy = other[left]
                best = min(best, max(px - qx, abs(py - qy)))
                left -= 1
                moved = True
            if right < len(other) and other[right][0] - px < best:
                qx, qy = other[right]
                best = min(best, max(qx - px, abs(py - qy)))
                right += 1
                moved = True
            if not moved:
                break
        lb = max(lb, best)
    return lb
