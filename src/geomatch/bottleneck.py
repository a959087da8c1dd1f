"""Bottleneck matching distances between planar point sets, and the
bottleneck distance between persistence diagrams.

The optimum under L-infinity (and, after a 45-degree rotation, under L1) is
always a coordinate difference between the two sets, so the candidate values
form four implicitly sorted matrices.  A search keeps an open interval of
candidate values (infeasible below, feasible above), decides feasibility at a
uniformly sampled candidate strictly inside it, and shrinks the interval until
none is left: O(log n) expected feasibility tests and no selection.  Each
test builds metric balls around one side, covers the incidences, and asks the
flow module whether the target value is reached.  L2 works on squared
distances so rational inputs stay exact.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .cover import BicliqueCover, BoxTree, trivial_cover
from .flow import (
    Matching,
    SupplyDemand,
    build_network,
    flow_to_matching,
    max_flow_dinitz,
    seed_flow,
)
from .geometry import Disk, Metric, Point, rotate45, squared_distance
from .numeric import InputError, InternalError, exact, integer_scale, scaled_ints

_L2_MATERIALIZE_LIMIT = 10**7


class SortedMatrix:
    """Implicit matrix entry(i, j) = rows[i] + sign * cols[j] over two
    ascending coordinate sequences; every row and column is monotone."""

    def __init__(self, rows, cols, sign: int = 1):
        if sign not in (1, -1):
            raise InputError("sign must be +1 or -1")
        self.rows = tuple(sorted(rows))
        self.cols = tuple(sorted(cols))
        self.sign = sign
        # normalized ascending form: entry multiset = {a[i] + b[j]}
        self._a = self.rows
        b = [sign * c for c in self.cols]
        self._b = tuple(sorted(b))

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.cols))

    def entry(self, i: int, j: int):
        return self.rows[i] + self.sign * self.cols[j]

    def min_entry(self):
        return self._a[0] + self._b[0]

    def max_entry(self):
        return self._a[-1] + self._b[-1]

    def count_le(self, x) -> int:
        """Entries <= x, by one staircase walk."""
        a, b = self._a, self._b
        j = len(b) - 1
        n = 0
        for ai in a:
            while j >= 0 and ai + b[j] > x:
                j -= 1
            if j < 0:
                break
            n += j + 1
        return n

    def count_lt(self, x) -> int:
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

    def _row_open_range(self, ai, lo, hi) -> tuple:
        # column index range whose entries fall strictly between lo and hi;
        # the entries are compared as sums, as the staircase walks compare
        # them, since lo - ai may round differently on floats
        entry = lambda bj: ai + bj
        return bisect_right(self._b, lo, key=entry), bisect_left(self._b, hi, key=entry)

    def open_at(self, lo, hi, idx: int):
        """idx-th entry (row-major) among those strictly between lo and hi."""
        for ai in self._a:
            jl, jr = self._row_open_range(ai, lo, hi)
            cnt = jr - jl
            if idx < cnt:
                return ai + self._b[jl + idx]
            idx -= cnt
        raise InternalError("open entry index ran past the matrix")


def build_sorted_matrices(Pset, Qset) -> dict:
    """The four candidate matrices of coordinate differences: D_x(i,j) =
    x_i - x'_j over ascending coordinates, Dbar_x(i,j) = x'_i - x_j, and the
    same for y.  Every L-infinity bottleneck value is an entry of one of
    them."""
    pp = [_as_point(p) for p in Pset]
    qq = [_as_point(q) for q in Qset]
    for p in pp + qq:
        if p.dim != 2:
            raise InputError("sorted matrices are built over planar points")
    px = [p.coords[0] for p in pp]
    py = [p.coords[1] for p in pp]
    qx = [q.coords[0] for q in qq]
    qy = [q.coords[1] for q in qq]
    return {
        "D_x": SortedMatrix(px, qx, -1),
        "Dbar_x": SortedMatrix(qx, px, -1),
        "D_y": SortedMatrix(py, qy, -1),
        "Dbar_y": SortedMatrix(qy, py, -1),
    }


def sampled_search(matrices, feasible, rng: random.Random | None = None):
    """Smallest entry x of the sorted matrices with ``feasible(x)`` true,
    for a monotone ``feasible`` that holds at the largest entry.

    Keeps the open interval (lo, hi) between the largest entry known to be
    infeasible (or a sentinel below every entry) and the smallest known to be
    feasible, decides at an entry drawn uniformly from strictly inside it,
    and stops once no entry is left inside.  Each draw is a rank query by
    staircase walks, so the search makes O(log N) expected decisions over N
    entries and never runs a selection."""
    mats = list(matrices.values()) if isinstance(matrices, dict) else list(matrices)
    if rng is None:
        rng = random.Random(0)
    lo = min(m.min_entry() for m in mats) - 1
    hi = max(m.max_entry() for m in mats)
    # per-matrix counts below hi and up to lo; a decision moves one bound,
    # so only that bound's counts are walked again
    below_hi = [m.count_lt(hi) for m in mats]
    upto_lo = [0] * len(mats)  # lo lies below every entry
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
        if feasible(x):
            hi = x
            below_hi = [m.count_lt(hi) for m in mats]
        else:
            lo = x
            upto_lo = [m.count_le(lo) for m in mats]


def _as_point(p) -> Point:
    return p if isinstance(p, Point) else Point(tuple(p))


def _exact_point(p) -> Point:
    # floats are read exactly (see numeric.exact)
    return Point(tuple(map(exact, _as_point(p).coords)))


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
    want_matching: bool = True,
) -> DecideResult:
    """Is there a matching of full target value using only pairs within
    distance lam?  Perfect matching by default; pass supplies/demands for the
    many-to-many variant.  With ``squared`` (L2 only) ``lam`` is taken as the
    squared radius, keeping the decision exact.  Float coordinates and
    bounds are read exactly.  The matching is returned only for a feasible
    decision."""
    pp = [_exact_point(p) for p in Pset]
    qq = [_exact_point(q) for q in Qset]
    if sd is None:
        if len(pp) != len(qq):
            raise InputError("perfect matching needs equal-size point sets")
        if not pp:
            return DecideResult(True, [])
        sd = SupplyDemand.unit(len(pp), len(qq))
    lam = exact(lam)
    if lam < 0:
        raise InputError("negative distance bound")
    if squared and metric is not Metric.L2:
        raise InputError("squared bounds apply to L2 only")
    if metric is Metric.L2:
        for p in pp + qq:
            if p.dim != 2:
                raise InputError("L2 decisions are planar")

    if metric is Metric.L2:
        lam_sq = lam if squared else lam * lam
        cover = _disk_cover(pp, qq, lam_sq)
    else:
        if metric is Metric.L1:
            pp, qq = [rotate45(p) for p in pp], [rotate45(q) for q in qq]
        dims = {p.dim for p in pp + qq}
        if len(dims) > 1:
            raise InputError("points disagree on dimension")
        tree = BoxTree([p.coords for p in pp], dims.pop() if dims else 1)
        cover = _box_cover(tree, [q.coords for q in qq], lam, sd)
    feasible, matching = _solve(cover, sd, want_matching)
    return DecideResult(feasible, matching if feasible else None)


def _box_cover(tree, centres, lam, sd, extra_parts=()) -> BicliqueCover:
    """Cover of the incidences between the points of ``tree`` and the
    L-infinity balls of radius lam around the centres (coordinate tuples),
    plus ``extra_parts``: complete parts given by index lists that may reach
    rows and columns of ``sd`` past the points and the centres."""
    lows = [tuple(c - lam for c in q) for q in centres]
    highs = [tuple(c + lam for c in q) for q in centres]
    parts = tree.parts(lows, highs) + list(extra_parts)
    return BicliqueCover(len(sd.supplies), len(sd.demands), parts)


def _disk_cover(pp, qq, lam_sq) -> BicliqueCover:
    """One part per pair within squared distance lam_sq (trivial cover)."""
    return trivial_cover(pp, [Disk(q, None, radius_sq=lam_sq) for q in qq])


def _pair_cover(pairs, shape, lam_sq) -> BicliqueCover:
    """The same one-part-per-pair cover read from ``pairs``, the (squared
    distance, i, j) triples of every pair sorted by distance: the prefix of
    pairs within lam_sq."""
    k = bisect_right(pairs, lam_sq, key=_distance)
    return BicliqueCover(*shape, [([i], [j]) for _d, i, j in islice(pairs, k)])


_distance = itemgetter(0)


def _solve(cover, sd, want_matching=True, seed=None) -> tuple:
    """One decision over a cover: (feasible, maximum matching or None).
    ``seed``, a matching over pairs the cover holds, starts the flow."""
    net = build_network(cover, sd)
    initial = seed_flow(net, cover, seed) if seed else None
    flow = max_flow_dinitz(net, initial)
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


def _rank_bisect(total, value_of, feasible) -> object:
    """Smallest feasible value among ranks 1..total of a materialized sorted
    sequence; rank `total` must be feasible.  `value_of` maps a rank to its
    candidate value."""
    lo, hi = 0, total
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(value_of(mid)):
            hi = mid
        else:
            lo = mid
    return value_of(hi)


def bottleneck_search(
    Pset,
    Qset,
    metric: Metric,
    *,
    sd: SupplyDemand | None = None,
    rng: random.Random | None = None,
) -> BottleneckResult:
    """Minimum lam such that decide(..., lam) is feasible, with a witness
    matching.  L-infinity and L1 run the sampled search over the four
    coordinate-difference matrices; L2 bisects the multiset of squared
    pairwise distances.  Float coordinates are read exactly (they take the
    integer scaling below), so the answer is exact on them.

    Decisions are warm-started: the maximum matching of the last infeasible
    decision uses only pairs within its bound, so it is a feasible flow at
    every larger bound the search decides later and starts that decision's
    max flow."""
    pp = [_as_point(p) for p in Pset]
    qq = [_as_point(q) for q in Qset]
    if sd is None and len(pp) != len(qq):
        raise InputError("perfect matching needs equal-size point sets")
    if not pp or not qq:
        sq = 0 if metric is Metric.L2 else None
        return BottleneckResult(0, metric, [], lambda_star_sq=sq)
    if rng is None:
        rng = random.Random(0)

    coords = [c for p in pp + qq for c in p.coords]
    if not all(isinstance(c, int) for c in coords):
        # Scaling every coordinate by one positive int scales every candidate
        # and every distance alike, so each decision is unchanged while the
        # search and its covers run on ints instead of Fractions.
        scale = integer_scale(coords)
        res = bottleneck_search(
            [Point(scaled_ints(p.coords, scale)) for p in pp],
            [Point(scaled_ints(q.coords, scale)) for q in qq],
            metric,
            sd=sd,
            rng=rng,
        )
        if metric is Metric.L2:
            sq = Fraction(res.lambda_star_sq, scale * scale)
            return BottleneckResult(
                math.sqrt(float(sq)), metric, res.matching, lambda_star_sq=sq
            )
        return BottleneckResult(Fraction(res.lambda_star, scale), metric, res.matching)

    if sd is None:
        sd = SupplyDemand.unit(len(pp), len(qq))
    if metric is Metric.L1:
        pp, qq = [rotate45(p) for p in pp], [rotate45(q) for q in qq]
    pairs = None
    if metric is not Metric.L2:
        tree = BoxTree([p.coords for p in pp], 2)
        centres = [q.coords for q in qq]
        cover_at = lambda v: _box_cover(tree, centres, v, sd)
    elif any(p.dim != 2 for p in pp + qq):
        raise InputError("L2 decisions are planar")
    elif len(pp) * len(qq) <= _L2_MATERIALIZE_LIMIT:
        # sorted by distance alone: a stable sort keeps the (i, j) order of
        # equal distances, so this is the order of the triples themselves
        pairs = [
            (squared_distance(p, q), i, j) for i, p in enumerate(pp) for j, q in enumerate(qq)
        ]
        pairs.sort(key=_distance)
        cover_at = lambda v: _pair_cover(pairs, (len(pp), len(qq)), v)
    else:
        cover_at = lambda v: _disk_cover(pp, qq, v)

    witness = seed = None

    def feas(v) -> bool:
        nonlocal witness, seed
        if v < 0:
            return False
        feasible, matching = _solve(cover_at(v), sd, seed=seed)
        if feasible:
            # feasible decisions only lower the bound, so the last one is the
            # witness at the value the search returns
            witness = matching
        else:
            # every later decision is at a larger bound
            seed = matching
        return feasible

    if metric is Metric.L2:
        lam = _l2_search(pp, qq, pairs, feas, rng)
    else:
        lam = sampled_search(build_sorted_matrices(pp, qq), feas, rng)
    # no decision was feasible: the search returned its largest candidate
    # without deciding it
    if witness is None and not feas(lam):
        raise InternalError("search landed on an infeasible bound")
    if metric is Metric.L2:
        return BottleneckResult(math.sqrt(float(lam)), metric, witness, lambda_star_sq=lam)
    return BottleneckResult(lam, metric, witness)


def _l2_search(pp, qq, pairs, feas_sq, rng):
    """Smallest squared distance between pp and qq at which ``feas_sq``
    holds: bisection over the ranks of ``pairs``, the sorted (squared
    distance, i, j) triples, or a reservoir pass without them."""
    if pairs is not None:
        return _rank_bisect(len(pairs), lambda r: pairs[r - 1][0], feas_sq)

    # too many pairs to materialize: value bisection on reservoir-sampled
    # pivots, O(1) memory per pass
    lo = -1
    hi = max(squared_distance(p, q) for p in pp for q in qq)
    while True:
        seen = 0
        x = None
        for p in pp:
            for q in qq:
                d = squared_distance(p, q)
                if lo < d < hi:
                    seen += 1
                    if rng.randrange(seen) == 0:
                        x = d
        if x is None:
            return hi
        if feas_sq(x):
            hi = x
        else:
            lo = x


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


def pd_bottleneck(X, Y, *, rng: random.Random | None = None):
    """Bottleneck distance between two persistence diagrams.

    Each off-diagonal point may match a point of the other diagram within
    L-infinity distance lam or its own diagonal projection; projections match
    each other freely, contributed by one complete cover part.  (Letting a
    point reach any projection instead gives the same optimum: none is nearer
    than its own.)  The optimum is found by the sampled search over the
    coordinate-difference candidates.  The answer is exact, with float
    values read exactly."""
    dgm_x, dgm_y = _diagram(X), _diagram(Y)
    if not dgm_x.points and not dgm_y.points:
        return 0
    if rng is None:
        rng = random.Random(0)
    bd = dgm_x.points + dgm_y.points
    scale = integer_scale(c for pair in bd for c in pair)
    bd = [scaled_ints(pair, scale) for pair in bd]
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
        if lam < 0:
            return False
        own = [([i], [ny + i]) for i in range(nx) if to_diagonal[i] <= lam]
        own += [([nx + j], [j]) for j in range(ny) if to_diagonal[nx + j] <= lam]
        cover = _box_cover(tree, centres, lam, sd, own + free)
        return _solve(cover, sd, want_matching=False)[0]

    # the optimum is a point-to-point distance or a distance to the diagonal
    mats = [SortedMatrix(to_diagonal, (0,))]
    if nx and ny:
        mats += build_sorted_matrices(pts[:nx], pts[nx:]).values()
    lam = sampled_search(mats, feasible, rng)
    # the search decides strictly below its initial bound, the largest entry
    if lam == max(m.max_entry() for m in mats) and not feasible(lam):
        raise InternalError("search landed on an infeasible bound")
    return Fraction(lam, 2 * scale)
