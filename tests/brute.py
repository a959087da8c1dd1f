"""Slow reference solvers used only by tests: bottleneck distances by
candidate scan over explicit graphs, a residual-path check for blocking
flows, and the recursive range-tree cover that re-sorts every node.
Deliberately share nothing with the production search code."""

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction

from geomatch.geometry import Metric

from oracle import ExplicitBipartite, hopcroft_karp


def _coords(p):
    return p.coords if hasattr(p, "coords") else tuple(p)


def linf(p, q):
    p, q = _coords(p), _coords(q)
    return max(abs(a - b) for a, b in zip(p, q))


def l1(p, q):
    p, q = _coords(p), _coords(q)
    return sum(abs(a - b) for a, b in zip(p, q))


def l2sq(p, q):
    p, q = _coords(p), _coords(q)
    return sum((a - b) ** 2 for a, b in zip(p, q))


_DIST = {Metric.LINF: linf, Metric.L1: l1, Metric.L2: l2sq}


def _has_perfect(n, dists, lam) -> bool:
    edges = [(i, j) for i in range(n) for j in range(n) if dists[i][j] <= lam]
    return hopcroft_karp(ExplicitBipartite(n, n, edges)) == n


def bottleneck_brute(P, Q, metric, scan=False):
    """Smallest pairwise distance admitting a perfect matching.  L2 works on
    and returns the squared value.  ``scan`` forces the literal
    smallest-to-largest walk instead of bisection (same answer, slower)."""
    n = len(P)
    assert n == len(Q)
    if n == 0:
        return 0
    dist = _DIST[metric]
    dists = [[dist(p, q) for q in Q] for p in P]
    cands = sorted({dists[i][j] for i in range(n) for j in range(n)})
    if scan:
        for c in cands:
            if _has_perfect(n, dists, c):
                return c
        raise AssertionError("largest candidate must admit a matching")
    lo, hi = -1, len(cands) - 1  # cands[hi] always feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_perfect(n, dists, cands[mid]):
            hi = mid
        else:
            lo = mid
    return cands[hi]


def pd_brute(X, Y):
    """Diagram bottleneck distance on the explicit augmented graph: every
    off-diagonal point may match within distance lam or sit on the diagonal;
    projections pair up freely."""
    x0 = [(Fraction(b), Fraction(d)) for b, d in X]
    y0 = [(Fraction(b), Fraction(d)) for b, d in Y]
    proj = lambda bd: (Fraction(bd[0] + bd[1], 2), Fraction(bd[0] + bd[1], 2))
    P = x0 + [proj(bd) for bd in y0]
    Q = y0 + [proj(bd) for bd in x0]
    n = len(P)
    if n == 0:
        return 0
    free = [
        [i >= len(x0) and j >= len(y0) for j in range(n)] for i in range(n)
    ]
    dists = [[linf(P[i], Q[j]) for j in range(n)] for i in range(n)]

    def feasible(lam) -> bool:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if free[i][j] or dists[i][j] <= lam
        ]
        return hopcroft_karp(ExplicitBipartite(n, n, edges)) == n

    cands = sorted({Fraction(0)} | {d for row in dists for d in row})
    lo, hi = -1, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid
    return cands[hi]


def index_of_candidate(cands, v) -> int:
    i = bisect_left(cands, v)
    return i if i < len(cands) and cands[i] == v else -1


def range_tree_parts(pc, lo, hi, d):
    """Box cover parts of a multi-level range tree that sorts every node's
    points again and registers each box by comparing values along the
    implicit ``(a + b) // 2`` tree: ``pc`` holds the point coordinate tuples,
    ``lo`` and ``hi`` the box corner tuples."""
    parts = []
    if pc and lo:
        _tree_level(pc, lo, hi, list(range(len(pc))), list(range(len(lo))), 0, d, parts)
    return parts


def _tree_level(pc, lo, hi, pt_idx, bx_idx, axis, d, parts):
    order = sorted(pt_idx, key=lambda i: (pc[i][axis], i))
    vals = [pc[i][axis] for i in order]
    reg = defaultdict(list)

    def descend(a, b, k, blo, bhi):
        if vals[a] > bhi or vals[b - 1] < blo:
            return
        if blo <= vals[a] and vals[b - 1] <= bhi:
            reg[(a, b)].append(k)
            return
        mid = (a + b) // 2
        descend(a, mid, k, blo, bhi)
        descend(mid, b, k, blo, bhi)

    for k in bx_idx:
        descend(0, len(order), k, lo[k][axis], hi[k][axis])

    for a, b in sorted(reg):
        seg = order[a:b]
        if axis == d - 1:
            parts.append((sorted(seg), sorted(reg[(a, b)])))
        else:
            _tree_level(pc, lo, hi, seg, reg[(a, b)], axis + 1, d, parts)
