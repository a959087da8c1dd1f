"""Checks of the program's outputs, computed apart from the program.

They read the benchmark's own integer inputs (numerators over a fixed
denominator), never geomatch objects, and call no geomatch code.  The pure
Python checks run right after each operation; the ones that need numpy and
scipy run once every timed operation is done, so that neither library is in
memory while the program is measured.
"""

from __future__ import annotations

from fractions import Fraction


def linf_dist(p, q) -> int:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def l2_sq_dist(p, q) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _incident(p, box) -> bool:
    return box[0] <= p[0] <= box[2] and box[1] <= p[1] <= box[3]


def matching_structure(inst: dict, matching, wden: int):
    """Every triple names an incident pair once with a positive amount,
    totals stay within every supply and demand, and the support is a
    forest."""
    pts, boxes = inst["points"], inst["boxes"]
    n, m = len(pts), len(boxes)
    used = [Fraction(0)] * n
    met = [Fraction(0)] * m
    seen = set()
    parent = list(range(n + m))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, r, amt in matching:
        if not (0 <= p < n and 0 <= r < m):
            return f"triple ({p}, {r}) out of range"
        if (p, r) in seen:
            return f"pair ({p}, {r}) listed twice"
        seen.add((p, r))
        if not amt > 0:
            return f"pair ({p}, {r}) has amount {amt}"
        if not _incident(pts[p], boxes[r]):
            return f"point {p} is not in box {r}"
        used[p] += amt
        met[r] += amt
        a, b = root(p), root(n + r)
        if a == b:
            return f"support has a cycle through pair ({p}, {r})"
        parent[a] = b
    for i, s in enumerate(inst["supplies"]):
        if used[i] * wden > s:
            return f"point {i} ships {used[i]} over its supply {Fraction(s, wden)}"
    for j, d in enumerate(inst["demands"]):
        if met[j] * wden > d:
            return f"box {j} receives {met[j]} over its demand {Fraction(d, wden)}"
    return None


def witness(P, Q, matching, lam, dist):
    """The witness is a perfect matching of unit amounts whose pairs all lie
    within ``lam`` (an int in the scaled coordinates)."""
    if lam.denominator != 1:
        return f"scaled optimum {lam} is no int"
    if len(matching) != len(P):
        return f"witness has {len(matching)} pairs for {len(P)} points"
    if len({p for p, _r, _a in matching}) != len(P) or len(
        {r for _p, r, _a in matching}
    ) != len(Q):
        return "witness is not a perfect matching"
    for p, r, amt in matching:
        if amt != 1:
            return f"witness pair ({p}, {r}) has amount {amt}"
        if dist(P[p], Q[r]) > lam:
            return f"witness pair ({p}, {r}) lies beyond the optimum"
    return None


def _matched(adjacency) -> int:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(csr_matrix(adjacency), perm_type="column")
    return int((match >= 0).sum())


def _distances(P, Q, dist):
    import numpy as np

    a = np.array(P, dtype=np.int64)
    b = np.array(Q, dtype=np.int64)
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    if dist is linf_dist:
        return np.maximum(np.abs(dx), np.abs(dy))
    return dx * dx + dy * dy


def none_below(P, Q, lam, dist):
    """No perfect matching uses only pairs strictly closer than ``lam``.
    With a witness within ``lam`` this fixes ``lam`` as the bottleneck
    value."""
    if lam.denominator != 1:
        return f"scaled optimum {lam} is no int"
    if _matched(_distances(P, Q, dist) < int(lam)) == len(P):
        return f"a perfect matching exists strictly below {lam}"
    return None


def diagram_tight(X, Y, lam2):
    """Two-sided check of a diagram distance on the augmented graph, with
    every length doubled so that it stays an int: each point of X may match a
    point of Y or its own diagonal projection, each point of Y its own
    projection, and projections match each other freely.  A perfect matching
    must exist within ``lam2`` and none strictly below it."""
    import numpy as np

    if lam2.denominator != 1:
        return f"doubled value {lam2} is no int"
    lam2 = int(lam2)
    n, m = len(X), len(Y)
    inf = np.iinfo(np.int64).max
    w = np.full((n + m, m + n), inf, dtype=np.int64)
    w[:n, :m] = 2 * _distances(X, Y, linf_dist)
    w[:n, m:][np.arange(n), np.arange(n)] = [d - b for b, d in X]
    w[n:, :m][np.arange(m), np.arange(m)] = [d - b for b, d in Y]
    w[n:, m:] = 0
    if _matched(w <= lam2) != n + m:
        return f"no perfect matching within {lam2 / 2}"
    if _matched(w < lam2) == n + m:
        return f"a perfect matching exists strictly below {lam2 / 2}"
    return None


def max_flow_value(inst: dict) -> int:
    """Maximum flow of the point/box instance with integer weights (the
    numerators), on the incidence graph listed by direct comparison."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    pts = np.array(inst["points"], dtype=np.int64)
    bx = np.array(inst["boxes"], dtype=np.int64)
    inc = (
        (pts[:, None, 0] >= bx[None, :, 0])
        & (pts[:, None, 0] <= bx[None, :, 2])
        & (pts[:, None, 1] >= bx[None, :, 1])
        & (pts[:, None, 1] <= bx[None, :, 3])
    )
    pi, bi = np.nonzero(inc)
    n, m = len(pts), len(bx)
    s, t = 0, n + m + 1
    big = sum(inst["supplies"]) + 1
    rows = np.concatenate([np.zeros(n, np.int64), 1 + pi, 1 + n + np.arange(m)])
    cols = np.concatenate([1 + np.arange(n), 1 + n + bi, np.full(m, t)])
    caps = np.concatenate(
        [np.array(inst["supplies"]), np.full(len(pi), big), np.array(inst["demands"])]
    )
    if big >= 2**31:
        raise OverflowError("capacities exceed scipy's int32 flow")
    graph = csr_matrix((caps.astype(np.int32), (rows, cols)), shape=(t + 1, t + 1))
    return int(maximum_flow(graph, s, t).flow_value)
