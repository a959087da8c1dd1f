"""Slow reference implementations used only to cross-check the fast solvers.

Everything here is deliberately naive and shares no code with the production
modules: containment, flow and path bookkeeping are all re-derived from first
principles so that agreement between the two sides is meaningful.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from geomatch.numeric import InputError

_PAIR_GUARD = 10**7


@dataclass
class ExplicitBipartite:
    """Incidence edges listed one by one."""

    n_left: int
    n_right: int
    edges: list = field(default_factory=list)  # (left index, right index)


def _oracle_incident(rng, pt) -> bool:
    # Re-derived containment: boxes componentwise, disks on squared distance.
    kind = rng[0]
    if kind == "box":
        _, lo, hi = rng
        return all(a <= c <= b for a, c, b in zip(lo, pt, hi))
    _, center, radius_sq = rng
    dx = pt[0] - center[0]
    dy = pt[1] - center[1]
    return dx * dx + dy * dy <= radius_sq


def brute_force_incidences(points, ranges) -> ExplicitBipartite:
    """All incident (point, range) pairs by double loop.  Guarded to 1e7 pairs."""
    if len(points) * len(ranges) > _PAIR_GUARD:
        raise InputError("instance too large for the brute-force oracle")
    raw = []
    for r in ranges:
        if hasattr(r, "radius_sq"):
            raw.append(("disk", r.center.coords, r.radius_sq))
        else:
            raw.append(("box", r.lo.coords, r.hi.coords))
    out = ExplicitBipartite(len(points), len(ranges))
    for i, p in enumerate(points):
        pt = p.coords
        for j, rr in enumerate(raw):
            if _oracle_incident(rr, pt):
                out.edges.append((i, j))
    return out


def reference_max_flow(g: ExplicitBipartite, supplies, demands):
    """Max flow of the four-layer network s -> left -> right -> t by repeated
    BFS augmenting paths on an explicit residual matrix.  Exact on rationals;
    capped at 200 nodes."""
    nl, nr = g.n_left, g.n_right
    if nl + nr > 200:
        raise InputError("instance too large for the reference flow oracle")
    n = nl + nr + 2
    s, t = n - 2, n - 1
    res = [dict() for _ in range(n)]

    def add(u, v, cap):
        res[u][v] = res[u].get(v, 0) + cap
        res[v].setdefault(u, 0)

    for i, sup in enumerate(supplies):
        add(s, i, sup)
    for j, dem in enumerate(demands):
        add(nl + j, t, dem)
    big = sum(supplies) + sum(demands)
    for i, j in g.edges:
        add(i, nl + j, big)

    total = 0
    while True:
        prev = {s: None}
        queue = deque([s])
        while queue and t not in prev:
            u = queue.popleft()
            for v, cap in res[u].items():
                if cap > 0 and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if t not in prev:
            return total
        bottleneck = None
        v = t
        while prev[v] is not None:
            u = prev[v]
            cap = res[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = t
        while prev[v] is not None:
            u = prev[v]
            res[u][v] -= bottleneck
            res[v][u] += bottleneck
            v = u
        total += bottleneck


def hopcroft_karp(g: ExplicitBipartite) -> int:
    """Maximum one-to-one matching size, classic Hopcroft-Karp."""
    if g.n_left + g.n_right > 5000:
        raise InputError("instance too large for the matching oracle")
    adj = [[] for _ in range(g.n_left)]
    for i, j in g.edges:
        adj[i].append(j)
    inf = float("inf")
    match_l = [-1] * g.n_left
    match_r = [-1] * g.n_right
    dist = [0] * g.n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(g.n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return reachable_free

    def dfs(u) -> bool:
        for v in adj[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = inf
        return False

    size = 0
    while bfs():
        for u in range(g.n_left):
            if match_l[u] == -1 and dfs(u):
                size += 1
    return size


class NaiveRbForest:
    """Adjacency-dict twin of the red-blue link-cut forest, all operations by
    O(n) path scans.  Mirrors the production error behaviour."""

    def __init__(self):
        self._parent = []
        self._pval = []  # value of the edge to the parent
        self._color = []  # node color, "red" | "blue"

    def maketree(self, color) -> int:
        if color not in ("red", "blue"):
            raise InputError(f"bad color {color!r}")
        self._parent.append(None)
        self._pval.append(None)
        self._color.append(color)
        return len(self._parent) - 1

    def findroot(self, v: int) -> int:
        while self._parent[v] is not None:
            v = self._parent[v]
        return v

    def link(self, v: int, w: int, value) -> None:
        if self._parent[v] is not None:
            raise InputError("link: v is not a tree root")
        if self._color[v] == self._color[w]:
            raise InputError("link: endpoints share a color")
        if self.findroot(w) == v:
            raise InputError("link: endpoints already connected")
        if value < 0:
            raise InputError("link: negative edge value")
        self._parent[v] = w
        self._pval[v] = value

    def cut(self, v: int) -> None:
        if self._parent[v] is None:
            raise InputError("cut: v is a tree root")
        self._parent[v] = None
        self._pval[v] = None

    def evert(self, v: int) -> None:
        chain = [v]
        while self._parent[chain[-1]] is not None:
            chain.append(self._parent[chain[-1]])
        vals = [self._pval[u] for u in chain[:-1]]
        for i in range(len(chain) - 1, 0, -1):
            self._parent[chain[i]] = chain[i - 1]
            self._pval[chain[i]] = vals[i - 1]
        self._parent[v] = None
        self._pval[v] = None

    def _path_edges(self, v: int):
        # (child, parent, value, color-of-edge) from v up to the root
        out = []
        u = v
        while self._parent[u] is not None:
            p = self._parent[u]
            out.append((u, p, self._pval[u], self._color[p]))
            u = p
        return out

    def findblue(self, v: int):
        best_val = None
        best_node = None
        for child, _parent, val, color in self._path_edges(v):
            if color == "blue" and (best_val is None or val <= best_val):
                best_val = val
                best_node = child  # later hit wins: last such edge on the path
        if best_val is None:
            return None
        return best_node, best_val

    def _add(self, v: int, want_color: str, x) -> None:
        edges = self._path_edges(v)
        for _c, _p, val, color in edges:
            if color == want_color and val + x < 0:
                raise InputError("path add would make an edge negative")
        for child, _p, val, color in edges:
            if color == want_color:
                self._pval[child] = val + x

    def addblue(self, v: int, x) -> None:
        self._add(v, "blue", x)

    def addred(self, v: int, x) -> None:
        self._add(v, "red", x)

    def edge_set(self):
        """Normalized {(min node, max node): value} of all live edges."""
        out = {}
        for child, parent in enumerate(self._parent):
            if parent is not None:
                key = (min(child, parent), max(child, parent))
                out[key] = self._pval[child]
        return out

