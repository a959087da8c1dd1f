"""Max flow over a biclique cover and recovery of the matching it encodes.

The network has five layers: source, points, one middle vertex per cover
part, ranges, sink.  Feeders carry supplies, drains carry demands, and both
edges through a middle vertex are uncapacitated, so the middle layer only
has sigma edges instead of one per incident pair.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass

from .geometry import contains
from .numeric import RATIONAL, InputError, InternalError, NumericContext

INF = math.inf


@dataclass(frozen=True)
class SupplyDemand:
    supplies: tuple
    demands: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "supplies", tuple(self.supplies))
        object.__setattr__(self, "demands", tuple(self.demands))
        if any(s <= 0 for s in self.supplies) or any(d <= 0 for d in self.demands):
            raise InputError("supplies and demands must be positive")

    @classmethod
    def unit(cls, n_points: int, n_ranges: int) -> "SupplyDemand":
        return cls((1,) * n_points, (1,) * n_ranges)

    @property
    def target(self):
        """Upper bound min(total supply, total demand) on any matching value."""
        return min(sum(self.supplies), sum(self.demands))


class FlowNetwork:
    """Directed s-t network as a paired edge list: edge ``e ^ 1`` is the
    reverse of edge ``e``; original edges have even ids."""

    def __init__(self, n: int, source: int, sink: int):
        self.n = n
        self.source = source
        self.sink = sink
        self.head = [[] for _ in range(n)]
        self.eto = []
        self.ecap = []
        self.einfo = []

    def add_edge(self, u: int, v: int, cap, info=None) -> int:
        e = len(self.eto)
        self.eto.extend((v, u))
        self.ecap.extend((cap, 0))
        self.einfo.extend((info, None))
        self.head[u].append(e)
        self.head[v].append(e + 1)
        return e

    @property
    def edge_count(self) -> int:
        return len(self.eto) // 2


@dataclass
class Flow:
    """Per-edge flow aligned with a network's original (even) edge ids."""

    values: list
    value: object

    def on(self, edge_id: int):
        return self.values[edge_id // 2]


def build_network(cover, sd: SupplyDemand) -> FlowNetwork:
    """Five-layer network for a cover: vertex count 2 + |P| + |R| + |I|,
    edge count |P| + |R| + sigma."""
    np_, nr = cover.left_count, cover.right_count
    if len(sd.supplies) != np_ or len(sd.demands) != nr:
        raise InputError("supply/demand lengths disagree with the cover")
    ni = len(cover.parts)
    net = FlowNetwork(2 + np_ + nr + ni, 0, 1)
    point_node = lambda p: 2 + p
    range_node = lambda r: 2 + np_ + r
    part_node = lambda i: 2 + np_ + nr + i
    for p, s in enumerate(sd.supplies):
        net.add_edge(0, point_node(p), s, ("feeder", p))
    for r, d in enumerate(sd.demands):
        net.add_edge(range_node(r), 1, d, ("drain", r))
    for i, (pts, rngs) in enumerate(cover.parts):
        for p in pts:
            net.add_edge(point_node(p), part_node(i), INF, ("pin", i, p))
        for r in rngs:
            net.add_edge(part_node(i), range_node(r), INF, ("pout", i, r))
    expected_edges = np_ + nr + sum(len(ps) + len(rs) for ps, rs in cover.parts)
    if net.edge_count != expected_edges:
        raise InternalError("network edge accounting is off")
    return net


def max_flow_dinitz(net: FlowNetwork, numeric: NumericContext = RATIONAL) -> Flow:
    """Dinitz max flow: BFS level graph, then a pointer-based DFS blocking
    flow per phase.  Works on exact rationals and on thresholded floats; the
    input network is not mutated."""
    res = list(net.ecap)
    s, t = net.source, net.sink
    pos = numeric.is_positive
    level = [-1] * net.n
    total = 0

    def bfs() -> bool:
        for i in range(net.n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in net.head[u]:
                v = net.eto[e]
                if level[v] < 0 and pos(res[e]):
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[t] >= 0

    while bfs():
        it = [0] * net.n
        stack = []  # edge ids of the current DFS path
        u = s
        while True:
            if u == t:
                delta = min(res[e] for e in stack)
                for e in stack:
                    res[e] -= delta
                    res[e ^ 1] += delta
                total += delta
                cut = next(i for i, e in enumerate(stack) if not pos(res[e]))
                del stack[cut:]
                u = s if not stack else net.eto[stack[-1]]
                continue
            advanced = False
            while it[u] < len(net.head[u]):
                e = net.head[u][it[u]]
                v = net.eto[e]
                if pos(res[e]) and level[v] == level[u] + 1:
                    stack.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    break
                level[u] = -1  # dead end, retire the vertex for this phase
                e = stack.pop()
                u = net.eto[e ^ 1]
                it[u] += 1
    # Flow on an original edge equals the residual accumulated on its twin.
    values = [res[e + 1] for e in range(0, len(net.eto), 2)]
    return Flow(values, total)


# A matching is a list of (point index, range index, amount) triples.
Matching = list


def flow_to_matching(
    flow: Flow, net: FlowNetwork, cover, numeric: NumericContext = RATIONAL
) -> Matching:
    """Per-part pairing loop: repeatedly match the lowest-index point and
    range with positive remaining amount, emitting min of the two; duplicate
    (p, r) pairs from overlapping parts are merged by a bucket pass."""
    pos = numeric.is_positive
    # only the parts that carry flow get lists: far fewer than all parts
    part_in = defaultdict(list)
    part_out = defaultdict(list)
    for e in range(0, len(net.eto), 2):
        info = net.einfo[e]
        if info is None:
            continue
        amt = flow.values[e // 2]
        if not pos(amt):
            continue
        if info[0] == "pin":
            part_in[info[1]].append([info[2], amt])
        elif info[0] == "pout":
            part_out[info[1]].append([info[2], amt])
    merged = {}
    for i in sorted(part_in):
        lp, lr = part_in[i], part_out[i]
        a = b = 0
        emitted = 0
        while a < len(lp) and b < len(lr):
            p, ap = lp[a]
            r, ar = lr[b]
            delta = min(ap, ar)
            key = (p, r)
            merged[key] = merged.get(key, 0) + delta
            emitted += 1
            lp[a][1] -= delta
            lr[b][1] -= delta
            if not pos(lp[a][1]):
                a += 1
            if not pos(lr[b][1]):
                b += 1
        if emitted > max(0, len(lp) + len(lr) - 1):
            raise InternalError("pairing emitted more triples than part size allows")
    return [(p, r, amt) for (p, r), amt in sorted(merged.items()) if pos(amt)]


def matching_value(matching: Matching):
    return sum((amt for _p, _r, amt in matching), 0)


def validate_matching(
    matching: Matching, points, ranges, sd: SupplyDemand, numeric: NumericContext = RATIONAL
) -> bool:
    """Feasibility: positive amounts on distinct incident pairs, supply and
    demand totals respected."""
    seen = set()
    used = [0] * len(points)
    met = [0] * len(ranges)
    for p, r, amt in matching:
        if not (0 <= p < len(points) and 0 <= r < len(ranges)):
            return False
        if (p, r) in seen:
            return False
        seen.add((p, r))
        if not numeric.is_positive(amt):
            return False
        if not contains(ranges[r], points[p]):
            return False
        used[p] += amt
        met[r] += amt
    eps = 0 if numeric.mode == "rational" else numeric.zero_threshold
    if any(u > s + eps for u, s in zip(used, sd.supplies)):
        return False
    if any(m > d + eps for m, d in zip(met, sd.demands)):
        return False
    return True


def matching_to_json(matching: Matching) -> list:
    from .numeric import scalar_to_json

    return [
        {"p": p, "r": r, "amount": scalar_to_json(amt)}
        for p, r, amt in matching
    ]
