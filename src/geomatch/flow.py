"""Max flow over a biclique cover and recovery of the matching it encodes.

The network runs source, points, ranges, sink.  Feeders carry supplies and
drains carry demands; the incidences in between are uncapacitated.  A cover
part (A, B) with |A| >= 2 and |B| >= 2 sends them through one middle vertex,
|A| + |B| edges instead of |A|*|B| (Feder-Motwani compression).  A part with
one point or one range has |A|*|B| <= |A| + |B| - 1, so its incidences are
direct point-to-range edges and it has no middle vertex.  Parts keep the
cover's order.

The kernel is shared with the implicit engine (``implicit_dinitz``), and
only this module knows the layout.  A network describes itself by vertex
blocks: source 0, sink 1, the points, the ranges, then the middle vertices.
``build_network`` builds the one network of both Dinitz drivers,
``level_graph`` is their one BFS, ``_blocking_flow`` their one DFS and
``project_flow`` their one reader of a flow.

A network can also grow: ``FlowNetwork.extend`` appends edges after the
others (``add_parts`` appends cover parts), ``drop_idle`` takes the edges
that carry no flow out of the adjacency lists, and ``max_flow_dinitz``
continues from the residual of an earlier flow and reports the points and
ranges on the source side of its minimum cut.  Every bottleneck search
grows one network per search this way, and no decision of a search builds
one; the implicit engine appends a backward edge to its cover's network for
each pair new to its flow's support.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .geometry import contains
from .numeric import InputError, InternalError, exact, integer_scale, scaled_ints

INF = math.inf


@dataclass(frozen=True)
class SupplyDemand:
    """Per-point supplies and per-range demands, every one positive and
    exact: floats are read as the ``Fraction`` of the same value."""

    supplies: tuple
    demands: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "supplies", tuple(map(exact, self.supplies)))
        object.__setattr__(self, "demands", tuple(map(exact, self.demands)))
        if any(s <= 0 for s in self.supplies) or any(d <= 0 for d in self.demands):
            raise InputError("supplies and demands must be positive")

    @classmethod
    def unit(cls, n_points: int, n_ranges: int) -> "SupplyDemand":
        return cls((1,) * n_points, (1,) * n_ranges)

    @property
    def target(self):
        """Upper bound min(total supply, total demand) on any matching value."""
        return min(sum(self.supplies), sum(self.demands))

    def scaled(self) -> tuple:
        """(int weights, scale): this instance with every supply and demand
        multiplied by the scale, the one positive int that makes each an int
        (``integer_scale`` and ``scaled_ints``, which read each weight's
        numerator and denominator by ``numeric.ratio``), so a solver adds
        and compares ints only, and
        ``unscaled`` divides the amounts it finds back.  When every weight
        is an int already, the scale is None and the instance comes back as
        it is; ``Fraction(1)`` weights scale by 1, and their amounts come
        back as ``Fraction``s."""
        weights = self.supplies + self.demands
        if all(isinstance(w, int) for w in weights):
            return self, None
        scale = integer_scale(weights)
        return SupplyDemand(*(scaled_ints(w, scale) for w in (self.supplies, self.demands))), scale


class FlowNetwork:
    """Directed network from source 0 to sink 1 as a paired edge list: edge
    ``e ^ 1`` is the reverse of edge ``e``; original edge k has id 2k, runs
    from ``tails[k]`` to ``heads[k]`` with capacity ``caps[k]``, and a
    vertex's adjacency lists its edges by ascending id.  Point p is vertex
    2 + p and range r is vertex 2 + ``n_points`` + r; the middle vertices
    close the list.  The feeders and drains lead the edge list."""

    source = 0
    sink = 1

    def __init__(self, n, tails, heads, caps, *, n_points, n_ranges):
        self.n = n
        self.n_points = n_points
        self.n_ranges = n_ranges
        self.eto, self.ecap = [], []
        self.head = [[] for _ in range(n)]
        self.extend(tails, heads, caps)

    @property
    def edge_count(self) -> int:
        return len(self.eto) // 2

    def extend(self, tails, heads, caps) -> None:
        """Append an edge from ``tails[k]`` to ``heads[k]`` with capacity
        ``caps[k]`` for each k.  Their ids continue the list, so each is the
        last of its ends' adjacencies until a later one comes."""
        m, e0 = len(tails), len(self.eto)
        eto = [0] * (2 * m)
        eto[0::2] = heads
        eto[1::2] = tails
        self.eto += eto
        ecap = [0] * (2 * m)
        ecap[0::2] = caps
        self.ecap += ecap
        tail_of = [0] * (2 * m)  # edge e leaves eto[e ^ 1]
        tail_of[0::2] = tails
        tail_of[1::2] = heads
        head = self.head
        for e, u in enumerate(tail_of, e0):
            head[u].append(e)

    def add_parts(self, parts) -> None:
        """``extend`` by the cover parts ``parts``, uncapacitated, in order.
        A part with two or more points and two or more ranges gets a new
        middle vertex, its pins then its pouts; any other part becomes
        direct edges, point by point."""
        np_ = self.n_points
        mid0 = 2 + np_ + self.n_ranges
        # lists, not ranges: indexed once per edge, and a list index is cheaper
        pid, rid = list(range(2, 2 + np_)), list(range(2 + np_, mid0))
        tails, heads = [], []
        n = self.n
        # one append per edge and no call per part: most parts hold one edge
        tail, head = tails.append, heads.append
        for ps, rs in parts:
            if len(rs) == 1:  # direct edges into one range
                v = rid[rs[0]]
                for p in ps:
                    tail(pid[p])
                    head(v)
            elif len(ps) > 1 and len(rs) > 1:
                for p in ps:
                    tail(pid[p])
                    head(n)
                for r in rs:
                    tail(n)
                    head(rid[r])
                n += 1
            else:  # direct edges out of one point
                hs = [rid[r] for r in rs]
                for p in ps:
                    tails += [pid[p]] * len(hs)
                    heads += hs
        self.head += [[] for _ in range(n - self.n)]
        self.n = n
        self.extend(tails, heads, [INF] * len(tails))

    def drop_idle(self, res) -> None:
        """Remove from the adjacency lists every edge past the feeders and
        drains that carries no flow in the residual ``res``, with its
        reverse slot.  Edge ids stay, so a flow's values read as before."""
        base = 2 * (self.n_points + self.n_ranges)
        # slot e's original edge carries flow when its twin, slot e | 1, has residual
        self.head = [[e for e in out if e < base or res[e | 1] > 0] for out in self.head]

    def add_backward(self, pairs: dict) -> None:
        """``extend`` by an edge from range r back to point p with capacity
        a for each (p, r): a of ``pairs``, in its order."""
        rbase = 2 + self.n_points
        rs = [rbase + r for _p, r in pairs]
        self.extend(rs, [2 + p for p, _r in pairs], list(pairs.values()))

    def set_supply_demand(self, supplies, demands) -> None:
        """Set the capacities of the feeders to ``supplies`` and of the
        drains to ``demands``; they lead the layout, point p's feeder is
        edge 2p and range r's drain 2(|P| + r)."""
        np_, ecap = self.n_points, self.ecap
        ecap[0 : 2 * np_ : 2] = supplies
        ecap[2 * np_ : 2 * (np_ + self.n_ranges) : 2] = demands


@dataclass
class Flow:
    """Per-edge flow aligned with a network's original (even) edge ids.
    ``reached`` holds the indices of the points and of the ranges that the
    last BFS of ``max_flow_dinitz`` reached: with the source they are the
    source side of a minimum cut, whose capacity, the supplies of the other
    points plus the demands of these ranges, is the flow's value."""

    values: list
    value: object
    reached: tuple = ((), ())

    def on(self, edge_id: int):
        return self.values[edge_id // 2]


def build_network(cover, sd: SupplyDemand) -> FlowNetwork:
    """Flow network for a cover, in the one layout of both Dinitz drivers.
    Edge ids run: the feeders (point p's is 2p), the drains (range r's is
    2(|P| + r)), then the parts in cover order (``FlowNetwork.add_parts``).
    So the network has 2 + |P| + |R| + (parts with a middle vertex)
    vertices and |P| + |R| + sum of |A|*|B| (singleton side) or |A| + |B|
    (other) edges."""
    np_, nr = cover.left_count, cover.right_count
    if len(sd.supplies) != np_ or len(sd.demands) != nr:
        raise InputError("supply/demand lengths disagree with the cover")
    rbase = 2 + np_
    net = FlowNetwork(
        rbase + nr,
        [0] * np_ + list(range(rbase, rbase + nr)),
        list(range(2, rbase)) + [1] * nr,
        [*sd.supplies, *sd.demands],
        n_points=np_,
        n_ranges=nr,
    )
    net.add_parts(cover.parts)
    return net


def level_graph(net: FlowNetwork, res: list) -> list:
    """Dinitz's BFS on ``net`` with residual capacities ``res``, for both
    Dinitz drivers: the level of every vertex, -1 where it found none.  It
    stops at the sink's level, past which no shortest path runs, and resets
    the vertices at or past it but the sink; the sink keeps -1 when no
    residual path reaches it.

    A residual edge between two vertices of the point and range blocks, a
    direct edge, its reverse slot or a backward edge of the implicit engine,
    spans two levels, so a point-to-range hop spans two levels whether or
    not its part has a middle vertex.  Every other edge joins those blocks
    to the source, the sink or a middle vertex and spans one level.  So
    every vertex has a fixed level parity, points and ranges odd and the
    rest even, and a vertex's first level is already its least one.  With
    these levels a residual edge never climbs more levels than it spans,
    and parity rules out one level on a two-level edge, so the blocking
    flow's test, a higher level at the head, admits exactly the next level
    along each edge.  The point-or-range test of the tail is made once per
    expanded vertex, and only a point or a range tests its heads; an edge's
    residual is read before its head, since every reverse slot of a phase
    network starts empty."""
    s, t = net.source, net.sink
    head, eto = net.head, net.eto
    mid0 = 2 + net.n_points + net.n_ranges
    level = [-1] * net.n
    level[s] = 0
    # two buckets, the vertices one and two levels past the ones expanded
    frontier, near, far = [s], [], []
    d = 0
    while frontier or near:
        d += 1
        for u in frontier:
            if 1 < u < mid0:  # a point or a range
                for e in head[u]:
                    if res[e] > 0:
                        v = eto[e]
                        if level[v] < 0:
                            if 1 < v < mid0:
                                level[v] = d + 1
                                far.append(v)
                            else:
                                level[v] = d
                                near.append(v)
            else:
                for e in head[u]:
                    if res[e] > 0:
                        v = eto[e]
                        if level[v] < 0:
                            level[v] = d
                            near.append(v)
        if level[t] >= 0:
            # the sink is entered by drains, one level each, so it sits
            # at level d; no other vertex at d or past it reaches it
            for v in near + far:
                level[v] = -1
            level[t] = d
            break
        frontier, near, far = near, far, []
    return level


def max_flow_dinitz(net: FlowNetwork, residual: list | None = None) -> Flow:
    """Dinitz max flow: ``level_graph`` levels, then a pointer-based DFS
    blocking flow per phase, on exact capacities; the input network is not
    mutated.

    ``residual`` gives the residual capacity of every edge slot, the state
    of a feasible flow on this network to start from: an earlier flow,
    continued after ``extend`` appended edges at their full capacities and
    ``drop_idle`` removed edges that carry none.  The phases augment it to
    a maximum in place; without it they start from the empty flow."""
    s, t = net.source, net.sink
    head, eto = net.head, net.eto
    res = list(net.ecap) if residual is None else residual
    # the source has original edges only; each one's flow sits on its twin
    total = sum(res[e + 1] for e in head[s])
    level = level_graph(net, res)
    while level[t] >= 0:
        total += _blocking_flow(head, eto, res, level, s, t)
        level = level_graph(net, res)
    rbase = 2 + net.n_points
    reached = (
        [v - 2 for v in range(2, rbase) if level[v] >= 0],
        [v - rbase for v in range(rbase, rbase + net.n_ranges) if level[v] >= 0],
    )
    # Flow on an original edge equals the residual accumulated on its twin.
    return Flow(res[1::2], total, reached)


def _blocking_flow(head, eto, res, level, s, t):
    """Blocking flow by depth-first search with one edge pointer per vertex,
    for both Dinitz drivers.  An edge e out of u is admitted when
    ``res[e] > 0`` and its head has a higher level than u; the levels of
    ``level_graph`` make that exactly the edges of its level graph.  A dead
    end is retired by setting its level to -1.  A vertex's edges are
    scanned from its pointer, held in a local until the scan stops.  A path
    to the sink takes its least residual, and the DFS backs up to the tail
    of its first saturated edge.  Augments ``res`` in place and returns the
    amount pushed."""
    it = [0] * len(head)
    stack = []  # edge ids of the current DFS path
    total = 0
    u = s
    while True:
        if u == t:
            delta = min(map(res.__getitem__, stack))
            for e in stack:
                res[e] -= delta
                res[e ^ 1] += delta
            total += delta
            # cut the path at its first saturated edge
            cut = 0
            while res[stack[cut]] > 0:
                cut += 1
            del stack[cut:]
            u = eto[stack[-1]] if stack else s
            continue
        out = head[u]
        lu = level[u]
        i, end = it[u], len(out)
        while i < end:
            e = out[i]
            if res[e] > 0 and level[eto[e]] > lu:
                break
            i += 1
        it[u] = i
        if i < end:
            stack.append(e)
            u = eto[e]
        elif u == s:
            break
        else:
            level[u] = -1  # dead end, retire the vertex for this phase
            e = stack.pop()
            u = eto[e ^ 1]
            it[u] += 1
    return total


# A matching is a list of (point index, range index, amount) triples.
Matching = list


def project_flow(net: FlowNetwork, values):
    """(adds, subs): the (point, range, amount) triples of the flow ``values``
    on the edges of ``net`` past its feeders and drains, which lead the
    layout.  ``adds`` holds the direct edges' flows in id order, then each
    middle vertex's paired flows; ``subs`` the flows of the edges from a
    range back to a point, the implicit engine's backward edges.  An edge's
    role follows from its ends' blocks."""
    eto = net.eto
    rbase = 2 + net.n_points
    mid0 = rbase + net.n_ranges
    # inflows and outflows of each middle vertex that carries flow; the few
    # such vertices of a phase, not every middle vertex of the network
    mids = {}
    adds, subs = [], []
    # the |P| feeders and |R| drains lead
    for k in range(mid0 - 2, len(values)):
        amt = values[k]
        if not amt > 0:
            continue
        u, v = eto[2 * k + 1], eto[2 * k]
        if u < rbase:  # out of a point: a pin or a direct edge
            if v >= mid0:
                mids.setdefault(v, ([], []))[0].append([u - 2, amt])
            else:
                adds.append((u - 2, v - rbase, amt))
        elif u < mid0:  # out of a range: a backward edge
            subs.append((v - 2, u - rbase, amt))
        else:  # a pout
            mids.setdefault(u, ([], []))[1].append([v - rbase, amt])
    for v in sorted(mids):  # in vertex order
        adds += _pair_part(*mids[v])
    return adds, subs


def flow_to_matching(flow: Flow, net: FlowNetwork, cover) -> Matching:
    """Read the matching off a flow on ``build_network(cover, ...)`` with
    ``project_flow``, merging the duplicate (p, r) pairs of overlapping
    parts.  The reading needs only the network; a flow or a network of
    another shape raises InternalError."""
    if len(flow.values) != net.edge_count:
        raise InternalError("flow does not fit the network")
    if net.n_points != cover.left_count or net.n_ranges != cover.right_count:
        raise InternalError("network does not fit the cover")
    merged = defaultdict(int)
    for p, r, amt in project_flow(net, flow.values)[0]:
        merged[(p, r)] += amt
    return [(p, r, amt) for (p, r), amt in sorted(merged.items()) if amt > 0]


def _pair_part(lp: list, lr: list) -> list:
    """Pair the inflows ``lp`` and outflows ``lr`` of one middle vertex, each
    a list of [index, amount]: repeatedly match the first point and range
    with a positive remaining amount, emitting the smaller amount, so at
    most len(lp) + len(lr) - 1 triples.  Flow left unpaired on either side
    breaks conservation at the vertex and raises InternalError."""
    out = []
    a = b = 0
    while a < len(lp) and b < len(lr):
        p, pa = lp[a]
        r, ra = lr[b]
        take = pa if pa <= ra else ra
        out.append((p, r, take))
        lp[a][1] = pa - take
        lr[b][1] = ra - take
        if not lp[a][1] > 0:
            a += 1
        if not lr[b][1] > 0:
            b += 1
    for _, rest in lp[a:]:
        if rest != 0:
            raise InternalError("unpaired inflow at a middle vertex")
    for _, rest in lr[b:]:
        if rest != 0:
            raise InternalError("unpaired outflow at a middle vertex")
    return out


def matching_value(matching: Matching):
    return sum((amt for _p, _r, amt in matching), 0)


def unscaled(matching: Matching, scale) -> Matching:
    """A matching over the int weights of ``SupplyDemand.scaled`` as one
    over the weights it scaled: every amount divided back by ``scale``,
    unless the scale is None."""
    if scale is None:
        return matching
    return [(p, r, Fraction(a, scale)) for p, r, a in matching]


def validate_matching(matching: Matching, points, ranges, sd: SupplyDemand) -> bool:
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
        if not amt > 0:
            return False
        if not contains(ranges[r], points[p]):
            return False
        used[p] += amt
        met[r] += amt
    if any(u > s for u, s in zip(used, sd.supplies)):
        return False
    if any(m > d for m, d in zip(met, sd.demands)):
        return False
    return True

