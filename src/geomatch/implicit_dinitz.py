"""Maximum many-to-many matching by blocking-flow phases over an incidence
graph held implicitly as a biclique cover.

The conceptual network is s -> points -> ranges -> t plus, once flow exists,
reversal edges from ranges back to points.  A phase never materializes the
point-range edges: the level graph stores, per consecutive layer pair, the
cover parts touched by the frontier (each part restricted to the nodes that
actually sit on those two levels), and only feeder, backward, and draining
edges explicitly, so a phase costs O(n + sigma) however dense the
incidences are.  ``flow.layered_network`` expands it in the explicit route's
layout, with levels that rise along every edge; ``flow``'s one DFS finds the
blocking flow and ``flow.project_flow`` reads it back as (point, range) pairs.

Between phases the flow support is pruned to a forest (rblct module), which
keeps the backward edge count linear in the node count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cover import BicliqueCover
from .flow import Flow, FlowNetwork, Matching, SupplyDemand
from .flow import _blocking_flow, layered_network, project_flow
from .numeric import InputError, InternalError, integer_scale, scaled_ints
from .rblct import prune_to_forest

# build_level_graph returns Done (None) when no unmet demand is reachable,
# i.e. the current flow is maximum
Done = None


@dataclass
class PhaseState:
    """Flow accumulated so far plus the per-phase bookkeeping."""

    flow: dict  # (point, range) -> positive amount
    used: list  # shipped supply per point
    met: list  # received demand per range
    t_levels: list = field(default_factory=list)  # one per phase


def new_phase_state(n_points: int, n_ranges: int) -> PhaseState:
    return PhaseState({}, [0] * n_points, [0] * n_ranges)


@dataclass
class LevelGraph:
    """One phase's layered residual graph.

    Point layer j sits at level 2j+1, range layer j at level 2j+2, t at
    ``t_level``.  ``forward[j]`` holds (points, ranges) pairs:
    the cover parts consumed by point layer j, each restricted to that
    layer on the point side and to first-reached ranges on the range side.
    ``backward[j]`` holds (range, point, capacity) flow-reversal edges from
    range layer j to point layer j+1.
    """

    point_layers: list
    range_layers: list
    forward: list
    backward: list
    feeders: tuple  # (points of layer 0, their unused supplies)
    drains: tuple  # (ranges at level t_level - 1, their unmet demands)
    t_level: int


def build_point_index(cover: BicliqueCover) -> list:
    """point index -> ids of the cover parts containing it."""
    index = [[] for _ in range(cover.left_count)]
    for i, (pts, _rngs) in enumerate(cover.parts):
        for p in pts:
            index[p].append(i)
    return index


def build_level_graph(
    f: PhaseState,
    c: BicliqueCover,
    sd: SupplyDemand,
    *,
    index: list | None = None,
):
    """BFS layering of the residual graph, one layer set at a time.

    Cover parts are consumed whole the first time any of their points is
    leveled: every range of such a part lands on the very next level, so
    edges from later-leveled points through the same part can never advance
    the BFS distance and are dropped without loss.  Construction stops at
    the first range layer holding unmet demand (t is placed there) and
    reports Done if a layer empties out first.
    """
    n_points = len(sd.supplies)
    n_ranges = len(sd.demands)
    if index is None:
        index = build_point_index(c)

    first = [p for p in range(n_points) if sd.supplies[p] > f.used[p]]
    if not first:
        return Done
    p_done = bytearray(n_points)
    r_done = bytearray(n_ranges)
    i_done = bytearray(len(c.parts))
    for p in first:
        p_done[p] = 1

    support = {}  # range -> [(point, amount)], only built from nonzero flow
    for (p, r) in sorted(f.flow):
        support.setdefault(r, []).append((p, f.flow[(p, r)]))

    point_layers = [first]
    range_layers = []
    forward = []
    backward = []
    frontier, fset = first, set(first)

    while True:
        touched = []
        for p in frontier:
            for i in index[p]:
                if not i_done[i]:
                    i_done[i] = 1
                    touched.append(i)
        # all parts see the same not-yet-leveled snapshot: a range shared by
        # two parts of this step belongs to both restrictions
        step_parts = []
        layer_r = []
        seen_r = set()
        for i in touched:
            pts_i = [p for p in c.parts[i][0] if p in fset]
            rngs_i = [r for r in c.parts[i][1] if not r_done[r]]
            if pts_i and rngs_i:
                step_parts.append((pts_i, rngs_i))
                for r in rngs_i:
                    if r not in seen_r:
                        seen_r.add(r)
                        layer_r.append(r)
        if not layer_r:
            return Done
        for r in layer_r:
            r_done[r] = 1
        range_layers.append(layer_r)
        forward.append(step_parts)

        unmet = [r for r in layer_r if sd.demands[r] > f.met[r]]
        if unmet:
            return LevelGraph(
                point_layers=point_layers,
                range_layers=range_layers,
                forward=forward,
                backward=backward,
                feeders=(first, [sd.supplies[p] - f.used[p] for p in first]),
                drains=(unmet, [sd.demands[r] - f.met[r] for r in unmet]),
                t_level=2 * len(range_layers) + 1,
            )

        new_pts = []
        new_set = set()
        for r in layer_r:
            for p, _amt in support.get(r, ()):
                if not p_done[p] and p not in new_set:
                    new_set.add(p)
                    new_pts.append(p)
        if not new_pts:
            return Done
        bk = [
            (r, p, amt)
            for r in layer_r
            for p, amt in support.get(r, ())
            if p in new_set
        ]
        for p in new_pts:
            p_done[p] = 1
        backward.append(bk)
        point_layers.append(new_pts)
        frontier, fset = new_pts, new_set


def expand_level_graph(L: LevelGraph) -> FlowNetwork:
    """One phase's flow network, O(sigma) edges: ``flow.layered_network``
    with one step per range layer, points and ranges in layer order.  Point
    layer j sits at level 3j+1, the middle vertices of step j at 3j+2 and
    range layer j at 3j+3, so every edge climbs and every reverse slot
    descends."""
    pts = [p for layer in L.point_layers for p in layer]
    rngs = [r for layer in L.range_layers for r in layer]
    pid = {p: v for v, p in enumerate(pts, 2)}
    rid = {r: v for v, r in enumerate(rngs, 2 + len(pts))}
    mid0 = 2 + len(pts) + len(rngs)
    # the last range layer has no backward edges
    steps = zip(L.forward, L.backward + [()])
    tails, heads, caps, mid_step = layered_network(pid, rid, mid0, L.feeders, L.drains, steps)
    level = [0, 3 * len(L.range_layers) + 1]
    level += [3 * j + 1 for j, layer in enumerate(L.point_layers) for _ in layer]
    level += [3 * j + 3 for j, layer in enumerate(L.range_layers) for _ in layer]
    level += [3 * j + 2 for j in mid_step]
    return FlowNetwork(len(level), tails, heads, caps, points=pts, ranges=rngs, level=level)


def blocking_flow(Lp: FlowNetwork) -> Flow:
    """Blocking flow on a phase network: ``flow``'s DFS with the levels that
    ``expand_level_graph`` assigned.  They rise along every edge of the DAG
    and fall along every reverse slot, so reverse residual edges are never
    traversed, every found path is a shortest one and every s-t path ends
    up saturated."""
    res = list(Lp.ecap)
    total = _blocking_flow(Lp.head, Lp.eto, res, list(Lp.level), Lp.source, Lp.sink)
    return Flow(res[1::2], total)


def augment_and_project(f: PhaseState, g: Flow, L: LevelGraph, net: FlowNetwork) -> PhaseState:
    """Fold a blocking flow on ``net = expand_level_graph(L)`` into ``f``:
    the pairs of ``flow.project_flow`` subtract and add, and by conservation
    each pair moves the supply/demand bookkeeping of its point and range by
    its amount.  Returns ``f``."""
    adds, subs = project_flow(net, g.values)
    used, met = f.used, f.met
    pushed = 0
    for p, r, amt in subs:
        used[p] -= amt
        met[r] -= amt
        pushed -= amt
        cur = f.flow.get((p, r))
        if cur is None:
            raise InternalError("backward flow on a pair with no stored flow")
        cur = cur - amt
        if cur < 0:
            raise InternalError("backward flow exceeds the stored pair flow")
        if cur > 0:
            f.flow[(p, r)] = cur
        else:
            del f.flow[(p, r)]
    for p, r, amt in adds:
        used[p] += amt
        met[r] += amt
        pushed += amt
        key = (p, r)
        f.flow[key] = f.flow.get(key, 0) + amt
    if pushed != g.value:
        raise InternalError("projected pairs do not carry the blocking flow")
    f.t_levels.append(L.t_level)
    return f


def max_matching_implicit(
    P,
    R,
    sd: SupplyDemand,
    c: BicliqueCover,
    *,
    trace: list | None = None,
) -> Matching:
    """Maximum matching under the given supplies and demands.

    ``P`` and ``R`` are the point and range collections (or their counts).
    Runs build -> expand -> blocking flow -> project, pruning the support to
    a forest after every phase; the t-level strictly increases, so at most
    min(|P|, |R|) phases occur.  Pass a list as ``trace`` to receive one
    (t_level, pushed value, support size) triple per phase.

    With some ``Fraction`` weight, supplies and demands are multiplied once
    by the LCM of their denominators, so every phase adds, subtracts and
    compares ints; each amount (and each traced value) is divided back as
    ``Fraction(v, scale)``.
    """
    n_points = P if isinstance(P, int) else len(P)
    n_ranges = R if isinstance(R, int) else len(R)
    if n_points != len(sd.supplies) or n_ranges != len(sd.demands):
        raise InputError("supply/demand vectors do not match the point/range counts")
    if c.left_count != n_points or c.right_count != n_ranges:
        raise InputError("cover shape does not match the point/range counts")

    weights = sd.supplies + sd.demands
    scale = None
    if not all(isinstance(w, int) for w in weights):
        scale = integer_scale(weights)
        sd = SupplyDemand(scaled_ints(sd.supplies, scale), scaled_ints(sd.demands, scale))

    index = build_point_index(c)
    state = new_phase_state(n_points, n_ranges)
    max_phases = min(n_points, n_ranges)
    while True:
        L = build_level_graph(state, c, sd, index=index)
        if L is Done:
            break
        if state.t_levels and L.t_level <= state.t_levels[-1]:
            raise InternalError("t-level failed to increase between phases")
        net = expand_level_graph(L)
        g = blocking_flow(net)
        if not g.value > 0:
            raise InternalError("reachable t but empty blocking flow")
        augment_and_project(state, g, L, net)
        state = prune_to_forest(state)
        if trace is not None:
            pushed = g.value if scale is None else Fraction(g.value, scale)
            trace.append((L.t_level, pushed, len(state.flow)))
        if len(state.t_levels) > max_phases:
            raise InternalError("phase count exceeded the layer bound")
    if scale is None:
        return sorted((p, r, a) for (p, r), a in state.flow.items())
    return sorted((p, r, Fraction(a, scale)) for (p, r), a in state.flow.items())
