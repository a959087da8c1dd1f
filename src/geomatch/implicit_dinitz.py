"""Maximum many-to-many matching by blocking-flow phases over an incidence
graph held implicitly as a biclique cover.

The engine builds the cover's flow network once (``flow.build_network``).
A part with two or more points and two or more ranges passes through one
middle vertex there, so the network has O(n + sigma) edges however dense
the incidences are.  The running flow lives in its support, a dict of
(point, range) pairs, and not on the network.  Each phase:

- sets the feeders to the unused supplies and the drains to the unmet
  demands, and gives each support pair's backward edge r -> p its flow as
  capacity and every other backward edge 0 (``expand_level_graph``); a
  pair gets its edge appended the first time it enters the support and
  keeps it for the rest of the call;
- runs ``flow``'s BFS on that network from the empty flow
  (``build_level_graph``) and ``flow``'s DFS for a blocking flow
  (``blocking_flow``);
- reads the blocking flow back as (point, range) pairs with
  ``flow.project_flow`` and folds them into the support
  (``augment_and_project``).

So a phase costs O(n + sigma) plus one edge per pair that was ever in the
support.  Between phases the flow support is pruned to a forest (rblct
module), in place and only in the components where the phase closed a
cycle, which keeps the support linear in the node count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cover import BicliqueCover
from .flow import Flow, FlowNetwork, Matching, SupplyDemand
from .flow import _blocking_flow, build_network, level_graph, project_flow, unscaled
from .numeric import InputError, InternalError
from .rblct import prune_to_forest

# build_level_graph returns Done (None) when no unmet demand is reachable,
# i.e. the current flow is maximum
Done = None


@dataclass
class PhaseState:
    """Flow accumulated so far plus the per-phase bookkeeping.  ``backward``
    maps every pair that has been in the support during the call to the id
    of its backward edge on the phase network; a pair that left the support
    keeps its edge, at capacity 0, and gets it back if it returns."""

    flow: dict  # (point, range) -> positive amount
    used: list  # shipped supply per point
    met: list  # received demand per range
    t_levels: list = field(default_factory=list)  # one per phase
    backward: dict = field(default_factory=dict)  # (point, range) -> edge id


def new_phase_state(n_points: int, n_ranges: int) -> PhaseState:
    return PhaseState({}, [0] * n_points, [0] * n_ranges)


def expand_level_graph(f: PhaseState, net: FlowNetwork, sd: SupplyDemand, m: int) -> FlowNetwork:
    """One phase's network: ``net``, the network of the cover from
    ``flow.build_network``, whose edges past its first ``m``, the cover's,
    are backward edges from a range r to a point p, one per pair in
    ``f.backward``.  The feeders get the unused supplies and the drains the
    unmet demands; every backward edge is zeroed, a pair new to the support
    gets its edge appended (``add_backward``), and each support pair's edge
    gets its flow f(p, r) as capacity.  So a pair that left the support
    keeps an edge that can carry nothing, and the edges follow the order in
    which the pairs were first seen.  The cover's edges carry no flow, so a
    phase starts from the empty flow on this network.  Returns ``net``."""
    net.set_supply_demand(
        [s - u for s, u in zip(sd.supplies, f.used)],
        [d - got for d, got in zip(sd.demands, f.met)],
    )
    ecap, back = net.ecap, f.backward
    ecap[2 * m :] = [0] * (len(ecap) - 2 * m)
    new = {}
    for key, amt in f.flow.items():
        e = back.get(key)
        if e is None:
            new[key] = amt
        else:
            ecap[e] = amt
    if new:
        back.update(zip(new, range(len(ecap), len(ecap) + 2 * len(new), 2)))
        net.add_backward(new)
    return net


def build_level_graph(net: FlowNetwork, res: list):
    """One phase's level graph: the levels ``flow.level_graph`` gives the
    residual ``res`` of the phase network, or Done when they do not reach
    the sink.  With k range layers the sink sits at level 4k: a backward
    edge, from a range to a point, spans two levels."""
    level = level_graph(net, res)
    return Done if level[net.sink] < 0 else level


def blocking_flow(net: FlowNetwork, res: list, level: list) -> Flow:
    """Blocking flow on a phase network: ``flow``'s DFS, which augments
    ``res`` and retires dead ends in ``level`` in place.  The levels rise
    along every edge of the level graph and the reverse slots start empty,
    so every found path is a shortest one and every s-t path of the level
    graph ends up saturated."""
    total = _blocking_flow(net.head, net.eto, res, level, net.source, net.sink)
    return Flow(res[1::2], total)


def augment_and_project(f: PhaseState, g: Flow, net: FlowNetwork) -> PhaseState:
    """Fold a blocking flow on the phase network ``net`` into ``f``:
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
    Builds the cover's network once, then runs expand -> levels -> blocking
    flow -> project on it per phase, pruning the support to a forest after
    every phase.  The t-level, 2k + 1 in a phase with k range layers,
    strictly increases, so at most min(|P|, |R|) phases occur.  Pass a list
    as ``trace`` to receive one (t_level, pushed value, support size) triple
    per phase.

    Supplies and demands are read once as ints (``SupplyDemand.scaled``),
    so every phase adds, subtracts and compares ints; with some weight that
    is not an int, each amount (``flow.unscaled``) and each traced value is
    divided back as ``Fraction(v, scale)``.
    """
    n_points = P if isinstance(P, int) else len(P)
    n_ranges = R if isinstance(R, int) else len(R)
    if n_points != len(sd.supplies) or n_ranges != len(sd.demands):
        raise InputError("supply/demand vectors do not match the point/range counts")
    if c.left_count != n_points or c.right_count != n_ranges:
        raise InputError("cover shape does not match the point/range counts")

    sd, scale = sd.scaled()
    net = build_network(c, sd)
    m = net.edge_count
    state = new_phase_state(n_points, n_ranges)
    max_phases = min(n_points, n_ranges)
    while True:
        net = expand_level_graph(state, net, sd, m)
        res = list(net.ecap)
        level = build_level_graph(net, res)
        if level is Done:
            break
        t_level = level[net.sink] // 2 + 1
        if state.t_levels and t_level <= state.t_levels[-1]:
            raise InternalError("t-level failed to increase between phases")
        state.t_levels.append(t_level)
        g = blocking_flow(net, res, level)
        if not g.value > 0:
            raise InternalError("reachable t but empty blocking flow")
        augment_and_project(state, g, net)
        state = prune_to_forest(state)
        if trace is not None:
            pushed = g.value if scale is None else Fraction(g.value, scale)
            trace.append((t_level, pushed, len(state.flow)))
        if len(state.t_levels) > max_phases:
            raise InternalError("phase count exceeded the layer bound")
    return unscaled(sorted((p, r, a) for (p, r), a in state.flow.items()), scale)
