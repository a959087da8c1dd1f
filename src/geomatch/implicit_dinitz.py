"""Maximum many-to-many matching by blocking-flow phases over an incidence
graph held implicitly as a biclique cover.

The engine builds the cover's flow network once (``flow.build_network``).
A part with two or more points and two or more ranges passes through one
middle vertex there, so the network has O(n + sigma) edges however dense
the incidences are.  The running flow lives on that network alone, as
capacities: the feeders hold the unused supplies, the drains the unmet
demands, and every (point, range) pair that has carried flow has one
backward edge r -> p, whose capacity is the pair's current flow.  A pair's
edge is appended the first time the pair is seen and kept for the rest of
the call, at capacity 0 while the pair carries nothing.  Each phase:

- appends the backward edges of the pairs that the last phase saw first
  (``expand_level_graph``);
- runs ``flow``'s BFS on that network from the empty flow
  (``build_level_graph``) and ``flow``'s DFS for a blocking flow
  (``blocking_flow``);
- leaves on every edge the residual capacity the blocking flow left it,
  and reads its flow on the cover's edges back as (point, range) pairs
  with ``flow.project_flow``, each adding its amount to its pair's backward
  edge (``augment_and_project``).

So a phase costs O(n + sigma) plus one edge per pair ever seen.  At the end
the pairs whose backward edges carry flow are the matching's support, and
one prune to a forest (rblct module) cancels its cycles, which leaves at
most |P| + |R| - 1 pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .cover import BicliqueCover
from .flow import FlowNetwork, Matching, SupplyDemand
from .flow import _blocking_flow, build_network, level_graph, project_flow, unscaled
from .numeric import InputError, InternalError
from .rblct import prune_to_forest

# build_level_graph returns Done (None) when no unmet demand is reachable,
# i.e. the current flow is maximum
Done = None


def expand_level_graph(net: FlowNetwork, backward: dict, new: dict) -> FlowNetwork:
    """One phase's network: ``net`` with a backward edge from range r to
    point p appended for each (p, r): a of ``new``, in its order, at
    capacity a (``FlowNetwork.add_backward``).  ``backward`` maps every pair
    seen so far to its edge's id and gets the new ones.  Returns ``net``."""
    e0 = 2 * net.edge_count
    backward.update(zip(new, range(e0, e0 + 2 * len(new), 2)))
    net.add_backward(new)
    return net


def build_level_graph(net: FlowNetwork, res: list):
    """One phase's level graph: the levels ``flow.level_graph`` gives the
    residual ``res`` of the phase network, or Done when they do not reach
    the sink.  With k range layers the sink sits at level 4k: a backward
    edge, from a range to a point, spans two levels."""
    level = level_graph(net, res)
    return Done if level[net.sink] < 0 else level


def blocking_flow(net: FlowNetwork, res: list, level: list):
    """Blocking flow on a phase network: ``flow``'s DFS, which augments
    ``res`` and retires dead ends in ``level`` in place, and returns the
    amount pushed.  The levels rise along every edge of the level graph and
    the reverse slots start empty, so every found path is a shortest one
    and every s-t path of the level graph ends up saturated."""
    return _blocking_flow(net.head, net.eto, res, level, net.source, net.sink)


def augment_and_project(net: FlowNetwork, res: list, pushed, m: int, backward: dict) -> dict:
    """Keep on the phase network ``net``, whose first ``m`` edges are the
    cover's, the blocking flow of value ``pushed`` that left the residual
    ``res``.  Every edge takes the capacity the phase left it, which is
    the unused supply on a feeder, the unmet demand on a drain and the
    pair's flow less what the phase pushed back on a backward edge, while
    the uncapacitated edges stay so.  The flow on the cover's edges, read
    back as (point, range) pairs by ``flow.project_flow``, then adds each
    pair's amount to its backward edge in ``backward``.  Returns the pairs
    that have none yet, with their amounts, for ``expand_level_graph``."""
    ecap, b = net.ecap, 2 * m
    ecap[::2] = res[::2]
    # the flow pushed back along a backward edge sits on its twin
    total = -sum(res[b + 1 :: 2])
    new = {}
    for p, r, amt in project_flow(net, res[1:b:2]):
        total += amt
        key = (p, r)
        e = backward.get(key)
        if e is None:
            new[key] = new.get(key, 0) + amt
        else:
            ecap[e] += amt
    if total != pushed:
        raise InternalError("projected pairs do not carry the blocking flow")
    return new


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
    flow -> project on it per phase, and prunes the final support to a
    forest once.  The t-level, 2k + 1 in a phase with k range layers,
    strictly increases, so at most min(|P|, |R|) phases occur.  Pass a list
    as ``trace`` to receive one (t_level, pushed value, support size) triple
    per phase, where the support counts the pairs that carry flow after the
    phase, before the prune.

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
    backward, new, t_levels = {}, {}, []
    max_phases = min(n_points, n_ranges)
    while True:
        net = expand_level_graph(net, backward, new)
        res = list(net.ecap)
        level = build_level_graph(net, res)
        if level is Done:
            break
        t_level = level[net.sink] // 2 + 1
        if t_levels and t_level <= t_levels[-1]:
            raise InternalError("t-level failed to increase between phases")
        t_levels.append(t_level)
        pushed = blocking_flow(net, res, level)
        if not pushed > 0:
            raise InternalError("reachable t but empty blocking flow")
        new = augment_and_project(net, res, pushed, m, backward)
        if trace is not None:
            support = len(new) + sum(net.ecap[e] > 0 for e in backward.values())
            trace.append((t_level, pushed if scale is None else Fraction(pushed, scale), support))
        if len(t_levels) > max_phases:
            raise InternalError("phase count exceeded the layer bound")
    ecap = net.ecap
    support = prune_to_forest({k: ecap[e] for k, e in backward.items() if ecap[e] > 0})
    return unscaled(sorted((p, r, a) for (p, r), a in support.items()), scale)
