import random
from fractions import Fraction

import pytest

from geomatch.numeric import InputError
import geomatch.rblct as rblct_mod
from geomatch.rblct import RbForest, _bridges, _cyclic_components, prune_to_forest

from helpers import MirroredForests, node_totals, rand_support_flow, uf_is_forest


def chain(forest, colors, values):
    """Build a path, returning its nodes; edge i joins node i to node i+1 and
    takes node i+1's color."""
    nodes = [forest.maketree(c, tag=i) for i, c in enumerate(colors)]
    for i, v in enumerate(values):
        forest.link(nodes[i], nodes[i + 1], v)
    return nodes


def test_singleton_roots():
    f = RbForest()
    a = f.maketree("red")
    b = f.maketree("blue")
    assert f.findroot(a) is a
    assert f.findroot(b) is b
    assert a is not b


def test_link_unifies_and_cut_splits():
    f = RbForest()
    a, b = f.maketree("red"), f.maketree("blue")
    f.link(a, b, 3)
    assert f.findroot(a) is b
    f.cut(a)
    assert f.findroot(a) is a
    assert f.findroot(b) is b
    assert f.edge_count == 0


def test_link_preconditions():
    f = RbForest()
    a, b = f.maketree("red"), f.maketree("blue")
    c, d = f.maketree("red"), f.maketree("red")
    f.link(a, b, 1)
    with pytest.raises(InputError):
        f.link(a, c, 1)  # a is not a root
    with pytest.raises(InputError):
        f.link(c, d, 1)  # same colors
    with pytest.raises(InputError):
        f.link(c, b, -1)  # negative value
    e = f.maketree("blue")
    f.link(c, e, 0)
    with pytest.raises(InputError):
        f.link(f.findroot(a), a, 1)  # same tree


def test_cut_root_rejected():
    f = RbForest()
    a, b = f.maketree("red"), f.maketree("blue")
    f.link(a, b, 1)
    with pytest.raises(InputError):
        f.cut(b)
    f.cut(a)
    with pytest.raises(InputError):
        f.cut(a)  # already detached


def test_findblue_single_blue_edge():
    f = RbForest()
    p, r = f.maketree("red"), f.maketree("blue")
    f.link(p, r, 3)
    assert f.findblue(p) == (p, 3)


def test_findblue_tie_prefers_edge_nearest_root():
    f = RbForest()
    nodes = chain(
        f,
        ["red", "blue", "red", "blue", "red", "blue"],
        [5, 7, 2, 9, 2],
    )
    w, x = f.findblue(nodes[0])
    assert x == 2
    assert w is nodes[4]


def test_findblue_no_blue_edges():
    f = RbForest()
    r1, b1 = f.maketree("red"), f.maketree("blue")
    f.link(b1, r1, 4)  # parent red -> red edge
    assert f.findblue(b1) is None


def test_evert_flips_edge_colors():
    f = RbForest()
    p, r, p2 = f.maketree("red"), f.maketree("blue"), f.maketree("red")
    f.link(p, r, 3)
    f.link(p2, r, 8)
    # from p the single path edge has blue parent r
    assert f.findblue(p) == (p, 3)
    f.evert(p2)
    # now r's parent is p2 (red): edge r-p2 turned red, edge p-r still blue
    assert f.findroot(r) is p2
    assert f.findblue(r) is None
    assert f.findblue(p) == (p, 3)


def test_evert_twice_restores_orientation():
    f = RbForest()
    nodes = chain(f, ["red", "blue", "red"], [2, 5])
    root = f.findroot(nodes[0])
    f.evert(nodes[0])
    assert f.findroot(nodes[2]) is nodes[0]
    f.evert(root)
    assert f.findroot(nodes[0]) is root


def test_path_add_round_trip():
    f = RbForest()
    nodes = chain(f, ["red", "blue", "red", "blue"], [5, 7, 2])
    before = {(u.tag, w.tag): v for u, w, v in f.edges()}
    f.addblue(nodes[0], 2)
    f.addblue(nodes[0], -2)
    f.addred(nodes[0], Fraction(3, 2))
    f.addred(nodes[0], Fraction(-3, 2))
    after = {(u.tag, w.tag): v for u, w, v in f.edges()}
    assert before == after


def test_path_add_no_matching_color_is_noop():
    f = RbForest()
    p, r = f.maketree("red"), f.maketree("blue")
    f.link(r, p, 4)  # edge takes p's color: red
    f.addblue(r, 10)
    assert [v for _, _, v in f.edges()] == [4]


def test_negative_add_rejected_and_state_intact():
    f = RbForest()
    nodes = chain(f, ["red", "blue", "red", "blue"], [5, 7, 1])
    with pytest.raises(InputError):
        f.addblue(nodes[0], -2)  # would push the value-1 blue edge below zero
    vals = sorted(v for _, _, v in f.edges())
    assert vals == [1, 5, 7]


def test_prune_keeps_forests_unchanged():
    flow = {(0, 0): Fraction(3), (1, 0): Fraction(2), (1, 1): Fraction(7, 2)}
    assert prune_to_forest(dict(flow)) == flow


def test_prune_four_cycle():
    flow = {(0, 0): 2, (1, 0): 3, (1, 1): 4, (0, 1): 5}
    out = prune_to_forest(flow)
    assert out == {(1, 0): 5, (1, 1): 2, (0, 1): 7}
    assert node_totals(out) == node_totals(flow)


def test_prune_scales_unlike_denominators_exactly():
    flow = {
        (0, 0): Fraction(1, 3),
        (0, 1): Fraction(1, 7),
        (1, 0): Fraction(5, 6),
        (1, 1): Fraction(1, 2),
    }
    out = prune_to_forest(dict(flow))
    # the closing edge (1, 1) pushes 1/3 round the cycle and cuts (0, 0)
    assert out == {
        (0, 1): Fraction(10, 21),
        (1, 0): Fraction(7, 6),
        (1, 1): Fraction(1, 6),
    }
    assert all(type(v) is Fraction for v in out.values())
    assert node_totals(out) == node_totals(flow)


def test_prune_int_flow_stays_int():
    flow = {(0, 0): 2, (1, 0): 3, (1, 1): 4, (0, 1): 5, (2, 1): 1}
    out = prune_to_forest(dict(flow))
    assert all(type(v) is int for v in out.values())
    assert node_totals(out) == node_totals(flow)


def test_bridges_match_brute_force():
    rng = random.Random(19)
    for _ in range(150):
        n_p, n_r = rng.randrange(1, 9), rng.randrange(1, 9)
        pairs = sorted(rand_support_flow(rng, n_p, n_r, 25))
        flags = _bridges(pairs)
        for k, (p, r) in enumerate(pairs):
            # an edge is on a cycle iff its ends stay connected without it
            rest = pairs[:k] + pairs[k + 1 :]
            reached, todo = {("p", p)}, [("p", p)]
            while todo:
                side, x = todo.pop()
                for a, b in rest:
                    for u, v in ((("p", a), ("r", b)), (("r", b), ("p", a))):
                        if u == (side, x) and v not in reached:
                            reached.add(v)
                            todo.append(v)
            assert flags[k] == (("r", r) not in reached)


def rand_forest_flow(rng, n_points, n_ranges, extra):
    """Positive int flow on a random forest over the given nodes, plus up to
    ``extra`` random pairs that may close cycles."""
    flow, joined = {}, {}

    def find(x):
        while joined.setdefault(x, x) != x:
            x = joined[x]
        return x

    for _ in range(rng.randrange(n_points + n_ranges)):
        p, r = rng.randrange(n_points), rng.randrange(n_ranges)
        a, b = find(("p", p)), find(("r", r))
        if a != b:
            joined[a] = b
            flow[(p, r)] = rng.randrange(1, 20)
    for _ in range(extra):
        flow[(rng.randrange(n_points), rng.randrange(n_ranges))] = rng.randrange(1, 20)
    return flow


def test_cyclic_components_match_brute_force():
    rng = random.Random(23)
    cyclic_seen = acyclic_seen = 0
    for trial in range(300):
        n_p, n_r = rng.randrange(1, 12), rng.randrange(1, 12)
        if trial % 2:
            flow = rand_support_flow(rng, n_p, n_r, 25)
        else:
            flow = rand_forest_flow(rng, n_p, n_r, rng.randrange(4))
        # components by flooding; one holds a cycle iff edges >= nodes
        comp = {}
        for start in [("p", p) for p, _ in flow] + [("r", r) for _, r in flow]:
            if start in comp:
                continue
            comp[start], todo = start, [start]
            while todo:
                side, x = todo.pop()
                for p, r in flow:
                    if (side, x) in (("p", p), ("r", r)):
                        for v in (("p", p), ("r", r)):
                            if v not in comp:
                                comp[v] = start
                                todo.append(v)
        nodes, edges = {}, {}
        for v, c in comp.items():
            nodes[c] = nodes.get(c, 0) + 1
        for p, _r in flow:
            c = comp[("p", p)]
            edges[c] = edges.get(c, 0) + 1
        want = [(p, r) for p, r in flow if edges[comp[("p", p)]] >= nodes[comp[("p", p)]]]
        assert _cyclic_components(flow) == want
        cyclic_seen += bool(want)
        acyclic_seen += any(edges[c] < nodes[c] for c in edges)
    assert cyclic_seen > 50 and acyclic_seen > 50


def test_prune_of_a_forest_state_changes_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(RbForest, "link", lambda *a: calls.append("link"))
    monkeypatch.setattr(rblct_mod, "_bridges", lambda pairs: calls.append("bridges"))
    rng = random.Random(29)
    for _ in range(50):
        flow = rand_forest_flow(rng, 10, 10, 0)
        items = list(flow.items())
        assert list(prune_to_forest(flow).items()) == items
        assert list(flow.items()) == items
    assert calls == []


def test_bridges_run_on_the_cyclic_components_only(monkeypatch):
    seen = []
    bridges = rblct_mod._bridges
    monkeypatch.setattr(rblct_mod, "_bridges", lambda pairs: seen.append(pairs) or bridges(pairs))
    # a 4-cycle on points 0-1 and ranges 0-1 with a pendant bridge (2, 1),
    # and a separate tree on points 3-4 and ranges 2-3
    cycle = {(0, 0): 2, (0, 1): 5, (1, 0): 3, (1, 1): 4, (2, 1): 6}
    tree = {(3, 2): 1, (4, 2): 7, (4, 3): 2}
    flow = {**tree, **cycle}
    out = prune_to_forest(flow)
    assert seen == [sorted(cycle)]
    assert flow == {**tree, **cycle}
    # the tree and the bridge keep their place; the core moves to the end
    assert list(out.items())[:4] == [*tree.items(), ((2, 1), 6)]
    assert node_totals(out) == node_totals(flow)
    assert uf_is_forest([(("p", p), ("r", r)) for p, r in out])


def test_prune_links_only_the_cyclic_core(monkeypatch):
    links = []
    link = RbForest.link
    monkeypatch.setattr(
        RbForest, "link", lambda self, v, w, x: links.append(x) or link(self, v, w, x)
    )
    # two 4-cycles (points 0-1 with ranges 0-1, points 2-3 with ranges 2-3)
    # joined by the bridge (1, 2), plus pendant bridges (4, 0) and (2, 4)
    cycles = {(0, 0): 2, (0, 1): 5, (1, 0): 3, (1, 1): 4,
              (2, 2): 1, (2, 3): 6, (3, 2): 2, (3, 3): 2}
    bridges = {(1, 2): 7, (4, 0): 9, (2, 4): 8}
    flow = {**cycles, **bridges}
    out = prune_to_forest(dict(flow))
    assert uf_is_forest([(("p", p), ("r", r)) for p, r in out])
    assert set(out) <= set(flow)
    assert node_totals(out) == node_totals(flow)
    assert all(out[k] == v for k, v in bridges.items())
    # each cycle keeps three of its four edges, and no bridge enters the forest
    assert len(out) == len(flow) - 2
    assert len(links) <= len(cycles)


def test_prune_random_flows_forest_subset_totals():
    rng = random.Random(17)
    for _ in range(120):
        n_p, n_r = rng.randrange(1, 14), rng.randrange(1, 14)
        flow = rand_support_flow(rng, n_p, n_r, 40)
        out = prune_to_forest(dict(flow))
        assert set(out) <= set(flow)
        assert all(v > 0 for v in out.values())
        assert node_totals(out) == node_totals(flow)
        assert uf_is_forest([(("p", p), ("r", r)) for p, r in out])
        assert len(out) <= n_p + n_r - 1


def test_prune_float_mode():
    flow = {(0, 0): 2.0, (1, 0): 3.0, (1, 1): 4.0, (0, 1): 5.0}
    out = prune_to_forest(dict(flow))
    assert node_totals(out)[0][0] == 7
    assert uf_is_forest([(("p", p), ("r", r)) for p, r in out])
    assert out == prune_to_forest({k: Fraction(v) for k, v in flow.items()})


def test_differential_small():
    MirroredForests(seed=1, max_nodes=40).run(4000, check_every=500)


def test_differential_medium():
    MirroredForests(seed=2, max_nodes=120).run(12000, check_every=1500)
