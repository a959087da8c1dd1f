"""Shared instance generators and check routines for the test suite."""

from fractions import Fraction

from geomatch.geometry import Box, Disk, Point
from geomatch.flow import SupplyDemand
from geomatch.numeric import InputError
from geomatch.rblct import RbForest

from oracle import NaiveRbForest

_DENS = (1, 1, 2, 4)


def rand_fraction(rng, lo=-50, hi=50, dens=_DENS) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def rand_points(rng, n, d=2, lo=-50, hi=50):
    return [Point(tuple(rand_fraction(rng, lo, hi) for _ in range(d))) for _ in range(n)]


def rand_boxes(rng, m, d=2, lo=-50, hi=50, max_side=30):
    out = []
    for _ in range(m):
        los, his = [], []
        for _ in range(d):
            a = rand_fraction(rng, lo, hi)
            b = a + rand_fraction(rng, 0, max_side)
            los.append(a)
            his.append(b)
        out.append(Box(Point(tuple(los)), Point(tuple(his))))
    return out


def rand_congruent_disks(rng, m, lo=-50, hi=50, radius=None):
    r = radius if radius is not None else rand_fraction(rng, 1, 25)
    return [
        Disk(Point((rand_fraction(rng, lo, hi), rand_fraction(rng, lo, hi))), r)
        for _ in range(m)
    ]


def rand_sd(rng, n_points, n_ranges, integral=True, max_w=10) -> SupplyDemand:
    if integral:
        sup = tuple(rng.randrange(1, max_w + 1) for _ in range(n_points))
        dem = tuple(rng.randrange(1, max_w + 1) for _ in range(n_ranges))
    else:
        sup = tuple(
            Fraction(rng.randrange(1, 8 * max_w + 1), rng.choice((2, 3, 4, 6, 8)))
            for _ in range(n_points)
        )
        dem = tuple(
            Fraction(rng.randrange(1, 8 * max_w + 1), rng.choice((2, 3, 4, 6, 8)))
            for _ in range(n_ranges)
        )
    return SupplyDemand(sup, dem)


def first_primes(k: int) -> list:
    """The k smallest primes, by trial division."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % q for q in primes if q * q <= n):
            primes.append(n)
        n += 1
    return primes


def rand_support_flow(rng, n_points, n_ranges, max_edges) -> dict:
    """Random positive flow values on a random bipartite support."""
    flow = {}
    for _ in range(rng.randrange(max_edges + 1)):
        key = (rng.randrange(n_points), rng.randrange(n_ranges))
        flow[key] = rand_fraction(rng, 1, 20, dens=(1, 1, 2, 3, 4))
    return flow


def uf_is_forest(edges) -> bool:
    """True when the undirected edge list contains no cycle."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru == rw:
            return False
        parent[ru] = rw
    return True


def node_totals(flow: dict) -> tuple:
    pt, rt = {}, {}
    for (p, r), v in flow.items():
        pt[p] = pt.get(p, 0) + v
        rt[r] = rt.get(r, 0) + v
    return pt, rt


def assert_blocking(net, flow, level=None) -> None:
    """The flow must obey capacities, conserve at inner vertices, and leave no
    residual forward path from source to sink: in the whole network, or,
    given the BFS ``level``s of a phase that started from the empty flow,
    in that phase's level graph, along edges that climb to a higher level."""
    res = []
    for e in range(0, net.edge_count * 2, 2):
        v = flow.on(e)
        assert v >= 0, "negative flow"
        assert v <= net.ecap[e], "capacity exceeded"
        res.append(net.ecap[e] - v)
    balance = [0] * net.n
    for e in range(0, net.edge_count * 2, 2):
        v = flow.on(e)
        u, w = net.eto[e + 1], net.eto[e]
        balance[u] -= v
        balance[w] += v
    for v in range(net.n):
        if v in (net.source, net.sink):
            continue
        assert balance[v] == 0, f"conservation broken at {v}"
    seen = [False] * net.n
    stack = [net.source]
    seen[net.source] = True
    while stack:
        u = stack.pop()
        for e in net.head[u]:
            if e % 2 == 1:
                continue
            if not res[e // 2] > 0:
                continue
            w = net.eto[e]
            if level is not None and not level[w] > level[u]:
                continue
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    assert not seen[net.sink], "an unsaturated forward path survived"


class MirroredForests:
    """Drives the production forest and its naive twin with the same random
    operation stream, comparing every observable output."""

    def __init__(self, seed, max_nodes=200):
        import random

        self.rng = random.Random(seed)
        self.max_nodes = max_nodes
        self.fast = RbForest()
        self.slow = NaiveRbForest()
        self.nodes = []  # RbNode per naive index
        self.index = {}  # RbNode -> naive index
        self.mismatches = 0

    # -- primitive steps -------------------------------------------------

    def _maketree(self):
        color = self.rng.choice(("red", "blue"))
        node = self.fast.maketree(color, tag=len(self.nodes))
        idx = self.slow.maketree(color)
        assert idx == len(self.nodes)
        self.nodes.append(node)
        self.index[node] = idx

    def _pick(self):
        return self.rng.randrange(len(self.nodes))

    def _roots(self):
        return [i for i, p in enumerate(self.slow._parent) if p is None]

    def _op_link(self):
        roots = self._roots()
        self.rng.shuffle(roots)
        for v in roots[:12]:
            w = self._pick()
            if (
                self.slow._color[v] != self.slow._color[w]
                and self.slow.findroot(w) != v
            ):
                val = rand_fraction(self.rng, 0, 12, dens=(1, 1, 2, 4))
                self.fast.link(self.nodes[v], self.nodes[w], val)
                self.slow.link(v, w, val)
                return True
        return False

    def _op_cut(self):
        cands = [i for i, p in enumerate(self.slow._parent) if p is not None]
        if not cands:
            return False
        v = self.rng.choice(cands)
        self.fast.cut(self.nodes[v])
        self.slow.cut(v)
        return True

    def _op_evert(self):
        v = self._pick()
        self.fast.evert(self.nodes[v])
        self.slow.evert(v)

    def _op_findroot(self):
        v = self._pick()
        got = self.index[self.fast.findroot(self.nodes[v])]
        want = self.slow.findroot(v)
        assert got == want, f"findroot({v}): {got} != {want}"

    def _op_findblue(self):
        v = self._pick()
        got = self.fast.findblue(self.nodes[v])
        want = self.slow.findblue(v)
        if want is None:
            assert got is None, f"findblue({v}): {got} != None"
        else:
            assert got is not None, f"findblue({v}): None != {want}"
            assert (self.index[got[0]], got[1]) == want, (
                f"findblue({v}): ({self.index[got[0]]}, {got[1]}) != {want}"
            )

    def _op_add(self):
        v = self._pick()
        color = self.rng.choice(("blue", "red"))
        x = rand_fraction(self.rng, -6, 10, dens=(1, 2, 4))
        fast_err = slow_err = False
        try:
            self.fast.add_on_path(self.nodes[v], color, x)
        except InputError:
            fast_err = True
        try:
            if color == "blue":
                self.slow.addblue(v, x)
            else:
                self.slow.addred(v, x)
        except InputError:
            slow_err = True
        assert fast_err == slow_err, f"add {color} {x} at {v}: error mismatch"

    def _check_edges(self):
        got = {}
        for u, w, val in self.fast.edges():
            a, b = self.index[u], self.index[w]
            got[(min(a, b), max(a, b))] = val
        want = self.slow.edge_set()
        assert got == want, f"edge sets diverged: {got} != {want}"

    # -- driver -----------------------------------------------------------

    def run(self, n_ops, check_every=2500) -> None:
        for _ in range(8):
            self._maketree()
        for step in range(n_ops):
            roll = self.rng.random()
            if len(self.nodes) < self.max_nodes and roll < 0.06:
                self._maketree()
            elif roll < 0.28:
                self._op_link()
            elif roll < 0.38:
                self._op_cut()
            elif roll < 0.50:
                self._op_evert()
            elif roll < 0.64:
                self._op_findroot()
            elif roll < 0.86:
                self._op_findblue()
            else:
                self._op_add()
            if (step + 1) % check_every == 0:
                self._check_edges()
        self._check_edges()
