"""Link-cut forest over red/blue bipartite trees with per-color path minima.

Each solid path is a splay tree whose in-order sequence alternates node
vertices and edge vertices (an edge vertex sits between its endpoints).  An
edge's color is the color of its parent endpoint, so it is not static: it
flips when the path through it is everted.

Per-color values are stored differentially.  For vertex v and color c:

    dmin_c(v)  = min_c(subtree v) - min_c(subtree parent(v)),
                 absolute at a solid root
    dcost_c(v) = cost_c(v) - min_c(subtree v)

where cost_c(v) is the edge value if v is an edge vertex of color c and
+infinity otherwise.  +infinity is represented by None with the conventions
None + x = None, None - x = None, None - None = None, min(None, x) = x; a
finite minus None never arises because only subtree minima are subtracted.
With this encoding, adding x to every c-colored edge of a whole path touches
only the root's dmin_c, and reversing a path swaps the blue and red fields.

The reverse flag on v applies to v's children: v's own fields and child
order are already current, so the effective orientation of any vertex is the
xor of the pending flags above it.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import InputError, InternalError, integer_scale, scaled_ints

RED = "red"
BLUE = "blue"


def _sadd(a, b):
    if a is None or b is None:
        return None
    return a + b


def _ssub(a, b):
    if a is None:
        return None
    if b is None:
        raise InternalError("finite minus infinity in field update")
    return a - b


def _smin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


class RbNode:
    __slots__ = (
        "left", "right", "parent", "rev",
        "dmin_b", "dcost_b", "dmin_r", "dcost_r",
        "is_edge", "color", "tag", "ends",
    )

    def __init__(self, is_edge: bool, color: str, tag=None):
        self.left = self.right = self.parent = None
        self.rev = False
        self.dmin_b = self.dcost_b = self.dmin_r = self.dcost_r = None
        self.is_edge = is_edge
        self.color = color  # node color; for edge vertices the creation color
        self.tag = tag
        self.ends = None

    def __repr__(self):  # debugging aid only
        kind = "edge" if self.is_edge else "node"
        return f"<{kind} {self.tag!r}>"


def _is_root(v: RbNode) -> bool:
    p = v.parent
    return p is None or (p.left is not v and p.right is not v)


def _apply_rev(v: RbNode) -> None:
    v.left, v.right = v.right, v.left
    v.dmin_b, v.dmin_r = v.dmin_r, v.dmin_b
    v.dcost_b, v.dcost_r = v.dcost_r, v.dcost_b
    v.rev = not v.rev


def _push(v: RbNode) -> None:
    if v.rev:
        if v.left is not None:
            _apply_rev(v.left)
        if v.right is not None:
            _apply_rev(v.right)
        v.rev = False


def _rotate(v: RbNode) -> None:
    # v and its parent must already be pushed
    u = v.parent
    g = u.parent
    left_case = u.left is v
    b = v.right if left_case else v.left
    a = v.left if left_case else v.right
    c2 = u.right if left_case else u.left

    # q = min over u's post-rotation subtree {u, b, c2}, relative to the old
    # subtree minimum (which the rotation preserves for v); blue, then red
    dm_v = v.dmin_b
    dc_u = u.dcost_b
    vb = _sadd(dm_v, b.dmin_b) if b is not None else None
    dm_c2 = c2.dmin_b if c2 is not None else None
    q = _smin(_smin(dc_u, vb), dm_c2)
    v.dmin_b = u.dmin_b
    v.dcost_b = _sadd(dm_v, v.dcost_b)
    u.dmin_b = q
    u.dcost_b = _ssub(dc_u, q)
    if b is not None:
        b.dmin_b = _ssub(vb, q)
    if a is not None:
        a.dmin_b = _sadd(dm_v, a.dmin_b)
    if c2 is not None:
        c2.dmin_b = _ssub(dm_c2, q)

    dm_v = v.dmin_r
    dc_u = u.dcost_r
    vb = _sadd(dm_v, b.dmin_r) if b is not None else None
    dm_c2 = c2.dmin_r if c2 is not None else None
    q = _smin(_smin(dc_u, vb), dm_c2)
    v.dmin_r = u.dmin_r
    v.dcost_r = _sadd(dm_v, v.dcost_r)
    u.dmin_r = q
    u.dcost_r = _ssub(dc_u, q)
    if b is not None:
        b.dmin_r = _ssub(vb, q)
    if a is not None:
        a.dmin_r = _sadd(dm_v, a.dmin_r)
    if c2 is not None:
        c2.dmin_r = _ssub(dm_c2, q)

    if left_case:
        u.left = b
        v.right = u
    else:
        u.right = b
        v.left = u
    if b is not None:
        b.parent = u
    u.parent = v
    v.parent = g
    if g is not None:
        if g.left is u:
            g.left = v
        elif g.right is u:
            g.right = v


def _splay(v: RbNode) -> None:
    stack = [v]
    while not _is_root(stack[-1]):
        stack.append(stack[-1].parent)
    for x in reversed(stack):
        _push(x)
    while not _is_root(v):
        u = v.parent
        if _is_root(u):
            _rotate(v)
        else:
            g = u.parent
            if (g.left is u) == (u.left is v):
                _rotate(u)
                _rotate(v)
            else:
                _rotate(v)
                _rotate(v)


def _detach_right(v: RbNode) -> None:
    # v is a pushed solid root; the right subtree becomes its own solid path
    # (it keeps its parent pointer, now a path-parent)
    r = v.right
    v.right = None
    left = v.left

    m = v.dmin_b
    cost_abs = _sadd(m, v.dcost_b)
    ml_abs = _sadd(m, left.dmin_b) if left is not None else None
    m_new = _smin(cost_abs, ml_abs)
    v.dmin_b = m_new
    v.dcost_b = _ssub(cost_abs, m_new)
    if left is not None:
        left.dmin_b = _ssub(ml_abs, m_new)
    r.dmin_b = _sadd(m, r.dmin_b)

    m = v.dmin_r
    cost_abs = _sadd(m, v.dcost_r)
    ml_abs = _sadd(m, left.dmin_r) if left is not None else None
    m_new = _smin(cost_abs, ml_abs)
    v.dmin_r = m_new
    v.dcost_r = _ssub(cost_abs, m_new)
    if left is not None:
        left.dmin_r = _ssub(ml_abs, m_new)
    r.dmin_r = _sadd(m, r.dmin_r)


def _attach_right(v: RbNode, r: RbNode) -> None:
    # v is a pushed solid root with no right child; r is a solid root whose
    # path-parent is v
    v.right = r
    left = v.left

    m_v = v.dmin_b
    m_r = r.dmin_b
    cost_abs = _sadd(m_v, v.dcost_b)
    ml_abs = _sadd(m_v, left.dmin_b) if left is not None else None
    m_new = _smin(_smin(cost_abs, ml_abs), m_r)
    v.dmin_b = m_new
    v.dcost_b = _ssub(cost_abs, m_new)
    if left is not None:
        left.dmin_b = _ssub(ml_abs, m_new)
    r.dmin_b = _ssub(m_r, m_new)

    m_v = v.dmin_r
    m_r = r.dmin_r
    cost_abs = _sadd(m_v, v.dcost_r)
    ml_abs = _sadd(m_v, left.dmin_r) if left is not None else None
    m_new = _smin(_smin(cost_abs, ml_abs), m_r)
    v.dmin_r = m_new
    v.dcost_r = _ssub(cost_abs, m_new)
    if left is not None:
        left.dmin_r = _ssub(ml_abs, m_new)
    r.dmin_r = _ssub(m_r, m_new)


def _access(v: RbNode) -> None:
    # afterwards v is the solid root of the path from its tree root to v,
    # with v in-order last
    _splay(v)
    if v.right is not None:
        _detach_right(v)
    while v.parent is not None:
        w = v.parent
        _splay(w)
        if w.right is not None:
            _detach_right(w)
        _attach_right(w, v)
        _rotate(v)


def _leftmost(v: RbNode) -> RbNode:
    x = v
    while True:
        _push(x)
        if x.left is None:
            return x
        x = x.left


class RbForest:
    """Forest of red/blue trees supporting findroot, link, cut, evert,
    per-color path additions and minimum-blue-edge queries, all in amortized
    O(log n)."""

    def __init__(self):
        self._edges = {}  # edge vertex -> None, insertion ordered

    def _check_node(self, v: RbNode) -> None:
        if not isinstance(v, RbNode) or v.is_edge:
            raise InputError("expected a node vertex handle")

    def maketree(self, color: str, tag=None) -> RbNode:
        if color not in (RED, BLUE):
            raise InputError(f"bad color {color!r}")
        return RbNode(False, color, tag)

    def findroot(self, v: RbNode) -> RbNode:
        self._check_node(v)
        _access(v)
        root = _leftmost(v)
        _splay(root)
        return root

    def link(self, v: RbNode, w: RbNode, value) -> None:
        """Attach root v below w by an edge of the given value.  The new edge
        takes w's color (w is its parent endpoint)."""
        self._check_node(v)
        self._check_node(w)
        if v.color == w.color:
            raise InputError("link: endpoints share a color")
        if value < 0:
            raise InputError("link: negative edge value")
        if self.findroot(v) is not v:
            raise InputError("link: v is not a tree root")
        if self.findroot(w) is v:
            raise InputError("link: endpoints already connected")
        e = RbNode(True, w.color)
        e.ends = (v, w)
        if w.color == BLUE:
            e.dmin_b, e.dcost_b = value, value - value
        else:
            e.dmin_r, e.dcost_r = value, value - value
        _access(v)
        v.parent = e
        e.parent = w
        self._edges[e] = None

    def cut(self, v: RbNode) -> None:
        """Remove the edge between v and its parent."""
        self._check_node(v)
        _access(v)
        if v.left is None:
            raise InputError("cut: v is a tree root")
        upper = v.left
        v.left = None
        upper.parent = None
        upper.dmin_b = _sadd(v.dmin_b, upper.dmin_b)
        upper.dmin_r = _sadd(v.dmin_r, upper.dmin_r)
        # v is a node vertex alone on its path now
        v.dmin_b = v.dcost_b = v.dmin_r = v.dcost_r = None
        # the in-order predecessor of v is its parent edge vertex
        x = upper
        while True:
            _push(x)
            if x.right is None:
                break
            x = x.right
        e = x
        if not e.is_edge:
            raise InternalError("expected an edge vertex next to v")
        _splay(e)
        rest = e.left
        e.left = None
        rest.parent = None
        rest.dmin_b = _sadd(e.dmin_b, rest.dmin_b)
        rest.dmin_r = _sadd(e.dmin_r, rest.dmin_r)
        del self._edges[e]

    def evert(self, v: RbNode) -> None:
        """Make v the root of its tree by reversing the path above it; edge
        colors along the path flip with their parent endpoints."""
        self._check_node(v)
        _access(v)
        _apply_rev(v)

    def findblue(self, v: RbNode):
        """Minimum blue edge value x on the path from v to its root, along
        with the last vertex w on that path (nearest the root) whose parent
        edge is blue with value x.  None when the path has no blue edge."""
        self._check_node(v)
        _access(v)
        if v.dmin_b is None:
            return None
        x = v
        acc = v.dmin_b  # min over x's subtree, absolute
        while True:
            _push(x)
            left, right = x.left, x.right
            ml = _sadd(acc, left.dmin_b) if left is not None else None
            own = _sadd(acc, x.dcost_b)
            mr = _sadd(acc, right.dmin_b) if right is not None else None
            # leftmost achiever = blue minimum nearest the tree root
            if ml is not None and _smin(ml, _smin(own, mr)) == ml:
                x, acc = left, ml
                continue
            if own is not None and _smin(own, mr) == own:
                break
            if mr is None:
                raise InternalError("blue minimum vanished during descent")
            x, acc = right, mr
        e = x
        value = _sadd(acc, e.dcost_b)
        _splay(e)
        if e.right is None:
            raise InternalError("blue edge vertex cannot end a path")
        w = _leftmost(e.right)
        _splay(w)
        return w, value

    def _add(self, v: RbNode, field: str, x) -> None:
        self._check_node(v)
        _access(v)
        m = getattr(v, field)
        if m is None:
            return
        if m + x < 0:
            raise InputError("path add would make an edge negative")
        setattr(v, field, m + x)

    def addblue(self, v: RbNode, x) -> None:
        """Add x to every blue edge between v and its root."""
        self._add(v, "dmin_b", x)

    def addred(self, v: RbNode, x) -> None:
        """Add x to every red edge between v and its root."""
        self._add(v, "dmin_r", x)

    def add_on_path(self, v: RbNode, color: str, x) -> None:
        if color == BLUE:
            self.addblue(v, x)
        elif color == RED:
            self.addred(v, x)
        else:
            raise InputError(f"bad color {color!r}")

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self):
        """Live edges as (endpoint, endpoint, current value) triples."""
        out = []
        for e in self._edges:
            _splay(e)
            if e.dcost_b is not None:
                value = _sadd(e.dmin_b, e.dcost_b)
            else:
                value = _sadd(e.dmin_r, e.dcost_r)
            u, w = e.ends
            out.append((u, w, value))
        return out


def prune_to_forest(f):
    """Cancel all cycles in the bipartite flow-support graph.

    ``f`` maps (point index, range index) to a positive amount; a phase-state
    object carrying such a mapping as ``f.flow`` is pruned in place and
    returned, and a bare mapping is copied first and the copy returned.  The
    result's support is a forest over the same nodes, with every per-node
    total preserved: an edge that would close a cycle is instead pushed
    along the existing tree path (red edges up, blue edges down), and blue
    edges driven to zero are cut.  Only the components that hold a cycle
    (found by a union-find pass) are searched for bridges, and only their
    edges that lie on some cycle enter the link-cut forest.  A support that
    is already a forest comes back as it went in.

    The forest never sees a ``Fraction``: every value is multiplied once by
    the LCM of the denominators, the prune runs on the resulting ints (it
    only adds, subtracts and compares, so they stay exact), and each
    surviving value is divided back as ``Fraction(v, scale)``.  An all-int
    flow comes back as ints.
    """
    if hasattr(f, "flow"):
        f.flow = _prune_exact(f.flow)
        return f
    return _prune_exact({k: v for k, v in f.items() if v > 0})


def _prune_exact(flow: dict) -> dict:
    """``flow`` pruned: in place when every value is an int, else a new
    dict of ``Fraction`` values from one scaled int copy."""
    values = flow.values()
    if all(isinstance(v, int) for v in values):
        _prune(flow)
        return flow
    scale = integer_scale(values)
    scaled = dict(zip(flow, scaled_ints(values, scale)))
    _prune(scaled)
    return {k: Fraction(v, scale) for k, v in scaled.items()}


def _cyclic_components(pairs) -> list:
    """The (point, range) pairs, in their order, of the connected components
    of the bipartite graph they form that hold a cycle.  One union-find pass
    (path halving) marks the pairs whose ends are already joined; only when
    it marks one does a second pass keep the pairs whose root is a marked
    pair's.  Points are keyed p and ranges -1 - r."""
    parent = {}  # a root maps to itself or is absent

    def find(a):
        while a != (up := parent.get(a, a)):
            parent[a] = a = parent.get(up, up)
        return a

    closing = []
    for p, r in pairs:
        # find(p) and find(-1 - r), inlined: this loop runs every phase
        a = p
        while a != (up := parent.get(a, a)):
            parent[a] = a = parent.get(up, up)
        b = -1 - r
        while b != (up := parent.get(b, b)):
            parent[b] = b = parent.get(up, up)
        if a == b:
            closing.append(p)
        else:
            parent[a] = b
    if not closing:
        return []
    cyclic = {find(p) for p in closing}
    return [pr for pr in pairs if find(pr[0]) in cyclic]


def _bridges(pairs: list) -> list:
    """One flag per edge of the simple bipartite graph given as (point,
    range) pairs: True for a bridge, an edge on no cycle.  One iterative
    low-link depth-first search (Tarjan 1974), linear in the edge count."""
    node = {}  # point p -> id, range r -> id (keyed -1 - r)
    ends = [
        (node.setdefault(p, len(node)), node.setdefault(-1 - r, len(node)))
        for p, r in pairs
    ]
    adj = [[] for _ in node]
    for k, (u, v) in enumerate(ends):
        adj[u].append((v, k))
        adj[v].append((u, k))
    disc = [0] * len(adj)  # discovery time, 0 until visited
    low = [0] * len(adj)
    bridge = [False] * len(pairs)
    clock = 0
    for root in range(len(adj)):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, -1, iter(adj[root]))]  # (vertex, tree edge in, next edges)
        while stack:
            u, k_in, rest = stack[-1]
            for v, k in rest:
                if k == k_in:
                    continue
                if disc[v]:
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                else:
                    clock += 1
                    disc[v] = low[v] = clock
                    stack.append((v, k, iter(adj[v])))
                    break
            else:
                stack.pop()
                if stack:
                    w = stack[-1][0]
                    if low[u] < low[w]:
                        low[w] = low[u]
                    if low[u] > disc[w]:
                        bridge[k_in] = True
    return bridge


def _prune(flow: dict) -> None:
    """Prune ``flow``, positive ints by pair, to a forest in place.  The
    pairs of the components without a cycle stay as they are.  In the
    others, a bridge lies on no cycle, and every tree path the forest pushes
    along is a simple path of the support, which never crosses a bridge; so
    the bridges stay too, and only the cyclic core leaves the dict for the
    link-cut forest, whose surviving edges are inserted back at its end.
    The core enters the forest in sorted order, so a support's forest does
    not depend on the order of its dict."""
    pairs = _cyclic_components(flow)
    if not pairs:
        return
    pairs.sort()
    forest = RbForest()
    pnodes = {}
    rnodes = {}
    for (p, r), is_bridge in zip(pairs, _bridges(pairs)):
        if is_bridge:
            continue
        value = flow.pop((p, r))
        if p not in pnodes:
            pnodes[p] = forest.maketree(RED, ("p", p))
        if r not in rnodes:
            rnodes[r] = forest.maketree(BLUE, ("r", r))
        a, b = pnodes[p], rnodes[r]
        if forest.findroot(a) is not forest.findroot(b):
            forest.evert(b)
            forest.link(b, a, value)
            continue
        forest.evert(a)
        found = forest.findblue(b)
        if found is None:
            raise InternalError("cycle without a blue edge on the tree path")
        _w, delta = found
        push = value if value <= delta else delta
        forest.addred(b, push)
        forest.addblue(b, -push)
        while True:
            found = forest.findblue(b)
            if found is None or found[1] != 0:
                break
            forest.cut(found[0])
        if value > delta:
            forest.evert(b)
            forest.link(b, a, value - delta)
    for u, w, value in forest.edges():
        p_tag = u.tag if u.tag[0] == "p" else w.tag
        r_tag = w.tag if w.tag[0] == "r" else u.tag
        if value > 0:
            flow[(p_tag[1], r_tag[1])] = value
