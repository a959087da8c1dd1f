"""Biclique covers of point/range incidence graphs.

A cover represents the bipartite incidence graph I(P, R) as a union of
complete bipartite pieces (P_i, R_i); its size is sigma = sum(|P_i| + |R_i|).
The trivial cover lists one piece per incident pair; for congruent disks,
``disk_cover`` finds those pairs through a grid over the scaled int
coordinates and is the one disk cover that the CLI and L2 bottleneck
decisions share.  For axis-aligned boxes, a multi-level range tree
(``BoxTree``) yields an edge-disjoint cover of size O(n log^d n) for
d-dimensional inputs; each of its levels holds a point subset as the sorted
list of the points' ranks on that level's axis.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

from .geometry import Box, Disk, contains
from .numeric import InputError, exact, scaled_coords

_PAIR_GUARD = 10**7


@dataclass
class BicliqueCover:
    """Cover of an incidence graph; ``parts[i]`` holds the sorted point and
    range index lists of the i-th complete bipartite piece."""

    left_count: int
    right_count: int
    parts: list = field(default_factory=list)

    def __post_init__(self) -> None:
        pts = [p for ps, _ in self.parts for p in ps]
        if pts and (min(pts) < 0 or max(pts) >= self.left_count):
            raise InputError("part references a point index out of range")
        rngs = [r for _, rs in self.parts for r in rs]
        if rngs and (min(rngs) < 0 or max(rngs) >= self.right_count):
            raise InputError("part references a range index out of range")


def cover_size(cover: BicliqueCover) -> int:
    return sum(len(ps) + len(rs) for ps, rs in cover.parts)


def trivial_cover(points, ranges) -> BicliqueCover:
    """One part per incident pair.  Congruent disks go through
    ``disk_cover``; anything else falls back to the quadratic double loop."""
    if (
        ranges
        and all(isinstance(r, Disk) for r in ranges)
        and len({r.radius_sq for r in ranges}) == 1
    ):
        return disk_cover(
            [p.coords for p in points], [r.center.coords for r in ranges], ranges[0].radius_sq
        )
    parts = [
        ([i], [j])
        for i, p in enumerate(points)
        for j, r in enumerate(ranges)
        if contains(r, p)
    ]
    return BicliqueCover(len(points), len(ranges), parts)


def disk_cover(points, centres, r_sq) -> BicliqueCover:
    """One part per pair of a point and a closed disk of squared radius
    ``r_sq`` around a centre (planar coordinate tuples), in (point, sorted
    disk) order.  The points and centres are read once as int tuples
    (``scaled_coords``: floats exactly, every coordinate multiplied by one
    positive int, the scale), so every squared distance is an int and is
    compared with ``floor(r_sq * scale**2)``; int inputs with an int
    ``r_sq`` pass through as they are.  The pairs are found in 3x3
    neighbourhoods of a grid of square int cells of side
    ``isqrt(r_sq) + 1``, just above the radius."""
    r_sq = exact(r_sq)
    if r_sq < 0:
        raise InputError("negative squared radius")
    ints, scale = scaled_coords(list(points) + list(centres))
    pts, cs = ints[: len(points)], ints[len(points) :]
    r_sq = math.floor(r_sq * scale * scale if scale else r_sq)
    k = math.isqrt(r_sq) + 1
    grid = defaultdict(list)
    for j, (x, y) in enumerate(cs):
        grid[x // k, y // k].append((j, x, y))
    parts = []
    for i, (px, py) in enumerate(pts):
        gx, gy = px // k, py // k
        hits = [
            j
            for cx in (gx - 1, gx, gx + 1)
            for cy in (gy - 1, gy, gy + 1)
            for j, x, y in grid.get((cx, cy), ())
            if (px - x) * (px - x) + (py - y) * (py - y) <= r_sq
        ]
        parts.extend(([i], [j]) for j in sorted(hits))
    return BicliqueCover(len(points), len(centres), parts)


def box_cover(points, boxes, dim: int | None = None) -> BicliqueCover:
    """Edge-disjoint cover of point/box incidences via a multi-level range
    tree (see ``BoxTree``).

    The points and the box corners are read as int tuples first
    (``scaled_coords``: floats exactly, every coordinate multiplied by one
    positive int), so the tree sorts and compares ints; scaling by one
    positive int changes no incidence."""
    d = dim if dim is not None else (points[0].dim if points else (boxes[0].dim if boxes else 1))
    for p in points:
        if p.dim != d:
            raise InputError("point dimension mismatch")
    for b in boxes:
        if not isinstance(b, Box):
            raise InputError("box_cover needs Box ranges")
        if b.dim != d:
            raise InputError("box dimension mismatch")
    parts = []
    if points and boxes:
        corners = [b.lo.coords for b in boxes] + [b.hi.coords for b in boxes]
        ints, _scale = scaled_coords([p.coords for p in points] + corners)
        n, m = len(points), len(boxes)
        parts = BoxTree(ints[:n], d).parts(ints[n : n + m], ints[n + m :])
    return BicliqueCover(len(points), len(boxes), parts)


class BoxTree:
    """Multi-level range tree over a fixed point set, built once and queried
    with any number of box sets.

    Each axis sorts the points once, ties by point index; a point's place in
    that order is its rank on the axis, and ``vals[j]`` holds the sorted
    values.  A level-j tree over a point subset is the sorted list of its
    points' ranks on axis j, split at ``(a + b) // 2``.  Each of its
    canonical nodes, a position range ``(a, b)`` of that list, holds the
    level-(j + 1) tree over its points, and each last-level node the sorted
    tuple of its point indices.  A node is keyed by the ranges of its path
    from the root, ``(a0, b0, a1, b1, ...)``.  A box registers at the
    largest nodes whose points all lie inside it on that level's axis.  The
    nodes are built on first use and kept, so a bottleneck search, whose
    decisions differ only in their boxes, sorts each of them at most once.
    """

    def __init__(self, coords, dim: int):
        # coords: one coordinate tuple per point, all of dimension dim
        self.coords = coords
        self.dim = dim
        n = len(coords)
        # a stable sort of the indices breaks ties by index
        orders = [sorted(range(n), key=[c[j] for c in coords].__getitem__) for j in range(dim)]
        self.vals = [[coords[i][j] for i in order] for j, order in enumerate(orders)]
        # the inverse permutations: a point's rank on each axis but the first
        ranks = [sorted(range(n), key=order.__getitem__) for order in orders[1:]]
        # cross[j][r]: the point of rank r on axis j, as its rank on axis
        # j + 1, or past the last axis as its index
        cross = [[rank[i] for i in order] for order, rank in zip(orders, ranks)] + orders[-1:]
        self.nodes = _Nodes(cross, n)
        # the canonical nodes by (lo, hi, n) below the outermost level, whose
        # trees are small, so the same spans recur
        self.spans = _Spans()

    def parts(self, lows, highs) -> list:
        """Cover parts, as ``(sorted point indices, sorted box indices)``, of
        the boxes with corner tuples ``lows[k]`` and ``highs[k]``, in the
        order of canonical nodes, outermost level first: the sorted order
        of their keys.  Box by box, two bisects per axis turn the box into
        rank intervals, and two more per canonical node turn an interval
        into positions of that node's rank list.  Every list is the
        caller's own: the tree keeps its point lists as tuples."""
        nodes, vals, spans = self.nodes, self.vals, self.spans
        reg = defaultdict(list)
        starts = [bisect_left(vals[0], lo[0]) for lo in lows]
        # boxes in the order of their first rank on axis 0, so that boxes
        # walked one after another read nearby nodes
        for k in sorted(range(len(lows)), key=starts.__getitem__):
            lo, hi = lows[k], highs[k]
            a, b = starts[k], bisect_right(vals[0], hi[0])
            if a >= b:
                continue
            keys = _canonical(a, b, len(vals[0]))  # the root's ranks are its positions
            for j in range(1, self.dim):
                a, b = bisect_left(vals[j], lo[j]), bisect_right(vals[j], hi[j])
                found = []
                if a < b:
                    for key in keys:
                        ranks = nodes[key]
                        x, y = bisect_left(ranks, a), bisect_left(ranks, b)
                        if x < y:
                            found += map(key.__add__, spans[x, y, len(ranks)])
                keys = found
            for key in keys:
                reg[key].append(k)
        for ks in reg.values():  # the walk's order is not the boxes' order
            ks.sort()
        return [(list(nodes[key]), reg[key]) for key in sorted(reg)]


class _Nodes(dict):
    """The nodes of a ``BoxTree`` by key, each built on first use from the
    node of its key's prefix, a level-j tree: the ranks on axis j of the
    points in positions ``key[-2]:key[-1]``, mapped by ``cross[j]`` and
    sorted into a tuple."""

    def __init__(self, cross, n: int):
        super().__init__({(): range(n)})  # the root's ranks on axis 0
        self.cross = cross

    def __missing__(self, key) -> tuple:
        a, b = key[-2:]
        cross = self.cross[len(key) // 2 - 1]
        self[key] = node = tuple(sorted(map(cross.__getitem__, self[key[:-2]][a:b])))
        return node


class _Spans(dict):
    """``_canonical(lo, hi, n)`` by ``(lo, hi, n)``, computed on first use."""

    def __missing__(self, span) -> list:
        self[span] = out = _canonical(*span)
        return out


def _canonical(lo: int, hi: int, n: int) -> list:
    """The largest nodes ``(a, b)`` of the implicit tree over ``[0, n)``,
    split at ``(a + b) // 2``, that lie inside ``[lo, hi)``, for
    ``lo < hi``: down to the node that the range splits, then along the
    left and the right boundary paths below it."""
    a, b = 0, n
    while True:
        if lo <= a and b <= hi:
            return [(a, b)]
        mid = (a + b) // 2
        if hi <= mid:
            b = mid
        elif lo >= mid:
            a = mid
        else:
            break
    out = []
    # left path: every node ends at or before mid < hi, so the walk stops at
    # the node that starts at lo
    x, y = a, mid
    while lo > x:
        m = (x + y) // 2
        if lo < m:
            out.append((m, y))
            y = m
        else:
            x = m
    out.append((x, y))
    # right path, mirrored: every node starts at or after mid > lo
    x, y = mid, b
    while hi < y:
        m = (x + y) // 2
        if hi > m:
            out.append((x, m))
            x = m
        else:
            y = m
    out.append((x, y))
    return out


@dataclass
class CoverReport:
    edge_set_ok: bool
    edge_disjoint: bool
    missing: list
    extra: list

    @property
    def ok(self) -> bool:
        return self.edge_set_ok and self.edge_disjoint


def validate_cover(cover: BicliqueCover, points, ranges) -> CoverReport:
    """Compare the cover's edge multiset against direct containment tests."""
    if len(points) * len(ranges) > _PAIR_GUARD:
        raise InputError("instance too large to validate exhaustively")
    counts = defaultdict(int)
    expanded = 0
    for pts, rngs in cover.parts:
        expanded += len(pts) * len(rngs)
        if expanded > _PAIR_GUARD:
            raise InputError("cover too large to validate exhaustively")
        for p in pts:
            for r in rngs:
                counts[(p, r)] += 1
    truth = {
        (i, j)
        for i, p in enumerate(points)
        for j, r in enumerate(ranges)
        if contains(r, p)
    }
    covered = set(counts)
    missing = sorted(truth - covered)
    extra = sorted(covered - truth)
    disjoint = all(c == 1 for c in counts.values())
    return CoverReport(not missing and not extra, disjoint, missing, extra)


def cover_to_text(cover: BicliqueCover) -> str:
    """Serialize: header ``sigma=<int> parts=<int>``, then one line per part,
    ``P: i1 i2 ... | R: j1 j2 ...``."""
    lines = [f"sigma={cover_size(cover)} parts={len(cover.parts)}"]
    for pts, rngs in cover.parts:
        lines.append(f"P: {' '.join(map(str, pts))} | R: {' '.join(map(str, rngs))}")
    return "\n".join(lines) + "\n"


def cover_from_text(
    text: str, left_count: int | None = None, right_count: int | None = None
) -> BicliqueCover:
    """Parse the format of ``cover_to_text``.  An error in a part names its
    line, counting blank lines too."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise InputError("empty cover file")
    header = lines[0][1]
    try:
        fields = dict(item.split("=", 1) for item in header.split())
        sigma, nparts = int(fields["sigma"]), int(fields["parts"])
    except (ValueError, KeyError) as exc:
        raise InputError(f"bad cover header {header!r}") from exc
    if len(lines) - 1 != nparts:
        raise InputError(f"header promises {nparts} parts, file has {len(lines) - 1}")
    parts = []
    max_p, max_r = -1, -1
    for lineno, line in lines[1:]:
        try:
            left, right = line.split("|")
            pts = sorted(int(tok) for tok in left.split(":", 1)[1].split())
            rngs = sorted(int(tok) for tok in right.split(":", 1)[1].split())
        except (ValueError, IndexError) as exc:
            raise InputError(f"bad part on line {lineno}: {line!r}") from exc
        for idx, count, what in ((pts, left_count, "point"), (rngs, right_count, "range")):
            if idx and (idx[0] < 0 or count is not None and idx[-1] >= count):
                raise InputError(f"part on line {lineno} references a {what} index out of range")
        parts.append((pts, rngs))
        max_p = max(max_p, *pts) if pts else max_p
        max_r = max(max_r, *rngs) if rngs else max_r
    cover = BicliqueCover(
        left_count if left_count is not None else max_p + 1,
        right_count if right_count is not None else max_r + 1,
        parts,
    )
    if cover_size(cover) != sigma:
        raise InputError(f"header sigma={sigma} but parts sum to {cover_size(cover)}")
    return cover
