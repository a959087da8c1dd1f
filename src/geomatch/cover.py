"""Biclique covers of point/range incidence graphs.

A cover represents the bipartite incidence graph I(P, R) as a union of
complete bipartite pieces (P_i, R_i); its size is sigma = sum(|P_i| + |R_i|).
The trivial cover lists one piece per incident pair; for congruent disks,
``disk_cover`` finds those pairs through an exact grid and is the one disk
cover that the CLI and L2 bottleneck decisions share.  For axis-aligned
boxes, a multi-level range tree yields an edge-disjoint cover of size
O(n log^d n) for d-dimensional inputs.
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
    disk) order.  The pairs are found in 3x3 neighbourhoods of a grid of
    square cells whose side s is a rational just above the radius; each cell
    is the floor of an exact quotient, so no incidence is lost at any
    coordinate size.  Float coordinates are read exactly, once each, and
    int inputs with an int ``r_sq`` stay ints."""
    r_sq = exact(r_sq)
    if r_sq < 0:
        raise InputError("negative squared radius")
    # r^2 = n/d and s = k/d with k = isqrt(n*d) + 1, so s^2 > n/d: a point
    # within r of a centre lies in the centre's cell or a neighbouring one;
    # the cell of x is floor(x / s) = floor(x*d / k)
    d = r_sq.denominator
    k = math.isqrt(r_sq.numerator * d) + 1
    grid = defaultdict(list)
    for j, (x, y) in enumerate(centres):
        x, y = exact(x), exact(y)
        grid[x * d // k, y * d // k].append((j, x, y))
    parts = []
    for i, (px, py) in enumerate(points):
        px, py = exact(px), exact(py)
        gx, gy = px * d // k, py * d // k
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

    The outermost tree splits the points sorted on coordinate 0 at
    ``(a + b) // 2``; each canonical node holds a tree over its points sorted
    on the next coordinate, and each last-level node one sorted point list.
    A box registers at the largest nodes whose points all lie inside it on
    that level's coordinate.  The nodes' orders and point lists are built on
    first use and kept, so a bottleneck search, whose decisions differ only in
    their boxes, sorts each of them at most once.  Ties sort by point index.
    """

    def __init__(self, coords, dim: int):
        # coords: one coordinate tuple per point, all of dimension dim
        self.coords = coords
        self.dim = dim
        self.root = _TreeNode(range(len(coords)), coords, 0)

    def parts(self, lows, highs) -> list:
        """Cover parts, as ``(sorted point indices, sorted box indices)``, of
        the boxes with corner tuples ``lows[k]`` and ``highs[k]``, in the
        order of canonical nodes, outermost level first.  Every list is the
        caller's own: the tree keeps its point lists as tuples."""
        out = []
        self._query(self.root, 0, range(len(lows)), lows, highs, out)
        return out

    def _query(self, node, axis, boxes, lows, highs, out) -> None:
        vals = node.vals
        n = len(vals)
        reg = defaultdict(list)
        for k in boxes:
            lo = bisect_left(vals, lows[k][axis])
            hi = bisect_right(vals, highs[k][axis])
            if lo < hi:
                for key in _canonical(lo, hi, n):
                    reg[key].append(k)
        last = axis + 1 == self.dim
        sub = node.sub
        for key in sorted(reg):
            child = sub.get(key)
            if child is None:
                seg = node.order[key[0] : key[1]]
                if last:
                    child = tuple(sorted(seg))
                else:
                    child = _TreeNode(seg, self.coords, axis + 1)
                sub[key] = child
            if last:
                # boxes register in ascending order, so reg[key] is sorted
                out.append((list(child), reg[key]))
            else:
                self._query(child, axis + 1, reg[key], lows, highs, out)


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


class _TreeNode:
    """One level's tree over a point subset: the indices sorted on ``axis``,
    their coordinates on it, and the children built so far, by index range
    ``(a, b)`` into that order."""

    __slots__ = ("order", "vals", "sub")

    def __init__(self, idx, coords, axis: int):
        self.order = sorted(idx, key=lambda i: (coords[i][axis], i))
        self.vals = [coords[i][axis] for i in self.order]
        self.sub = {}


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
