"""Biclique covers of point/range incidence graphs.

A cover represents the bipartite incidence graph I(P, R) as a union of
complete bipartite pieces (P_i, R_i); its size is sigma = sum(|P_i| + |R_i|).
The trivial cover lists one piece per incident pair.  For axis-aligned boxes,
a multi-level range tree yields an edge-disjoint cover of size
O(n log^d n) for d-dimensional inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import Box, Disk, contains
from .numeric import InputError, integer_scale, scaled_ints

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
    """One part per incident pair.  For congruent disks the pair enumeration
    is grid-accelerated (cells of side 2r, 3x3 neighborhoods); anything else
    falls back to the quadratic double loop."""
    parts = []
    if (
        points
        and ranges
        and all(isinstance(r, Disk) for r in ranges)
        and len({r.radius_sq for r in ranges}) == 1
    ):
        rad = math.sqrt(float(ranges[0].radius_sq))
        side = 2.0 * rad if rad > 0 else 1.0
        grid = defaultdict(list)
        for j, d in enumerate(ranges):
            cx, cy = d.center.coords
            grid[(int(float(cx) // side), int(float(cy) // side))].append(j)
        for i, p in enumerate(points):
            px, py = p.coords
            cell_x, cell_y = int(float(px) // side), int(float(py) // side)
            hits = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for j in grid.get((cell_x + dx, cell_y + dy), ()):
                        if contains(ranges[j], p):
                            hits.append(j)
            parts.extend(([i], [j]) for j in sorted(hits))
    else:
        for i, p in enumerate(points):
            for j, r in enumerate(ranges):
                if contains(r, p):
                    parts.append(([i], [j]))
    return BicliqueCover(len(points), len(ranges), parts)


def box_cover(points, boxes, dim: int | None = None) -> BicliqueCover:
    """Edge-disjoint cover of point/box incidences via a multi-level range
    tree: the outermost tree splits on coordinate 0, each canonical node
    recurses on the next coordinate, and the last level emits one part per
    canonical node with registered boxes.

    When some coordinate is a ``Fraction``, every coordinate is first
    multiplied by the LCM of the denominators, so the tree sorts and
    compares ints; scaling by one positive int changes no incidence."""
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
        pc = [p.coords for p in points]
        lo = [b.lo.coords for b in boxes]
        hi = [b.hi.coords for b in boxes]
        every = [c for group in (pc, lo, hi) for t in group for c in t]
        if any(isinstance(c, Fraction) for c in every):
            scale = integer_scale(every)
            if scale is not None:
                pc, lo, hi = (
                    [scaled_ints(t, scale) for t in group] for group in (pc, lo, hi)
                )
        _tree_level(pc, lo, hi, list(range(len(points))), list(range(len(boxes))), 0, d, parts)
    return BicliqueCover(len(points), len(boxes), parts)


def _tree_level(pc, lo, hi, pt_idx, bx_idx, axis, d, parts) -> None:
    # pc, lo, hi: coordinate tuples of the points and of the box corners
    order = sorted(pt_idx, key=lambda i: (pc[i][axis], i))
    vals = [pc[i][axis] for i in order]
    reg = defaultdict(list)

    def descend(a: int, b: int, k: int, blo, bhi) -> None:
        if vals[a] > bhi or vals[b - 1] < blo:
            return
        if blo <= vals[a] and vals[b - 1] <= bhi:
            reg[(a, b)].append(k)
            return
        mid = (a + b) // 2
        descend(a, mid, k, blo, bhi)
        descend(mid, b, k, blo, bhi)

    for k in bx_idx:
        descend(0, len(order), k, lo[k][axis], hi[k][axis])

    last = axis == d - 1
    for key in sorted(reg):
        a, b = key
        seg = order[a:b]
        blist = reg[key]
        if last:
            parts.append((sorted(seg), sorted(blist)))
        else:
            _tree_level(pc, lo, hi, seg, blist, axis + 1, d, parts)


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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty cover file")
    header = lines[0].split()
    try:
        fields = dict(item.split("=", 1) for item in header)
        sigma, nparts = int(fields["sigma"]), int(fields["parts"])
    except (ValueError, KeyError) as exc:
        raise InputError(f"bad cover header {lines[0]!r}") from exc
    if len(lines) - 1 != nparts:
        raise InputError(f"header promises {nparts} parts, file has {len(lines) - 1}")
    parts = []
    max_p, max_r = -1, -1
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            left, right = line.split("|")
            pts = sorted(int(tok) for tok in left.split(":", 1)[1].split())
            rngs = sorted(int(tok) for tok in right.split(":", 1)[1].split())
        except (ValueError, IndexError) as exc:
            raise InputError(f"bad part on line {lineno}: {line!r}") from exc
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
