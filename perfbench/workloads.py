"""Seeded inputs and timed operations of the benchmark's four workloads.

Every input is first drawn as plain ints: coordinates are numerators over
``COORD_DEN``, weights over ``WEIGHT_DEN`` and diagram values over
``DGM_DEN``, so every number is a decimal such as ``0.137`` or ``2.05``, the
way the CLI parses its files.  The ints are then converted once into geomatch
types (``Point``, ``Box``, ``SupplyDemand``, diagram pairs of ``Fraction``).
The checks in ``checks.py`` read the ints, never the program's objects.

A workload hands out rounds: a fixed list of operations that every run repeats
whole, so each run attempts the same mix of operations.  Operations cycle
through a pool of instances drawn from the seed; each pool holds about as many
instances as a run of the default length has operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import checks

COORD_DEN = 1000
WEIGHT_DEN = 100
DGM_DEN = 100

# match-real
MATCH_N = 700  # points and boxes per instance
MATCH_POOL = 32
MATCHES_PER_ROUND = 4
BOX_ALPHA = 2.0  # box half-extents are uniform in [0, BOX_ALPHA / sqrt(n)]
CLI_N = 1200  # above the 1000 elements where `--numeric auto` turns to floats
CLI_SHIFT = 11  # CLI weights are the instance's weights times 10**-11
CLI_SEED = 20231003  # the CLI instance is the same in every run

# bottleneck-linf
LINF_N = 100  # points per side
LINF_POOL = 112

# pd-bottleneck
PD_N = 32  # points per diagram
PD_POOL = 96

# bottleneck-l2
L2_N = 64
L2_POOL = 96


def _coord(rng: random.Random) -> int:
    return rng.randrange(1, COORD_DEN)


def _raw_points(rng: random.Random, n: int) -> list:
    return [(_coord(rng), _coord(rng)) for _ in range(n)]


def _off_grid(k: int, step: int) -> int:
    # keep a box corner off the integers, widening the box by one unit
    return k + step if k % COORD_DEN == 0 else k


def _raw_match_instance(rng: random.Random, n: int) -> dict:
    """n points and n boxes in the unit square with weights in (0, 4)."""
    bound = int(BOX_ALPHA / math.sqrt(n) * COORD_DEN)
    boxes = []
    for _ in range(n):
        cx, cy = _coord(rng), _coord(rng)
        w, h = rng.randint(1, bound), rng.randint(1, bound)
        boxes.append(
            (_off_grid(cx - w, -1), _off_grid(cy - h, -1),
             _off_grid(cx + w, 1), _off_grid(cy + h, 1))
        )
    return {
        "points": _raw_points(rng, n),
        "boxes": boxes,
        "supplies": [rng.randint(1, 399) for _ in range(n)],
        "demands": [rng.randint(1, 399) for _ in range(n)],
    }


def _raw_diagram(rng: random.Random, n: int) -> list:
    out = []
    for _ in range(n):
        b = rng.randrange(1, 1000)
        out.append((b, b + rng.randint(1, 300)))
    return out


def _point(g, xy, den):
    return g.Point((Fraction(xy[0], den), Fraction(xy[1], den)))


def _decimal(num: int, places: int) -> str:
    """Exact decimal text of num / 10**places."""
    sign = "-" if num < 0 else ""
    whole, frac = divmod(abs(num), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


class Workload:
    """What ``run.py`` needs from a workload.  ``timed`` is the kind of
    operation whose median time is the workload's ``op_s``; ``faulty`` names
    the kinds whose failed check counts as a failed operation (a known fault
    of the program) instead of an incorrect result."""

    name = ""
    timed = ""
    faulty: frozenset = frozenset()

    def __init__(self, g, seed: int, workdir: Path):
        self.g = g
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.deferred = []  # (kind, data) per operation, for the checks that need scipy

    def round(self, r: int) -> list:
        raise NotImplementedError

    def run(self, kind: str, item: int):
        raise NotImplementedError

    def check(self, kind: str, item: int, out):
        """Checks that need no scipy, made right after the operation; returns
        the problem found or None, and queues the rest in ``self.deferred``."""
        raise NotImplementedError

    def deferred_check(self, kind: str, data):
        """One queued check, made after every timed operation; returns the
        problem found or None."""
        raise NotImplementedError


class MatchReal(Workload):
    name = "match-real"
    timed = "match"
    faulty = frozenset({"cli"})

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.raw = [_raw_match_instance(self.rng, MATCH_N) for _ in range(MATCH_POOL)]
        self.inputs = []
        for inst in self.raw:
            pts = [_point(g, p, COORD_DEN) for p in inst["points"]]
            boxes = [
                g.Box(_point(g, b[:2], COORD_DEN), _point(g, b[2:], COORD_DEN))
                for b in inst["boxes"]
            ]
            sd = g.SupplyDemand(
                tuple(Fraction(s, WEIGHT_DEN) for s in inst["supplies"]),
                tuple(Fraction(d, WEIGHT_DEN) for d in inst["demands"]),
            )
            self.inputs.append((pts, boxes, sd))
        self.cli_raw = _raw_match_instance(random.Random(CLI_SEED), CLI_N)
        self.cli_files = self._write_cli_instance(self.cli_raw)
        self.flows = {}  # instance -> reference maximum flow, in weight numerators

    def _write_cli_instance(self, inst) -> list:
        self.workdir.mkdir(parents=True, exist_ok=True)
        places = len(str(WEIGHT_DEN)) - 1 + CLI_SHIFT
        c = lambda k: _decimal(k, len(str(COORD_DEN)) - 1)
        pts = self.workdir / "cli_points.csv"
        rngs = self.workdir / "cli_ranges.csv"
        pts.write_text(
            "".join(
                f"{c(x)},{c(y)},{_decimal(s, places)}\n"
                for (x, y), s in zip(inst["points"], inst["supplies"])
            )
        )
        rngs.write_text(
            "".join(
                f"box,{c(b[0])},{c(b[1])},{c(b[2])},{c(b[3])},{_decimal(d, places)}\n"
                for b, d in zip(inst["boxes"], inst["demands"])
            )
        )
        return [str(pts), str(rngs)]

    def round(self, r):
        base = r * MATCHES_PER_ROUND
        ops = [("match", (base + i) % MATCH_POOL) for i in range(MATCHES_PER_ROUND)]
        return ops + [("cli", 0)]

    def run(self, kind, item):
        g = self.g
        if kind == "match":
            pts, boxes, sd = self.inputs[item]
            cover = g.box_cover(pts, boxes)
            return g.max_matching_implicit(pts, boxes, sd, cover)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = g.cli.main(["match", *self.cli_files, "--mode", "real"])
        return code, buf.getvalue()

    def check(self, kind, item, out):
        if kind == "match":
            value = sum((a for _p, _r, a in out), Fraction(0))
            self.deferred.append(("match", (item, value)))
            return checks.matching_structure(self.raw[item], out, WEIGHT_DEN)
        code, text = out
        if code != 0:
            return f"`geomatch match --mode real` exited with code {code}"
        try:
            value = Fraction(json.loads(text)["value"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable `geomatch match` output: {exc}"
        self.deferred.append(("cli", value))
        return None

    def deferred_check(self, kind, data):
        if kind == "match":
            item, value = data
            want = Fraction(self._max_flow(item), WEIGHT_DEN)
            if value != want:
                return f"instance {item}: value {value}, maximum flow {want}"
            return None
        want = Fraction(self._max_flow("cli"), WEIGHT_DEN * 10**CLI_SHIFT)
        if data != want:
            return f"`geomatch match --mode real` printed value {data}, exact value {want}"
        return None

    def _max_flow(self, item) -> int:
        if item not in self.flows:
            inst = self.cli_raw if item == "cli" else self.raw[item]
            self.flows[item] = checks.max_flow_value(inst)
        return self.flows[item]


class PointSearch(Workload):
    """Bottleneck matchings with witness between two random point sets of
    ``n`` points each, under ``metric``.  Subclasses fix the metric and how
    the optimum reads as an int over the scaled coordinates."""

    n = pool = 0
    metric = ""  # a member name of geomatch.Metric
    dist = None  # exact distance over the scaled coordinates (checks.py)

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.raw = [
            (_raw_points(self.rng, self.n), _raw_points(self.rng, self.n))
            for _ in range(self.pool)
        ]
        self.inputs = [
            ([_point(g, p, COORD_DEN) for p in P], [_point(g, q, COORD_DEN) for q in Q])
            for P, Q in self.raw
        ]

    def round(self, r):
        return [(self.timed, r % self.pool)]

    def run(self, kind, item):
        P, Q = self.inputs[item]
        return self.g.bottleneck_search(P, Q, self.g.Metric[self.metric])

    def scaled_optimum(self, out) -> Fraction:
        raise NotImplementedError

    def check(self, kind, item, out):
        P, Q = self.raw[item]
        lam = self.scaled_optimum(out)
        self.deferred.append((kind, (item, lam)))
        return checks.witness(P, Q, out.matching, lam, self.dist)

    def deferred_check(self, kind, data):
        item, lam = data
        return checks.none_below(*self.raw[item], lam, self.dist)


class BottleneckLinf(PointSearch):
    name = "bottleneck-linf"
    timed = "linf"
    n, pool = LINF_N, LINF_POOL
    metric = "LINF"
    dist = staticmethod(checks.linf_dist)

    def scaled_optimum(self, out):
        return Fraction(out.lambda_star) * COORD_DEN


class PdBottleneck(Workload):
    name = "pd-bottleneck"
    timed = "pd"

    def __init__(self, g, seed, workdir):
        super().__init__(g, seed, workdir)
        self.raw = [
            (_raw_diagram(self.rng, PD_N), _raw_diagram(self.rng, PD_N))
            for _ in range(PD_POOL)
        ]
        frac = lambda d: [(Fraction(b, DGM_DEN), Fraction(e, DGM_DEN)) for b, e in d]
        self.inputs = [(frac(X), frac(Y)) for X, Y in self.raw]

    def round(self, r):
        return [("pd", r % PD_POOL)]

    def run(self, kind, item):
        X, Y = self.inputs[item]
        return self.g.pd_bottleneck(X, Y)

    def check(self, kind, item, out):
        self.deferred.append(("pd", (item, Fraction(out) * 2 * DGM_DEN)))
        return None

    def deferred_check(self, kind, data):
        item, lam2 = data
        return checks.diagram_tight(*self.raw[item], lam2)


class BottleneckL2(PointSearch):
    name = "bottleneck-l2"
    timed = "l2"
    n, pool = L2_N, L2_POOL
    metric = "L2"
    dist = staticmethod(checks.l2_sq_dist)

    def scaled_optimum(self, out):
        return Fraction(out.lambda_star_sq) * COORD_DEN**2


WORKLOADS = {w.name: w for w in (MatchReal, BottleneckLinf, PdBottleneck, BottleneckL2)}
