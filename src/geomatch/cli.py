"""Batch command-line front end.

Subcommands read CSV instance files (alternating file pairs on the command
line, so several instances can run in one invocation), compute covers,
matchings, bottleneck distances, or diagram distances, and emit JSON on
standard output.  Diagnostics go to standard error.  Exit codes: 0 success,
2 bad input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .bottleneck import bottleneck_search, decide, pd_bottleneck
from .cover import box_cover, cover_from_text, cover_size, cover_to_text, trivial_cover
from .flow import SupplyDemand, matching_value
from .geometry import Box, Disk, Metric, Point
from .implicit_dinitz import max_matching_implicit
from .numeric import InputError, InternalError, parse_scalar, scalar_to_json, to_float

_METRICS = {"linf": Metric.LINF, "l1": Metric.L1, "l2": Metric.L2}


# ---------------------------------------------------------------- parsing

def _file(path: str, text: str | None = None) -> str:
    """The text of ``path``, or with ``text`` given, ``path`` overwritten by
    it.  Every file the CLI reads or writes goes through here, so an OSError
    becomes an InputError that names the file."""
    try:
        if text is None:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text
    except OSError as exc:
        raise InputError(f"cannot {'read' if text is None else 'write'} {path}: {exc}") from exc


def _rows(path: str):
    """(lineno, tokens) for each non-blank, non-comment CSV line."""
    out = []
    for lineno, line in enumerate(_file(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, [tok.strip() for tok in stripped.split(",")]))
    return out


def _scalar(tok: str, path: str, lineno: int):
    try:
        return parse_scalar(tok)
    except InputError as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from exc


def parse_ranges(path: str):
    """Ranges CSV: ``box,lo...,hi...[,demand]`` or ``disk,cx,cy,radius[,demand]``.
    Returns (ranges, demands, dim); dim is None for an empty file."""
    ranges, demands = [], []
    dim = None
    for lineno, toks in _rows(path):
        kind = toks[0].lower()
        rest = toks[1:]
        if kind == "box":
            if len(rest) < 2:
                raise InputError(f"{path}:{lineno}: box row needs lo and hi coordinates")
            has_demand = len(rest) % 2 == 1
            ncoord = len(rest) - 1 if has_demand else len(rest)
            d = ncoord // 2
            vals = [_scalar(t, path, lineno) for t in rest]
            lo, hi = vals[:d], vals[d : 2 * d]
            if any(l > h for l, h in zip(lo, hi)):
                raise InputError(f"{path}:{lineno}: box has lo > hi")
            rng = Box(Point(tuple(lo)), Point(tuple(hi)))
            demand = vals[-1] if has_demand else Fraction(1)
        elif kind == "disk":
            if len(rest) not in (3, 4):
                raise InputError(
                    f"{path}:{lineno}: disk row needs cx,cy,radius and optional demand"
                )
            vals = [_scalar(t, path, lineno) for t in rest]
            if vals[2] < 0:
                raise InputError(f"{path}:{lineno}: negative disk radius")
            rng = Disk(Point((vals[0], vals[1])), vals[2])
            demand = vals[3] if len(rest) == 4 else Fraction(1)
            d = 2
        else:
            raise InputError(f"{path}:{lineno}: unknown range kind {toks[0]!r}")
        if dim is None:
            dim = d
        elif dim != d:
            raise InputError(f"{path}:{lineno}: range dimension changed from {dim} to {d}")
        if demand <= 0:
            raise InputError(f"{path}:{lineno}: demand must be positive")
        ranges.append(rng)
        demands.append(demand)
    return ranges, demands, dim


def parse_points(path: str, dim: int | None = None, allow_supply: bool = True):
    """Points CSV: coordinates plus an optional trailing supply.  The
    coordinate count is ``dim`` when given (from the ranges file), otherwise
    the first row's token count.  Returns (points, supplies)."""
    points, supplies = [], []
    for lineno, toks in _rows(path):
        if dim is None:
            dim = len(toks)
        vals = [_scalar(t, path, lineno) for t in toks]
        if len(toks) == dim:
            coords, supply = vals, Fraction(1)
        elif len(toks) == dim + 1 and allow_supply:
            coords, supply = vals[:-1], vals[-1]
        else:
            want = f"{dim}" if not allow_supply else f"{dim} or {dim + 1}"
            raise InputError(f"{path}:{lineno}: expected {want} fields, got {len(toks)}")
        if supply <= 0:
            raise InputError(f"{path}:{lineno}: supply must be positive")
        points.append(Point(tuple(coords)))
        supplies.append(supply)
    return points, supplies


def parse_diagram(path: str):
    """Diagram CSV ``birth,death``.  Rows on the diagonal are dropped; rows
    below it are errors."""
    pts = []
    for lineno, toks in _rows(path):
        if len(toks) != 2:
            raise InputError(f"{path}:{lineno}: expected birth,death")
        b, d = (_scalar(t, path, lineno) for t in toks)
        if d < b:
            raise InputError(f"{path}:{lineno}: death {d} below birth {b}")
        if d == b:
            continue
        pts.append((b, d))
    return pts


# ------------------------------------------------------------------ output

def _shown(task: dict):
    """How a task prints its numbers: every result is exact, and
    ``--numeric float`` only rounds it to a float when printing."""
    return to_float if task["numeric"] == "float" else scalar_to_json


def _matching_json(matching, shown):
    return [[p, r, shown(v)] for p, r, v in matching]


# ------------------------------------------------------------ worker bodies
# Each takes one picklable task dict so --jobs can fan instances out to a
# process pool.

def _build_cover(points, ranges, dim, shape: str):
    if shape == "box":
        if not all(isinstance(r, Box) for r in ranges):
            raise InputError("shape=box needs box ranges only")
        return box_cover(points, ranges, dim)
    if shape == "disk" and not all(isinstance(r, Disk) for r in ranges):
        raise InputError("shape=disk needs disk ranges only")
    return trivial_cover(points, ranges)


def _run_cover(task: dict) -> dict:
    ranges, _, dim = parse_ranges(task["ranges"])
    points, _ = parse_points(task["points"], dim)
    cover = _build_cover(points, ranges, dim, task["shape"])
    sigma = cover_size(cover)
    n = len(points)
    norm = sigma / (n * math.log2(n) ** 2) if n >= 2 else None
    if task.get("out"):
        _file(task["out"], cover_to_text(cover))
    return {
        "n_points": n,
        "n_ranges": len(ranges),
        "shape": task["shape"],
        "parts": len(cover.parts),
        "sigma": sigma,
        "sigma_normalized": norm,
        "out": task.get("out"),
    }


def _run_match(task: dict) -> dict:
    ranges, demands, dim = parse_ranges(task["ranges"])
    points, supplies = parse_points(task["points"], dim)
    shown = _shown(task)

    if task["cover"] == "auto":
        shape = "box" if ranges and all(isinstance(r, Box) for r in ranges) else "trivial"
        cover = _build_cover(points, ranges, dim, shape)
    else:
        text = _file(task["cover"])
        try:
            cover = cover_from_text(text, len(points), len(ranges))
        except InputError as exc:
            raise InputError(f"{task['cover']}: {exc}") from exc

    if task["mode"] == "integral":
        bad = [x for x in supplies + demands if x.denominator != 1]
        if bad:
            raise InputError(f"integral mode got non-integral weight {bad[0]}")
    sd = SupplyDemand(tuple(supplies), tuple(demands))
    trace = [] if task.get("trace") else None
    matching = max_matching_implicit(len(points), len(ranges), sd, cover, trace=trace)
    value = matching_value(matching)

    out = {
        "mode": task["mode"],
        "n_points": len(points),
        "n_ranges": len(ranges),
        "value": shown(value),
        "matching_size": len(matching),
        "matching": _matching_json(matching, shown),
    }
    if trace is not None:
        out["trace"] = [
            {"t_level": t, "pushed": shown(v), "support": s}
            for t, v, s in trace
        ]
    return out


def _run_bottleneck(task: dict) -> dict:
    metric = _METRICS[task["metric"]]
    # L-infinity takes any dimension, set by the first red row; L1 and L2
    # take planar points
    dim = None if metric is Metric.LINF else 2
    red, _ = parse_points(task["red"], dim, allow_supply=False)
    blue, _ = parse_points(task["blue"], red[0].dim if red else dim, allow_supply=False)
    if len(red) != len(blue):
        raise InputError(f"size mismatch: {len(red)} red vs {len(blue)} blue points")
    # Decisions and searches run on the parsed decimals: rounding them to
    # floats first would decide on other points (the floats 3.4 and -1.7
    # lie farther apart than the float 5.1).
    shown = _shown(task)

    if task.get("lam") is not None:
        lam = parse_scalar(task["lam"])
        res = decide(red, blue, metric, lam)
        return {
            "metric": task["metric"],
            "lambda": shown(lam),
            "feasible": res.feasible,
            "matching": None if res.matching is None else _matching_json(res.matching, shown),
        }

    r = bottleneck_search(red, blue, metric)
    out = {
        "metric": task["metric"],
        "lambda_star": shown(r.lambda_star),
        "matching": _matching_json(r.matching, shown),
    }
    if metric is Metric.L2:
        out["lambda_star_sq"] = shown(r.lambda_star_sq)
    return out


def _run_pd(task: dict) -> dict:
    x = parse_diagram(task["dgm1"])
    y = parse_diagram(task["dgm2"])
    v = pd_bottleneck(x, y)
    return {"w_inf": _shown(task)(v)}


_RUNNERS = {
    "cover": _run_cover,
    "match": _run_match,
    "bottleneck": _run_bottleneck,
    "pd": _run_pd,
}


def _dispatch(kind: str, tasks: list, jobs: int) -> list:
    runner = _RUNNERS[kind]
    if jobs <= 1 or len(tasks) <= 1:
        return [runner(t) for t in tasks]
    # the pool may start all its workers at once, so ask for no more than
    # there are instances
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(runner, tasks))


# ------------------------------------------------------------------ argparse

def _pairs(files: list, what: tuple) -> list:
    if len(files) % 2 != 0:
        raise InputError(
            f"expected alternating {what[0]}/{what[1]} file pairs, got {len(files)} files"
        )
    return [(files[i], files[i + 1]) for i in range(0, len(files), 2)]


def _common(sub) -> None:
    sub.add_argument(
        "--numeric",
        choices=("rational", "float"),
        default="rational",
        help="number format of the output; every result is computed exactly, "
        "rational prints it as an exact fraction string and float rounded to a float",
    )
    sub.add_argument("--jobs", type=int, default=1, help="parallel workers across instances")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geomatch",
        description="Geometric matching over compact incidence representations.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    c = subs.add_parser("cover", help="build and serialize a biclique cover")
    c.add_argument("files", nargs="+", help="alternating POINTS RANGES file pairs")
    c.add_argument("--shape", choices=("box", "disk", "trivial"), default="trivial")
    out = c.add_mutually_exclusive_group()
    out.add_argument("--out", help="cover output file (single instance only)")
    out.add_argument("--out-dir", help="directory for cover files, one per instance")
    _common(c)

    m = subs.add_parser("match", help="maximum matching between points and ranges")
    m.add_argument("files", nargs="+", help="alternating POINTS RANGES file pairs")
    m.add_argument(
        "--mode",
        choices=("integral", "real"),
        default="integral",
        help="integral refuses non-integral supplies and demands, real takes any "
        "positive ones; both modes run the implicit engine",
    )
    m.add_argument(
        "--cover",
        default="auto",
        help="'auto' to build from the ranges, or a cover file path",
    )
    m.add_argument("--trace", action="store_true", help="include per-phase trace")
    _common(m)

    b = subs.add_parser("bottleneck", help="bottleneck matching distance")
    b.add_argument("files", nargs="+", help="alternating RED BLUE point file pairs")
    b.add_argument("--metric", choices=tuple(_METRICS), default="linf")
    b.add_argument("--lambda", dest="lam", help="decide feasibility at this bound")
    _common(b)

    p = subs.add_parser("pd", help="bottleneck distance between persistence diagrams")
    p.add_argument("files", nargs="+", help="alternating DIAGRAM DIAGRAM file pairs")
    _common(p)

    return ap


def _tasks_from_args(args: argparse.Namespace) -> list:
    base = {"numeric": args.numeric}
    if args.command == "cover":
        pairs = _pairs(args.files, ("points", "ranges"))
        if args.out and len(pairs) > 1:
            raise InputError("--out needs a single instance; use --out-dir")
        tasks = []
        for i, (pts, rng) in enumerate(pairs):
            out = args.out
            if args.out_dir:
                out = f"{args.out_dir}/cover_{i}.txt"
            tasks.append(dict(base, points=pts, ranges=rng, shape=args.shape, out=out))
        return tasks
    if args.command == "match":
        pairs = _pairs(args.files, ("points", "ranges"))
        if args.cover != "auto" and len(pairs) > 1:
            raise InputError("an explicit cover file needs a single instance")
        return [
            dict(
                base,
                points=pts,
                ranges=rng,
                mode=args.mode,
                cover=args.cover,
                trace=args.trace,
            )
            for pts, rng in pairs
        ]
    if args.command == "bottleneck":
        pairs = _pairs(args.files, ("red", "blue"))
        return [dict(base, red=r, blue=b, metric=args.metric, lam=args.lam) for r, b in pairs]
    pairs = _pairs(args.files, ("diagram", "diagram"))
    return [dict(base, dgm1=a, dgm2=b) for a, b in pairs]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tasks = _tasks_from_args(args)
        results = _dispatch(args.command, tasks, args.jobs)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    payload = results[0] if len(results) == 1 else results
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
