"""Run one workload of geomatch's benchmark and print its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload match-real --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout; nothing needs to be
built or installed.  Operations run in whole rounds until ``--seconds`` have
passed, one process and one thread, with the library's defaults (exact
arithmetic, no ``numeric=`` and no ``trace=`` argument).  Every output is
checked against a computation made apart from the program (``checks.py``),
outside the timed regions.

With ``--trace 0`` the result holds the end-to-end metrics: ``op_s``, the
median seconds of one operation of the workload's kind, ``setup_s``, the
median seconds a fresh process takes to import geomatch and build the run's
inputs, and ``peak_rss_mb``, the process's peak resident memory.  Both times
are scaled to a reference machine speed: a fixed pure-Python probe is timed
right before and after each operation (and each set-up), and every time is
multiplied by ``PROBE_REF_S`` over the probe's time then.  The speed of a
shared machine drifts by tens of percent within minutes, and this takes the
drift out of the comparison between runs; the unscaled medians are printed
too.  With ``--trace 1`` every round runs twice, untraced and then traced,
and the result holds the per-layer metrics of the traced passes
(``tracing.py``) next to the wall time of both passes.  The last line of
standard output is the result as one JSON object; the result and the spans
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS  # sits next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_REF_S = 0.004  # the probe's time on the reference machine (README)


def load_geomatch():
    src = ROOT / "src"
    if not (src / "geomatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no geomatch sources under {src}")
    sys.path.insert(0, str(src))
    import geomatch
    import geomatch.cli  # noqa: F401  (the CLI operation calls geomatch.cli.main)

    return geomatch


def setup_seconds(args) -> tuple:
    """Median wall time, scaled and unscaled, of fresh processes that start
    the interpreter, import geomatch, build this run's inputs and exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        p0 = probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        scaled.append(dt * PROBE_REF_S * 2 / (p0 + probe()))
        wall.append(dt)
    return statistics.median(scaled), statistics.median(wall)


def probe() -> float:
    """Seconds taken by a fixed pure-Python task, a gauge of how fast the
    machine runs the interpreter at this moment: integer arithmetic, then
    Fractions stored in a dict and sorted keys."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i % 7
    d = {(i % 211, i): Fraction(i, 7 + i % 13) for i in range(1500)}
    sum(d.values())
    sorted(d)
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (kind, text) of incorrect outputs
        self.scaled = {}  # kind -> scaled op seconds, untraced runs only
        self.samples = {}  # kind -> op seconds, untraced passes only
        self.wall = {False: 0.0, True: 0.0}  # op seconds per pass, by traced

    def verdict(self, wl, kind: str, problem) -> None:
        if problem is None:
            return
        if kind in wl.faulty:
            self.failed += 1
            print(f"perfbench: failed {kind} operation: {problem}", file=sys.stderr)
        else:
            self.problems.append((kind, problem))


def run_op(wl, tally: Tally, kind: str, item, tracer, traced: bool) -> None:
    """One operation, timed; with no tracer it is also gauged by the probe."""
    tally.attempted += 1
    gauge = tracer is None
    span = tracer.span("op." + kind) if traced else contextlib.nullcontext()
    try:
        p0 = probe() if gauge else None
        with span:
            t0 = time.perf_counter()
            out = wl.run(kind, item)
            dt = time.perf_counter() - t0
        if gauge:
            tally.scaled.setdefault(kind, []).append(dt * PROBE_REF_S * 2 / (p0 + probe()))
    except Exception:  # a raising operation is a failed one; the run goes on
        tally.failed += 1
        traceback.print_exc()
        return
    tally.wall[traced] += dt
    if not traced:
        tally.samples.setdefault(kind, []).append(dt)
    tally.verdict(wl, kind, wl.check(kind, item, out))


def measure(wl, seconds: float, tracer) -> Tally:
    tally = Tally()
    passes = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        ops = wl.round(r)
        for traced in passes:
            if traced:
                tracer.install()
            try:
                for kind, item in ops:
                    run_op(wl, tally, kind, item, tracer, traced)
            finally:
                if traced:
                    tracer.uninstall()
        r += 1
    return tally


def finish_checks(wl, tally: Tally) -> None:
    verdicts = {}
    for kind, data in wl.deferred:
        key = (kind, data)
        if key not in verdicts:
            verdicts[key] = wl.deferred_check(kind, data)
        tally.verdict(wl, kind, verdicts[key])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    g = load_geomatch()
    if args.setup_only:
        WORKLOADS[args.workload](g, args.seed, OUT / "inputs")
        return 0

    setup = setup_seconds(args) if not args.trace else None
    wl = WORKLOADS[args.workload](g, args.seed, OUT / "inputs")
    gc.freeze()  # the inputs live all run; keep the collector off them
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    t_origin = time.perf_counter()
    tally = measure(wl, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finish_checks(wl, tally)

    if tracer is None:
        wall = tally.samples.get(wl.timed, [])
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "op_s": {"value": statistics.median(tally.scaled[wl.timed]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(
            f"{len(wall)} {wl.timed} operations; unscaled medians: "
            f"op {statistics.median(wall):.4f} s, set-up {setup[1]:.4f} s"
        )
    else:
        metrics = tracer.metrics()
        metrics["trace.traced_s"] = {"value": tally.wall[True], "unit": "s"}
        metrics["trace.untraced_s"] = {"value": tally.wall[False], "unit": "s"}
        overhead = tally.wall[True] / tally.wall[False] - 1 if tally.wall[False] else 0.0
        print(
            f"operations took {tally.wall[True]:.3f} s traced and "
            f"{tally.wall[False]:.3f} s untraced (tracing overhead {overhead:+.1%})"
        )
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", t_origin)

    for kind, text in tally.problems[:10]:
        print(f"perfbench: incorrect {kind} output: {text}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
