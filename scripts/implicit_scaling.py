"""Exercise the compressed-level matching engine at sizes the explicit
network could not hold, printing the per-phase trace.

One phase row per blocking flow: the sink level t (must be odd and
strictly increasing), the value pushed through the level graph, and the
number of support edges left after the cycle-cancelling prune.
"""

import argparse
import math
import random
import time

from geomatch.cover import box_cover, cover_size
from geomatch.flow import SupplyDemand, matching_value
from geomatch.geometry import Box, Point
from geomatch.implicit_dinitz import max_matching_implicit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=100_000, help="points and boxes per side")
    ap.add_argument("--alpha", type=float, default=2.0, help="box half-extent scale")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    pts = [Point((rng.random(), rng.random())) for _ in range(args.n)]
    bound = args.alpha / math.sqrt(args.n)
    boxes = []
    for _ in range(args.n):
        cx, cy = rng.random(), rng.random()
        w, h = rng.random() * bound, rng.random() * bound
        boxes.append(Box(Point((cx - w, cy - h)), Point((cx + w, cy + h))))

    t0 = time.perf_counter()
    cover = box_cover(pts, boxes)
    t_cover = time.perf_counter() - t0
    print(
        f"n={args.n}  sigma={cover_size(cover)}  parts={len(cover.parts)}"
        f"  cover build {t_cover:.2f}s"
    )

    sd = SupplyDemand.unit(args.n, args.n)
    trace = []
    t0 = time.perf_counter()
    matching = max_matching_implicit(args.n, args.n, sd, cover, trace=trace)
    t_match = time.perf_counter() - t0

    print(f"{'phase':>6}  {'t':>4}  {'pushed':>12}  {'support':>8}")
    for i, (t, pushed, support) in enumerate(trace, 1):
        print(f"{i:>6}  {t:>4}  {pushed!s:>12}  {support:>8}")
    print(f"value={matching_value(matching)}  phases={len(trace)}  solve {t_match:.2f}s")


if __name__ == "__main__":
    main()
