"""Layer microbenchmark of oklab.exactgeom: hulls, volumes, mixed volumes.

    python3 tools/bench_exactgeom.py [--label NAME] [--src DIR] [--out FILE]

Times, per seeded input set:
- hull+volume: `Polytope.hull` of 25 or 150 random rational points in R^2
  and R^3, then `volume()`;
- mixed_volume.d3: V(K, K, L) of two 3D bodies of 5 and 30 points, and
  V(K, L, M) of three 3D bodies of 5 points each, with the Minkowski-sum
  memo cleared first, so a route that forms sums pays for them (the facet
  route forms none for two bodies, and one, L + M, for three);
- contains: `P.contains({t} x S)` for the hull P of 25 points in R^2 and
  R^3 and its slice S at a level t inside its first-coordinate range, the
  inclusion step of the slice-wise proof replay.  Each run takes a fresh
  copy of P, so nothing an earlier run cached on the body carries over.

The points are drawn like the `geometry` workload of perfbench: coordinates
in [0, 4] with denominators 1-4.  Each of 200 sets is timed 3 times and
keeps its fastest run; a case reports the median and quartiles of those
times over the sets.  A fixed kernel that runs none of oklab's code is
timed after every tenth set, and `median_kernels` is the median in units
of the kernel's median time, which stays comparable across the speed
phases of a shared host that change the times in ms.  The results go to
FILE (default BENCH_exactgeom.json at the repo root) under `runs[NAME]`,
next to the runs already there, so two source trees can be compared: run
it once with `--src` pointing at the `src` directory of the other tree.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETS, ROUNDS, SEED = 200, 3, 0
CASES = [("hull_volume.d2.n25", 2, 25), ("hull_volume.d2.n150", 2, 150),
         ("hull_volume.d3.n25", 3, 25), ("hull_volume.d3.n150", 3, 150),
         ("mixed_volume.d3.n5_n30", 3, None), ("mixed_volume.d3.three_bodies", 3, "three"),
         ("contains.d2", 2, "slice"), ("contains.d3", 3, "slice")]


def random_points(rnd: random.Random, dim: int, count: int) -> list[tuple]:
    out = []
    for _ in range(count):
        dens = [rnd.choice((1, 2, 3, 4)) for _ in range(dim)]
        out.append(tuple(Fraction(rnd.randint(0, 4 * den), den) for den in dens))
    return out


def kernel_s() -> float:
    """Seconds taken by a fixed integer and Fraction kernel that runs none
    of oklab's code; a case's time divided by it is comparable across the
    speed phases of a shared host."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    sorted(range(3000), key=lambda j: j * 7919 % 1009)
    return perf_counter() - start


def time_case(exactgeom, dim: int, count: int | str | None, rnd: random.Random) -> dict:
    hull = exactgeom.Polytope.hull
    if count is None:  # two-body mixed volume
        inputs = [(hull(random_points(rnd, dim, 5)), hull(random_points(rnd, dim, 30)))
                  for _ in range(SETS)]

        def run(bodies):
            exactgeom.minkowski_sum.cache_clear()
            k_body, l_body = bodies
            exactgeom.mixed_volume([k_body, k_body, l_body])
    elif count == "three":  # three distinct bodies
        inputs = [tuple(hull(random_points(rnd, dim, 5)) for _ in range(3))
                  for _ in range(SETS)]

        def run(bodies):
            exactgeom.minkowski_sum.cache_clear()
            exactgeom.mixed_volume(bodies)
    elif count == "slice":  # a body and the {t} x slice it contains
        inputs = []
        for _ in range(SETS):
            body = hull(random_points(rnd, dim, 25))
            lo, hi = body.first_coordinate_range()
            t = lo + (hi - lo) * Fraction(rnd.randint(1, 7), 8)
            inputs.append((body, exactgeom.slice_at(body, t).embed_prefix(t)))

        def run(pair):
            body, inner = pair
            fresh = exactgeom.Polytope(body.dim, body.L, body.ipts, (
                body.k, body.rows, body.cols, body.facets, body._volume), _trusted=True)
            assert fresh.contains(inner)
    else:
        inputs = [random_points(rnd, dim, count) for _ in range(SETS)]

        def run(points):
            hull(points).volume()

    best, kernels = [float("inf")] * SETS, []
    for _ in range(ROUNDS):
        for i, item in enumerate(inputs):
            start = perf_counter()
            run(item)
            best[i] = min(best[i], perf_counter() - start)
            if i % 10 == 0:
                kernels.append(kernel_s())
    q1, q2, q3 = quantiles(best, n=4)
    kernel = median(kernels)
    return {"median_ms": round(q2 * 1e3, 4), "q1_ms": round(q1 * 1e3, 4),
            "q3_ms": round(q3 * 1e3, 4), "sets": SETS, "kernel_ms": round(kernel * 1e3, 4),
            "median_kernels": round(q2 / kernel, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the oklab package")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_exactgeom.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from oklab import exactgeom

    cases = {}
    for name, dim, count in CASES:
        rnd = random.Random(f"{SEED}:{name}")
        cases[name] = time_case(exactgeom, dim, count, rnd)
        print(f"{name:26s} median {cases[name]['median_ms']:9.3f} ms"
              f" = {cases[name]['median_kernels']:7.3f} kernels")
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = {
        "seed": SEED, "rounds": ROUNDS, "python": platform.python_version(),
        "machine": platform.machine(), "cases": cases}
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
