"""Layer microbenchmark of oklab.exactgeom: hulls, volumes, mixed volumes,
containment and witnesses, of the cold okounkov body and of the cold
Corollary 1.5 check of the toric layer.

    python3 tools/bench_exactgeom.py [--src DIR --label NAME]... [--out FILE]

Times, per seeded input set:
- hull+volume: `Polytope.hull` of 25 or 150 random rational points in R^2
  and R^3, of 5 in R^3 (the spatial bodies of perfbench's `geometry`), and
  of the 8 corners of a random box in R^3 (`hull_volume.d3.box`, the shape
  of the bodies of P^1 x P^1 x P^1), then `volume()`;
- minkowski_sum.d3.n5_n5: the sum of two hulls of 5 points in R^3, the
  hull of 25 vertex sums that `mixedvol` forms for three bodies, with the
  Minkowski-sum memo cleared first;
- mixed_volume.d3: V(K, K, L) of two 3D bodies of 5 and 30 points, and
  V(K, L, M) of three 3D bodies of 5 points each, with the Minkowski-sum
  memo cleared first, so a route that forms sums pays for them (the facet
  route forms none for two bodies, and one, L + M, for three).  A set of
  the two-body case runs REPEAT mixed volumes in a row and reports their
  mean, so that one timed set is long against the timer and the host's
  short stalls;
- contains: `P.contains({t} x S)` for the hull P of 25 points and its
  slice S at a level t inside its first-coordinate range, the inclusion
  step of the slice-wise proof replay: P full-dimensional in R^2 and R^3,
  and P of affine rank 2 in R^3 (`contains.d3.rank2`), whose affine-hull
  equality is tested as well;
- first_outside.d3: the witness search of a strict additivity verdict,
  `P.first_outside(Q)` for the hull P of 25 points in R^3 and the hull Q
  of P's vertices and one point outside P, which Q keeps as its last
  vertex, so every vertex is tested.  A tree whose `first_outside` takes
  points is passed `Q.vertices`, as its callers did;
- slice_at: `slice_at(P, t)` for the hull P of 25 points in R^2 and R^3 at
  every t of the grid j/12 in P's first-coordinate range, the per-case work
  of the slice formula on a `--grid-den 12` grid: one timed set slices one
  fresh copy of P at all its levels;
- compare_additive: `additivity.compare_additive_bodies(Q, R, Q + R)` on an
  equal pair, with the Minkowski-sum memo and any verdict memo cleared
  first: two boxes of 8 vertices in R^3 (the shape of the bodies of
  P^1 x P^1 x P^1) and two pentagons in R^2, Q + R taken beforehand as the
  hull of the vertex sums;
- slice_grid: `okounkov.slice_formula_checks(M, flag, ts)` warm, per t, for
  each case of `verify.SLICE_CONFIGS` on the grid of `verify --suite slices`
  (j/12, j/4 on three-folds) cut to the t where M - t O(Y_1) is ample; the
  bodies and star models are built by one call before timing, so a timed set
  is the per-t work of the suite's slice records.  The sets are the cases;
- body.cold.<testbed>: one cold `okounkov.body` per set, with the body memo
  emptied first and a new flag and divisor, as a one-shot `oklab body`
  request has them: a random ample class with ray coefficients in [0, 3]
  ([0, 2] on three-folds) on a random ordering of a random maximal cone.
  What a tree keeps per fan or per flag value stays, as it does across the
  requests of one process;
- cor15.<testbed>: one cold `inequalities.cor15_check(L, M, N)` per set, on
  a seeded nef triple drawn as `cor15_sweep` draws it (ray coefficients in
  [0, 4]), with the body memo and the corresponding-flag memo emptied first
  and new divisors, as in a fresh `intersection` batch of perfbench.  About
  one set in three takes the proof path, and its bodies are cold.
Each containment, witness and slice run takes a fresh copy of P, so
nothing an earlier run cached on the body (its edges) carries over.

The points are drawn like the `geometry` workload of perfbench: coordinates
in [0, 4] with denominators 1-4.  In one run, each of 200 sets is timed 3
times and keeps its fastest time, and a case takes the median of those
times over the sets, in ms and in units of a fixed kernel that runs none of
oklab's code (`median_kernels`).  One run per tree does not compare two
trees: on a shared host the speed phases moved a case's median up to 2x
between two consecutive runs of the same code, in ms and in kernels alike.
So each of RUNS rounds runs every source tree once, each run in a fresh
interpreter with the tree's `src` directory on PYTHONPATH; two trees
(repeat `--src` and `--label`, in the same order) alternate, and the order
flips every round, so the phases fall on both alike.  A case reports, per
tree, the median and quartiles of its RUNS run medians, and the run
medians themselves.  The results go to FILE (default BENCH_exactgeom.json
at the repo root) under `runs[NAME]`, next to the runs already there.
Standard library only.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import ceil, floor
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETS, ROUNDS, SEED, RUNS, REPEAT = 200, 3, 0, 5, 20
CASES = [("hull_volume.d2.n25", 2, 25), ("hull_volume.d2.n150", 2, 150),
         ("hull_volume.d3.n25", 3, 25), ("hull_volume.d3.n150", 3, 150),
         ("hull_volume.d3.n5", 3, 5), ("hull_volume.d3.box", 3, "box"),
         ("minkowski_sum.d3.n5_n5", 3, "sum"),
         ("mixed_volume.d3.n5_n30", 3, None), ("mixed_volume.d3.three_bodies", 3, "three"),
         ("contains.d2", 2, "slice"), ("contains.d3", 3, "slice"),
         ("contains.d3.rank2", 3, "plane slice"), ("first_outside.d3", 3, "witness"),
         ("compare_additive.d3.boxes", 3, "boxes"),
         ("compare_additive.d2.pentagons", 2, "pentagons"),
         ("slice_at.d2", 2, "grid"), ("slice_at.d3", 3, "grid"),
         ("slice_grid", None, "slice grid")]
# the cold-body and cor15 cases carry the testbed's name where the others carry a dimension
CASES += [(f"body.cold.{name}", name, "cold body")
          for name in ("p1", "p2", "p1xp1", "f1", "blpq-p2", "p3", "p1xp1xp1")]
CASES += [(f"cor15.{name}", name, "cor15")
          for name in ("p2", "p1xp1", "f1", "blpq-p2", "p3", "p1xp1xp1")]
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench_exactgeom; "
         "print(json.dumps(bench_exactgeom.time_cases()))")


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


def plane_points(rnd: random.Random, count: int) -> list[tuple]:
    """count points p0 + a u + b v on a random plane of R^3 (u, v integer
    and independent), a and b drawn like the coordinates of `random_points`."""
    while True:
        u, v = ([rnd.randint(-2, 2) for _ in range(3)] for _ in range(2))
        if any(u[i] * v[j] - u[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2))):
            break
    p0 = random_points(rnd, 3, 1)[0]
    return [tuple(x + a * y + b * z for x, y, z in zip(p0, u, v))
            for a, b in random_points(rnd, 2, count)]


def box_corners(rnd: random.Random, dim: int) -> list[tuple]:
    """The 2^dim corners of a random box with sides of nonzero length."""
    while True:
        lo, hi = random_points(rnd, dim, 2)
        if all(a != b for a, b in zip(lo, hi)):
            return list(product(*zip(lo, hi)))


def equal_pair(hull, rnd: random.Random, dim: int, shape: str) -> tuple:
    """(Q, R, Q + R) for two random boxes with 2^dim vertices, or two random
    pentagons (hulls of 6 points with 5 vertices); the sum is the hull of
    the vertex sums."""
    def body():
        if shape == "boxes":
            return hull(box_corners(rnd, dim))
        while len((pentagon := hull(random_points(rnd, dim, 6))).vertices) != 5:
            pass
        return pentagon

    q, r = body(), body()
    return q, r, hull([tuple(a + b for a, b in zip(u, v))
                       for u in q.vertices for v in r.vertices])


def time_case(exactgeom, dim: int, count: int | str | None, rnd: random.Random) -> dict:
    hull = exactgeom.Polytope.hull

    def fresh(body):
        return exactgeom.Polytope(body.dim, body.L, body.ipts, (
            body.k, body.rows, body.cols, body.facets, body._volume), _trusted=True)

    if count is None:  # two-body mixed volume
        inputs = [(hull(random_points(rnd, dim, 5)), hull(random_points(rnd, dim, 30)))
                  for _ in range(SETS)]

        def run(bodies):
            k_body, l_body = bodies
            for _ in range(REPEAT):
                exactgeom.minkowski_sum.cache_clear()
                exactgeom.mixed_volume([k_body, k_body, l_body])
            return REPEAT
    elif count == "box":  # the corners of a box
        inputs = [box_corners(rnd, dim) for _ in range(SETS)]

        def run(points):
            hull(points).volume()
    elif count == "sum":  # two bodies of 5 points
        inputs = [tuple(hull(random_points(rnd, dim, 5)) for _ in range(2)) for _ in range(SETS)]

        def run(bodies):
            exactgeom.minkowski_sum.cache_clear()
            exactgeom.minkowski_sum(*bodies)
    elif count == "three":  # three distinct bodies
        inputs = [tuple(hull(random_points(rnd, dim, 5)) for _ in range(3))
                  for _ in range(SETS)]

        def run(bodies):
            exactgeom.minkowski_sum.cache_clear()
            exactgeom.mixed_volume(bodies)
    elif count in ("slice", "plane slice"):  # a body and the {t} x slice it contains
        inputs = []
        for _ in range(SETS):
            body = hull(random_points(rnd, dim, 25) if count == "slice" else plane_points(rnd, 25))
            lo, hi = body.first_coordinate_range()
            t = lo + (hi - lo) * Fraction(rnd.randint(1, 7), 8)
            inputs.append((body, exactgeom.slice_at(body, t).embed_prefix(t)))

        def run(pair):
            body, inner = pair
            assert fresh(body).contains(inner)
    elif count == "grid":  # a body and its levels j/12
        inputs = []
        for _ in range(SETS):
            body = hull(random_points(rnd, dim, 25))
            lo, hi = body.first_coordinate_range()
            inputs.append((body, [Fraction(j, 12)
                                  for j in range(ceil(lo * 12), floor(hi * 12) + 1)]))

        def run(pair):
            body, ts = pair
            copy = fresh(body)
            for t in ts:
                exactgeom.slice_at(copy, t)
    elif count == "slice grid":  # the warm slice checks of each slice case, per t
        from oklab import okounkov, toric, verify

        inputs = []
        for name, cases in verify.SLICE_CONFIGS.items():
            fan = toric.testbed(name)
            den = 12 if fan.dim < 3 else 4
            for flag_rays, mco in cases:
                flag, m = toric.AdmissibleFlag(fan, flag_rays), toric.TDivisor(fan, mco)
                y1 = flag.divisor_of_y1()
                ts = [t for t in (Fraction(j, den) for j in range(ceil(toric.mu(fan, m, y1) * den)))
                      if fan.classes.is_ample((m - y1.scaled(t)).num_class[0])]
                okounkov.slice_formula_checks(m, flag, ts)
                inputs.append((m, flag, ts))

        def run(case):
            assert all(ok for ok, _ in okounkov.slice_formula_checks(*case))
            return len(case[2])
    elif count == "cold body":  # dim is the testbed's name
        from oklab import okounkov, toric

        fan, inputs = toric.testbed(dim), []
        while len(inputs) < SETS:
            coeffs = [rnd.randint(0, 2 if fan.dim >= 3 else 3) for _ in fan.rays]
            if fan.classes.is_ample(toric.TDivisor(fan, coeffs).num_class[0]):
                inputs.append((coeffs, tuple(rnd.sample(rnd.choice(fan.max_cones), fan.dim))))

        def run(case):
            okounkov._BODIES.clear()
            coeffs, rays = case
            okounkov.body(toric.TDivisor(fan, coeffs), toric.AdmissibleFlag(fan, rays))
    elif count == "cor15":  # dim is the testbed's name
        from oklab import inequalities, okounkov, toric

        fan = toric.testbed(dim)
        inputs = [[inequalities.random_nef_divisor(rnd, fan).ints for _ in range(3)]
                  for _ in range(SETS)]

        def run(triple):
            okounkov._BODIES.clear()
            inequalities._corresponding_flag.cache_clear()
            assert inequalities.cor15_check(*(toric.TDivisor(fan, c) for c in triple))["ok"]
    elif count == "witness":  # a body and a larger one with one vertex outside it
        takes_points = "points" in inspect.signature(exactgeom.Polytope.first_outside).parameters
        inputs = []
        for _ in range(SETS):
            body = hull(random_points(rnd, dim, 25))
            outside = (Fraction(5),) + random_points(rnd, dim - 1, 1)[0]
            inputs.append((body, hull(body.vertices + (outside,))))

        def run(pair):
            body, outer = pair
            assert fresh(body).first_outside(outer.vertices if takes_points else outer)
    elif count in ("boxes", "pentagons"):  # an equal additivity pair
        from oklab.additivity import compare_additive_bodies

        inputs = [equal_pair(hull, rnd, dim, count) for _ in range(SETS)]

        def run(bodies):
            exactgeom.minkowski_sum.cache_clear()
            getattr(compare_additive_bodies, "cache_clear", lambda: None)()  # a verdict memo
            assert compare_additive_bodies(*bodies).status == "equal"
    else:
        inputs = [random_points(rnd, dim, count) for _ in range(SETS)]

        def run(points):
            hull(points).volume()

    best, kernels = [float("inf")] * len(inputs), []
    for _ in range(ROUNDS):
        for i, item in enumerate(inputs):
            start = perf_counter()
            units = run(item) or 1  # a set that times several calls returns their count
            best[i] = min(best[i], (perf_counter() - start) / units)
            if i % 10 == 0:
                kernels.append(kernel_s())
    q2 = median(best)
    return {"median_ms": q2 * 1e3, "median_kernels": q2 / median(kernels)}


def time_cases() -> dict:
    """One run of every case on the oklab package that Python imports."""
    from oklab import exactgeom

    return {name: time_case(exactgeom, dim, count, random.Random(f"{SEED}:{name}"))
            for name, dim, count in CASES}


def run_tree(src: Path) -> dict:
    """`time_cases` in a fresh interpreter with src on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"run on {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="directory that holds the oklab package (repeatable)")
    parser.add_argument("--label", action="append", help="name of the run of each --src")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_exactgeom.json")
    args = parser.parse_args(argv)
    srcs = [p.resolve() for p in args.src or [ROOT / "src"]]
    labels = args.label or ["current"]
    if len(labels) != len(srcs):
        parser.error("give one --label per --src")

    runs = {label: [] for label in labels}
    for rnd in range(RUNS):
        trees = list(zip(labels, srcs))
        if rnd % 2:
            trees.reverse()
        for label, src in trees:
            cases = run_tree(src)
            runs[label].append(cases)
            print(f"run {rnd} {label}", flush=True)
            for name, case in cases.items():
                print(f"  {name:28s} median {case['median_ms']:9.4f} ms"
                      f" = {case['median_kernels']:7.3f} kernels", flush=True)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in labels:
        cases = {}
        for name, _, _ in CASES:
            ms = [r[name]["median_ms"] for r in runs[label]]
            kernels = [r[name]["median_kernels"] for r in runs[label]]
            q1, q2, q3 = quantiles(ms, n=4)
            cases[name] = {"median_ms": round(q2, 4), "q1_ms": round(q1, 4),
                           "q3_ms": round(q3, 4), "run_medians_ms": [round(x, 4) for x in ms],
                           "median_kernels": round(median(kernels), 3),
                           "run_medians_kernels": [round(x, 3) for x in kernels]}
        data.setdefault("runs", {})[label] = {
            "seed": SEED, "sets": SETS, "rounds": ROUNDS, "runs": RUNS,
            "alternated_with": [x for x in labels if x != label],
            "python": platform.python_version(), "machine": platform.machine(),
            "cases": cases}
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
