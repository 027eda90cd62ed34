"""Seeded request batches, request executors and verdict re-checks.

A workload is an endless seeded stream of request batches; each batch runs
in one fresh worker process.  A request is a plain JSON object, so the
benchmark generates batches and hands them to workers.  Rationals travel as
"n/d" strings.

Every batch draws a fixed number of requests per stratum (testbed, pool,
body size or command), and within a pool one request from each of equal
slices of the pool sorted by size, so that the cost of a batch varies
little from seed to seed.  The seed decides which members are drawn and
the order in which they are sent.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import count
from math import ceil, gcd
from pathlib import Path

from oklab import additivity, cli, inequalities, okounkov, toric, verify
from oklab.exactgeom import Polytope

# -- generator parameters (recorded in BASELINE.json) ----------------------

ADDITIVITY = {
    # pairs drawn from each theorem_sweep_pairs pool (testbed x flag spec)
    "pairs_per_pool": 6,
    # slice-formula and replay t-grid points drawn per testbed
    "slices_per_testbed": 3,
    "replays_per_testbed": 2,
    # On the three-folds a request's size is the largest lattice volume
    # p^d vol(P_D) among the classes it names (N1, N2 and N1+N2, or M and
    # the class at the slice t), where p clears the denominators of D; a
    # cold body costs roughly in proportion.  Requests above the cap are
    # left out: their cold bodies cost up to 25 s each, more than a run may
    # take.  Surface pools are drawn from in their suite order.
    "threefold_volume_cap": 200,
    "slice_grid_den": {"surface": 12, "threefold": 4},
}
INTERSECTION = {
    # cor15_check requests per batch, chosen so that the median falls among
    # the surfaces and the tail quantile inside the p3 requests rather than
    # where they meet the p1xp1xp1 ones
    "triples": {"p2": 8, "p1xp1": 8, "f1": 8, "blpq-p2": 8,
                "p3": 5, "p1xp1xp1": 3},
    # triples drawn per request, then stratified by the sum over the three
    # divisors of (coefficient sum)^dim, which grows with their lattice points
    "candidates_per_triple": 8,
    "coefficient_bound": 4,    # as cor15_sweep draws nef divisors
}
GEOMETRY = {
    # points per body (K, L, M) -> triples; 5 as in the lx suite, 30 as in
    # the 30-point hull baseline.  The seed permutes the roles K, L, M.  The
    # tail quantile falls among the 3D triples of 5-point bodies.
    "triples": {"2": {"5,5,5": 7, "5,5,30": 7, "5,30,30": 7, "30,30,30": 7},
                "3": {"5,5,5": 8, "5,5,30": 1}},
    "max_coord": 4,
    "denominators": [1, 2, 3, 4],  # as inequalities.random_polytope draws
}
QUERIES = {
    # distinct requests per batch for every testbed, or for each of d = 2, 3
    "per_testbed": {"body": 7, "intersect": 4, "mu": 3},
    "mixedvol_per_dim": 12,
    "class_bound": {"surface": 3, "threefold": 2},
    # every testbed these suites cover, once per batch
    "verify_suites": ["slices", "cor13"],
}


def _fr(x) -> str:
    return str(Fraction(x))


def _div(fan, values):
    return toric.TDivisor(fan, tuple(Fraction(v) for v in values))


def _lattice_volume(div) -> Fraction:
    den = 1
    for c in div.coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return toric.polytope_of_divisor(div.fan, div).volume() * den ** div.fan.dim


def _stratified(rnd, ordered, k):
    """One member from each of k equal slices of an ordered pool."""
    if len(ordered) <= k:
        return list(ordered)
    edges = [len(ordered) * i // k for i in range(k + 1)]
    return [ordered[rnd.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


def _t_grid(fan, m_div, flag, start):
    den = (ADDITIVITY["slice_grid_den"]["threefold"] if fan.dim >= 3
           else ADDITIVITY["slice_grid_den"]["surface"])
    endpoint = toric.mu(fan, m_div, flag.divisor_of_y1().cls)
    return [Fraction(k, den) for k in range(start, ceil(endpoint * den))
            if Fraction(k, den) < endpoint]


# -- generators --------------------------------------------------------------

def _additivity_strata() -> list[tuple[int, list]]:
    """(draws per batch, ordered pool) for every stratum, built once.

    Surface pools keep their suite order; three-fold pools are sized,
    capped and sorted by size.
    """
    volumes: dict = {}
    strata = []

    def add(fan, k, pool):
        name = fan.name
        if fan.dim >= 3:
            sized = []
            for divs, req in pool:
                for d in divs:
                    if (name, d.coeffs) not in volumes:
                        volumes[(name, d.coeffs)] = _lattice_volume(d)
                size = max(volumes[(name, d.coeffs)] for d in divs)
                if size <= ADDITIVITY["threefold_volume_cap"]:
                    sized.append((size, req))
            pool = sorted(sized, key=lambda p: p[0])
        strata.append((k, [req for _, req in pool]))

    for name, specs in verify.SWEEP_CONFIGS.items():
        fan = toric.testbed(name)
        for flag_rays, lco, mco in specs:
            cone = additivity.ConeCLM(_div(fan, lco), _div(fan, mco))
            add(fan, ADDITIVITY["pairs_per_pool"], [((n1, n2, n1 + n2), {
                "kind": "additivity", "testbed": name, "flag": list(flag_rays),
                "n1": [_fr(c) for c in n1.coeffs],
                "n2": [_fr(c) for c in n2.coeffs]})
                for (_, n1), (_, n2) in additivity.theorem_sweep_pairs(
                    cone, verify.DEFAULT_GRID)])
    for name, cases in verify.SLICE_CONFIGS.items():
        fan = toric.testbed(name)
        pool = []
        for flag_rays, mco in cases:
            flag = toric.AdmissibleFlag(fan, flag_rays)
            m_div = _div(fan, mco)
            for t in _t_grid(fan, m_div, flag, 0):
                shifted = m_div - flag.divisor_of_y1().scaled(t)
                if fan.classes.is_ample(shifted.cls):
                    pool.append(((m_div, shifted), {
                        "kind": "slice", "testbed": name,
                        "flag": list(flag_rays),
                        "m": [_fr(c) for c in mco], "t": _fr(t)}))
        add(fan, ADDITIVITY["slices_per_testbed"], pool)
    for name, cases in verify.REPLAY_CONFIGS.items():
        fan = toric.testbed(name)
        pool = []
        for flag_rays, lco, mco, (a1, b1), (a2, b2) in cases:
            flag = toric.AdmissibleFlag(fan, flag_rays)
            cone = additivity.ConeCLM(_div(fan, lco), _div(fan, mco))
            n1, n2 = cone.member(a1, b1), cone.member(a2, b2)
            for t in _t_grid(fan, n1 + n2, flag, 1):
                pool.append((
                    (n1, n2, n1 + n2 - flag.divisor_of_y1().scaled(t)),
                    {"kind": "replay", "testbed": name, "flag": list(flag_rays),
                     "l": [_fr(c) for c in lco], "m": [_fr(c) for c in mco],
                     "ab1": [_fr(a1), _fr(b1)], "ab2": [_fr(a2), _fr(b2)],
                     "t": _fr(t)}))
        add(fan, ADDITIVITY["replays_per_testbed"], pool)
    return strata


def additivity_batches():
    strata = _additivity_strata()

    def batch(rnd: random.Random) -> list[dict]:
        out = [req for k, pool in strata for req in _stratified(rnd, pool, k)]
        rnd.shuffle(out)
        return out

    return batch


def gen_intersection(rnd: random.Random) -> list[dict]:
    out = []
    for name, k in INTERSECTION["triples"].items():
        fan = toric.testbed(name)
        candidates = [[inequalities.random_nef_divisor(
            rnd, fan, INTERSECTION["coefficient_bound"]) for _ in range(3)]
            for _ in range(k * INTERSECTION["candidates_per_triple"])]
        candidates.sort(key=lambda ds: sum(sum(d.coeffs) ** fan.dim for d in ds))
        for divs in _stratified(rnd, candidates, k):
            out.append({"kind": "cor15", "testbed": name,
                        "lmn": [[_fr(c) for c in d.coeffs] for d in divs]})
    rnd.shuffle(out)
    return out


def _random_points(rnd, dim, count):
    pts = []
    for _ in range(count):
        pt = []
        for _ in range(dim):
            den = rnd.choice(GEOMETRY["denominators"])
            pt.append(_fr(Fraction(rnd.randint(0, GEOMETRY["max_coord"] * den), den)))
        pts.append(pt)
    return pts


def gen_geometry(rnd: random.Random) -> list[dict]:
    out = []
    for dim, patterns in GEOMETRY["triples"].items():
        for pattern, count in patterns.items():
            for _ in range(count):
                sizes = [int(n) for n in pattern.split(",")]
                rnd.shuffle(sizes)
                out.append({"kind": "lx", "dim": int(dim), "bodies": [
                    _random_points(rnd, int(dim), n) for n in sizes]})
    rnd.shuffle(out)
    return out


def _random_flag(rnd, fan):
    rays = list(rnd.choice(fan.max_cones))
    rnd.shuffle(rays)
    return rays


def _random_class(rnd, fan, bound, test):
    while True:
        coeffs = [rnd.randint(0, bound) for _ in fan.rays]
        if test(_div(fan, coeffs).cls):
            return coeffs


def gen_queries(rnd: random.Random) -> list[dict]:
    def bound(fan):
        return QUERIES["class_bound"]["threefold" if fan.dim >= 3 else "surface"]

    def csv(values):
        return ",".join(str(v) for v in values)

    def body(fan):
        cls = _random_class(rnd, fan, bound(fan), fan.classes.is_ample)
        return ["body", "--testbed", fan.name, "--class", csv(cls),
                "--flag", "cone:" + csv(_random_flag(rnd, fan))]

    def intersect(fan):
        classes = [_random_class(rnd, fan, bound(fan), fan.classes.is_nef)
                   for _ in range(fan.dim)]
        return ["intersect", "--testbed", fan.name,
                "--classes", ";".join(csv(c) for c in classes)]

    def mu(fan):
        cls = _random_class(rnd, fan, bound(fan), fan.classes.is_big)
        return ["mu", "--testbed", fan.name, "--class", csv(cls),
                "--flag", "cone:" + csv(_random_flag(rnd, fan))]

    def mixedvol(dim):
        bodies = [[[[Fraction(x).numerator, Fraction(x).denominator]
                    for x in pt] for pt in _random_points(rnd, dim, 5)]
                  for _ in range(dim)]
        return ["mixedvol", "--bodies", json.dumps(bodies)]

    makers = {"body": body, "intersect": intersect, "mu": mu}
    jobs = [(makers[kind], toric.testbed(name))
            for kind, k in QUERIES["per_testbed"].items()
            for name in toric.testbed_names() for _ in range(k)]
    jobs += [(mixedvol, dim) for dim in (2, 3)
             for _ in range(QUERIES["mixedvol_per_dim"])]
    seen: set = set()
    out = []
    for make, arg in jobs:
        argv = make(arg)
        while tuple(argv) in seen:
            argv = make(arg)
        seen.add(tuple(argv))
        out.append({"kind": "cli", "argv": argv})
    out += [{"kind": "cli", "argv": ["verify", "--suite", suite, "--testbed", name]}
            for suite in QUERIES["verify_suites"]
            for name in toric.testbed_names() if name in _suite_testbeds(suite)]
    rnd.shuffle(out)
    return out


def _suite_testbeds(suite):
    if suite == "slices":
        return set(verify.SLICE_CONFIGS)
    return set(verify.COR13_TESTBEDS) | set(verify.INJECTIVITY_PAIRS)


BATCHES = {
    "additivity": additivity_batches,
    "intersection": lambda: gen_intersection,
    "geometry": lambda: gen_geometry,
    "queries": lambda: gen_queries,
}


def batches(workload: str, seed: int):
    """The seeded stream of request batches of a workload."""
    make = BATCHES[workload]()
    for i in count():
        yield make(random.Random(f"{workload}:{seed}:{i}"))


# -- execution ---------------------------------------------------------------
#
# An executor runs one request against oklab's public entry points and
# returns a small summary; `check` re-checks the summary after the loop.
# Module attributes are looked up at call time so that a traced run sees
# its wrappers.

def run_request(req: dict, tmpdir: Path) -> dict:
    kind = req["kind"]
    if kind == "cli":
        out = tmpdir / "report.json"
        code = cli.main(req["argv"] + ["--out", str(out)])
        data = out.read_bytes() if code == 0 else b""
        out.unlink(missing_ok=True)
        return {"code": code, "report": data}
    if kind == "lx":
        bodies = [Polytope.hull([[Fraction(x) for x in p] for p in pts])
                  for pts in req["bodies"]]
        recs = [inequalities.lehmann_xiao_check(*bodies, k)
                for k in range(req["dim"] + 1)]
        return {"records": [(r.lhs, r.rhs, r.passed) for r in recs]}
    fan = toric.testbed(req["testbed"])
    if kind == "cor15":
        res = inequalities.cor15_check(*(_div(fan, c) for c in req["lmn"]))
        direct = res["direct"]
        return {"ok": res["ok"], "lhs": direct.lhs, "rhs": direct.rhs,
                "proof_path": res["proof_path"] is not None}
    flag = toric.AdmissibleFlag(fan, tuple(req["flag"]))
    if kind == "additivity":
        v = additivity.check_additivity(_div(fan, req["n1"]),
                                        _div(fan, req["n2"]), flag)
        return {"status": v.status, "witness": v.witness,
                "violated": v.violated,
                "volumes": (v.vol_n1, v.vol_n2, v.vol_sum_body)}
    if kind == "slice":
        ok, _ = okounkov.slice_formula_check(
            _div(fan, req["m"]), flag, Fraction(req["t"]))
        return {"ok": ok}
    if kind == "replay":
        cone = additivity.ConeCLM(_div(fan, req["l"]), _div(fan, req["m"]))
        n1 = cone.member(*(Fraction(x) for x in req["ab1"]))
        n2 = cone.member(*(Fraction(x) for x in req["ab2"]))
        ok, trace = additivity.slice_decomposition_replay(
            n1, n2, flag, cone, Fraction(req["t"]))
        return {"ok": ok, "case": trace["meta"]["case"],
                "steps": len(trace["steps"])}
    raise ValueError(f"unknown request kind {kind!r}")


def _strict_witness_holds(req: dict, summary: dict) -> bool:
    """Independent re-check of a strictness witness.

    The witness must break the reported halfspace (or affine equality) of
    body(N1) + body(N2), while every pairwise vertex sum satisfies it.
    """
    fan = toric.testbed(req["testbed"])
    flag = toric.AdmissibleFlag(fan, tuple(req["flag"]))
    normal, offset = summary["violated"]
    w = summary["witness"]

    def val(p):
        return sum((a * b for a, b in zip(normal, p)), Fraction(0))

    b1 = okounkov.no_body_rational(_div(fan, req["n1"]), flag).body
    b2 = okounkov.no_body_rational(_div(fan, req["n2"]), flag).body
    sums = [tuple(a + b for a, b in zip(u, v))
            for u in b1.vertices for v in b2.vertices]
    if val(w) > offset:
        return all(val(s) <= offset for s in sums)
    return val(w) != offset and all(val(s) == offset for s in sums)


def check(req: dict, summary: dict) -> tuple[bool, str]:
    """(passed, digest line) for one executed request."""
    kind = req["kind"]
    if kind == "cli":
        ok = summary["code"] == 0
        if ok:
            report = json.loads(summary["report"])
            ok = (report["summary"]["failed"] == 0
                  and all(r.get("pass", False) for r in report["checks"]))
        return ok, f"cli {summary['code']} " + hashlib.sha256(
            summary["report"]).hexdigest()
    if kind == "lx":
        ok = all(p for _, _, p in summary["records"])
        return ok, "lx " + " ".join(f"{a}<={b}" for a, b, _ in summary["records"])
    if kind == "cor15":
        return summary["ok"], (f"cor15 {summary['ok']} {summary['lhs']} "
                               f"{summary['rhs']} {summary['proof_path']}")
    if kind == "additivity":
        ok = summary["status"] == "equal"
        line = "additivity " + summary["status"] + " " + " ".join(
            str(v) for v in summary["volumes"])
        if summary["status"] == "strict":
            line += f" witness-holds={_strict_witness_holds(req, summary)}"
        return ok, line
    if kind == "slice":
        return summary["ok"], f"slice {summary['ok']}"
    if kind == "replay":
        return summary["ok"], (f"replay {summary['ok']} {summary['case']} "
                               f"{summary['steps']}")
    raise ValueError(f"unknown request kind {kind!r}")
