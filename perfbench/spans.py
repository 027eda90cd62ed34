"""Span tracing of oklab's public functions, installed from outside.

Each traced function is replaced by a wrapper in its defining module (or
class) and at every `from .x import name` binding site inside the oklab
package, so calls between layers are caught too.  Spans are aggregated
per (function, parent, phase) as they close, which keeps memory bounded:
a span's self time is its duration minus the time of its child spans,
including the tracing cost of those children.  The phase is set-up
(import and testbed construction) or requests; the per-function metrics
count request spans, and set-up gets metrics of its own.

A few functions also get an observer that records work counts measured
from their arguments and results.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from statistics import median
from time import perf_counter

# layer -> [(attribute path in oklab.<layer>, metric name)]
TRACED = {
    "linalg": [(n, n) for n in ("rref", "solve", "nullspace", "rank", "det_int")],
    "exactgeom": [("Polytope.hull", "hull"), ("minkowski_sum", "minkowski_sum"),
                  ("mixed_volume", "mixed_volume"), ("Polytope.volume", "volume"),
                  ("slice_at", "slice_at"), ("Polytope.contains", "contains")],
    "toric": [("Fan.__init__", "Fan")] + [(n, n) for n in (
        "polytope_of_divisor", "lattice_points_of_divisor", "face_lattice_tails",
        "intersection_number", "flag_corresponds", "star_model", "mu")],
    "okounkov": [(n, n) for n in (
        "no_body_rational", "nef_body", "restricted_body",
        "restriction_image_body", "slice_formula_check")],
    "additivity": [(n, n) for n in (
        "check_additivity", "compare_additive_bodies",
        "slice_decomposition_replay")],
    "inequalities": [(n, n) for n in (
        "cor15_check", "find_corresponding_flag", "lehmann_xiao_check",
        "lemma61_check", "decide_power_inequality")],
    "verify": [("run_suite", "run_suite")],
    "cli": [("main", "main")],
}

SETUP, REQUESTS = "<setup>", "<request>"

# per-call latency medians reported next to the seed-code baseline table
BASELINE_TESTBEDS = ("p1", "p2", "p3", "p1xp1", "p1xp1xp1", "f1", "blpq-p2")
MAX_SAMPLES = 100_000


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, fns in TRACED.items() for _, name in fns]


def latency_names() -> list[str]:
    return (["exactgeom.hull.d2.p50_ms", "exactgeom.hull.d3.p50_ms"]
            + [f"toric.intersection_number.{t}.p50_ms" for t in BASELINE_TESTBEDS]
            + [f"okounkov.no_body_rational.{t}.p50_ms" for t in BASELINE_TESTBEDS])


class Tracer:
    """Aggregating span recorder; inactive spans cost one attribute test."""

    def __init__(self):
        self.active = False
        self.stack = [[SETUP, 0.0]]  # [name, time spent in children]
        # (name, parent, phase) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.samples = defaultdict(list)  # (metric, tag) -> durations
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)

    def enter(self, root: str):
        self.stack = [[root, 0.0]]

    def wrap(self, name, fn, observe=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = perf_counter()
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer.stack.pop()
                parent = tracer.stack[-1]
                agg = tracer.spans[(name, parent[0], tracer.stack[0][0])]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                parent[1] += perf_counter() - outer
            if observe is not None:
                start = perf_counter()
                observe(tracer, args, kwargs, result, dur)
                parent[1] += perf_counter() - start
            return result

        return traced

    def sample(self, key, dur):
        bucket = self.samples[key]
        if len(bucket) < MAX_SAMPLES:
            bucket.append(dur)

    def seen_before(self, name, key) -> bool:
        bucket = self.seen[name]
        h = hash(key)
        if h in bucket:
            return True
        bucket.add(h)
        return False

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, _, phase), (n, _, s) in self.spans.items():
            calls[phase, name] += n
            self_s[phase, name] += s
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[REQUESTS, name]
            out[f"{name}.self_s"] = self_s[REQUESTS, name]
        out["setup.toric.Fan.calls"] = calls[SETUP, "toric.Fan"]
        out["setup.toric.Fan.self_s"] = self_s[SETUP, "toric.Fan"]
        out["setup.linalg.self_s"] = sum(
            s for (phase, name), s in self_s.items()
            if phase == SETUP and name.startswith("linalg."))
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out["exactgeom.hull.points_in"] = ratio("hull.points", "hull.calls")
        out["toric.lattice_points_of_divisor.points_out"] = c["lattice.points"]
        out["exactgeom.minkowski_sum.repeat_ratio"] = ratio("msum.repeat", "msum.calls")
        out["okounkov.no_body_rational.repeat_ratio"] = ratio("nobody.repeat", "nobody.calls")
        out["okounkov.no_body_rational.certified_ratio"] = ratio("nobody.exact", "nobody.calls")
        out["inequalities.cor15_check.proof_path_ratio"] = ratio("cor15.proof", "cor15.calls")
        for metric in latency_names():
            prefix, tag, _ = metric.rsplit(".", 2)
            durations = self.samples.get((prefix, tag))
            out[metric] = median(durations) * 1000 if durations else 0.0
        return out

    def top_spans(self, limit: int) -> list[tuple]:
        rows = [(s, n, total, name, parent)
                for (name, parent, phase), (n, total, s) in self.spans.items()
                if phase == REQUESTS]
        return sorted(rows, reverse=True)[:limit]


# -- observers: work counts measured at the call boundary ---------------------

def _observe_hull(tracer, args, kwargs, result, dur):
    tracer.counts["hull.calls"] += 1
    tracer.sample(("exactgeom.hull", f"d{result.dim}"), dur)


def _observe_lattice(tracer, args, kwargs, result, dur):
    tracer.counts["lattice.points"] += len(result)


def _observe_msum(tracer, args, kwargs, result, dur):
    p, q = args
    tracer.counts["msum.calls"] += 1
    if tracer.seen_before("msum", (p.dim, p.vertices, q.vertices)):
        tracer.counts["msum.repeat"] += 1


def _observe_no_body(tracer, args, kwargs, result, dur):
    divisor, flag = args[0], args[1]
    m_max = args[2] if len(args) > 2 else kwargs.get("m_max", 3)
    fan = divisor.fan
    tracer.counts["nobody.calls"] += 1
    tracer.counts["nobody.exact"] += bool(result.exact)
    key = (fan.rays, fan.max_cones, flag.ray_indices, divisor.coeffs, m_max)
    if tracer.seen_before("nobody", key):
        tracer.counts["nobody.repeat"] += 1
    tracer.sample(("okounkov.no_body_rational", fan.name), dur)


def _observe_intersection(tracer, args, kwargs, result, dur):
    tracer.sample(("toric.intersection_number", args[0].name), dur)


def _observe_cor15(tracer, args, kwargs, result, dur):
    tracer.counts["cor15.calls"] += 1
    tracer.counts["cor15.proof"] += result["proof_path"] is not None


OBSERVERS = {
    "exactgeom.hull": _observe_hull,
    "toric.lattice_points_of_divisor": _observe_lattice,
    "exactgeom.minkowski_sum": _observe_msum,
    "okounkov.no_body_rational": _observe_no_body,
    "toric.intersection_number": _observe_intersection,
    "inequalities.cor15_check": _observe_cor15,
}


def _counting_hull(tracer, hull):
    """Polytope.hull accepts any iterable; count its points without consuming it."""

    def hull_with_count(points, dim=None):
        if tracer.active:
            if not hasattr(points, "__len__"):
                points = list(points)
            tracer.counts["hull.points"] += len(points)
        return hull(points, dim=dim)

    return hull_with_count


def install(tracer: Tracer) -> None:
    """Wrap every function of TRACED that the loaded oklab defines."""
    package = {name: mod for name, mod in sys.modules.items()
               if name == "oklab" or name.startswith("oklab.")}
    for layer, fns in TRACED.items():
        module = package[f"oklab.{layer}"]
        for path, name in fns:
            metric = f"{layer}.{name}"
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue  # removed from the program: reported as zero calls
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if metric == "exactgeom.hull":
                fn = _counting_hull(tracer, fn)
            wrapper = tracer.wrap(metric, fn, OBSERVERS.get(metric))
            setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            if owner_name:
                continue
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)
